//! Generic tail-based retention, shared with trace sampling.
//!
//! [`TailKeeper`] applies the exact retention decision of
//! [`Tracer::finish_session`] — keep 100% of failures, the top-k slowest
//! by a total `(duration, id)` order, and a seeded baseline hash sample —
//! to arbitrary per-session payloads (decision logs, today). Because the
//! decision is a pure function of `(policy, id, failed, duration)` and the
//! slow set is a total order, the retained set is **finish-order
//! independent**: the same sessions survive whatever order they finish
//! in, which is what lets `--explain-out` artifacts replay byte for byte.
//!
//! Memory is O(retained): non-retained payloads are dropped at the moment
//! their session finishes, not at drain time.
//!
//! [`Tracer::finish_session`]: crate::trace::Tracer::finish_session

use std::collections::{BTreeMap, BTreeSet};

use crate::trace::{splitmix64, RetentionPolicy, RetentionStats};

/// Tail-retains per-session payloads under a [`RetentionPolicy`].
#[derive(Debug)]
pub struct TailKeeper<T> {
    policy: RetentionPolicy,
    /// Retained payloads by session id (ordered, so [`TailKeeper::drain`]
    /// yields a deterministic sequence).
    items: BTreeMap<u64, T>,
    /// Sessions retained unconditionally (failed or baseline-sampled).
    pinned: BTreeSet<u64>,
    /// `(duration_us, id)` of the current top-k slowest.
    slow: BTreeSet<(u64, u64)>,
    stats: RetentionStats,
}

impl<T> TailKeeper<T> {
    /// An empty keeper under `policy`.
    pub fn new(policy: RetentionPolicy) -> Self {
        TailKeeper {
            policy,
            items: BTreeMap::new(),
            pinned: BTreeSet::new(),
            slow: BTreeSet::new(),
            stats: RetentionStats::default(),
        }
    }

    /// Report a finished session and its payload; the payload is retained
    /// or dropped now, per the policy. Mirrors
    /// [`Tracer::finish_session`](crate::trace::Tracer::finish_session)
    /// decision for decision, so a keeper fed the same `(id, failed,
    /// duration_us)` stream retains exactly the sessions the tracer does.
    pub fn finish(&mut self, id: u64, failed: bool, duration_us: u64, item: T) {
        self.finish_with(id, failed, duration_us, || item);
    }

    /// [`TailKeeper::finish`] with a lazily built payload: `make` runs
    /// only when the retention decision keeps the session, so on a fleet
    /// where most sessions are dropped the per-session cost is the
    /// decision itself, not payload construction.
    pub fn finish_with(
        &mut self,
        id: u64,
        failed: bool,
        duration_us: u64,
        make: impl FnOnce() -> T,
    ) {
        self.stats.finished += 1;
        let head = self.policy.sample_every > 0
            && splitmix64(id ^ self.policy.seed).is_multiple_of(self.policy.sample_every);
        if failed {
            self.stats.kept_failed += 1;
        } else if head {
            self.stats.kept_head += 1;
        }
        if failed || head {
            self.pinned.insert(id);
        }
        let evicted = if self.policy.top_k > 0 {
            self.slow.insert((duration_us, id));
            if self.slow.len() > self.policy.top_k {
                self.slow.pop_first()
            } else {
                None
            }
        } else {
            Some((duration_us, id))
        };
        // The session just reported survives iff it is pinned or still in
        // the slow set; only then is its payload built and stored.
        if self.pinned.contains(&id) || self.slow.contains(&(duration_us, id)) {
            self.items.insert(id, make());
        }
        if let Some((_, t)) = evicted {
            if !self.pinned.contains(&t) {
                self.stats.dropped += 1;
                self.items.remove(&t);
            }
        }
    }

    /// Retention totals so far (with `kept_slow` reflecting the current
    /// slow set, as [`Tracer::retention_stats`] reports it).
    ///
    /// [`Tracer::retention_stats`]: crate::trace::Tracer::retention_stats
    pub fn stats(&self) -> RetentionStats {
        let mut stats = self.stats;
        stats.kept_slow = self.slow.len();
        stats
    }

    /// Consume the keeper: retained payloads ascending by session id, plus
    /// the final totals.
    pub fn drain(self) -> (Vec<(u64, T)>, RetentionStats) {
        let mut stats = self.stats;
        stats.kept_slow = self.slow.len();
        (self.items.into_iter().collect(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(top_k: usize, sample_every: u64) -> RetentionPolicy {
        RetentionPolicy {
            top_k,
            sample_every,
            seed: 0,
            max_events_per_trace: 4_096,
        }
    }

    #[test]
    fn failures_always_survive() {
        let mut k = TailKeeper::new(policy(2, 0));
        for id in 0..100u64 {
            k.finish(id, id == 37, 100 - id, id);
        }
        let (items, stats) = k.drain();
        let ids: Vec<u64> = items.iter().map(|&(id, _)| id).collect();
        assert!(ids.contains(&37), "failed session dropped: {ids:?}");
        // Top-2 slowest are the two smallest ids (duration = 100 - id).
        assert!(ids.contains(&0) && ids.contains(&1));
        assert_eq!(stats.finished, 100);
        assert_eq!(stats.kept_failed, 1);
        assert_eq!(stats.kept_slow, 2);
        assert_eq!(stats.dropped as usize, 100 - ids.len());
    }

    #[test]
    fn head_sample_matches_the_tracer_hash() {
        let every = 8u64;
        let mut k = TailKeeper::new(policy(0, every));
        for id in 0..512u64 {
            k.finish(id, false, 0, ());
        }
        let (items, stats) = k.drain();
        for &(id, _) in &items {
            assert!(splitmix64(id).is_multiple_of(every));
        }
        assert_eq!(stats.kept_head as usize, items.len());
        assert!(!items.is_empty());
    }

    #[test]
    fn retained_set_is_finish_order_independent() {
        let run = |ids: &[u64]| {
            let mut k = TailKeeper::new(policy(4, 16));
            for &id in ids {
                k.finish(id, id % 10 == 3, id * 7 % 101, id);
            }
            k.drain()
        };
        let forward: Vec<u64> = (0..200).collect();
        let mut shuffled = forward.clone();
        shuffled.reverse();
        shuffled.rotate_left(17);
        let (a, sa) = run(&forward);
        let (b, sb) = run(&shuffled);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn memory_stays_bounded_by_retained() {
        let mut k = TailKeeper::new(policy(4, 0));
        for id in 0..10_000u64 {
            k.finish(id, false, id, vec![0u8; 64]);
        }
        // Only the slow set should be resident mid-run.
        assert_eq!(k.items.len(), 4);
    }
}
