//! A single file server with round-based admission control.

use nod_simcore::IntMap;
use std::cell::{OnceCell, RefCell};

use nod_mmdoc::{ServerId, VariantId};
use nod_obs::{Counter, Histogram, Recorder};

use crate::admission::{AdmissionError, StreamRequirement};
use crate::disk::DiskModel;

/// Handle to a committed reservation. A server issues them ascending
/// from 1 and never reuses one, so a larger id is a newer reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReservationId(pub u64);

/// Static configuration of one server machine.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Disk array model.
    pub disk: DiskModel,
    /// Round length, microseconds (the UBC server's scheduling quantum).
    pub round_us: u64,
    /// Fraction of the round usable for stream service (the rest absorbs
    /// scheduling slack and non-stream I/O).
    pub utilization_limit: f64,
    /// Network interface capacity, bits/s.
    pub interface_bps: u64,
    /// Maximum concurrent streams (buffer/descriptor budget).
    pub max_streams: usize,
}

impl ServerConfig {
    /// A period-typical server: 2-disk array, 500 ms rounds, 100 Mb/s
    /// interface, 64 stream slots.
    pub fn era_default() -> Self {
        ServerConfig {
            disk: DiskModel::era_default(2),
            round_us: 500_000,
            utilization_limit: 0.9,
            interface_bps: 100_000_000,
            max_streams: 64,
        }
    }
}

#[derive(Debug)]
struct ServerState {
    /// What each live reservation is charged, `(disk round µs, bits/s)`,
    /// and the variant it streams.
    reservations: IntMap<ReservationId, (u64, u64, VariantId)>,
    /// The last reservation id issued.
    last_id: u64,
    used_round_us: u64,
    used_bps: u64,
    /// Multiplier on effective capacity, `0.0..=1.0`. Below 1.0 the server
    /// is congested; reservations that no longer fit are *violated* (the
    /// adaptation trigger), not evicted.
    health: f64,
    /// Multiplier on the capacity offered to *new* admissions, `0.0..=1.0`.
    /// Unlike `health` it never violates already-committed streams: it
    /// models an operator draining a server or a control-plane brownout
    /// (the broker's slow-admission fault), where existing service is
    /// honored but new work is throttled or refused.
    admission_factor: f64,
}

/// A server's admission metrics, resolved when the recorder is attached.
#[derive(Debug)]
struct Metrics {
    rec: Recorder,
    accepted: Counter,
    paused: Counter,
    stream_limit: Counter,
    disk: Counter,
    interface: Counter,
    slack: Histogram,
}

impl Metrics {
    fn resolve(rec: Recorder, id: ServerId) -> Metrics {
        let server = format!("s{}", id.0);
        let server = server.as_str();
        let rejected = |reason| {
            let labels = [
                ("server", server),
                ("result", "rejected"),
                ("reason", reason),
            ];
            rec.counter_handle("cmfs.admission", &labels)
        };
        Metrics {
            accepted: rec.counter_handle(
                "cmfs.admission",
                &[("server", server), ("result", "accepted")],
            ),
            paused: rejected("paused"),
            stream_limit: rejected("stream_limit"),
            disk: rejected("disk"),
            interface: rejected("interface"),
            slack: rec.histogram_handle("cmfs.admit.disk_slack", &[("server", server)]),
            rec,
        }
    }

    /// Count an admission verdict and mark it in the active trace.
    fn verdict(&self, c: Counter) {
        self.rec.add(c, 1);
        self.rec.trace_point_key(c.key(), None);
    }
}

/// A continuous-media file server.
///
/// Single-threaded: the reservation table is a `RefCell`, so every method
/// takes `&self` and each `try_reserve` is one admission test and commit.
#[derive(Debug)]
pub struct FileServer {
    id: ServerId,
    config: ServerConfig,
    state: RefCell<ServerState>,
    /// Set-once observability hook; `None` keeps admission allocation-free.
    metrics: OnceCell<Metrics>,
}

impl FileServer {
    /// A server with the given configuration.
    ///
    /// # Panics
    /// Panics on a non-positive utilization limit or zero round length.
    pub fn new(id: ServerId, config: ServerConfig) -> Self {
        assert!(config.round_us > 0, "round length must be positive");
        assert!(
            config.utilization_limit > 0.0 && config.utilization_limit <= 1.0,
            "utilization limit must be in (0, 1]"
        );
        FileServer {
            id,
            config,
            state: RefCell::new(ServerState {
                reservations: IntMap::default(),
                last_id: 0,
                used_round_us: 0,
                used_bps: 0,
                health: 1.0,
                admission_factor: 1.0,
            }),
            metrics: OnceCell::new(),
        }
    }

    /// Attach an observability recorder (set-once; later calls are
    /// ignored). Admissions then count
    /// `cmfs.admission{server=…,result=…}` — rejections carry a `reason`
    /// label — and each accept records the remaining disk-round slack in
    /// the `cmfs.admit.disk_slack{server=…}` histogram.
    pub fn set_recorder(&self, recorder: Recorder) {
        if self.metrics.get().is_none() {
            let _ = self.metrics.set(Metrics::resolve(recorder, self.id));
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The static configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Disk round cost (µs) this requirement would be charged.
    pub fn round_cost_us(&self, req: &StreamRequirement) -> u64 {
        if !req.is_continuous() {
            return 0;
        }
        let blocks_per_round = req.blocks_per_second as f64 * self.config.round_us as f64 / 1e6;
        self.config
            .disk
            .stream_round_cost_us(req.charged_block_bytes(), blocks_per_round)
    }

    fn capacity_round_us(&self, health: f64) -> u64 {
        let raw = self.config.disk.round_capacity_us(self.config.round_us) as f64;
        (raw * self.config.utilization_limit * health) as u64
    }

    fn capacity_bps(&self, health: f64) -> u64 {
        (self.config.interface_bps as f64 * health) as u64
    }

    /// Attempt to admit a stream; on success the reservation is committed.
    ///
    /// Admission runs the round-schedule test against the *charged* block
    /// size (peak for guaranteed, average for best-effort) plus the
    /// interface bandwidth test against the charged bit rate.
    pub fn try_reserve(&self, req: StreamRequirement) -> Result<ReservationId, AdmissionError> {
        let mut st = self.state.borrow_mut();
        if st.admission_factor <= 0.0 {
            self.count_rejection(|m| m.paused);
            return Err(AdmissionError::AdmissionPaused);
        }
        if st.reservations.len() >= self.config.max_streams {
            self.count_rejection(|m| m.stream_limit);
            return Err(AdmissionError::StreamLimit {
                limit: self.config.max_streams,
            });
        }
        // New admissions see capacity scaled by both congestion (`health`)
        // and the drain throttle; existing reservations only feel `health`.
        let effective = st.health * st.admission_factor;
        let cost_us = self.round_cost_us(&req);
        let cap_us = self.capacity_round_us(effective);
        if st.used_round_us + cost_us > cap_us {
            self.count_rejection(|m| m.disk);
            return Err(AdmissionError::DiskSaturated {
                used_us: st.used_round_us,
                requested_us: cost_us,
                capacity_us: cap_us,
            });
        }
        let bps = req.charged_bit_rate();
        let cap_bps = self.capacity_bps(effective);
        if st.used_bps + bps > cap_bps {
            self.count_rejection(|m| m.interface);
            return Err(AdmissionError::InterfaceSaturated {
                used_bps: st.used_bps,
                requested_bps: bps,
                capacity_bps: cap_bps,
            });
        }
        st.last_id += 1;
        let id = ReservationId(st.last_id);
        st.used_round_us += cost_us;
        st.used_bps += bps;
        st.reservations.insert(id, (cost_us, bps, req.variant));
        if let Some(m) = self.metrics.get() {
            m.verdict(m.accepted);
            let slack = cap_us.saturating_sub(st.used_round_us) as f64 / cap_us.max(1) as f64;
            m.rec.record(m.slack, slack);
        }
        Ok(id)
    }

    fn count_rejection(&self, reason: impl FnOnce(&Metrics) -> Counter) {
        if let Some(m) = self.metrics.get() {
            m.verdict(reason(m));
        }
    }

    /// Release a reservation. Unknown ids are ignored (release is
    /// idempotent so rollback paths can be sloppy about double-release).
    pub fn release(&self, id: ReservationId) {
        let mut st = self.state.borrow_mut();
        if let Some((cost_us, bps, _)) = st.reservations.remove(&id) {
            st.used_round_us = st.used_round_us.saturating_sub(cost_us);
            st.used_bps = st.used_bps.saturating_sub(bps);
        }
    }

    /// Number of active reservations.
    pub fn active_streams(&self) -> usize {
        self.state.borrow().reservations.len()
    }

    /// The variant each active reservation streams, ascending.
    pub fn reserved_variants(&self) -> Vec<VariantId> {
        let st = self.state.borrow();
        let mut variants: Vec<VariantId> = st.reservations.values().map(|r| r.2).collect();
        variants.sort_unstable();
        variants
    }

    /// Fraction of disk round capacity currently reserved (at full health).
    pub fn disk_utilization(&self) -> f64 {
        let st = self.state.borrow();
        st.used_round_us as f64 / self.capacity_round_us(1.0).max(1) as f64
    }

    /// Fraction of interface bandwidth currently reserved (at full health).
    pub fn interface_utilization(&self) -> f64 {
        let st = self.state.borrow();
        st.used_bps as f64 / self.capacity_bps(1.0).max(1) as f64
    }

    /// Inject congestion: scale effective capacity to `health` ∈ [0, 1].
    ///
    /// # Panics
    /// Panics outside [0, 1].
    pub fn set_health(&self, health: f64) {
        assert!((0.0..=1.0).contains(&health), "health must be in [0,1]");
        self.state.borrow_mut().health = health;
    }

    /// Current health factor.
    pub fn health(&self) -> f64 {
        self.state.borrow().health
    }

    /// Throttle *new* admissions to `factor` ∈ [0, 1] of capacity without
    /// violating existing reservations (the slow-admission fault hook; 0
    /// refuses all new work). Contrast [`FileServer::set_health`], which
    /// also degrades committed streams.
    ///
    /// # Panics
    /// Panics outside [0, 1].
    pub fn set_admission_factor(&self, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "admission factor must be in [0,1]"
        );
        self.state.borrow_mut().admission_factor = factor;
    }

    /// Current admission throttle.
    pub fn admission_factor(&self) -> f64 {
        self.state.borrow().admission_factor
    }

    /// Disk round time currently reserved, µs (capacity-audit accessor).
    pub fn used_round_us(&self) -> u64 {
        self.state.borrow().used_round_us
    }

    /// Interface bandwidth currently reserved, bits/s (capacity-audit
    /// accessor).
    pub fn used_bps(&self) -> u64 {
        self.state.borrow().used_bps
    }

    /// Reservations that no longer fit the degraded capacity — the streams
    /// experiencing QoS violations. Victims are chosen newest-first (the
    /// server protects its oldest commitments), mirroring how an overloaded
    /// round schedule drops the most recently admitted work first.
    pub fn violated_reservations(&self) -> Vec<ReservationId> {
        let st = self.state.borrow();
        let cap_us = self.capacity_round_us(st.health);
        let cap_bps = self.capacity_bps(st.health);
        if st.used_round_us <= cap_us && st.used_bps <= cap_bps {
            return Vec::new();
        }
        let mut held: Vec<_> = (st.reservations.iter())
            .map(|(&id, &(cost_us, bps, _))| (id, (cost_us, bps)))
            .collect();
        held.sort_unstable_by_key(|&(id, _)| std::cmp::Reverse(id));
        let mut round = st.used_round_us;
        let mut bps = st.used_bps;
        let mut victims = Vec::new();
        for (id, (cost_us, charged_bps)) in held {
            if round <= cap_us && bps <= cap_bps {
                break;
            }
            round = round.saturating_sub(cost_us);
            bps = bps.saturating_sub(charged_bps);
            victims.push(id);
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Guarantee;
    use nod_mmdoc::VariantId;

    fn mpeg1_req(id: u64, guarantee: Guarantee) -> StreamRequirement {
        StreamRequirement {
            variant: VariantId(id),
            max_bit_rate: 15_000 * 8 * 25,
            avg_bit_rate: 6_000 * 8 * 25,
            max_block_bytes: 15_000,
            avg_block_bytes: 6_000,
            blocks_per_second: 25,
            guarantee,
        }
    }

    #[test]
    fn admits_until_disk_saturates() {
        let s = FileServer::new(ServerId(0), ServerConfig::era_default());
        let mut admitted = 0u32;
        loop {
            match s.try_reserve(mpeg1_req(admitted as u64, Guarantee::Guaranteed)) {
                Ok(_) => admitted += 1,
                Err(e) => {
                    assert!(matches!(e, AdmissionError::DiskSaturated { .. }));
                    break;
                }
            }
            assert!(admitted < 200, "admission never saturated");
        }
        // 2-disk era server, peak-charged MPEG-1: tens of streams.
        assert!((10..80).contains(&admitted), "admitted={admitted}");
        assert!(s.disk_utilization() > 0.7);
    }

    #[test]
    fn best_effort_admits_more_than_guaranteed() {
        let count = |g: Guarantee| {
            let s = FileServer::new(ServerId(0), ServerConfig::era_default());
            let mut n = 0u64;
            while s.try_reserve(mpeg1_req(n, g)).is_ok() {
                n += 1;
                if n > 500 {
                    break;
                }
            }
            n
        };
        let g = count(Guarantee::Guaranteed);
        let b = count(Guarantee::BestEffort);
        assert!(b > g, "best-effort ({b}) should out-admit guaranteed ({g})");
    }

    #[test]
    fn release_returns_capacity() {
        let s = FileServer::new(ServerId(0), ServerConfig::era_default());
        let ids: Vec<_> = (0..5)
            .map(|i| s.try_reserve(mpeg1_req(i, Guarantee::Guaranteed)).unwrap())
            .collect();
        let used = s.disk_utilization();
        assert!(used > 0.0);
        for id in &ids {
            s.release(*id);
        }
        assert_eq!(s.active_streams(), 0);
        assert_eq!(s.disk_utilization(), 0.0);
        assert_eq!(s.interface_utilization(), 0.0);
        // Idempotent release.
        s.release(ids[0]);
        assert_eq!(s.active_streams(), 0);
    }

    #[test]
    fn stream_limit_enforced() {
        let mut cfg = ServerConfig::era_default();
        cfg.max_streams = 3;
        let s = FileServer::new(ServerId(0), cfg);
        for i in 0..3 {
            s.try_reserve(mpeg1_req(i, Guarantee::BestEffort)).unwrap();
        }
        assert_eq!(
            s.try_reserve(mpeg1_req(9, Guarantee::BestEffort)),
            Err(AdmissionError::StreamLimit { limit: 3 })
        );
    }

    #[test]
    fn interface_saturation() {
        let mut cfg = ServerConfig::era_default();
        cfg.interface_bps = 2_000_000; // 2 Mb/s interface
        let s = FileServer::new(ServerId(0), cfg);
        // Peak 3 Mb/s guaranteed stream cannot fit the interface.
        let err = s
            .try_reserve(mpeg1_req(0, Guarantee::Guaranteed))
            .unwrap_err();
        assert!(matches!(err, AdmissionError::InterfaceSaturated { .. }));
        // The average-rate (1.2 Mb/s) best-effort variant does fit.
        assert!(s.try_reserve(mpeg1_req(0, Guarantee::BestEffort)).is_ok());
    }

    #[test]
    fn discrete_media_cost_nothing_on_disk_rounds() {
        let s = FileServer::new(ServerId(0), ServerConfig::era_default());
        let discrete = StreamRequirement {
            variant: VariantId(1),
            max_bit_rate: 80_000 * 8,
            avg_bit_rate: 0,
            max_block_bytes: 80_000,
            avg_block_bytes: 80_000,
            blocks_per_second: 0,
            guarantee: Guarantee::BestEffort,
        };
        s.try_reserve(discrete).unwrap();
        assert_eq!(s.disk_utilization(), 0.0);
    }

    #[test]
    fn congestion_creates_violations_newest_first() {
        let s = FileServer::new(ServerId(0), ServerConfig::era_default());
        let ids: Vec<_> = (0..10)
            .map(|i| s.try_reserve(mpeg1_req(i, Guarantee::Guaranteed)).unwrap())
            .collect();
        assert!(s.violated_reservations().is_empty());
        s.set_health(0.3);
        let victims = s.violated_reservations();
        assert!(!victims.is_empty());
        // Newest reservations are victimized first.
        assert_eq!(victims[0], *ids.last().unwrap());
        // Recovery clears violations.
        s.set_health(1.0);
        assert!(s.violated_reservations().is_empty());
    }

    #[test]
    fn violations_stay_newest_first_after_out_of_order_releases() {
        let s = FileServer::new(ServerId(0), ServerConfig::era_default());
        let mut live: Vec<_> = (0..12)
            .map(|i| s.try_reserve(mpeg1_req(i, Guarantee::Guaranteed)).unwrap())
            .collect();
        for gone in [live[7], live[3], live[0]] {
            s.release(gone);
            live.retain(|&id| id != gone);
        }
        for i in 12..14 {
            live.push(s.try_reserve(mpeg1_req(i, Guarantee::Guaranteed)).unwrap());
        }
        s.set_health(0.3);
        let victims = s.violated_reservations();
        assert!(!victims.is_empty() && victims.len() < live.len());
        // The newest survivors, newest first, and nothing released.
        let newest: Vec<_> = live.iter().rev().take(victims.len()).copied().collect();
        assert_eq!(victims, newest);
    }

    #[test]
    fn degraded_server_rejects_new_work() {
        let s = FileServer::new(ServerId(0), ServerConfig::era_default());
        s.set_health(0.0);
        assert!(s.try_reserve(mpeg1_req(0, Guarantee::BestEffort)).is_err());
    }

    #[test]
    fn admission_pause_refuses_new_work_without_violating_existing() {
        let s = FileServer::new(ServerId(0), ServerConfig::era_default());
        let held = s.try_reserve(mpeg1_req(0, Guarantee::Guaranteed)).unwrap();
        s.set_admission_factor(0.0);
        assert_eq!(
            s.try_reserve(mpeg1_req(1, Guarantee::Guaranteed)),
            Err(AdmissionError::AdmissionPaused)
        );
        // Unlike set_health(0.0), the committed stream is not violated.
        assert!(s.violated_reservations().is_empty());
        assert_eq!(s.active_streams(), 1);
        // Recovery restores admissions; audit accessors balance on release.
        s.set_admission_factor(1.0);
        assert!(s.try_reserve(mpeg1_req(2, Guarantee::Guaranteed)).is_ok());
        s.release(held);
        assert!(s.used_round_us() > 0);
        assert!(s.used_bps() > 0);
    }

    #[test]
    fn partial_admission_throttle_shrinks_new_capacity_only() {
        let s = FileServer::new(ServerId(0), ServerConfig::era_default());
        let mut admitted_full = 0u64;
        while s
            .try_reserve(mpeg1_req(admitted_full, Guarantee::Guaranteed))
            .is_ok()
        {
            admitted_full += 1;
            assert!(admitted_full < 500);
        }
        let throttled = FileServer::new(ServerId(1), ServerConfig::era_default());
        throttled.set_admission_factor(0.5);
        let mut admitted_half = 0u64;
        while throttled
            .try_reserve(mpeg1_req(admitted_half, Guarantee::Guaranteed))
            .is_ok()
        {
            admitted_half += 1;
            assert!(admitted_half < 500);
        }
        assert!(
            admitted_half < admitted_full,
            "throttle must shrink admissions ({admitted_half} vs {admitted_full})"
        );
        // Streams admitted under the throttle are within true capacity, so
        // none are violated.
        assert!(throttled.violated_reservations().is_empty());
    }

    #[test]
    fn concurrent_reservations_are_consistent() {
        // Eight clients' request streams, interleaved round-robin the way
        // the single drive loop serves them.
        let s = FileServer::new(ServerId(0), ServerConfig::era_default());
        let mut granted = 0usize;
        for i in 0..50 {
            for t in 0..8 {
                let req = mpeg1_req(t * 100 + i, Guarantee::Guaranteed);
                granted += usize::from(s.try_reserve(req).is_ok());
            }
        }
        assert_eq!(granted, s.active_streams());
        // Post-condition: never over capacity.
        assert!(s.disk_utilization() <= 1.0 + 1e-9);
    }
}
