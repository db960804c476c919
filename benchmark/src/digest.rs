//! The outcome digest: FNV-1a (64-bit) over what a run decided.
//!
//! Two runs print the same digest exactly when they told the same story
//! — every session's fate, attempt count and admission instant, plus the
//! aggregate counters. Timings never enter it.

use nod_broker::{BrokerReport, SessionFate};
use nod_qosneg::NegotiationOutcome;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a fleet run: per-session results in spec order, then the
/// aggregate counters. Independent of event retention, worker count and
/// observability channels — those must not change the story.
pub fn fleet_digest(report: &BrokerReport) -> u64 {
    let mut h = Fnv1a::default();
    for r in &report.results {
        h.u64(r.session as u64);
        h.u64(match r.fate {
            SessionFate::Admitted { degraded: false } => 0,
            SessionFate::Admitted { degraded: true } => 1,
            SessionFate::Starved => 2,
            SessionFate::Rejected => 3,
            SessionFate::Errored => 4,
        });
        h.u64(u64::from(r.attempts));
        h.u64(r.admitted_at_ms.map_or(u64::MAX, |t| t));
    }
    for v in [
        report.admitted as u64,
        report.degraded as u64,
        report.starved as u64,
        report.rejected as u64,
        report.errored as u64,
        report.retries,
        report.backoff_ms_total,
        report.faults_injected,
        report.leaked_streams as u64,
        report.peak_live_sessions as u64,
        report.latency.p99.to_bits(),
    ] {
        h.u64(v);
    }
    h.finish()
}

/// Fold one click negotiation into a running digest: its status, which
/// offer was reserved, how many offers were tried and where the streams
/// landed.
pub fn fold_outcome(h: &mut Fnv1a, outcome: &NegotiationOutcome) {
    h.bytes(outcome.status.to_string().as_bytes());
    h.u64(outcome.reserved_index.map_or(u64::MAX, |i| i as u64));
    h.u64(outcome.trace.offers_enumerated as u64);
    h.u64(outcome.trace.reservation_attempts as u64);
    if let Some(reservation) = &outcome.reservation {
        for (server, _) in &reservation.servers {
            h.u64(server.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.bytes(bytes);
        h.finish()
    }

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn order_and_content_both_matter() {
        let mut a = Fnv1a::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv1a::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv1a::default();
        c.u64(1);
        c.u64(2);
        assert_eq!(a.finish(), c.finish());
    }
}
