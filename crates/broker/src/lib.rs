//! Concurrent negotiation broker for the news-on-demand reproduction.
//!
//! The paper evaluates its negotiation procedure one session at a time;
//! a real news-on-demand service fields many concurrent requests whose
//! commitments race for the same servers and links. This crate closes
//! that gap:
//!
//! - [`Broker::drive`] runs a [`FleetSpec`]'s sessions — from a handful
//!   to a million — against one shared farm + network on a deterministic
//!   virtual-time event loop, interpreting each request's
//!   [`RetryPolicy`](nod_qosneg::RetryPolicy) — FAILEDTRYLATER refusals
//!   whose commit failures are load-dependent
//!   ([`CommitFailure::transient`](nod_qosneg::CommitFailure::transient))
//!   back off exponentially with seeded jitter and try again; admitted
//!   sessions hold resources for their document's duration and release
//!   them on departure, which is exactly what lets later retries succeed.
//!   Every attempt runs steps 1–5 on that one loop in exact event order
//!   — same seed, same outcome log. Live state sits in a recycled
//!   [`Slab`] arena sized by *peak concurrency*, not total volume, and
//!   [`EventRetention`] bounds what the report keeps at fleet scale.
//! - [`FaultPlan`] injects replayable degradations — server crashes,
//!   admission brownouts, link blackouts and capacity drops — over timed
//!   windows.
//! - [`Journal`] is a CRC-framed write-ahead log of session transitions
//!   appended from the drive loop ([`FleetSpec::journal`]), with periodic
//!   engine snapshots and log compaction; [`Broker::recover`] rebuilds
//!   the slab, ledgers, pending confirmations and retry queues from it
//!   and resumes driving with a byte-identical outcome log.
//! - [`CapacitySnapshot`] audits release-on-failure end to end: after a
//!   run drains, farm and network capacity must equal the pristine
//!   baseline, else `broker.leaked_reservations` fires (and a debug
//!   assertion trips).
//!
//! Observability flows through the context's
//! [`Recorder`](nod_obs::Recorder): `broker.retries`,
//! `broker.backoff_ms`, `broker.faults.injected`,
//! `broker.sessions.starved`, `broker.leaked_reservations` counters and
//! the `broker.admission_ratio` / `broker.peak_live_sessions` gauges.

mod audit;
mod broker;
mod fault;
mod fleet;
mod journal;
mod slab;
mod windows;

pub use audit::CapacitySnapshot;
pub use broker::{
    Broker, BrokerConfig, BrokerReport, OutcomeEvent, OutcomeKind, RecoveryReport, SessionFate,
    SessionResult, SessionSpec,
};
pub use fault::{Fault, FaultPlan, FaultWindow};
pub use fleet::{EventRetention, FleetSpec};
pub use journal::{crc32, Journal, JournalConfig, JournalError, JournalStats, CRASH_EXIT_CODE};
pub use slab::Slab;
pub use windows::{fleet_windows, FleetWindow, WindowAccumulator};
