//! Differential conformance oracle for the QoS negotiation pipeline.
//!
//! Three pieces, per ISSUE 5:
//!
//! * [`mod@reference`] — a deliberately slow, paper-literal reference
//!   negotiator implemented straight from the HPDC-5 steps 1–6, sharing no
//!   engine/classify/negotiate code with `nod-qosneg`;
//! * [`scenario`] — a seeded scenario generator spanning the edge-case
//!   envelope (zero-variant components, equal-OIF ties, NaN-adjacent
//!   importances, cost-ceiling boundaries, capacity exactly-full) plus a
//!   `to_rust_literal` emitter for ready-to-paste repro tests;
//! * [`diff`] — the differential runner replaying each scenario through
//!   the reference and every optimized execution path (`Session::submit`,
//!   `QosManager`, single-session broker), comparing statuses,
//!   reserved offers, ordered-offer prefixes, CostDoc, and the post-run
//!   capacity ledger; and [`mod@shrink`] — a greedy scenario shrinker that
//!   reduces any divergence to a minimal repro.
//!
//! The gating entry point is the `run_oracle` binary (wired into
//! `scripts/check.sh`); the library surface exists so regression tests can
//! replay shrunk scenarios directly. [`explain_check`] extends the oracle
//! to the observability channel: decision logs must cite exactly the
//! refusal kinds, score decomposition and winning-offer rank the
//! reference observes, and the explained outcome must equal the plain one
//! (`run_oracle --explain-check`).

pub mod diff;
pub mod explain_check;
pub mod reference;
pub mod scenario;
pub mod shrink;

pub use diff::{run_differential, Divergence};
pub use explain_check::run_explain_crosscheck;
pub use reference::{reference_negotiate, RefContext, RefOutcome};
pub use scenario::Scenario;
pub use shrink::shrink;
