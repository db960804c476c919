//! Discrete-event simulation kernel for the news-on-demand reproduction.
//!
//! Every stochastic experiment in the repository (blocking probability,
//! adaptation under congestion, capacity planning) runs on this kernel. The
//! design goals, in order:
//!
//! 1. **Determinism** — given a seed, a simulation is bit-for-bit
//!    reproducible. The event queue breaks ties on a monotone sequence
//!    number and all randomness flows from [`rng::SplitMix64`] /
//!    [`rng::StreamRng`].
//! 2. **Zero dependencies** — the kernel is `std`-only so the substrates
//!    built on it stay cheap to compile and easy to audit.
//! 3. **Observable** — [`stats`] provides online moments, percentile
//!    estimation and confidence intervals used by the experiment harnesses.
//!
//! # Quick example
//!
//! ```
//! use nod_simcore::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_millis(20), "second");
//! q.schedule(SimTime::from_millis(10), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_millis(10), "first"));
//! ```

pub mod event;
pub mod hash;
pub mod json;
pub mod ledger;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventQueue, Scheduled};
pub use hash::{IntHasher, IntMap};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use ledger::{BookingId, IntervalLedger};
pub use rng::{SplitMix64, StreamRng, ZipfSampler};
pub use stats::{Histogram, OnlineStats, Percentiles};
pub use time::{SimDuration, SimTime};
