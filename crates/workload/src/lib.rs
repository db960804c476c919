//! Workload generation and experiment drivers.
//!
//! The paper's evaluation is qualitative; to quantify its claims (smart
//! negotiation raises availability and user satisfaction; adaptation keeps
//! documents playing through congestion) the experiments need populations
//! of users, arrival processes and repeatable simulation drivers. Those
//! live here so the bench binaries, the examples and the integration tests
//! all run the *same* experiment code.

pub mod adaptation;
pub mod blocking;
pub mod contended;
pub mod population;
pub mod scenario;

pub use adaptation::{
    run_adaptation, run_adaptation_explained, run_adaptation_with, AdaptationConfig,
    AdaptationResult,
};
pub use blocking::{
    run_blocking, run_blocking_explained, run_blocking_with, BlockingConfig, BlockingResult,
    NegotiatorKind,
};
pub use contended::{
    recover_contended, run_contended, run_contended_journaled, run_contended_with,
    write_contended_explains, ContendedConfig, ContendedResult,
};
pub use population::{UserClass, UserPopulation};
pub use scenario::Scenario;
