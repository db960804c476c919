//! The QoS negotiation procedure for distributed multimedia presentational
//! applications — the paper's primary contribution.
//!
//! Given a document (whose monomedia each exist in several stored
//! [`Variant`](nod_mmdoc::Variant)s) and a [`profile::UserProfile`], the
//! [`manager::QosManager`] runs the paper's six steps:
//!
//! 1. **Static local negotiation** ([`negotiate`]) — client capability check
//!    against the [`nod_client::ClientMachine`] model;
//! 2. **Static compatibility checking** — decoder/format filtering;
//! 3. **Computation of classification parameters** ([`sns`],
//!    [`importance`]) — static negotiation status and overall importance
//!    factor per system offer;
//! 4. **Classification of system offers** ([`mod@classify`]) — SNS primary,
//!    OIF secondary;
//! 5. **Resource commitment** — two-phase reservation against the
//!    [`nod_cmfs::ServerFarm`] and [`nod_netsim::Network`], walking the
//!    ordered offers;
//! 6. **User confirmation** ([`lifecycle`]) — the `choicePeriod` timer, one
//!    phase of the session lifecycle both the manager and the broker step.
//!
//! Supporting models: [`mapping`] (§6 user-QoS → network-QoS),
//! [`cost`] (§7 throughput-class cost tables and formula (1)),
//! [`offer`] (Definitions 1 and 2), [`adapt`] (the automatic adaptation
//! procedure), and [`baseline`] (the "existing approaches" the paper argues
//! against, used as experimental baselines).
//!
//! # The request/session API
//!
//! The unified entry point is a [`NegotiationRequest`] — a builder
//! bundling the document, profile, client, procedure, strategy,
//! recorder and explain flag — submitted
//! through a [`Session`] facade:
//!
//! ```
//! # use nod_qosneg::{ManagerConfig, NegotiationRequest, Procedure, QosManager};
//! # use nod_qosneg::profile::UserProfile;
//! # fn run(manager: &QosManager, client: &nod_client::ClientMachine,
//! #        doc: nod_mmdoc::DocumentId, profile: &UserProfile) {
//! let request = NegotiationRequest::new(client, doc, profile)
//!     .procedure(Procedure::Smart);
//! let outcome = manager.submit(&request);
//! # let _ = outcome;
//! # }
//! ```
//!
//! [`Session::submit`] dispatches on [`Procedure`] (the smart paper
//! procedure or one of the baselines), [`Session::submit_future`]
//! handles advance reservations (a `start_at` time plus an
//! [`AdvanceBook`]), and [`Session::submit_multidomain`] runs the
//! hierarchical variant. All errors surface as the single
//! [`QosError`] enum. A refused walk is no error but FAILEDTRYLATER,
//! and its [`NegotiationOutcome::refusals`] tell callers whether trying
//! again later can help: [`Attempt::of`] reads each record's
//! [`RefusalKind::transient`](explain::RefusalKind::transient) for the
//! `nod-broker` retry loop. The old deprecated free-function entry points
//! (`negotiate`, `negotiate_future`, `negotiate_multidomain`, and the
//! baselines) have been removed; the request/session API is the only
//! entry point.
//!
//! # Decision provenance
//!
//! Setting [`negotiate::NegotiationContext::explain`] records a
//! [`explain::DecisionLog`] on every outcome: score decomposition of the
//! top-k offers, every refused commit with its concrete
//! [`explain::Shortfall`], and the chosen offer's rank. See [`explain`].
//!
//! Step 5 walks the whole classified list: every enumerated offer stays
//! in the fallback chain, as the paper's "ordered set of system offers"
//! prescribes.

pub mod adapt;
pub mod baseline;
pub mod classify;
pub mod cost;
pub mod engine;
pub mod error;
pub mod explain;
pub mod future;
pub mod hierarchy;
pub mod importance;
pub mod lifecycle;
pub mod manager;
pub mod mapping;
pub mod money;
pub mod negotiate;
pub mod offer;
pub mod profile;
pub mod request;
pub mod sns;
pub mod startup;

pub use adapt::{AdaptationOutcome, AdaptationReason};
pub use classify::{classify, ClassificationStrategy, ScoredOffer};
pub use cost::{CostModel, CostTable};
pub use engine::{OfferEngine, RankedOffers};
pub use error::QosError;
pub use explain::{
    AdaptationRecord, DecisionLog, ExplainArtifact, ExplainData, ExplainMeta, RefusalRecord,
    ScoreRow, SessionExplain, Shortfall,
};
pub use future::{AdvanceBook, AdvanceBookingId, FutureOutcome};
pub use hierarchy::{Domain, MultiDomainConfig, MultiDomainOutcome};
pub use importance::ImportanceProfile;
pub use lifecycle::{
    Attempt, ConfirmationDecision, Effect, Input, Lifecycle, Phase, Reserved, Rules, SessionFate,
};
pub use manager::{ManagerConfig, QosManager};
pub use mapping::{map_requirements, NetworkQosSpec};
pub use money::Money;
pub use negotiate::{NegotiationOutcome, NegotiationStatus, SessionReservation};
pub use offer::{violated_components, OfferSet, SystemOffer, UserOffer};
pub use profile::{MmQosSpec, TimeProfile, UserProfile};
pub use request::{NegotiationRequest, Procedure, RetryPolicy, Session};
pub use sns::StaticNegotiationStatus;
