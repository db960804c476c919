//! The unified error surface of the negotiation API.
//!
//! Historically each entry point failed its own way: `negotiate`
//! returned [`NegotiationError`], enumeration surfaced
//! [`EnumerationError`], and step-5 refusals hid inside
//! [`NegotiationOutcome::commit_failures`]. [`QosError`] folds all three
//! vocabularies into one `#[non_exhaustive]` enum so callers — the
//! concurrent broker above all — can make one decision that matters under
//! contention: [`QosError::transient`], "would retrying later plausibly
//! succeed?".
//!
//! [`NegotiationError`]: crate::negotiate::NegotiationError
//! [`EnumerationError`]: crate::offer::EnumerationError
//! [`NegotiationOutcome::commit_failures`]: crate::negotiate::NegotiationOutcome

use nod_mmdoc::{DocumentId, MonomediaId};

use crate::negotiate::{CommitFailure, NegotiationError};
use crate::offer::EnumerationError;

/// Everything a negotiation request can fail with, across every entry
/// point. Non-exhaustive: downstream matches must carry a wildcard arm so
/// new failure modes can be added without breaking them.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum QosError {
    /// The requested document is not in the catalog.
    UnknownDocument(DocumentId),
    /// The user profile fails validation, or the request is malformed for
    /// the chosen procedure (e.g. advance booking without a start time).
    InvalidRequest(String),
    /// A monomedia has no variant the client can decode and reach.
    NoFeasibleVariant(MonomediaId),
    /// Offer enumeration exceeded the configured budget — a deployment
    /// configuration problem, not a negotiation status.
    TooManyOffers {
        /// The configured cap.
        cap: usize,
    },
    /// A resource refused the commitment (the step-5 refusal vocabulary).
    Commit(CommitFailure),
    /// The request's deadline passed before a terminal status was reached.
    DeadlineExceeded {
        /// Time spent, ms.
        elapsed_ms: u64,
        /// The configured deadline, ms.
        deadline_ms: u64,
    },
    /// The retry policy's attempt budget ran out (the broker's "starved"
    /// terminal state).
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
    },
}

impl QosError {
    /// Would retrying the same request later plausibly succeed?
    ///
    /// True exactly for load-dependent refusals — the resources said no
    /// *now* (the paper's FAILEDTRYLATER reading). Static failures (no
    /// decoder, invalid profile, startup physics, exhausted budgets) stay
    /// false: no amount of waiting changes them. The broker's retry
    /// decision consumes this predicate.
    pub fn transient(&self) -> bool {
        match self {
            QosError::Commit(f) => f.transient(),
            QosError::UnknownDocument(_)
            | QosError::InvalidRequest(_)
            | QosError::NoFeasibleVariant(_)
            | QosError::TooManyOffers { .. }
            | QosError::DeadlineExceeded { .. }
            | QosError::RetriesExhausted { .. } => false,
        }
    }
}

impl std::fmt::Display for QosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QosError::UnknownDocument(id) => write!(f, "unknown document {id}"),
            QosError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            QosError::NoFeasibleVariant(id) => {
                write!(f, "no feasible variant for monomedia {id}")
            }
            QosError::TooManyOffers { cap } => {
                write!(f, "system offer enumeration exceeded the cap of {cap}")
            }
            QosError::Commit(reason) => write!(f, "commitment refused: {reason}"),
            QosError::DeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms elapsed, {deadline_ms} ms allowed"
            ),
            QosError::RetriesExhausted { attempts } => {
                write!(f, "retries exhausted after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for QosError {}

impl From<NegotiationError> for QosError {
    fn from(e: NegotiationError) -> Self {
        match e {
            NegotiationError::UnknownDocument(id) => QosError::UnknownDocument(id),
            NegotiationError::InvalidProfile(msg) => QosError::InvalidRequest(msg),
        }
    }
}

impl From<EnumerationError> for QosError {
    fn from(e: EnumerationError) -> Self {
        match e {
            EnumerationError::NoFeasibleVariant(id) => QosError::NoFeasibleVariant(id),
            EnumerationError::TooManyOffers { cap } => QosError::TooManyOffers { cap },
        }
    }
}

impl From<CommitFailure> for QosError {
    fn from(f: CommitFailure) -> Self {
        QosError::Commit(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nod_mmdoc::ServerId;

    #[test]
    fn transient_follows_load_dependence() {
        assert!(QosError::from(CommitFailure::Server {
            server: ServerId(1)
        })
        .transient());
        assert!(QosError::from(CommitFailure::Network {
            server: ServerId(1)
        })
        .transient());
        assert!(QosError::from(CommitFailure::PathQos {
            server: ServerId(1)
        })
        .transient());
        assert!(!QosError::from(CommitFailure::DecodeBudget).transient());
        assert!(!QosError::from(CommitFailure::Startup {
            estimated_ms: 900,
            limit_ms: 500
        })
        .transient());
        assert!(!QosError::UnknownDocument(DocumentId(9)).transient());
        assert!(!QosError::RetriesExhausted { attempts: 5 }.transient());
    }

    #[test]
    fn conversions_preserve_meaning() {
        let e: QosError = NegotiationError::UnknownDocument(DocumentId(3)).into();
        assert_eq!(e, QosError::UnknownDocument(DocumentId(3)));
        let e: QosError = NegotiationError::InvalidProfile("bad".into()).into();
        assert!(matches!(e, QosError::InvalidRequest(msg) if msg == "bad"));
        let e: QosError = EnumerationError::TooManyOffers { cap: 7 }.into();
        assert_eq!(e, QosError::TooManyOffers { cap: 7 });
        let e: QosError = EnumerationError::NoFeasibleVariant(MonomediaId(2)).into();
        assert_eq!(e, QosError::NoFeasibleVariant(MonomediaId(2)));
        assert!(!e.to_string().is_empty());
    }
}
