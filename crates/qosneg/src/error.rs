//! The error surface of the negotiation API.
//!
//! A negotiation that runs ends in a [`NegotiationStatus`], never an
//! error: a refused step-5 walk is FAILEDTRYLATER with its
//! [`NegotiationOutcome::refusals`]. [`QosError`] is what a call can
//! return instead of an outcome — misuse: a document the catalog does not
//! hold, or a request that is malformed for its procedure.
//!
//! [`NegotiationStatus`]: crate::negotiate::NegotiationStatus
//! [`NegotiationOutcome::refusals`]: crate::negotiate::NegotiationOutcome

use nod_mmdoc::DocumentId;

use crate::negotiate::NegotiationError;

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
}

impl std::fmt::Display for QosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QosError::UnknownDocument(id) => write!(f, "unknown document {id}"),
            QosError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_meaning() {
        let e: QosError = NegotiationError::UnknownDocument(DocumentId(3)).into();
        assert_eq!(e, QosError::UnknownDocument(DocumentId(3)));
        let e: QosError = NegotiationError::InvalidProfile("bad".into()).into();
        assert!(matches!(e, QosError::InvalidRequest(ref msg) if msg == "bad"));
        assert!(!e.to_string().is_empty());
    }
}
