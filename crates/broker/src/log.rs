//! [`OutcomeLog`]: the chronological outcome log of a full-retention
//! drive, each event packed into 24 bytes.
//!
//! A packed event keeps the instant, the session as a `u32` (`u32::MAX`
//! is the fault-edge sentinel), a kind byte, and the kind's fields in one
//! wide and one narrow slot. The one kind that owns heap data,
//! [`OutcomeKind::Errored`], is stored once in a side list and the event
//! names its position; so is a retry whose attempt number does not fit
//! the narrow slot. Iterating the log gives back the [`OutcomeEvent`]s
//! that were pushed, in order.

use std::fmt;

use nod_qosneg::NegotiationStatus;

use crate::broker::{OutcomeEvent, OutcomeKind};

/// A session index an [`OutcomeLog`] cannot hold: session ids are `u32`,
/// and `u32::MAX` marks a fault edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionIdOverflow(pub usize);

impl fmt::Display for SessionIdOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "session {} does not fit the outcome log's u32 session ids",
            self.0
        )
    }
}

impl std::error::Error for SessionIdOverflow {}

/// The packed session id of a fault edge ([`OutcomeEvent::session`] is
/// `usize::MAX`).
const FAULT_EDGE_SESSION: u32 = u32::MAX;

// Kind bytes.
const ADMITTED: u8 = 0;
const RETRY: u8 = 1;
const STARVED: u8 = 2;
const REJECTED: u8 = 3;
const CONFIRMED: u8 = 4;
const DEPARTED: u8 = 5;
const FAULT_EDGE: u8 = 6;
/// The kind is in the side list, at the index in the wide slot.
const SIDE: u8 = 7;

/// The narrow slot holds values below this.
const NARROW_LIMIT: u32 = 1 << 24;

/// Every status, indexed by how a packed rejection stores it.
const STATUSES: [NegotiationStatus; 5] = [
    NegotiationStatus::Succeeded,
    NegotiationStatus::FailedWithOffer,
    NegotiationStatus::FailedTryLater,
    NegotiationStatus::FailedWithoutOffer,
    NegotiationStatus::FailedWithLocalOffer,
];

/// One event in 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packed {
    at_ms: u64,
    /// The kind's wide field: an admission's or starvation's attempt
    /// count, a retry's instant, a rejection's status, or a side-list
    /// index.
    wide: u64,
    session: u32,
    /// The kind byte, and above it the kind's narrow field: a retry's
    /// attempt number, or whether an admission was degraded.
    tag: u32,
}

/// The kind byte, wide field and narrow field of `kind`; `None` for a
/// kind kept in the side list.
fn pack(kind: &OutcomeKind) -> Option<(u8, u64, u32)> {
    Some(match *kind {
        OutcomeKind::Admitted { degraded, attempt } => {
            (ADMITTED, u64::from(attempt), u32::from(degraded))
        }
        OutcomeKind::RetryScheduled { at_ms, attempt } if attempt < NARROW_LIMIT => {
            (RETRY, at_ms, attempt)
        }
        OutcomeKind::Starved { attempts } => (STARVED, u64::from(attempts), 0),
        OutcomeKind::Rejected { status } => {
            let index = STATUSES.iter().position(|&s| s == status)?;
            (REJECTED, index as u64, 0)
        }
        OutcomeKind::Confirmed => (CONFIRMED, 0, 0),
        OutcomeKind::Departed => (DEPARTED, 0, 0),
        OutcomeKind::FaultEdge => (FAULT_EDGE, 0, 0),
        OutcomeKind::RetryScheduled { .. } | OutcomeKind::Errored { .. } => return None,
    })
}

/// The packed id of session index `i`; a fault edge's `usize::MAX` is
/// the sentinel `u32::MAX`, which no session may take.
pub(crate) fn session_id(i: usize) -> Result<u32, SessionIdOverflow> {
    match i {
        usize::MAX => Ok(FAULT_EDGE_SESSION),
        i => (u32::try_from(i).ok())
            .filter(|&s| s != FAULT_EDGE_SESSION)
            .ok_or(SessionIdOverflow(i)),
    }
}

/// A drive's chronological outcome log (the replay unit): two runs with
/// identical seed, specs and faults produce equal logs.
#[derive(Clone, Default, PartialEq)]
pub struct OutcomeLog {
    packed: Vec<Packed>,
    /// The kinds no packed event holds — every `Errored`, with its text —
    /// in log order.
    side: Vec<OutcomeKind>,
}

impl OutcomeLog {
    /// Append `event`. A session index of `u32::MAX` or more (other than
    /// a fault edge's `usize::MAX`) is refused, never truncated.
    pub fn push(&mut self, event: OutcomeEvent) -> Result<(), SessionIdOverflow> {
        let session = session_id(event.session)?;
        let (kind, wide, narrow) = pack(&event.kind).unwrap_or_else(|| {
            self.side.push(event.kind);
            (SIDE, (self.side.len() - 1) as u64, 0)
        });
        self.packed.push(Packed {
            at_ms: event.at_ms,
            wide,
            session,
            tag: u32::from(kind) | narrow << 8,
        });
        Ok(())
    }

    /// Events logged.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// `true` when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The events, in log order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = OutcomeEvent> + '_ {
        self.packed.iter().map(|p| self.unpack(p))
    }

    /// Drop the spare capacity growth left behind.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.packed.shrink_to_fit();
        self.side.shrink_to_fit();
    }

    fn unpack(&self, p: &Packed) -> OutcomeEvent {
        let narrow = p.tag >> 8;
        let kind = match p.tag as u8 {
            ADMITTED => OutcomeKind::Admitted {
                degraded: narrow != 0,
                attempt: p.wide as u32,
            },
            RETRY => OutcomeKind::RetryScheduled {
                at_ms: p.wide,
                attempt: narrow,
            },
            STARVED => OutcomeKind::Starved {
                attempts: p.wide as u32,
            },
            REJECTED => OutcomeKind::Rejected {
                status: STATUSES[p.wide as usize],
            },
            CONFIRMED => OutcomeKind::Confirmed,
            DEPARTED => OutcomeKind::Departed,
            FAULT_EDGE => OutcomeKind::FaultEdge,
            _ => self.side[p.wide as usize].clone(),
        };
        let session = match p.session {
            FAULT_EDGE_SESSION => usize::MAX,
            s => s as usize,
        };
        OutcomeEvent {
            at_ms: p.at_ms,
            session,
            kind,
        }
    }
}

impl fmt::Debug for OutcomeLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ms: u64, session: usize, kind: OutcomeKind) -> OutcomeEvent {
        OutcomeEvent {
            at_ms,
            session,
            kind,
        }
    }

    #[test]
    fn a_packed_event_is_24_bytes() {
        assert!(std::mem::size_of::<Packed>() <= 24);
    }

    #[test]
    fn every_kind_round_trips_in_order() {
        let errored = |text: &str| OutcomeKind::Errored {
            error: text.to_string(),
        };
        let mut events = vec![
            ev(
                0,
                0,
                OutcomeKind::Admitted {
                    degraded: false,
                    attempt: 1,
                },
            ),
            ev(
                1,
                7,
                OutcomeKind::Admitted {
                    degraded: true,
                    attempt: u32::MAX,
                },
            ),
            ev(
                2,
                1,
                OutcomeKind::RetryScheduled {
                    at_ms: u64::MAX - 1,
                    attempt: 3,
                },
            ),
            // An attempt past the narrow slot goes to the side list.
            ev(
                u64::MAX,
                1,
                OutcomeKind::RetryScheduled {
                    at_ms: u64::MAX,
                    attempt: u32::MAX,
                },
            ),
            ev(3, 2, OutcomeKind::Starved { attempts: 6 }),
            ev(4, 3, errored("unknown document 99")),
            ev(5, 4, errored("")),
            ev(6, 5, errored("unknown document 99")),
            ev(7, usize::MAX, OutcomeKind::FaultEdge),
            ev(8, 0, OutcomeKind::Confirmed),
            ev(9, (u32::MAX - 1) as usize, OutcomeKind::Departed),
        ];
        events.extend(STATUSES.map(|status| ev(10, 6, OutcomeKind::Rejected { status })));
        let mut log = OutcomeLog::default();
        for e in events.iter().cloned() {
            log.push(e).expect("every session fits");
        }
        assert_eq!(log.len(), events.len());
        assert_eq!(log.iter().collect::<Vec<_>>(), events);
        assert_eq!(format!("{log:?}"), format!("{events:?}"));
        // Three errors and one wide retry: the texts are stored once each.
        assert_eq!(log.side.len(), 4);
    }

    #[test]
    fn a_session_id_past_u32_is_refused_not_truncated() {
        let mut log = OutcomeLog::default();
        let sentinel = u32::MAX as usize;
        assert_eq!(
            log.push(ev(0, sentinel, OutcomeKind::Departed)),
            Err(SessionIdOverflow(sentinel))
        );
        // Past `u32::MAX`, where `usize` reaches that far.
        if let Some(past) = sentinel.checked_add(1).filter(|&p| p != usize::MAX) {
            assert_eq!(
                log.push(ev(0, past, OutcomeKind::Departed)),
                Err(SessionIdOverflow(past))
            );
        }
        assert!(log.is_empty());
    }
}
