//! Write-ahead journal of session transitions — crash-safe negotiation.
//!
//! The paper's procedure holds resources across long-lived protocol
//! states (a reservation through *choicePeriod*, a pending confirmation,
//! a retry backoff), and the broker's outcome log is already bit-exact
//! for a given (seed, specs, faults) triple. This module makes that
//! determinism durable: with [`FleetSpec::journal`](crate::FleetSpec)
//! set, [`Broker::drive`](crate::Broker::drive) appends every outcome —
//! admissions, retries, confirmations, departures, fault edges — to a
//! CRC-framed [`Journal`] as it happens, cuts a full engine snapshot
//! every [`JournalConfig::snapshot_every_events`] events, and (by
//! default) compacts the log past the snapshot horizon.
//!
//! # Record framing
//!
//! Every record is `[len: u32][crc32: u32][payload: len bytes]`, all
//! little-endian; the CRC (IEEE, as in gzip) covers the payload only.
//! The payload's first byte is the record type:
//!
//! | type | record    | payload |
//! |------|-----------|---------|
//! | 1    | header    | magic `NODJ`, version, seed, session count, spec hash |
//! | 2    | event     | `at_ms`, session, outcome kind + fields |
//! | 3    | snapshot  | tick, global event count, counters, finished results, live sessions (RNG state, attempts, held streams), pending event queue |
//!
//! A torn tail — a partial record from a crash mid-write, or any CRC
//! mismatch — truncates the journal at the last whole record; everything
//! before it is trusted, everything after is discarded.
//!
//! # Recovery
//!
//! [`Broker::recover`](crate::Broker::recover) validates the header
//! against the fleet it is given (same seed, same specs, same fault plan
//! — the spec hash catches a mismatched recovery attempt), rebuilds the
//! engine at the last complete snapshot (re-reserving every held stream
//! against the fresh farm/network at nominal health, then reapplying the
//! fault state for the snapshot tick), and **re-drives deterministically**:
//! each regenerated outcome is asserted byte-equal to the journaled
//! suffix and suppressed from the new report, and once the journal is
//! exhausted the engine simply goes live. The resumed run's outcome log
//! is therefore byte-identical to the uninterrupted run's tail — the
//! invariant the crash-recovery chaos harness gates on.
//!
//! # Write failures
//!
//! The first I/O error the backing file returns — on an append, a
//! compaction, a flush or a sync — is kept, and from then on the journal
//! leaves the file alone and carries on in memory. [`Journal::sync`]
//! reports it, so a full disk ends a drive with
//! [`BrokerReport::journal_error`](crate::BrokerReport::journal_error)
//! set instead of a panic, and a recovery with [`JournalError::Io`].

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use nod_cmfs::{Guarantee, StreamRequirement};
use nod_mmdoc::VariantId;
use nod_qosneg::NegotiationStatus;

use crate::broker::{OutcomeEvent, OutcomeKind};

/// Journal format version; bumped on any incompatible framing change.
const VERSION: u32 = 1;
const MAGIC: [u8; 4] = *b"NODJ";

const REC_HEADER: u8 = 1;
const REC_EVENT: u8 = 2;
const REC_SNAPSHOT: u8 = 3;

/// Exit code of the deliberate mid-run crash hook
/// ([`JournalConfig::crash_after_events`]) — distinguishable from a real
/// panic in the kill-and-recover CI smoke.
pub const CRASH_EXIT_CODE: i32 = 86;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, as used by gzip/zip) — hand-rolled, the
// workspace is dependency-free by design.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 of `bytes` (IEEE polynomial, reflected, init/xorout `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// FNV-1a over a byte stream — the spec-hash accumulator the header uses
/// to refuse recovery against a different fleet.
pub(crate) struct SpecHasher(u64);

impl SpecHasher {
    pub(crate) fn new() -> Self {
        SpecHasher(0xcbf2_9ce4_8422_2325)
    }
    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------
// Little-endian encode/decode helpers.
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Take<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Take<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Take { bytes, pos: 0 }
    }
    fn u8(&mut self) -> Result<u8, JournalError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(JournalError::Malformed("record payload short"))?;
        self.pos += 1;
        Ok(b)
    }
    fn u32(&mut self) -> Result<u32, JournalError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or(JournalError::Malformed("record payload short"))?;
        self.pos += 4;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, JournalError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 8)
            .ok_or(JournalError::Malformed("record payload short"))?;
        self.pos += 8;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or(JournalError::Malformed("record payload short"))?;
        self.pos += n;
        Ok(s)
    }
    /// A `u32` record count, and how many records to reserve for it: no
    /// more than the bytes left could hold at `min_bytes` apiece, so a
    /// corrupt count cannot ask for more memory than the payload spans.
    fn count(&mut self, min_bytes: usize) -> Result<(usize, usize), JournalError> {
        let n = self.u32()? as usize;
        Ok((n, n.min((self.bytes.len() - self.pos) / min_bytes)))
    }
    fn done(&self) -> Result<(), JournalError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(JournalError::Malformed("record payload long"))
        }
    }
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Why a journal could not be written, parsed or recovered from.
#[derive(Debug)]
pub enum JournalError {
    /// The backing file failed.
    Io(std::io::Error),
    /// The journal holds no complete header record — nothing to recover.
    NoHeader,
    /// The first record is not a `NODJ` header.
    BadMagic,
    /// The journal was written by an incompatible format version.
    BadVersion(u32),
    /// The journal was written for a different fleet (seed, specs,
    /// config or fault plan differ) — recovering against it would replay
    /// garbage.
    SpecMismatch {
        /// Hash stored in the journal header.
        journal: u64,
        /// Hash of the fleet recovery was asked to resume.
        fleet: u64,
    },
    /// A structurally invalid record inside the valid-CRC prefix.
    Malformed(&'static str),
    /// Recovery was invoked without a journal attached to the fleet.
    NoJournal,
    /// The resumed run did not regenerate the journaled suffix — the
    /// world `recover` was handed is not the one the journal was written
    /// against (the spec hash does not cover the farm or the network).
    ReplayDiverged {
        /// Global outcome-log index of the first journaled event the
        /// engine failed to reproduce.
        event: u64,
    },
    /// A stream the snapshot held could not be re-reserved on the world
    /// `recover` was handed; the text names the session and the refusal.
    RestoreFailed(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::NoHeader => write!(f, "journal holds no complete header record"),
            JournalError::BadMagic => write!(f, "not a NODJ journal"),
            JournalError::BadVersion(v) => write!(f, "unsupported journal version {v}"),
            JournalError::SpecMismatch { journal, fleet } => write!(
                f,
                "journal was written for a different fleet \
                 (journal spec hash {journal:#x}, fleet {fleet:#x})"
            ),
            JournalError::Malformed(what) => write!(f, "malformed journal record: {what}"),
            JournalError::NoJournal => {
                write!(f, "recover needs FleetSpec::journal to point at a journal")
            }
            JournalError::ReplayDiverged { event } => write!(
                f,
                "recovery replay diverged from the journal at outcome event {event}"
            ),
            JournalError::RestoreFailed(what) => {
                write!(f, "recovery could not re-reserve a held stream: {what}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Record payloads.
// ---------------------------------------------------------------------

/// The header record: enough identity to refuse a mismatched recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeaderRecord {
    pub seed: u64,
    pub sessions: u64,
    pub spec_hash: u64,
}

impl HeaderRecord {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(33);
        put_u8(&mut p, REC_HEADER);
        p.extend_from_slice(&MAGIC);
        put_u32(&mut p, VERSION);
        put_u64(&mut p, self.seed);
        put_u64(&mut p, self.sessions);
        put_u64(&mut p, self.spec_hash);
        p
    }

    fn decode(t: &mut Take<'_>) -> Result<Self, JournalError> {
        if t.bytes(4)? != MAGIC {
            return Err(JournalError::BadMagic);
        }
        let version = t.u32()?;
        if version != VERSION {
            return Err(JournalError::BadVersion(version));
        }
        let h = HeaderRecord {
            seed: t.u64()?,
            sessions: t.u64()?,
            spec_hash: t.u64()?,
        };
        t.done()?;
        Ok(h)
    }
}

fn encode_status(status: NegotiationStatus) -> u8 {
    match status {
        NegotiationStatus::Succeeded => 0,
        NegotiationStatus::FailedWithOffer => 1,
        NegotiationStatus::FailedTryLater => 2,
        NegotiationStatus::FailedWithoutOffer => 3,
        NegotiationStatus::FailedWithLocalOffer => 4,
        // `NegotiationStatus` is non_exhaustive; a new status must get a
        // tag here before it can be journaled.
        _ => unreachable!("unjournalable negotiation status {status:?}"),
    }
}

fn decode_status(tag: u8) -> Result<NegotiationStatus, JournalError> {
    Ok(match tag {
        0 => NegotiationStatus::Succeeded,
        1 => NegotiationStatus::FailedWithOffer,
        2 => NegotiationStatus::FailedTryLater,
        3 => NegotiationStatus::FailedWithoutOffer,
        4 => NegotiationStatus::FailedWithLocalOffer,
        _ => return Err(JournalError::Malformed("unknown negotiation status")),
    })
}

fn encode_event(payload: &mut Vec<u8>, at_ms: u64, session: usize, kind: &OutcomeKind) {
    put_u8(payload, REC_EVENT);
    put_u64(payload, at_ms);
    put_u64(payload, session as u64);
    match kind {
        OutcomeKind::Admitted { degraded, attempt } => {
            put_u8(payload, 0);
            put_u8(payload, *degraded as u8);
            put_u32(payload, *attempt);
        }
        OutcomeKind::RetryScheduled { at_ms, attempt } => {
            put_u8(payload, 1);
            put_u64(payload, *at_ms);
            put_u32(payload, *attempt);
        }
        OutcomeKind::Starved { attempts } => {
            put_u8(payload, 2);
            put_u32(payload, *attempts);
        }
        OutcomeKind::Rejected { status } => {
            put_u8(payload, 3);
            put_u8(payload, encode_status(*status));
        }
        OutcomeKind::Errored { error } => {
            put_u8(payload, 4);
            put_u32(payload, error.len() as u32);
            payload.extend_from_slice(error.as_bytes());
        }
        OutcomeKind::Confirmed => put_u8(payload, 5),
        OutcomeKind::Departed => put_u8(payload, 6),
        OutcomeKind::FaultEdge => put_u8(payload, 7),
    }
}

fn decode_event(t: &mut Take<'_>) -> Result<OutcomeEvent, JournalError> {
    let at_ms = t.u64()?;
    let session = t.u64()? as usize;
    let kind = match t.u8()? {
        0 => OutcomeKind::Admitted {
            degraded: t.u8()? != 0,
            attempt: t.u32()?,
        },
        1 => OutcomeKind::RetryScheduled {
            at_ms: t.u64()?,
            attempt: t.u32()?,
        },
        2 => OutcomeKind::Starved { attempts: t.u32()? },
        3 => OutcomeKind::Rejected {
            status: decode_status(t.u8()?)?,
        },
        4 => {
            let len = t.u32()? as usize;
            let bytes = t.bytes(len)?;
            OutcomeKind::Errored {
                error: String::from_utf8(bytes.to_vec())
                    .map_err(|_| JournalError::Malformed("error text not UTF-8"))?,
            }
        }
        5 => OutcomeKind::Confirmed,
        6 => OutcomeKind::Departed,
        7 => OutcomeKind::FaultEdge,
        _ => return Err(JournalError::Malformed("unknown outcome kind")),
    };
    t.done()?;
    Ok(OutcomeEvent {
        at_ms,
        session,
        kind,
    })
}

/// One held stream of a live session: enough to re-reserve it against a
/// fresh farm/network on recovery. Captured at commit time, only when a
/// journal is attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SnapHold {
    pub server: u64,
    pub req: StreamRequirement,
    /// Steady-state network bandwidth reserved along the client↔server
    /// route; `None` for discrete media (delivered ahead of playout).
    pub net_bps: Option<u64>,
}

/// A finished session inside a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapResult {
    pub session: u64,
    /// 0 admitted, 1 admitted degraded, 2 starved, 3 rejected, 4 errored.
    pub fate: u8,
    pub attempts: u32,
    /// `u64::MAX` = never admitted.
    pub admitted_at_ms: u64,
}

/// A live (slab-resident) session inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapSession {
    pub session: u64,
    pub attempts: u32,
    /// Saved per-session RNG `(state, gamma)`.
    pub rng: (u64, u64),
    /// 0 = none, 1 = pending non-degraded admit, 2 = pending degraded.
    pub pending_admit: u8,
    pub closed: bool,
    /// A reservation is held (possibly over zero streams).
    pub reserved: bool,
    pub holds: Vec<SnapHold>,
}

/// A pending dynamic-queue entry: `(at_us, kind, session)`, where kind
/// is 0 retry, 1 confirm, 2 departure, 3 inject-leak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapEvent {
    pub at_us: u64,
    pub kind: u8,
    pub session: u64,
}

/// A complete engine checkpoint, cut at a tick boundary: every event at
/// `tick ≤ at_ms` is fully processed, every pending event is strictly
/// later.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SnapshotState {
    pub at_ms: u64,
    /// Events journaled before this snapshot — the global log position
    /// the post-snapshot suffix starts at.
    pub events_logged: u64,
    pub retries: u64,
    pub backoff_ms_total: u64,
    pub faults_injected: u64,
    pub peak_live: u64,
    pub results: Vec<SnapResult>,
    /// Live sessions in spec-index order.
    pub live: Vec<SnapSession>,
    /// Pending dynamic events in delivery `(at, seq)` order.
    pub dynq: Vec<SnapEvent>,
}

impl SnapshotState {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(64 + 32 * (self.results.len() + self.live.len()));
        put_u8(&mut p, REC_SNAPSHOT);
        put_u64(&mut p, self.at_ms);
        put_u64(&mut p, self.events_logged);
        put_u64(&mut p, self.retries);
        put_u64(&mut p, self.backoff_ms_total);
        put_u64(&mut p, self.faults_injected);
        put_u64(&mut p, self.peak_live);
        put_u32(&mut p, self.results.len() as u32);
        for r in &self.results {
            put_u64(&mut p, r.session);
            put_u8(&mut p, r.fate);
            put_u32(&mut p, r.attempts);
            put_u64(&mut p, r.admitted_at_ms);
        }
        put_u32(&mut p, self.live.len() as u32);
        for s in &self.live {
            put_u64(&mut p, s.session);
            put_u32(&mut p, s.attempts);
            put_u64(&mut p, s.rng.0);
            put_u64(&mut p, s.rng.1);
            put_u8(&mut p, s.pending_admit);
            put_u8(&mut p, s.closed as u8);
            put_u8(&mut p, s.reserved as u8);
            put_u32(&mut p, s.holds.len() as u32);
            for h in &s.holds {
                put_u64(&mut p, h.server);
                put_u64(&mut p, h.req.variant.0);
                put_u64(&mut p, h.req.max_bit_rate);
                put_u64(&mut p, h.req.avg_bit_rate);
                put_u64(&mut p, h.req.max_block_bytes);
                put_u64(&mut p, h.req.avg_block_bytes);
                put_u32(&mut p, h.req.blocks_per_second);
                put_u8(
                    &mut p,
                    match h.req.guarantee {
                        Guarantee::Guaranteed => 0,
                        Guarantee::BestEffort => 1,
                    },
                );
                match h.net_bps {
                    Some(bps) => {
                        put_u8(&mut p, 1);
                        put_u64(&mut p, bps);
                    }
                    None => put_u8(&mut p, 0),
                }
            }
        }
        put_u32(&mut p, self.dynq.len() as u32);
        for e in &self.dynq {
            put_u64(&mut p, e.at_us);
            put_u8(&mut p, e.kind);
            put_u64(&mut p, e.session);
        }
        p
    }

    fn decode(t: &mut Take<'_>) -> Result<Self, JournalError> {
        let mut snap = SnapshotState {
            at_ms: t.u64()?,
            events_logged: t.u64()?,
            retries: t.u64()?,
            backoff_ms_total: t.u64()?,
            faults_injected: t.u64()?,
            peak_live: t.u64()?,
            ..SnapshotState::default()
        };
        // Smallest encodings: result 21 bytes, live session 35 (no holds),
        // hold 54, pending event 17.
        let (results, reserve) = t.count(21)?;
        snap.results.reserve(reserve);
        for _ in 0..results {
            snap.results.push(SnapResult {
                session: t.u64()?,
                fate: t.u8()?,
                attempts: t.u32()?,
                admitted_at_ms: t.u64()?,
            });
        }
        let (live, reserve) = t.count(35)?;
        snap.live.reserve(reserve);
        for _ in 0..live {
            let session = t.u64()?;
            let attempts = t.u32()?;
            let rng = (t.u64()?, t.u64()?);
            let pending_admit = t.u8()?;
            let closed = t.u8()? != 0;
            let reserved = t.u8()? != 0;
            let (nholds, reserve) = t.count(54)?;
            let mut holds = Vec::with_capacity(reserve);
            for _ in 0..nholds {
                let server = t.u64()?;
                let req = StreamRequirement {
                    variant: VariantId(t.u64()?),
                    max_bit_rate: t.u64()?,
                    avg_bit_rate: t.u64()?,
                    max_block_bytes: t.u64()?,
                    avg_block_bytes: t.u64()?,
                    blocks_per_second: t.u32()?,
                    guarantee: match t.u8()? {
                        0 => Guarantee::Guaranteed,
                        1 => Guarantee::BestEffort,
                        _ => return Err(JournalError::Malformed("unknown guarantee")),
                    },
                };
                let net_bps = match t.u8()? {
                    0 => None,
                    _ => Some(t.u64()?),
                };
                holds.push(SnapHold {
                    server,
                    req,
                    net_bps,
                });
            }
            snap.live.push(SnapSession {
                session,
                attempts,
                rng,
                pending_admit,
                closed,
                reserved,
                holds,
            });
        }
        let (dynq, reserve) = t.count(17)?;
        snap.dynq.reserve(reserve);
        for _ in 0..dynq {
            snap.dynq.push(SnapEvent {
                at_us: t.u64()?,
                kind: t.u8()?,
                session: t.u64()?,
            });
        }
        t.done()?;
        Ok(snap)
    }
}

// ---------------------------------------------------------------------
// The journal itself.
// ---------------------------------------------------------------------

/// Journal policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Cut a full engine snapshot after this many journaled events
    /// (0 = never snapshot; recovery then replays from the beginning).
    pub snapshot_every_events: u64,
    /// Drop everything before the newest snapshot when it is cut — the
    /// journal stays bounded by one snapshot interval instead of growing
    /// with the run.
    pub compact: bool,
    /// Chaos hook: flush and `std::process::exit(`[`CRASH_EXIT_CODE`]`)`
    /// immediately after journaling the N-th event — a deliberate,
    /// deterministic mid-run crash for the kill-and-recover smoke. Never
    /// set outside tests and the `run_contended --kill-at-event` flag.
    pub crash_after_events: Option<u64>,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            snapshot_every_events: 4_096,
            compact: true,
            crash_after_events: None,
        }
    }
}

/// Counters describing a journal's life so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Event records appended by this process.
    pub events_appended: u64,
    /// Snapshot records cut.
    pub snapshots: u64,
    /// Compactions performed (each rewrote the log to header + snapshot).
    pub compactions: u64,
    /// Current size of the journal, bytes.
    pub bytes: usize,
}

struct Inner {
    cfg: JournalConfig,
    /// The full current journal contents. Kept in memory so parsing,
    /// compaction and the chaos harness's byte-level truncation need no
    /// re-reads; compaction keeps it bounded by one snapshot interval.
    buf: Vec<u8>,
    /// Backing file, when the journal is durable. Appends are buffered;
    /// flushed at snapshots, compactions, crash hooks and [`Journal::sync`].
    file: Option<(PathBuf, BufWriter<File>)>,
    /// Frame bytes of the header record — re-emitted on compaction.
    header_frame: Vec<u8>,
    /// Events journaled since the last snapshot (or ever, before one).
    events_since_snapshot: u64,
    /// Events ever journaled, including compacted-away ones — the global
    /// log position of the next event.
    events_total: u64,
    stats: JournalStats,
    /// The first write failure; once set, `file` is `None`.
    error: Option<io::Error>,
}

impl Inner {
    /// Keep a write failure on `path` and stop touching the file.
    fn fail(&mut self, what: &str, path: &Path, e: io::Error) {
        self.file = None;
        let e = io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()));
        self.error.get_or_insert(e);
    }
}

/// A write-ahead journal of broker session transitions.
///
/// Attach one to a [`FleetSpec`](crate::FleetSpec::journal) to make
/// [`Broker::drive`](crate::Broker::drive) durable, and hand the same
/// (reopened) journal to [`Broker::recover`](crate::Broker::recover)
/// after a crash. Interior-mutable so the borrowed `FleetSpec` stays
/// `Clone`; the broker only ever appends from its one event loop.
pub struct Journal {
    inner: Mutex<Inner>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("Journal")
            .field("bytes", &inner.buf.len())
            .field("events_total", &inner.events_total)
            .field("durable", &inner.file.is_some())
            .finish()
    }
}

impl Journal {
    /// An in-memory journal (tests, benches, the chaos harness).
    pub fn in_memory(cfg: JournalConfig) -> Self {
        Journal::from_bytes(Vec::new(), cfg)
    }

    /// An in-memory journal over existing bytes — how the chaos harness
    /// replays a truncated (crashed) journal without touching disk.
    pub fn from_bytes(bytes: Vec<u8>, cfg: JournalConfig) -> Self {
        Journal {
            inner: Mutex::new(Inner {
                cfg,
                buf: bytes,
                file: None,
                header_frame: Vec::new(),
                events_since_snapshot: 0,
                events_total: 0,
                stats: JournalStats::default(),
                error: None,
            }),
        }
    }

    /// Create (truncating) a durable journal at `path`.
    pub fn create(path: impl AsRef<Path>, cfg: JournalConfig) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        let journal = Journal::from_bytes(Vec::new(), cfg);
        journal.lock().file = Some((path, BufWriter::new(file)));
        Ok(journal)
    }

    /// Open an existing durable journal at `path` for recovery; appends
    /// after recovery continue into the same file.
    pub fn open(path: impl AsRef<Path>, cfg: JournalConfig) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        let journal = Journal::from_bytes(bytes, cfg);
        journal.lock().file = Some((path, BufWriter::new(file)));
        Ok(journal)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A copy of the journal's current contents.
    pub fn bytes(&self) -> Vec<u8> {
        self.lock().buf.clone()
    }

    /// True when nothing has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.lock().buf.is_empty()
    }

    /// Life-so-far counters (events, snapshots, compactions, size).
    pub fn stats(&self) -> JournalStats {
        let inner = self.lock();
        let mut s = inner.stats;
        s.bytes = inner.buf.len();
        s
    }

    /// Events ever journaled, including compacted-away history — the
    /// global log position the next appended event will take.
    pub(crate) fn events_total(&self) -> u64 {
        self.lock().events_total
    }

    /// Flush buffered appends to the backing file, if any. An error is
    /// the first write failure the journal has met, now or earlier.
    pub fn sync(&self) -> Result<(), JournalError> {
        let mut inner = self.lock();
        if let Some((path, w)) = inner.file.as_mut() {
            if let Err(e) = w.flush() {
                let path = path.clone();
                inner.fail("flush to", &path, e);
            }
        }
        match &inner.error {
            None => Ok(()),
            Some(e) => Err(JournalError::Io(io::Error::new(e.kind(), e.to_string()))),
        }
    }

    /// Byte offsets just past each **event** record, in journal order —
    /// the chaos harness's menu of whole-record crash points. (Offsets
    /// past a compaction horizon index the *current* buffer.)
    pub fn event_record_ends(&self) -> Vec<usize> {
        let inner = self.lock();
        let mut ends = Vec::new();
        let mut pos = 0usize;
        while let Some((payload, next)) = next_frame(&inner.buf, pos) {
            if payload.first() == Some(&REC_EVENT) {
                ends.push(next);
            }
            pos = next;
        }
        ends
    }

    fn append_frame(inner: &mut Inner, payload: &[u8]) {
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(payload));
        frame.extend_from_slice(payload);
        inner.buf.extend_from_slice(&frame);
        if let Some((path, w)) = inner.file.as_mut() {
            if let Err(e) = w.write_all(&frame) {
                let path = path.clone();
                inner.fail("append to", &path, e);
            }
        }
    }

    /// Start a fresh journal: write the header record.
    ///
    /// # Panics
    /// Panics if the journal already has contents — resuming an existing
    /// journal goes through [`Broker::recover`](crate::Broker::recover).
    pub(crate) fn begin(&self, header: HeaderRecord) {
        let mut inner = self.lock();
        assert!(
            inner.buf.is_empty(),
            "Journal::begin on a non-empty journal; use Broker::recover to resume"
        );
        let payload = header.encode();
        Self::append_frame(&mut inner, &payload);
        inner.header_frame = inner.buf.clone();
    }

    /// Append one outcome event. Returns `true` when the snapshot
    /// cadence says the drive loop should cut a checkpoint at the next
    /// tick boundary.
    pub(crate) fn append_event(&self, at_ms: u64, session: usize, kind: &OutcomeKind) -> bool {
        let mut inner = self.lock();
        let mut payload = Vec::with_capacity(32);
        encode_event(&mut payload, at_ms, session, kind);
        Self::append_frame(&mut inner, &payload);
        inner.events_since_snapshot += 1;
        inner.events_total += 1;
        inner.stats.events_appended += 1;
        if inner.cfg.crash_after_events == Some(inner.stats.events_appended) {
            // The deliberate crash: leave whatever the OS has as the
            // journal (the buffered writer is flushed so the cut is at a
            // record boundary — torn writes are exercised separately by
            // byte-level truncation in the chaos harness).
            if let Some((_, w)) = inner.file.as_mut() {
                let _ = w.flush();
            }
            std::process::exit(CRASH_EXIT_CODE);
        }
        inner.cfg.snapshot_every_events > 0
            && inner.events_since_snapshot >= inner.cfg.snapshot_every_events
    }

    /// Append a snapshot record; with [`JournalConfig::compact`] the log
    /// is rewritten to `header + snapshot` (atomically, via temp file +
    /// rename, when durable).
    pub(crate) fn append_snapshot(&self, snap: &SnapshotState) {
        let mut inner = self.lock();
        let payload = snap.encode();
        if inner.cfg.compact {
            let mut frame = Vec::with_capacity(8 + payload.len());
            put_u32(&mut frame, payload.len() as u32);
            put_u32(&mut frame, crc32(&payload));
            frame.extend_from_slice(&payload);
            let mut compacted = inner.header_frame.clone();
            compacted.extend_from_slice(&frame);
            inner.buf = compacted;
            if let Some((path, w)) = inner.file.take() {
                drop(w); // discard buffered appends now folded into `buf`
                let rewrite = || -> std::io::Result<BufWriter<File>> {
                    let tmp = path.with_extension("journal.tmp");
                    std::fs::write(&tmp, &inner.buf)?;
                    std::fs::rename(&tmp, &path)?;
                    Ok(BufWriter::new(OpenOptions::new().append(true).open(&path)?))
                };
                match rewrite() {
                    Ok(w) => inner.file = Some((path, w)),
                    Err(e) => inner.fail("compaction of", &path, e),
                }
            }
            inner.stats.compactions += 1;
        } else {
            Self::append_frame(&mut inner, &payload);
            if let Some((path, w)) = inner.file.as_mut() {
                if let Err(e) = w.flush() {
                    let path = path.clone();
                    inner.fail("flush to", &path, e);
                }
            }
        }
        inner.events_since_snapshot = 0;
        inner.stats.snapshots += 1;
    }

    /// Parse for recovery: validate the header against `expect`, find the
    /// last complete snapshot and the event suffix after it, truncate any
    /// torn tail (in memory and on disk), and prime the append counters
    /// so the resumed run continues the same log.
    pub(crate) fn recover_state(
        &self,
        expect: HeaderRecord,
    ) -> Result<ParsedJournal, JournalError> {
        let mut inner = self.lock();
        let mut pos = 0usize;
        // Header first — a journal whose header never made it to disk is
        // unrecoverable (but the run never had any effects either).
        let (payload, next) = next_frame(&inner.buf, pos).ok_or(JournalError::NoHeader)?;
        let mut t = Take::new(payload);
        if t.u8()? != REC_HEADER {
            return Err(JournalError::NoHeader);
        }
        let header = HeaderRecord::decode(&mut t)?;
        if header.spec_hash != expect.spec_hash
            || header.seed != expect.seed
            || header.sessions != expect.sessions
        {
            return Err(JournalError::SpecMismatch {
                journal: header.spec_hash,
                fleet: expect.spec_hash,
            });
        }
        inner.header_frame = inner.buf[..next].to_vec();
        pos = next;

        let mut snapshot: Option<SnapshotState> = None;
        let mut tail: Vec<OutcomeEvent> = Vec::new();
        while let Some((payload, next)) = next_frame(&inner.buf, pos) {
            let mut t = Take::new(payload);
            match t.u8()? {
                REC_EVENT => tail.push(decode_event(&mut t)?),
                REC_SNAPSHOT => {
                    snapshot = Some(SnapshotState::decode(&mut t)?);
                    tail.clear();
                }
                REC_HEADER => return Err(JournalError::Malformed("duplicate header")),
                _ => return Err(JournalError::Malformed("unknown record type")),
            }
            pos = next;
        }
        // Anything past `pos` is a torn write: a partial frame or a CRC
        // mismatch. Drop it — the crash interrupted that record.
        let torn_bytes = inner.buf.len() - pos;
        if torn_bytes > 0 {
            inner.buf.truncate(pos);
            if let Some((path, w)) = inner.file.as_mut() {
                w.flush()?;
                w.get_ref().set_len(pos as u64)?;
                let _ = path; // reopened handle not needed: append continues at the new end
            }
        }
        let events_before = snapshot.as_ref().map(|s| s.events_logged).unwrap_or(0);
        inner.events_total = events_before + tail.len() as u64;
        inner.events_since_snapshot = tail.len() as u64;
        Ok(ParsedJournal {
            snapshot,
            tail,
            events_before,
            torn_bytes,
        })
    }
}

/// What [`Journal::recover_state`] found: the newest complete snapshot,
/// the journaled events after it, and where in the global log they sit.
#[derive(Debug)]
pub(crate) struct ParsedJournal {
    pub snapshot: Option<SnapshotState>,
    pub tail: Vec<OutcomeEvent>,
    /// Global index of the first `tail` event.
    pub events_before: u64,
    /// Bytes dropped off the end as a torn write.
    pub torn_bytes: usize,
}

/// The next whole, CRC-valid frame at `pos`, or `None` at a torn tail or
/// the journal end. Returns `(payload, next_pos)`.
fn next_frame(buf: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let head = buf.get(pos..pos + 8)?;
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    let payload = buf.get(pos + 8..pos + 8 + len)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, pos + 8 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn header() -> HeaderRecord {
        HeaderRecord {
            seed: 42,
            sessions: 7,
            spec_hash: 0xDEAD_BEEF,
        }
    }

    fn event(at_ms: u64, session: usize, kind: OutcomeKind) -> OutcomeEvent {
        OutcomeEvent {
            at_ms,
            session,
            kind,
        }
    }

    fn sample_events() -> Vec<OutcomeEvent> {
        vec![
            event(
                5,
                0,
                OutcomeKind::Admitted {
                    degraded: false,
                    attempt: 1,
                },
            ),
            event(
                6,
                1,
                OutcomeKind::RetryScheduled {
                    at_ms: 1_006,
                    attempt: 1,
                },
            ),
            event(7, usize::MAX, OutcomeKind::FaultEdge),
            event(
                8,
                2,
                OutcomeKind::Rejected {
                    status: NegotiationStatus::FailedWithoutOffer,
                },
            ),
            event(
                9,
                3,
                OutcomeKind::Errored {
                    error: "unknown document 99".into(),
                },
            ),
            event(10, 1, OutcomeKind::Starved { attempts: 6 }),
            event(11, 0, OutcomeKind::Confirmed),
            event(12, 0, OutcomeKind::Departed),
        ]
    }

    #[test]
    fn events_round_trip_through_the_frame_format() {
        let j = Journal::in_memory(JournalConfig {
            snapshot_every_events: 0,
            ..JournalConfig::default()
        });
        j.begin(header());
        for e in sample_events() {
            j.append_event(e.at_ms, e.session, &e.kind);
        }
        let parsed = j.recover_state(header()).expect("parses");
        assert_eq!(parsed.tail, sample_events());
        assert_eq!(parsed.events_before, 0);
        assert_eq!(parsed.torn_bytes, 0);
        assert!(parsed.snapshot.is_none());
    }

    #[test]
    fn torn_tails_truncate_at_the_last_whole_record() {
        let j = Journal::in_memory(JournalConfig::default());
        j.begin(header());
        for e in sample_events() {
            j.append_event(e.at_ms, e.session, &e.kind);
        }
        let bytes = j.bytes();
        let ends = j.event_record_ends();
        assert_eq!(ends.len(), sample_events().len());
        // Cut mid-record: between the 3rd and 4th record boundaries.
        let cut = ends[2] + 3;
        assert!(cut < ends[3]);
        let torn = Journal::from_bytes(bytes[..cut].to_vec(), JournalConfig::default());
        let parsed = torn.recover_state(header()).expect("parses");
        assert_eq!(parsed.tail, sample_events()[..3]);
        assert_eq!(parsed.torn_bytes, 3);
        // The torn bytes are dropped from the journal itself, so resumed
        // appends extend the valid prefix.
        assert_eq!(torn.bytes().len(), ends[2]);
    }

    #[test]
    fn corrupt_bytes_inside_a_record_also_truncate() {
        let j = Journal::in_memory(JournalConfig::default());
        j.begin(header());
        for e in sample_events() {
            j.append_event(e.at_ms, e.session, &e.kind);
        }
        let mut bytes = j.bytes();
        let ends = j.event_record_ends();
        // Flip a payload byte of the 5th event record.
        bytes[ends[3] + 12] ^= 0xFF;
        let parsed = Journal::from_bytes(bytes, JournalConfig::default())
            .recover_state(header())
            .expect("parses");
        assert_eq!(parsed.tail, sample_events()[..4]);
        assert!(parsed.torn_bytes > 0);
    }

    #[test]
    fn recovery_against_a_different_fleet_is_refused() {
        let j = Journal::in_memory(JournalConfig::default());
        j.begin(header());
        let other = HeaderRecord {
            spec_hash: 1,
            ..header()
        };
        assert!(matches!(
            j.recover_state(other),
            Err(JournalError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn an_empty_or_headerless_journal_cannot_recover() {
        let j = Journal::in_memory(JournalConfig::default());
        assert!(matches!(
            j.recover_state(header()),
            Err(JournalError::NoHeader)
        ));
        // A few garbage bytes (shorter than a frame head) are torn, not a header.
        let j = Journal::from_bytes(vec![1, 2, 3], JournalConfig::default());
        assert!(matches!(
            j.recover_state(header()),
            Err(JournalError::NoHeader)
        ));
    }

    fn sample_snapshot(events_logged: u64) -> SnapshotState {
        SnapshotState {
            at_ms: 1_234,
            events_logged,
            retries: 3,
            backoff_ms_total: 4_500,
            faults_injected: 1,
            peak_live: 5,
            results: vec![SnapResult {
                session: 0,
                fate: 0,
                attempts: 1,
                admitted_at_ms: 5,
            }],
            live: vec![SnapSession {
                session: 1,
                attempts: 2,
                rng: (0x1111, 0x2222 | 1),
                pending_admit: 2,
                closed: false,
                reserved: true,
                holds: vec![SnapHold {
                    server: 0,
                    req: StreamRequirement {
                        variant: VariantId(9),
                        max_bit_rate: 1_200_000,
                        avg_bit_rate: 600_000,
                        max_block_bytes: 6_000,
                        avg_block_bytes: 3_000,
                        blocks_per_second: 25,
                        guarantee: Guarantee::Guaranteed,
                    },
                    net_bps: Some(1_200_000),
                }],
            }],
            dynq: vec![SnapEvent {
                at_us: 2_000_000,
                kind: 1,
                session: 1,
            }],
        }
    }

    /// A journal of one header and one snapshot record whose payload is
    /// `payload`, framed with a valid CRC.
    fn journal_with(payload: &[u8]) -> Journal {
        let j = Journal::in_memory(JournalConfig::default());
        j.begin(header());
        let mut bytes = j.bytes();
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(payload));
        bytes.extend_from_slice(payload);
        Journal::from_bytes(bytes, JournalConfig::default())
    }

    #[test]
    fn an_inflated_record_count_is_malformed_not_an_allocation() {
        let mut payload = vec![REC_SNAPSHOT];
        for v in [1_234u64, 0, 0, 0, 0, 0] {
            put_u64(&mut payload, v);
        }
        put_u32(&mut payload, u32::MAX);
        assert!(matches!(
            journal_with(&payload).recover_state(header()),
            Err(JournalError::Malformed(_))
        ));
    }

    #[test]
    fn every_single_byte_mutation_of_a_snapshot_decodes_or_errors() {
        let mut snap = sample_snapshot(5);
        let discrete = SnapHold {
            net_bps: None,
            ..snap.live[0].holds[0]
        };
        snap.live[0].holds.push(discrete);
        let payload = snap.encode();
        for at in 1..payload.len() {
            for b in [0x00, 0x01, 0x7F, 0x80, 0xFF, payload[at] ^ 0x01] {
                let mut mutated = payload.clone();
                mutated[at] = b;
                // Either outcome is fine; a panic or an abort is not.
                let _ = SnapshotState::decode(&mut Take::new(&mutated[1..]));
            }
        }
    }

    #[test]
    fn snapshots_round_trip_and_bound_the_replay_suffix() {
        let j = Journal::in_memory(JournalConfig {
            compact: false,
            ..JournalConfig::default()
        });
        j.begin(header());
        let evs = sample_events();
        for e in &evs[..5] {
            j.append_event(e.at_ms, e.session, &e.kind);
        }
        j.append_snapshot(&sample_snapshot(5));
        for e in &evs[5..] {
            j.append_event(e.at_ms, e.session, &e.kind);
        }
        let parsed = j.recover_state(header()).expect("parses");
        assert_eq!(parsed.snapshot, Some(sample_snapshot(5)));
        assert_eq!(parsed.events_before, 5);
        assert_eq!(parsed.tail, evs[5..]);
    }

    #[test]
    fn compaction_drops_history_but_preserves_recovery() {
        let j = Journal::in_memory(JournalConfig {
            compact: true,
            ..JournalConfig::default()
        });
        j.begin(header());
        let evs = sample_events();
        // Enough history that the (larger) snapshot record still nets a
        // shrink when it replaces it.
        for _ in 0..20 {
            for e in &evs[..5] {
                j.append_event(e.at_ms, e.session, &e.kind);
            }
        }
        let before = j.bytes().len();
        j.append_snapshot(&sample_snapshot(100));
        assert!(
            j.bytes().len() < before,
            "compaction must shrink the journal"
        );
        for e in &evs[5..] {
            j.append_event(e.at_ms, e.session, &e.kind);
        }
        let parsed = j.recover_state(header()).expect("parses");
        assert_eq!(parsed.snapshot, Some(sample_snapshot(100)));
        assert_eq!(parsed.events_before, 100);
        assert_eq!(parsed.tail, evs[5..]);
        assert_eq!(j.stats().compactions, 1);
    }

    #[test]
    fn durable_journals_survive_a_reopen() {
        let dir = std::env::temp_dir().join(format!("nod_journal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.journal");
        {
            let j = Journal::create(
                &path,
                JournalConfig {
                    compact: false,
                    ..JournalConfig::default()
                },
            )
            .expect("create");
            j.begin(header());
            for e in sample_events() {
                j.append_event(e.at_ms, e.session, &e.kind);
            }
            j.sync().expect("sync");
        }
        let j = Journal::open(&path, JournalConfig::default()).expect("open");
        let parsed = j.recover_state(header()).expect("parses");
        assert_eq!(parsed.tail, sample_events());
        std::fs::remove_dir_all(&dir).ok();
    }
}
