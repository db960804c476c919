//! Write-ahead journal of session transitions — a broker run that outlives
//! its process.
//!
//! The paper's procedure holds resources across long-lived protocol states
//! (a reservation through *choicePeriod*, a pending confirmation, a retry
//! backoff), and a broker drive is a pure function of its (seed, specs,
//! faults). The journal keeps only what a replay cannot re-derive: with
//! [`FleetSpec::journal`](crate::FleetSpec) set,
//! [`Broker::drive`](crate::Broker::drive) appends one CRC-framed record
//! per outcome and cuts a snapshot of the live engine every
//! [`JournalConfig::snapshot_every_events`] events.
//!
//! # Records
//!
//! Every record is `[len: u32][crc32: u32][payload]`, little-endian; the
//! CRC (IEEE, as in gzip) covers the payload, whose first byte is the type:
//!
//! | type | record   | payload |
//! |------|----------|---------|
//! | 1    | header   | magic `NODJ`, version, seed, session count, spec hash |
//! | 2    | event    | 64-bit hash of `at_ms`, session, outcome kind and fields |
//! | 4    | terminal | the event's hash, then its session's result: id, fate, attempts, admission instant |
//! | 3    | snapshot | tick, event count, counters, live sessions (id, attempts, RNG, pending admission, closed, reserved offer index), pending events |
//!
//! The outcome that settles a session — an admission with no confirmation
//! pending, a confirmation, starvation, a rejection, an error — is a
//! terminal record, so each result is written once. A snapshot holds no
//! finished result and no held stream: its size follows the live
//! sessions. A torn tail — a partial record or a CRC mismatch — is cut at
//! the last whole record.
//!
//! # Recovery
//!
//! [`Broker::recover`](crate::Broker::recover) checks the header against
//! the fleet (the spec hash) and rebuilds the engine at the last snapshot:
//! the results of the terminal records before it, and its live sessions.
//! A held offer is re-derived, not read: steps 1–4 read only the catalog
//! and the static topology, so re-running them and materializing the
//! snapshot's offer index yields the committed offer, whose streams are
//! re-reserved at nominal health before the snapshot tick's fault state is
//! applied. The engine then re-drives: each regenerated outcome's hash must
//! equal the journaled one and the outcome is suppressed; past the
//! journal's end the run is live. Its outcome log is the uninterrupted
//! run's tail, byte for byte.
//!
//! # Compaction
//!
//! With [`JournalConfig::compact`], a snapshot rewrites the journal to
//! header + terminal records + that snapshot once the bytes appended since
//! the last rewrite are at least the bytes the rewrite keeps, and is
//! appended otherwise: each rewrite is paid for by the appends before it.
//! An in-memory journal slides the kept frames down inside its one
//! buffer; a durable one holds no frame in memory but the one being
//! written, and copies the kept frames from the file it replaces.
//!
//! # Durability
//!
//! The journal survives a **process crash**, not a power loss. Appends go
//! through a buffered writer flushed at snapshots, at the crash hook and by
//! [`Journal::sync`]; nothing calls `fsync`, and a compaction's temp file +
//! rename syncs neither the file nor its directory. The first write error
//! is kept and the file left alone from then on: [`Journal::sync`] reports
//! it, so a full disk ends a drive with
//! [`BrokerReport::journal_error`](crate::BrokerReport::journal_error) set
//! and a recovery with [`JournalError::Io`], not a panic.

use std::cell::RefCell;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::broker::{fate_index, OutcomeKind, SessionResult, FATES};

/// Journal format version; bumped on any incompatible framing change.
const VERSION: u32 = 2;
const MAGIC: [u8; 4] = *b"NODJ";

const REC_HEADER: u8 = 1;
const REC_EVENT: u8 = 2;
const REC_SNAPSHOT: u8 = 3;
const REC_TERMINAL: u8 = 4;

/// Exit code of the deliberate mid-run crash hook
/// ([`JournalConfig::crash_after_events`]) — distinguishable from a real
/// panic in the kill-and-recover CI smoke.
pub const CRASH_EXIT_CODE: i32 = 86;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, as used by gzip/zip) — hand-rolled, the
// workspace is dependency-free by design.
// ---------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` advances byte `b`'s CRC by `k` more zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 * 7 {
        let (k, b) = (i / 256 + 1, i % 256);
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize];
        i += 1;
    }
    t
}

/// CRC32 of `bytes` (IEEE polynomial, reflected, init/xorout `!0`), eight
/// bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ c as u64;
        c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(v >> (8 * k) & 0xFF) as usize]);
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// FNV-1a over a byte stream: the spec hash a header carries to refuse
/// recovery against a different fleet, and the hash an event record
/// carries for replay to compare against.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// The hash an event record carries: of `at_ms`, the session and the
/// outcome kind with its fields.
pub(crate) fn event_hash(at_ms: u64, session: usize, kind: &OutcomeKind) -> u64 {
    let mut h = Fnv::new();
    let (tag, a, b) = match kind {
        OutcomeKind::Admitted { degraded, attempt } => (0, *degraded as u64, *attempt as u64),
        OutcomeKind::RetryScheduled { at_ms, attempt } => (1, *at_ms, *attempt as u64),
        OutcomeKind::Starved { attempts } => (2, *attempts as u64, 0),
        OutcomeKind::Rejected { status } => (3, *status as u64, 0),
        OutcomeKind::Errored { error } => {
            h.bytes(error.as_bytes());
            (4, error.len() as u64, 0)
        }
        OutcomeKind::Confirmed => (5, 0, 0),
        OutcomeKind::Departed => (6, 0, 0),
        OutcomeKind::FaultEdge => (7, 0, 0),
    };
    for v in [at_ms, session as u64, tag, a, b] {
        h.u64(v);
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Little-endian encode/decode helpers.
// ---------------------------------------------------------------------

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
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or(JournalError::Malformed("record payload short"))?;
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.bytes(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, JournalError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, JournalError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
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
    /// A stream the snapshot held could not be re-derived or re-reserved
    /// on the world `recover` was handed; the text names the session and
    /// the refusal.
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
                write!(f, "recovery could not restore a held stream: {what}")
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
    fn encode(&self, p: &mut Vec<u8>) {
        p.push(REC_HEADER);
        p.extend_from_slice(&MAGIC);
        put_u32(p, VERSION);
        put_u64(p, self.seed);
        put_u64(p, self.sessions);
        put_u64(p, self.spec_hash);
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

/// A terminal record's result, in fixed width: session, fate (an index
/// into [`FATES`]), attempts, admission instant (`u64::MAX` = never).
fn encode_result(p: &mut Vec<u8>, r: &SessionResult) {
    put_u32(p, r.session as u32);
    p.push(fate_index(r.fate) as u8);
    put_u32(p, r.attempts);
    put_u64(p, r.admitted_at_ms.unwrap_or(u64::MAX));
}

fn decode_result(t: &mut Take<'_>) -> Result<SessionResult, JournalError> {
    Ok(SessionResult {
        session: t.u32()? as usize,
        fate: FATES
            .get(t.u8()? as usize)
            .ok_or(JournalError::Malformed("unknown session fate"))?
            .0,
        attempts: t.u32()?,
        admitted_at_ms: Some(t.u64()?).filter(|&at| at != u64::MAX),
    })
}

/// A live (slab-resident) session inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapSession {
    pub session: u32,
    pub attempts: u32,
    /// Saved per-session RNG `(state, gamma)`.
    pub rng: (u64, u64),
    pub phase: SnapPhase,
}

/// A live session's lifecycle phase, as a snapshot stores it. At a tick
/// boundary a live session is backing off, awaiting its confirmation or
/// held. Three bytes encode it — a pending admission (0 none, 1 in full,
/// 2 degraded), a closed flag and the reserved offer's index (`u32::MAX`
/// for none) — and a combination naming no phase is malformed. The phase's
/// instant is its pending event's; its reservation is re-derived from the
/// offer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapPhase {
    BackingOff,
    Awaiting { degraded: bool, offer: u32 },
    Held { offer: u32 },
}

/// Pending-event kinds of a snapshot's queue.
pub(crate) const PENDING_RETRY: u8 = 0;
pub(crate) const PENDING_CONFIRM: u8 = 1;
pub(crate) const PENDING_DEPARTURE: u8 = 2;
pub(crate) const PENDING_LEAK: u8 = 3;

/// A pending dynamic-queue entry: when it fires, its queue sequence
/// number (the same-tick tie-break), its kind (a `PENDING_*` tag) and its
/// session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapEvent {
    pub at_us: u64,
    pub seq: u64,
    pub kind: u8,
    pub session: u32,
}

/// A checkpoint of the live engine, cut at a tick boundary: every event
/// at `tick ≤ at_ms` is fully processed, every pending event is strictly
/// later. It is written in whatever order the slab and the queue hold it,
/// and decoded into the order recovery rebuilds it in.
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
    /// Live sessions; decoded in spec-index order.
    pub live: Vec<SnapSession>,
    /// Pending dynamic events; decoded in delivery `(at, seq)` order.
    pub dynq: Vec<SnapEvent>,
}

impl SnapshotState {
    fn encode(&self, p: &mut Vec<u8>) {
        p.reserve(57 + 30 * self.live.len() + 21 * self.dynq.len());
        p.push(REC_SNAPSHOT);
        put_u64(p, self.at_ms);
        put_u64(p, self.events_logged);
        put_u64(p, self.retries);
        put_u64(p, self.backoff_ms_total);
        put_u64(p, self.faults_injected);
        put_u64(p, self.peak_live);
        put_u32(p, self.live.len() as u32);
        for s in &self.live {
            put_u32(p, s.session);
            put_u32(p, s.attempts);
            put_u64(p, s.rng.0);
            put_u64(p, s.rng.1);
            let (pending, closed, offer) = match s.phase {
                SnapPhase::BackingOff => (0, 0, u32::MAX),
                SnapPhase::Awaiting { degraded, offer } => (1 + degraded as u8, 0, offer),
                SnapPhase::Held { offer } => (0, 1, offer),
            };
            p.extend_from_slice(&[pending, closed]);
            put_u32(p, offer);
        }
        put_u32(p, self.dynq.len() as u32);
        for e in &self.dynq {
            put_u64(p, e.at_us);
            put_u64(p, e.seq);
            p.push(e.kind);
            put_u32(p, e.session);
        }
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
        // Encodings: live session 30 bytes, pending event 21.
        let (live, reserve) = t.count(30)?;
        snap.live.reserve(reserve);
        for _ in 0..live {
            snap.live.push(SnapSession {
                session: t.u32()?,
                attempts: t.u32()?,
                rng: (t.u64()?, t.u64()?),
                phase: match (t.u8()?, t.u8()?, Some(t.u32()?).filter(|&v| v != u32::MAX)) {
                    (3.., ..) => return Err(JournalError::Malformed("unknown pending admission")),
                    (0, 0, None) => SnapPhase::BackingOff,
                    (pending @ (1 | 2), 0, Some(offer)) => SnapPhase::Awaiting {
                        degraded: pending == 2,
                        offer,
                    },
                    (0, 1, Some(offer)) => SnapPhase::Held { offer },
                    _ => return Err(JournalError::Malformed("snapshot session in no phase")),
                },
            });
        }
        let (dynq, reserve) = t.count(21)?;
        snap.dynq.reserve(reserve);
        for _ in 0..dynq {
            let e = SnapEvent {
                at_us: t.u64()?,
                seq: t.u64()?,
                kind: t.u8()?,
                session: t.u32()?,
            };
            if e.kind > PENDING_LEAK {
                return Err(JournalError::Malformed("unknown pending event"));
            }
            snap.dynq.push(e);
        }
        t.done()?;
        snap.live.sort_unstable_by_key(|s| s.session);
        snap.dynq.sort_unstable_by_key(|e| (e.at_us, e.seq));
        Ok(snap)
    }
}

// ---------------------------------------------------------------------
// The journal itself.
// ---------------------------------------------------------------------

/// Journal policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Cut a snapshot of the live engine after this many journaled events
    /// (0 = never snapshot; recovery then replays from the beginning).
    pub snapshot_every_events: u64,
    /// At a snapshot, rewrite the journal to header + terminal records +
    /// that snapshot once the appends since the last rewrite cover what
    /// it keeps — the journal then grows with the finished sessions, not
    /// with the events.
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
    /// Compactions performed (each rewrote the log to header + terminal
    /// records + snapshot).
    pub compactions: u64,
    /// Current size of the journal, bytes.
    pub bytes: usize,
}

struct Inner {
    cfg: JournalConfig,
    /// What the journal holds in memory: all of it when it has no file;
    /// with a file, only the frame being written, while the file holds
    /// the journal.
    buf: Vec<u8>,
    /// The backing file, when the journal is durable.
    path: Option<PathBuf>,
    /// Buffered appends to `path`, flushed at snapshots, crash hooks and
    /// [`Journal::sync`]; dropped at the first write failure.
    writer: Option<BufWriter<File>>,
    /// The journal's length, bytes.
    len: usize,
    /// Bytes of the header and of every terminal record.
    kept_bytes: usize,
    /// `len` after the last compaction (or the parse that resumed the
    /// journal); the bytes past it were appended since.
    compacted_len: usize,
    /// Events journaled since the last snapshot (or ever, before one).
    events_since_snapshot: u64,
    /// Events ever journaled, including compacted-away ones — the global
    /// log position of the next event.
    events_total: u64,
    stats: JournalStats,
    /// The first write failure; once set, `writer` is `None`.
    error: Option<io::Error>,
}

impl Inner {
    /// Keep a write failure and stop touching the file.
    fn fail(&mut self, what: &str, e: io::Error) {
        self.writer = None;
        let path = self.path.as_deref().unwrap_or(Path::new("")).display();
        let e = io::Error::new(e.kind(), format!("{what} {path}: {e}"));
        self.error.get_or_insert(e);
    }

    /// Frame the payload `encode` writes onto the end of `buf`; returns
    /// where the frame starts.
    fn frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        encode(&mut self.buf);
        let len = (self.buf.len() - start - 8) as u32;
        let crc = crc32(&self.buf[start + 8..]);
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        start
    }

    /// Append the frame at `buf[start..]` to the journal; `kept` when a
    /// compaction keeps it. Only a journal without a file keeps it in
    /// memory.
    fn append(&mut self, start: usize, kept: bool) {
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.write_all(&self.buf[start..]) {
                self.fail("append to", e);
            }
        }
        self.len += self.buf.len() - start;
        if kept {
            self.kept_bytes += self.buf.len() - start;
        }
        if self.path.is_some() {
            self.buf.truncate(start);
        }
    }

    fn flush(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.flush() {
                self.fail("flush to", e);
            }
        }
    }

    /// Rewrite the journal to its header and terminal records plus the
    /// snapshot frame at `buf[snapshot..]`: in place in memory, or — when
    /// durable — by copying the kept frames from the file into a temp
    /// file renamed over it.
    fn compact(&mut self, snapshot: usize) {
        let snapshot_len = self.buf.len() - snapshot;
        if self.path.is_none() {
            let kept = keep_frames_in_place(&mut self.buf[..snapshot]);
            self.buf.copy_within(snapshot.., kept);
            self.buf.truncate(kept + snapshot_len);
        } else if let Some(w) = self.writer.take() {
            let path = self
                .path
                .clone()
                .expect("a journal with a writer has a file");
            let tmp = path.with_extension("journal.tmp");
            let frame = &self.buf[snapshot..];
            let rewrite = || -> io::Result<BufWriter<File>> {
                // The file must hold every appended frame before it is read.
                drop(w.into_inner().map_err(io::IntoInnerError::into_error)?);
                let mut out = BufWriter::new(File::create(&tmp)?);
                copy_kept_frames(&mut BufReader::new(File::open(&path)?), &mut out)?;
                out.write_all(frame)?;
                drop(out.into_inner().map_err(io::IntoInnerError::into_error)?);
                std::fs::rename(&tmp, &path)?;
                Ok(BufWriter::new(OpenOptions::new().append(true).open(&path)?))
            };
            match rewrite() {
                Ok(w) => self.writer = Some(w),
                Err(e) => {
                    let _ = std::fs::remove_file(&tmp);
                    self.fail("compaction of", e);
                }
            }
        }
        if self.path.is_some() {
            self.buf.truncate(snapshot);
        }
        self.len = self.kept_bytes + snapshot_len;
        self.compacted_len = self.len;
        self.stats.compactions += 1;
    }
}

/// Slide the header and terminal frames of `frames` — whole frames the
/// journal wrote or parsed, so no CRC is checked — down to its start, in
/// order; returns the bytes they take.
fn keep_frames_in_place(frames: &mut [u8]) -> usize {
    let (mut read, mut kept) = (0, 0);
    while read < frames.len() {
        let len = u32::from_le_bytes(frames[read..read + 4].try_into().expect("4 bytes"));
        let end = read + 8 + len as usize;
        if matches!(frames[read + 8], REC_HEADER | REC_TERMINAL) {
            frames.copy_within(read..end, kept);
            kept += end - read;
        }
        read = end;
    }
    kept
}

/// Copy the header and terminal frames of the journal file `from` to
/// `to`, in order, reading the rest past: nothing but the current frame
/// is held.
fn copy_kept_frames(from: &mut BufReader<File>, to: &mut impl io::Write) -> io::Result<()> {
    let mut frame = Vec::new();
    while !from.fill_buf()?.is_empty() {
        let mut head = [0u8; 9];
        from.read_exact(&mut head)?;
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame"));
        }
        if matches!(head[8], REC_HEADER | REC_TERMINAL) {
            frame.clear();
            frame.extend_from_slice(&head);
            frame.resize(8 + len, 0);
            from.read_exact(&mut frame[9..])?;
            to.write_all(&frame)?;
        } else {
            from.seek_relative(len as i64 - 1)?;
        }
    }
    Ok(())
}

/// A write-ahead journal of broker session transitions.
///
/// Attach one to a [`FleetSpec`](crate::FleetSpec::journal) to make
/// [`Broker::drive`](crate::Broker::drive) durable, and hand the same
/// (reopened) journal to [`Broker::recover`](crate::Broker::recover)
/// after a crash. Interior-mutable so the borrowed `FleetSpec` stays
/// `Clone`; the broker only ever appends from its one event loop.
pub struct Journal {
    inner: RefCell<Inner>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Journal")
            .field("bytes", &inner.len)
            .field("events_total", &inner.events_total)
            .field("durable", &inner.writer.is_some())
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
            inner: RefCell::new(Inner {
                cfg,
                len: bytes.len(),
                buf: bytes,
                path: None,
                writer: None,
                kept_bytes: 0,
                compacted_len: 0,
                events_since_snapshot: 0,
                events_total: 0,
                stats: JournalStats::default(),
                error: None,
            }),
        }
    }

    /// A journal over `bytes` that appends to `file` at `path`.
    fn durable(bytes: Vec<u8>, cfg: JournalConfig, path: PathBuf, file: File) -> Self {
        let mut journal = Journal::from_bytes(bytes, cfg);
        let inner = journal.inner.get_mut();
        inner.path = Some(path);
        inner.writer = Some(BufWriter::new(file));
        journal
    }

    /// Create (truncating) a durable journal at `path`.
    pub fn create(path: impl AsRef<Path>, cfg: JournalConfig) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Journal::durable(Vec::new(), cfg, path, file))
    }

    /// Open an existing durable journal at `path` for recovery; appends
    /// after recovery continue into the same file.
    pub fn open(path: impl AsRef<Path>, cfg: JournalConfig) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Journal::durable(bytes, cfg, path, file))
    }

    /// `f` of the journal's current contents: the buffer where it lies,
    /// or the file read back when durable (empty if it cannot be read).
    fn with_bytes<T>(&self, f: impl FnOnce(&[u8]) -> T) -> T {
        let mut inner = self.inner.borrow_mut();
        match inner.path.clone() {
            Some(path) => {
                inner.flush();
                f(&std::fs::read(path).unwrap_or_default())
            }
            None => f(&inner.buf),
        }
    }

    /// A copy of the journal's current contents — read back from the file
    /// when durable (empty if it cannot be read).
    pub fn bytes(&self) -> Vec<u8> {
        self.with_bytes(<[u8]>::to_vec)
    }

    /// Life-so-far counters (events, snapshots, compactions, size).
    pub fn stats(&self) -> JournalStats {
        let inner = self.inner.borrow();
        let mut s = inner.stats;
        s.bytes = inner.len;
        s
    }

    /// Events ever journaled, including compacted-away history — the
    /// global log position the next appended event will take.
    pub(crate) fn events_total(&self) -> u64 {
        self.inner.borrow().events_total
    }

    /// Flush buffered appends to the backing file, if any — into the OS,
    /// which is what survives a process crash; nothing is `fsync`ed, so a
    /// power loss may still lose them. An error is the first write
    /// failure the journal has met, now or earlier.
    pub fn sync(&self) -> Result<(), JournalError> {
        let mut inner = self.inner.borrow_mut();
        inner.flush();
        match &inner.error {
            None => Ok(()),
            Some(e) => Err(JournalError::Io(io::Error::new(e.kind(), e.to_string()))),
        }
    }

    /// Byte offsets just past each event record, plain or terminal, in
    /// [`bytes`](Journal::bytes) — the chaos harness's menu of
    /// whole-record crash points. An in-memory journal is scanned where
    /// it lies, with no copy: once to count the records, once to fill one
    /// allocation of exactly that length.
    pub fn event_record_ends(&self) -> Vec<usize> {
        self.with_bytes(|bytes| {
            let ends = || {
                let mut pos = 0usize;
                std::iter::from_fn(move || {
                    let (payload, next) = next_frame(bytes, pos)?;
                    pos = next;
                    Some((payload.first().copied(), next))
                })
                .filter(|&(tag, _)| matches!(tag, Some(REC_EVENT | REC_TERMINAL)))
                .map(|(_, next)| next)
            };
            let mut out = Vec::with_capacity(ends().count());
            out.extend(ends());
            out
        })
    }

    /// Start a fresh journal: write the header record.
    ///
    /// # Panics
    /// Panics if the journal already has contents — resuming an existing
    /// journal goes through [`Broker::recover`](crate::Broker::recover).
    pub(crate) fn begin(&self, header: HeaderRecord) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            inner.len == 0,
            "Journal::begin on a non-empty journal; use Broker::recover to resume"
        );
        let start = inner.frame(|p| header.encode(p));
        inner.append(start, true);
    }

    /// Append one outcome event by its [`event_hash`]; the event that
    /// settles a session carries the session's `result`. Returns `true`
    /// when the snapshot cadence says the drive loop should cut a
    /// checkpoint at the next tick boundary.
    pub(crate) fn append_event(&self, hash: u64, result: Option<&SessionResult>) -> bool {
        let mut inner = self.inner.borrow_mut();
        let start = inner.frame(|p| {
            p.push(if result.is_some() {
                REC_TERMINAL
            } else {
                REC_EVENT
            });
            put_u64(p, hash);
            if let Some(r) = result {
                encode_result(p, r);
            }
        });
        inner.append(start, result.is_some());
        inner.events_since_snapshot += 1;
        inner.events_total += 1;
        inner.stats.events_appended += 1;
        if inner.cfg.crash_after_events == Some(inner.stats.events_appended) {
            // The deliberate crash: leave whatever the OS has as the
            // journal (the buffered writer is flushed so the cut is at a
            // record boundary — torn writes are exercised separately by
            // byte-level truncation in the chaos harness).
            inner.flush();
            std::process::exit(CRASH_EXIT_CODE);
        }
        inner.cfg.snapshot_every_events > 0
            && inner.events_since_snapshot >= inner.cfg.snapshot_every_events
    }

    /// Append a snapshot record, or — with [`JournalConfig::compact`], once
    /// the bytes appended since the last rewrite are at least the bytes a
    /// rewrite keeps — rewrite the log to header + terminal records +
    /// snapshot.
    pub(crate) fn append_snapshot(&self, snap: &SnapshotState) {
        let mut inner = self.inner.borrow_mut();
        let start = inner.frame(|p| snap.encode(p));
        let keeps = inner.kept_bytes + inner.buf.len() - start;
        if inner.cfg.compact && inner.len - inner.compacted_len >= keeps {
            inner.compact(start);
        } else {
            inner.append(start, false);
            inner.flush();
        }
        inner.events_since_snapshot = 0;
        inner.stats.snapshots += 1;
    }

    /// Parse for recovery: validate the header against `expect`, find the
    /// last complete snapshot, the results settled before it and the event
    /// hashes after it, truncate any torn tail (in memory and on disk), and
    /// prime the append counters so the resumed run continues the same log.
    pub(crate) fn recover_state(
        &self,
        expect: HeaderRecord,
    ) -> Result<ParsedJournal, JournalError> {
        let mut inner = self.inner.borrow_mut();
        // Header first — a journal whose header never made it to disk is
        // unrecoverable (but the run never had any effects either).
        let (payload, mut pos) = next_frame(&inner.buf, 0).ok_or(JournalError::NoHeader)?;
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
        let mut kept_bytes = pos;
        let mut snapshot: Option<SnapshotState> = None;
        // Results settled before the last snapshot, and after it: replay
        // regenerates the latter.
        let mut results = Vec::new();
        let mut settled_since = Vec::new();
        let mut tail: Vec<u64> = Vec::new();
        while let Some((payload, next)) = next_frame(&inner.buf, pos) {
            let mut t = Take::new(payload);
            match t.u8()? {
                REC_EVENT => tail.push(t.u64()?),
                REC_TERMINAL => {
                    tail.push(t.u64()?);
                    settled_since.push(decode_result(&mut t)?);
                    kept_bytes += next - pos;
                }
                REC_SNAPSHOT => {
                    snapshot = Some(SnapshotState::decode(&mut t)?);
                    results.append(&mut settled_since);
                    tail.clear();
                }
                REC_HEADER => return Err(JournalError::Malformed("duplicate header")),
                _ => return Err(JournalError::Malformed("unknown record type")),
            }
            t.done()?;
            pos = next;
        }
        // Anything past `pos` is a torn write: a partial frame or a CRC
        // mismatch. Drop it — the crash interrupted that record.
        let torn_bytes = inner.buf.len() - pos;
        inner.buf.truncate(pos);
        if let Some(w) = inner.writer.as_mut().filter(|_| torn_bytes > 0) {
            // Appends continue at the new end: the file is in append mode.
            w.flush()?;
            w.get_ref().set_len(pos as u64)?;
        }
        if inner.path.is_some() {
            // The file holds the journal from here on.
            inner.buf = Vec::new();
        }
        inner.len = pos;
        inner.kept_bytes = kept_bytes;
        inner.compacted_len = pos;
        let events_before = snapshot.as_ref().map_or(0, |s| s.events_logged);
        inner.events_total = events_before + tail.len() as u64;
        inner.events_since_snapshot = tail.len() as u64;
        Ok(ParsedJournal {
            snapshot,
            results,
            tail,
            events_before,
            torn_bytes,
        })
    }
}

/// What [`Journal::recover_state`] found: the newest complete snapshot,
/// the results settled before it, the hashes of the journaled events
/// after it, and where in the global log they sit.
#[derive(Debug)]
pub(crate) struct ParsedJournal {
    pub snapshot: Option<SnapshotState>,
    /// Results of the terminal records before `snapshot`, in log order.
    pub results: Vec<SessionResult>,
    /// [`event_hash`]es of the events after `snapshot`.
    pub tail: Vec<u64>,
    /// Global index of the first `tail` event.
    pub events_before: u64,
    /// Bytes dropped off the end as a torn write.
    pub torn_bytes: usize,
}

impl ParsedJournal {
    /// Check that the journal fits a fleet of `sessions`: every session id
    /// names a spec, no session is live twice, every live session has
    /// exactly one pending event and it is the input its phase waits for —
    /// a retry while backing off, a confirmation while awaiting, a
    /// departure while held — and a pending injected leak is one the
    /// config arms (`leak_armed`). A well-framed journal that fails this
    /// would index past the fleet or fire an event at a session not in the
    /// phase it needs.
    pub(crate) fn check_sessions(
        &self,
        sessions: u64,
        leak_armed: bool,
    ) -> Result<(), JournalError> {
        let (live, dynq) = match &self.snapshot {
            Some(snap) => (&snap.live[..], &snap.dynq[..]),
            None => (&[][..], &[][..]),
        };
        let past = (self.results.iter().map(|r| r.session as u64))
            .chain(live.iter().map(|s| s.session as u64))
            .chain(dynq.iter().map(|e| e.session as u64))
            .any(|id| id >= sessions);
        if past {
            return Err(JournalError::Malformed("session id past the fleet"));
        }
        if live.windows(2).any(|w| w[0].session == w[1].session) {
            return Err(JournalError::Malformed("snapshot session live twice"));
        }
        let mut pending = vec![false; live.len()];
        for e in dynq {
            let fits = match live.binary_search_by_key(&e.session, |s| s.session) {
                _ if e.kind == PENDING_LEAK => leak_armed,
                Ok(at) if !pending[at] => {
                    pending[at] = true;
                    // The one input the session's phase waits for.
                    let waits_for = match live[at].phase {
                        SnapPhase::BackingOff => PENDING_RETRY,
                        SnapPhase::Awaiting { .. } => PENDING_CONFIRM,
                        SnapPhase::Held { .. } => PENDING_DEPARTURE,
                    };
                    e.kind == waits_for
                }
                _ => false,
            };
            if !fits {
                return Err(JournalError::Malformed(
                    "snapshot event for a session not in its phase",
                ));
            }
        }
        if pending.contains(&false) {
            return Err(JournalError::Malformed(
                "live session with no pending event",
            ));
        }
        Ok(())
    }
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
    use crate::broker::OutcomeEvent;
    use nod_qosneg::NegotiationStatus;
    use nod_qosneg::SessionFate;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Many eight-byte steps and a remainder (zlib's value).
        let long: Vec<u8> = (0..4).flat_map(|_| 0..=255u8).chain(*b"tail").collect();
        assert_eq!(crc32(&long), 0x361F_CFFF);
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

    /// Eight events; the ones that settle a session carry its result.
    fn sample_events() -> Vec<(OutcomeEvent, Option<SessionResult>)> {
        let settled = |session, fate, attempts, admitted_at_ms| {
            Some(SessionResult {
                session,
                fate,
                attempts,
                admitted_at_ms,
            })
        };
        let admitted = SessionFate::Admitted { degraded: false };
        vec![
            (
                event(
                    5,
                    0,
                    OutcomeKind::Admitted {
                        degraded: false,
                        attempt: 1,
                    },
                ),
                None,
            ),
            (
                event(
                    6,
                    1,
                    OutcomeKind::RetryScheduled {
                        at_ms: 1_006,
                        attempt: 1,
                    },
                ),
                None,
            ),
            (event(7, usize::MAX, OutcomeKind::FaultEdge), None),
            (
                event(
                    8,
                    2,
                    OutcomeKind::Rejected {
                        status: NegotiationStatus::FailedWithoutOffer,
                    },
                ),
                settled(2, SessionFate::Rejected, 1, None),
            ),
            (
                event(
                    9,
                    3,
                    OutcomeKind::Errored {
                        error: "unknown document 99".into(),
                    },
                ),
                settled(3, SessionFate::Errored, 1, None),
            ),
            (
                event(10, 1, OutcomeKind::Starved { attempts: 6 }),
                settled(1, SessionFate::Starved, 6, None),
            ),
            (
                event(11, 0, OutcomeKind::Confirmed),
                settled(0, admitted, 1, Some(11)),
            ),
            (event(12, 0, OutcomeKind::Departed), None),
        ]
    }

    fn append(j: &Journal, events: &[(OutcomeEvent, Option<SessionResult>)]) {
        for (e, result) in events {
            j.append_event(event_hash(e.at_ms, e.session, &e.kind), result.as_ref());
        }
    }

    fn hashes(events: &[(OutcomeEvent, Option<SessionResult>)]) -> Vec<u64> {
        (events.iter())
            .map(|(e, _)| event_hash(e.at_ms, e.session, &e.kind))
            .collect()
    }

    fn results(events: &[(OutcomeEvent, Option<SessionResult>)]) -> Vec<SessionResult> {
        events.iter().filter_map(|(_, r)| r.clone()).collect()
    }

    #[test]
    fn event_records_are_seventeen_bytes_framed_and_hashes_tell_kinds_apart() {
        let j = Journal::in_memory(JournalConfig::default());
        j.begin(header());
        let evs = sample_events();
        append(&j, &evs);
        let ends = j.event_record_ends();
        assert_eq!(ends[1] - ends[0], 17);
        let mut seen = hashes(&evs);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), evs.len(), "two sample events hash alike");
        let parsed = j.recover_state(header()).expect("parses");
        assert_eq!(parsed.tail, hashes(&evs));
        assert!(parsed.results.is_empty(), "no snapshot, nothing settled");
    }

    #[test]
    fn torn_tails_truncate_at_the_last_whole_record() {
        let j = Journal::in_memory(JournalConfig::default());
        j.begin(header());
        let evs = sample_events();
        append(&j, &evs);
        let bytes = j.bytes();
        let ends = j.event_record_ends();
        assert_eq!(ends.len(), evs.len());
        // Cut mid-record: between the 3rd and 4th record boundaries.
        let cut = ends[2] + 3;
        assert!(cut < ends[3]);
        let torn = Journal::from_bytes(bytes[..cut].to_vec(), JournalConfig::default());
        let parsed = torn.recover_state(header()).expect("parses");
        assert_eq!(parsed.tail, hashes(&evs[..3]));
        assert_eq!(parsed.torn_bytes, 3);
        // The torn bytes are dropped from the journal itself, so resumed
        // appends extend the valid prefix.
        assert_eq!(torn.bytes().len(), ends[2]);
    }

    #[test]
    fn corrupt_bytes_inside_a_record_also_truncate() {
        let j = Journal::in_memory(JournalConfig::default());
        j.begin(header());
        let evs = sample_events();
        append(&j, &evs);
        let mut bytes = j.bytes();
        let ends = j.event_record_ends();
        // Flip a payload byte of the 5th event record.
        bytes[ends[3] + 12] ^= 0xFF;
        let parsed = Journal::from_bytes(bytes, JournalConfig::default())
            .recover_state(header())
            .expect("parses");
        assert_eq!(parsed.tail, hashes(&evs[..4]));
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

    #[test]
    fn a_version_one_header_is_refused() {
        let j = Journal::in_memory(JournalConfig::default());
        j.begin(header());
        let mut bytes = j.bytes();
        // Frame head (8), record type (1), magic (4), then the version.
        bytes[13..17].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bytes[8..]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Journal::from_bytes(bytes, JournalConfig::default()).recover_state(header()),
            Err(JournalError::BadVersion(1))
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
            live: vec![
                SnapSession {
                    session: 1,
                    attempts: 2,
                    rng: (0x1111, 0x2222 | 1),
                    phase: SnapPhase::Awaiting {
                        degraded: true,
                        offer: 9,
                    },
                },
                SnapSession {
                    session: 4,
                    attempts: 1,
                    rng: (0x3333, 0x4444 | 1),
                    phase: SnapPhase::BackingOff,
                },
            ],
            dynq: vec![
                SnapEvent {
                    at_us: 2_000_000,
                    seq: 7,
                    kind: PENDING_CONFIRM,
                    session: 1,
                },
                SnapEvent {
                    at_us: 2_000_000,
                    seq: 9,
                    kind: PENDING_RETRY,
                    session: 4,
                },
            ],
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
        let mut payload = Vec::new();
        sample_snapshot(5).encode(&mut payload);
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
    fn snapshots_decode_in_the_order_recovery_rebuilds() {
        let sorted = sample_snapshot(5);
        let mut shuffled = sorted.clone();
        shuffled.live.reverse();
        shuffled.dynq.reverse();
        let mut payload = Vec::new();
        shuffled.encode(&mut payload);
        let decoded = SnapshotState::decode(&mut Take::new(&payload[1..])).expect("decodes");
        assert_eq!(decoded, sorted);
    }

    #[test]
    fn snapshots_round_trip_and_bound_the_replay_suffix() {
        let j = Journal::in_memory(JournalConfig {
            compact: false,
            ..JournalConfig::default()
        });
        j.begin(header());
        let evs = sample_events();
        append(&j, &evs[..5]);
        j.append_snapshot(&sample_snapshot(5));
        append(&j, &evs[5..]);
        let parsed = j.recover_state(header()).expect("parses");
        assert_eq!(parsed.snapshot, Some(sample_snapshot(5)));
        assert_eq!(parsed.events_before, 5);
        assert_eq!(parsed.tail, hashes(&evs[5..]));
        // Only the results settled before the snapshot are folded.
        assert_eq!(parsed.results, results(&evs[..5]));
    }

    #[test]
    fn compaction_keeps_terminal_records_and_pays_for_itself() {
        let j = Journal::in_memory(JournalConfig::default());
        j.begin(header());
        let evs = sample_events();
        let mut appended = j.bytes().len();
        let mut rewritten = 0;
        for round in 0..40u64 {
            append(&j, &evs);
            let before = j.bytes().len();
            j.append_snapshot(&sample_snapshot(8 * (round + 1)));
            let after = j.bytes().len();
            if after < before {
                rewritten += after;
            } else {
                appended += after - before;
            }
            appended += evs.len() * 17 + results(&evs).len() * 17;
        }
        let stats = j.stats();
        assert!(stats.compactions >= 2, "{stats:?}");
        assert!(stats.compactions < stats.snapshots, "{stats:?}");
        assert!(
            rewritten <= appended,
            "rewrites wrote {rewritten} B for {appended} B appended"
        );
        // Every result survives compaction, in log order.
        append(&j, &evs[..2]);
        let parsed = j.recover_state(header()).expect("parses");
        assert_eq!(parsed.snapshot, Some(sample_snapshot(320)));
        assert_eq!(parsed.events_before, 320);
        assert_eq!(parsed.tail, hashes(&evs[..2]));
        let all: Vec<SessionResult> = (0..40).flat_map(|_| results(&evs)).collect();
        assert_eq!(parsed.results, all);
    }

    #[test]
    fn durable_journals_write_what_memory_holds_and_survive_a_reopen() {
        let dir = std::env::temp_dir().join(format!("nod_journal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.journal");
        let evs = sample_events();
        let durable = Journal::create(&path, JournalConfig::default()).expect("create");
        let memory = Journal::in_memory(JournalConfig::default());
        for j in [&durable, &memory] {
            j.begin(header());
            for round in 0..4u64 {
                append(j, &evs);
                j.append_snapshot(&sample_snapshot(8 * (round + 1)));
            }
            append(j, &evs);
        }
        assert!(durable.stats().compactions > 0);
        durable.sync().expect("sync");
        assert_eq!(durable.stats(), memory.stats());
        assert_eq!(std::fs::read(&path).expect("read"), memory.bytes());
        assert!(!dir.join("j.journal.tmp").exists());
        drop(durable);
        let j = Journal::open(&path, JournalConfig::default()).expect("open");
        let parsed = j.recover_state(header()).expect("parses");
        assert_eq!(parsed.tail, hashes(&evs));
        let all: Vec<SessionResult> = (0..4).flat_map(|_| results(&evs)).collect();
        assert_eq!(parsed.results, all);
        std::fs::remove_dir_all(&dir).ok();
    }
}
