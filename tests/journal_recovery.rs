//! Crash-recovery chaos harness for the broker's write-ahead journal.
//!
//! One contended run is journaled end to end (compaction off, so the
//! byte stream holds the full history), then the journal is truncated at
//! dozens of seeded crash points — whole-record boundaries, fault-edge
//! record boundaries and their ±1-byte torn-write neighbours, and random
//! mid-record cuts — and recovered from scratch each time. Every
//! recovery must satisfy the three acceptance gates:
//!
//! 1. **Byte-identical suffix**: the resumed run's outcome log equals
//!    the uninterrupted run's log from
//!    [`suffix_starts_at_event`](news_on_demand::broker::RecoveryReport)
//!    onward, and the whole-run results match exactly.
//! 2. **Zero leaked reservations**: the recovered run drains to the
//!    pristine capacity snapshot ([`BrokerReport::leaked_streams`] = 0).
//! 3. **Exactly-once settlement**: across the combined pre-crash +
//!    post-recovery log, every session confirms at most once, departs at
//!    most once, and reaches exactly one terminal fate.
//!
//! Two tests hand `Broker::recover` a world that is not the one the
//! journal was written against — the one mismatch the header's spec hash
//! cannot see — and require a typed error and an untouched world instead
//! of a panic, and so must a well-framed snapshot or terminal record whose
//! session ids, pending events or tags do not fit the fleet. An event
//! record whose hash is flipped diverges at exactly its own event. Right
//! after a restore, every server holds the streams and every link the
//! bandwidth that the uninterrupted run's capacity ledger says were held
//! at the snapshot tick. A journal-off run, counted by this file's
//! allocator, allocates the same count every time; scanning an in-memory
//! journal and compacting it allocate no copy of it, and in-place
//! compaction writes the bytes the two-buffer rewrite it replaced wrote.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use news_on_demand::broker::{
    crc32, ledger_rows, Broker, BrokerConfig, BrokerReport, CapacitySnapshot, FleetSpec, Journal,
    JournalConfig, JournalError, OutcomeEvent, OutcomeKind, RecoveryReport, SessionSpec,
};
use news_on_demand::client::ClientMachine;
use news_on_demand::cmfs::{Guarantee, ServerConfig, ServerFarm};
use news_on_demand::mmdb::{Catalog, CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::obs::RetentionPolicy;
use news_on_demand::qosneg::mapping::charged_bit_rate;
use news_on_demand::qosneg::negotiate::{reprepare, NegotiationContext, Prepared, StreamingMode};
use news_on_demand::qosneg::profile::tv_news_profile;
use news_on_demand::qosneg::{ClassificationStrategy, CostModel, UserProfile};
use news_on_demand::simcore::StreamRng;
use news_on_demand::workload::{
    recover_contended, run_contended_journaled, run_contended_with, ContendedConfig,
};

thread_local! {
    /// Per-thread, so tests running in parallel do not count each other.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes of fresh allocations, growth in place (`realloc`) aside: a
    /// copy of a buffer is one.
    static FRESH_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method delegates verbatim to `System`; only the
// thread-local counter is added, and it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = FRESH_BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A contended, faulted run with a real user choice period, so the
/// journal carries retries, pending confirmations, departures and fault
/// edges — every record kind recovery has to rebuild.
fn chaos_config() -> ContendedConfig {
    ContendedConfig {
        seed: 7,
        sessions: 48,
        servers: 1,
        arrivals_per_minute: 240.0,
        hold_ms: 8_000,
        choice_period_ms: 300,
        fault_windows: 4,
        ..ContendedConfig::default()
    }
}

/// Chaos-side journal policy: frequent snapshots so cuts land on both
/// sides of several snapshot horizons, compaction off so the byte stream
/// keeps the full history for truncation.
fn chaos_journal_cfg() -> JournalConfig {
    JournalConfig {
        snapshot_every_events: 64,
        compact: false,
        crash_after_events: None,
    }
}

/// Run the chaos config journaled, returning the uninterrupted report
/// and the complete journal byte stream.
fn full_run() -> (BrokerReport, Vec<u8>) {
    let journal = Journal::in_memory(chaos_journal_cfg());
    let (_, report) = run_contended_journaled(&chaos_config(), None, &journal);
    let bytes = journal.bytes();
    (report, bytes)
}

fn recover_from(bytes: Vec<u8>) -> Result<RecoveryReport, JournalError> {
    let journal = Journal::from_bytes(bytes, chaos_journal_cfg());
    recover_contended(&chaos_config(), None, &journal)
}

/// Gate 3: exactly-once settlement over one combined outcome log.
fn assert_exactly_once(sessions: usize, combined: &[OutcomeEvent]) {
    let mut confirmed = vec![0u32; sessions];
    let mut departed = vec![0u32; sessions];
    let mut terminal = vec![0u32; sessions];
    for ev in combined {
        match ev.kind {
            OutcomeKind::Confirmed => confirmed[ev.session] += 1,
            OutcomeKind::Departed => departed[ev.session] += 1,
            OutcomeKind::Admitted { .. }
            | OutcomeKind::Starved { .. }
            | OutcomeKind::Rejected { .. }
            | OutcomeKind::Errored { .. } => terminal[ev.session] += 1,
            OutcomeKind::RetryScheduled { .. } | OutcomeKind::FaultEdge => {}
        }
    }
    for s in 0..sessions {
        assert!(confirmed[s] <= 1, "session {s} confirmed {}×", confirmed[s]);
        assert!(departed[s] <= 1, "session {s} departed {}×", departed[s]);
        assert_eq!(
            terminal[s], 1,
            "session {s} reached {} terminal events",
            terminal[s]
        );
    }
}

/// Gates 1–3 for one crash point.
fn assert_recovery(full: &BrokerReport, rec: &RecoveryReport, cut: usize) {
    let at = rec.suffix_starts_at_event as usize;
    assert!(
        at <= full.events.len(),
        "cut {cut}: suffix start {at} past the full log ({})",
        full.events.len()
    );
    let full_events: Vec<OutcomeEvent> = full.events.iter().collect();
    assert_eq!(
        rec.report.events.iter().collect::<Vec<_>>(),
        full_events[at..],
        "cut {cut}: resumed outcome log is not the byte-identical suffix"
    );
    assert_eq!(
        rec.replayed_events as usize + rec.report.events.len(),
        full.events.len() - at + rec.replayed_events as usize,
        "cut {cut}: replay/suffix accounting is inconsistent"
    );
    assert_eq!(
        rec.report.results, full.results,
        "cut {cut}: whole-run results diverged"
    );
    assert_eq!(
        rec.report.leaked_streams, 0,
        "cut {cut}: recovered run leaked reservations"
    );
    let combined: Vec<OutcomeEvent> = (full_events.into_iter().take(at))
        .chain(rec.report.events.iter())
        .collect();
    assert_exactly_once(full.results.len(), &combined);
}

#[test]
fn journaling_does_not_perturb_the_run() {
    let config = chaos_config();
    let (plain_result, plain) = run_contended_with(&config, None);
    let journal = Journal::in_memory(chaos_journal_cfg());
    let (journaled_result, journaled) = run_contended_journaled(&config, None, &journal);
    assert_eq!(
        plain.events, journaled.events,
        "journaling perturbed the run"
    );
    assert_eq!(plain.results, journaled.results);
    assert_eq!(plain_result, journaled_result);
    let stats = journal.stats();
    assert_eq!(stats.events_appended as usize, plain.events.len());
    assert!(
        stats.snapshots >= 1,
        "run of {} events cut no snapshot at cadence 64",
        plain.events.len()
    );
    assert_eq!(stats.compactions, 0, "compaction was off");
}

#[test]
fn a_journal_off_run_allocates_the_same_count_every_time() {
    let config = chaos_config();
    let run = || {
        let before = ALLOCATIONS.with(Cell::get);
        let (result, _) = run_contended_with(&config, None);
        assert_eq!(result.leaked_streams, 0);
        ALLOCATIONS.with(Cell::get) - before
    };
    run(); // warms process-wide pools
    assert_eq!(
        run(),
        run(),
        "a journal-off run left a conditional allocation"
    );
}

/// A durable journal on a device that refuses every write ends the drive
/// normally, with the failure on the report and the run unchanged.
#[test]
#[cfg(target_os = "linux")]
fn a_journal_on_a_full_disk_is_reported_not_a_panic() {
    let config = chaos_config();
    let (_, plain) = run_contended_with(&config, None);
    // Compaction is off, so nothing ever tries to replace the device.
    let journal = Journal::create("/dev/full", chaos_journal_cfg()).expect("/dev/full opens");
    let (_, journaled) = run_contended_journaled(&config, None, &journal);
    assert_eq!(
        plain.events, journaled.events,
        "a failing journal perturbed the run"
    );
    assert_eq!(plain.results, journaled.results);
    assert_eq!(plain.journal_error, None);
    let err = journaled
        .journal_error
        .expect("the write failure is reported");
    assert!(err.contains("/dev/full"), "{err}");
    assert!(matches!(journal.sync(), Err(JournalError::Io(_))));
}

#[test]
fn chaos_cuts_recover_to_byte_identical_suffixes() {
    let (full, bytes) = full_run();
    let journal = Journal::from_bytes(bytes.clone(), chaos_journal_cfg());
    let ends = journal.event_record_ends();
    assert_eq!(
        ends.len(),
        full.events.len(),
        "one journal record per outcome event"
    );
    assert!(
        full.events
            .iter()
            .any(|e| matches!(e.kind, OutcomeKind::FaultEdge)),
        "chaos run must cross fault windows"
    );

    let mut cuts: Vec<usize> = Vec::new();
    // Every fault-window edge record: the clean boundary plus both
    // torn-write neighbours (one byte short of the edge record's CRC,
    // one byte into the following frame).
    for (k, ev) in full.events.iter().enumerate() {
        if matches!(ev.kind, OutcomeKind::FaultEdge) {
            cuts.push(ends[k]);
            cuts.push(ends[k] - 1);
            if ends[k] + 1 < bytes.len() {
                cuts.push(ends[k] + 1);
            }
        }
    }
    // A clean cut at every 4th whole-record boundary.
    for k in (0..ends.len()).step_by(4) {
        cuts.push(ends[k]);
    }
    // Seeded mid-record torn writes anywhere past the first record.
    let mut rng = StreamRng::new(0xC0FFEE);
    let lo = ends[0];
    while cuts.len() < 96 {
        cuts.push(lo + rng.below((bytes.len() - lo - 1) as u64) as usize);
    }
    cuts.sort_unstable();
    cuts.dedup();
    assert!(cuts.len() >= 64, "only {} crash points", cuts.len());

    for &cut in &cuts {
        let rec = recover_from(bytes[..cut].to_vec())
            .unwrap_or_else(|e| panic!("recovery from cut {cut} failed: {e}"));
        assert_recovery(&full, &rec, cut);
    }
}

#[test]
fn recovery_from_a_complete_journal_replays_the_whole_tail() {
    let (full, bytes) = full_run();
    let rec = recover_from(bytes).expect("complete journal must recover");
    assert_recovery(&full, &rec, usize::MAX);
    // The run had already finished: the entire tail is replay, and the
    // resumed engine generates nothing new.
    assert!(rec.report.events.is_empty(), "a finished run resumed work");
    assert!(
        rec.replayed_events > 0,
        "a complete journal replays its tail"
    );
}

#[test]
fn recovery_from_a_header_only_journal_replays_from_scratch() {
    let (full, bytes) = full_run();
    let journal = Journal::from_bytes(bytes.clone(), chaos_journal_cfg());
    let first_event_end = journal.event_record_ends()[0];
    // A cut inside the very first event record leaves only the header.
    let rec = recover_from(bytes[..first_event_end - 1].to_vec())
        .expect("header-only journal must recover");
    assert_eq!(rec.resumed_at_ms, None, "no snapshot to resume from");
    assert_eq!(rec.replayed_events, 0);
    assert_eq!(rec.suffix_starts_at_event, 0);
    assert_eq!(rec.report.events, full.events, "from-scratch run diverged");
    assert_eq!(rec.report.results, full.results);
    assert!(rec.torn_bytes > 0, "the partial record was torn");
}

#[test]
fn sub_header_cuts_and_wrong_configs_are_refused() {
    let (_, bytes) = full_run();
    // Mid-header torn write: nothing valid survives truncation.
    assert!(matches!(
        recover_from(bytes[..10].to_vec()),
        Err(JournalError::NoHeader)
    ));
    assert!(matches!(
        recover_from(Vec::new()),
        Err(JournalError::NoHeader)
    ));
    // A version-1 header: frame head (8), record type (1), magic (4), then
    // the version, under the header's CRC.
    let header_end = 8 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let mut v1 = bytes[..header_end].to_vec();
    v1[13..17].copy_from_slice(&1u32.to_le_bytes());
    let crc = crc32(&v1[8..]);
    v1[4..8].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(recover_from(v1), Err(JournalError::BadVersion(1))));
    // A journal from a different world (other seed) must be refused
    // before any state is touched.
    let other = ContendedConfig {
        seed: 8,
        ..chaos_config()
    };
    let other_journal = Journal::in_memory(chaos_journal_cfg());
    run_contended_journaled(&other, None, &other_journal);
    let journal = Journal::from_bytes(other_journal.bytes(), chaos_journal_cfg());
    assert!(matches!(
        recover_contended(&chaos_config(), None, &journal),
        Err(JournalError::SpecMismatch { .. })
    ));
}

#[test]
fn compacted_journals_stay_bounded_and_recoverable() {
    let config = chaos_config();
    let compacting = JournalConfig {
        snapshot_every_events: 64,
        compact: true,
        crash_after_events: None,
    };
    let journal = Journal::in_memory(compacting);
    let (_, full) = run_contended_journaled(&config, None, &journal);
    let stats = journal.stats();
    assert!(stats.compactions >= 1, "cadence 64 must compact this run");

    // The compacted journal holds only the newest snapshot plus its
    // tail, yet still recovers to the byte-identical suffix.
    let rec_journal = Journal::from_bytes(journal.bytes(), compacting);
    let rec = recover_contended(&config, None, &rec_journal).expect("compacted journal recovers");
    assert_recovery(&full, &rec, usize::MAX);
    assert!(rec.resumed_at_ms.is_some(), "compaction implies a snapshot");
}

/// Recovery re-derives each held stream from the session's reserved offer
/// index. On two servers behind 4 Mbit/s client links, the links bind, so a
/// restored offer other than the committed one holds other capacity and
/// changes which later sessions fit: every snapshot cut of that run, cut
/// every 8 events, must still resume to the byte-identical suffix.
#[test]
fn link_bound_snapshot_cuts_restore_the_committed_offers() {
    let config = ContendedConfig {
        servers: 2,
        access_bps: 4_000_000,
        ..chaos_config()
    };
    let cfg = JournalConfig {
        snapshot_every_events: 8,
        ..chaos_journal_cfg()
    };
    let journal = Journal::in_memory(cfg);
    let (_, full) = run_contended_journaled(&config, None, &journal);
    assert!(full.retries > 0, "the links must contend");
    let bytes = journal.bytes();
    let frames = snapshot_frames(&bytes);
    assert!(frames.len() >= 16, "only {} snapshots", frames.len());
    for frame in &frames {
        let cut = Journal::from_bytes(bytes[..frame.end].to_vec(), cfg);
        let rec = recover_contended(&config, None, &cut)
            .unwrap_or_else(|e| panic!("recovery from the snapshot at {} failed: {e}", frame.end));
        assert_recovery(&full, &rec, frame.end);
    }
}

/// A hand-built world whose farm size the test controls: the catalog,
/// network and specs are identical at every `max_streams`, so the fleet's
/// spec hash is too.
struct World {
    catalog: Catalog,
    farm: ServerFarm,
    network: Network,
    cost: CostModel,
}

fn world(max_streams: usize) -> World {
    world_with(max_streams, 25_000_000)
}

/// [`world`] with client access links of `access_bps`.
fn world_with(max_streams: usize, access_bps: u64) -> World {
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 8,
        servers: (0..2).map(ServerId).collect(),
        ..CorpusParams::default()
    })
    .build(&mut StreamRng::new(950));
    let server = ServerConfig {
        max_streams,
        ..ServerConfig::era_default()
    };
    World {
        catalog,
        farm: ServerFarm::uniform(2, server),
        network: Network::new(Topology::dumbbell(4, 2, access_bps, 155_000_000)),
        cost: CostModel::era_default(),
    }
}

fn broker(w: &World) -> Broker<'_> {
    let ctx = NegotiationContext {
        catalog: &w.catalog,
        farm: &w.farm,
        network: &w.network,
        cost_model: &w.cost,
        strategy: ClassificationStrategy::SnsThenOif,
        guarantee: Guarantee::Guaranteed,
        enumeration_cap: 500_000,
        jitter_buffer_ms: 2_000,
        prune_dominated: false,
        streaming: StreamingMode::Auto,
        recorder: None,
        explain: false,
    };
    Broker::new(ctx, BrokerConfig::era_default())
}

/// The four client machines of the hand-built world.
fn clients() -> Vec<ClientMachine> {
    (0..4)
        .map(|i| ClientMachine::era_workstation(ClientId(i)))
        .collect()
}

/// 48 sessions over the hand-built world's clients and documents, one
/// every 250 ms, each holding for 8 s.
fn specs<'a>(clients: &'a [ClientMachine], profile: &'a UserProfile) -> Vec<SessionSpec<'a>> {
    (0..48u64)
        .map(|i| SessionSpec {
            client: &clients[(i % 4) as usize],
            document: DocumentId(i % 8 + 1),
            profile,
            arrival_ms: i * 250,
            hold_ms: Some(8_000),
        })
        .collect()
}

/// Journal a contended run on a 16-stream farm, cut the journal at the
/// end of event record `cut_after_event`, and recover the same fleet —
/// first against an identical fresh world (the positive control), then
/// against a 1-stream farm. Returns the control's report and the second
/// recovery's error, after checking that it left its world untouched.
fn recover_on_a_smaller_farm(cut_after_event: usize) -> (RecoveryReport, JournalError) {
    let (clients, profile) = (clients(), tv_news_profile());
    let specs = specs(&clients, &profile);
    let original = world(16);
    let journal = Journal::in_memory(chaos_journal_cfg());
    let full = broker(&original).drive(&FleetSpec::new(&specs).journal(&journal));
    assert!(full.retries > 0, "the 16-stream farm must contend");
    let cut = journal.event_record_ends()[cut_after_event];
    let crashed = || Journal::from_bytes(journal.bytes()[..cut].to_vec(), chaos_journal_cfg());

    let same = world(16);
    let control = broker(&same)
        .recover(&FleetSpec::new(&specs).journal(&crashed()))
        .expect("the cut recovers on the world it was written against");

    let smaller = world(1);
    let before = CapacitySnapshot::capture(&smaller.farm, &smaller.network);
    let err = broker(&smaller)
        .recover(&FleetSpec::new(&specs).journal(&crashed()))
        .expect_err("a 1-stream farm cannot resume a 16-stream farm's run");
    assert_eq!(
        CapacitySnapshot::capture(&smaller.farm, &smaller.network),
        before,
        "failed recovery left reservations behind ({err})"
    );
    (control, err)
}

#[test]
fn replay_against_a_smaller_farm_is_a_typed_error() {
    // Cut before the first snapshot (cadence 64): recovery is tail replay
    // from a pristine engine, and the 1-stream farm refuses a session the
    // journal says was admitted.
    let (control, err) = recover_on_a_smaller_farm(20);
    assert_eq!(control.resumed_at_ms, None, "cut holds a snapshot");
    assert_eq!(control.replayed_events, 21);
    // The same event the format that compared whole outcomes reported.
    assert!(
        matches!(err, JournalError::ReplayDiverged { event: 0 }),
        "{err}"
    );
}

#[test]
fn restoring_more_streams_than_the_farm_has_is_a_typed_error() {
    // Cut after the first snapshot, taken while several sessions hold
    // streams on each server: the 1-stream farm cannot re-reserve them.
    let (control, err) = recover_on_a_smaller_farm(80);
    assert!(control.resumed_at_ms.is_some(), "cut holds no snapshot");
    assert!(matches!(err, JournalError::RestoreFailed(_)), "{err}");
}

/// Every frame of a journal byte stream (`len u32, crc u32, payload`):
/// where it starts and ends, and its record type.
fn frames(bytes: &[u8]) -> Vec<(usize, usize, u8)> {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos + 9 <= bytes.len() {
        let end = pos + 8 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if end > bytes.len() {
            break;
        }
        frames.push((pos, end, bytes[pos + 8]));
        pos = end;
    }
    frames
}

/// One snapshot record of a journal byte stream, located by walking its
/// frames: where the frame starts and ends, and the byte offsets of what
/// the tests below rewrite.
struct SnapshotFrame {
    start: usize,
    end: usize,
    /// Per terminal record before the snapshot: the offset of its session
    /// id (its fate byte follows the id).
    result_ids: Vec<usize>,
    /// Per live session: its id, the offset of the id, and the offset of
    /// its pending-admission byte.
    live: Vec<(u32, usize, usize)>,
    /// Per pending event: the offset of its kind byte (0 retry, 1 confirm,
    /// 2 departure, 3 injected leak; the session id follows it) and its
    /// session.
    events: Vec<(usize, u32)>,
}

/// Every snapshot record of `bytes`, decoded just far enough to find the
/// session ids, pending-admission bytes and pending-event kinds in its
/// payload, and the terminal records before it.
fn snapshot_frames(bytes: &[u8]) -> Vec<SnapshotFrame> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut snapshots = Vec::new();
    let mut result_ids = Vec::new();
    for (start, end, kind) in frames(bytes) {
        if kind == 4 {
            // A terminal record: frame head, type, event hash, session id.
            result_ids.push(start + 8 + 1 + 8);
        }
        if kind != 3 {
            continue;
        }
        // Six u64 counters, then the live sessions: id, attempts, RNG,
        // pending admission, closed, offer index (30 bytes each).
        let mut at = start + 9 + 6 * 8;
        let sessions = u32_at(at) as usize;
        at += 4;
        let live = (0..sessions)
            .map(|k| at + k * 30)
            .map(|id| (u32_at(id), id, id + 24))
            .collect();
        at += sessions * 30;
        // Pending events: time, queue sequence number, kind, session.
        let count = u32_at(at) as usize;
        at += 4;
        let events = (0..count)
            .map(|e| at + e * 21 + 16)
            .map(|kind| (kind, u32_at(kind + 1)))
            .collect();
        assert_eq!(at + count * 21, end, "snapshot layout");
        snapshots.push(SnapshotFrame {
            start,
            end,
            result_ids: result_ids.clone(),
            live,
            events,
        });
    }
    snapshots
}

/// `bytes` cut after `frame`, with `patch` written at `at` and the CRC of
/// the frame the patch lands in recomputed, so the journal is well framed
/// but says what the patch says.
fn rewritten(bytes: &[u8], frame: &SnapshotFrame, at: usize, patch: &[u8]) -> Vec<u8> {
    let mut out = bytes[..frame.end].to_vec();
    out[at..at + patch.len()].copy_from_slice(patch);
    let (start, end, _) = (frames(&out).into_iter())
        .find(|&(start, end, _)| start + 8 < at && at < end)
        .expect("the patch lands in a payload");
    let crc = crc32(&out[start + 8..end]);
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    out
}

fn assert_malformed(journal: Vec<u8>, what: &str) {
    match recover_from(journal) {
        Err(JournalError::Malformed(_)) => {}
        other => panic!("{what}: expected a malformed-journal error, got {other:?}"),
    }
}

#[test]
fn an_inconsistent_snapshot_is_a_typed_error_not_a_panic() {
    let (_, bytes) = full_run();
    let sessions = chaos_config().sessions as u64;
    let frames = snapshot_frames(&bytes);
    assert!(frames.len() >= 3, "cadence 64 must snapshot this run");
    // How many rewrites of each kind were refused: finished id, live id,
    // confirmation, departure, second event, retry of a held session,
    // departure of a backing-off one, closed with a pending admission.
    let mut refused = [0; 8];
    for frame in &frames {
        // The cut itself, unpatched, recovers: the offsets are right.
        let cut = recover_from(bytes[..frame.end].to_vec()).expect("a snapshot cut recovers");
        assert!(cut.resumed_at_ms.is_some());
        for &at in frame.result_ids.iter().take(1) {
            let past = (sessions as u32).to_le_bytes();
            assert_malformed(rewritten(&bytes, frame, at, &past), "finished id");
            // A terminal record dropped whole leaves the journal well
            // framed and its session without a result.
            let start = at - 17;
            let end = start + 34;
            let dropped = [&bytes[..start], &bytes[end..frame.end]].concat();
            assert_malformed(dropped, "dropped terminal record");
            refused[0] += 1;
        }
        for &(_, at, _) in frame.live.iter().take(1) {
            assert_malformed(
                rewritten(&bytes, frame, at, &u32::MAX.to_le_bytes()),
                "live id",
            );
            refused[1] += 1;
        }
        // A pending event turned into a confirmation for a session that
        // awaits none, into a departure for a session that is not live, and
        // into a second event for a session that has one.
        let awaits = |session: u32| {
            let (.., pending) = frame.live.iter().find(|(id, ..)| *id == session)?;
            Some(bytes[*pending] != 0)
        };
        for &(kind, _) in (frame.events.iter())
            .filter(|&&(_, session)| awaits(session) == Some(false))
            .take(1)
        {
            assert_malformed(rewritten(&bytes, frame, kind, &[1]), "confirm");
            refused[2] += 1;
        }
        let gone = (0..sessions as u32).find(|&id| awaits(id).is_none());
        if let (Some(&(kind, ..)), Some(id)) = (frame.events.first(), gone) {
            let mut patch = [2; 5];
            patch[1..].copy_from_slice(&id.to_le_bytes());
            assert_malformed(rewritten(&bytes, frame, kind, &patch), "departure");
            refused[3] += 1;
        }
        if let [(kind, _), (_, other), ..] = frame.events[..] {
            let patch = other.to_le_bytes();
            assert_malformed(rewritten(&bytes, frame, kind + 1, &patch), "twice");
            refused[4] += 1;
        }
        // A live session's phase, from its pending-admission and closed
        // bytes: 1 awaiting, 2 held, 0 backing off.
        let phase = |session: u32| {
            let (.., pending) = frame.live.iter().find(|(id, ..)| *id == session)?;
            Some(match (bytes[*pending], bytes[*pending + 1]) {
                (0, 0) => 0,
                (_, 0) => 1,
                _ => 2,
            })
        };
        // The pending event of a held session turned into a retry, and that
        // of a backing-off session into a departure.
        for (from, patch, what, case) in [(2, 0, "held retry", 5), (0, 2, "backoff departure", 6)] {
            let of = (frame.events.iter()).find(|&&(_, session)| phase(session) == Some(from));
            if let Some(&(kind, _)) = of {
                assert_malformed(rewritten(&bytes, frame, kind, &[patch]), what);
                refused[case] += 1;
            }
        }
        // A held session marked as awaiting its admission too, or an
        // awaiting one marked closed: closed with a pending admission.
        let reserved = (frame.live.iter()).find(|&&(id, ..)| phase(id) != Some(0));
        if let Some(&(id, _, pending)) = reserved {
            let at = if phase(id) == Some(2) {
                pending
            } else {
                pending + 1
            };
            assert_malformed(rewritten(&bytes, frame, at, &[1]), "closed, pending");
            refused[7] += 1;
        }
    }
    assert!(
        refused.iter().all(|&n| n > 0),
        "rewrites refused: {refused:?}"
    );
}

/// An unknown tag is refused where it is decoded, not read as the nearest
/// known one: a pending-event kind past the injected leak, a fate past
/// `Errored`, a pending admission past "degraded", and a pending injected
/// leak in a run whose config arms none (a contended run never arms one).
#[test]
fn unknown_snapshot_and_terminal_tags_are_malformed() {
    let (_, bytes) = full_run();
    let frames = snapshot_frames(&bytes);
    // Which rewrites were refused: event kind, fate, pending admission,
    // unarmed leak.
    let mut refused = [0; 4];
    for frame in &frames {
        if let Some(&(kind, _)) = frame.events.first() {
            assert_malformed(rewritten(&bytes, frame, kind, &[4]), "event kind 4");
            assert_malformed(rewritten(&bytes, frame, kind, &[3]), "unarmed leak");
            refused[0] += 1;
            refused[3] += 1;
        }
        if let Some(&at) = frame.result_ids.last() {
            assert_malformed(rewritten(&bytes, frame, at + 4, &[5]), "fate 5");
            refused[1] += 1;
        }
        if let Some(&(.., pending)) = frame.live.first() {
            assert_malformed(rewritten(&bytes, frame, pending, &[3]), "pending admit 3");
            refused[2] += 1;
        }
    }
    assert!(
        refused.iter().all(|&n| n > 0),
        "rewrites refused: {refused:?}"
    );
}

/// A live session's offer index names an offer on the list its re-run of
/// steps 1–4 rebuilds; an index past that list is a typed restore
/// failure, not a panic.
#[test]
fn an_offer_index_past_the_re_prepared_list_is_a_restore_failure() {
    let (_, bytes) = full_run();
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut refused = 0;
    for frame in &snapshot_frames(&bytes) {
        // The offer index is the last field of a 30-byte live session.
        let held = (frame.live.iter()).find(|&&(_, id, _)| u32_at(id + 26) != u32::MAX);
        if let Some(&(_, id, _)) = held {
            let past = (u32::MAX - 1).to_le_bytes();
            match recover_from(rewritten(&bytes, frame, id + 26, &past)) {
                Err(JournalError::RestoreFailed(_)) => refused += 1,
                other => panic!("expected a restore failure, got {other:?}"),
            }
        }
    }
    assert!(refused > 0, "no snapshot holds an offer");
}

/// Replay compares one hash per event: a hash that no longer matches its
/// regenerated outcome is a divergence at exactly that event's global
/// index, wherever after the last snapshot it sits.
#[test]
fn a_flipped_event_hash_diverges_at_exactly_its_event() {
    let (full, bytes) = full_run();
    let last = snapshot_frames(&bytes).pop().expect("a snapshot");
    // The event records, plain (2) or terminal (4), in global log order.
    let events: Vec<usize> = (frames(&bytes).into_iter())
        .filter(|&(.., kind)| kind == 2 || kind == 4)
        .map(|(start, ..)| start)
        .collect();
    assert_eq!(events.len(), full.events.len());
    let first_after = events.partition_point(|&start| start < last.start);
    let after = events.len() - first_after;
    assert!(after >= 4, "the tail after the last snapshot is too short");
    let whole = SnapshotFrame {
        end: bytes.len(),
        ..last
    };
    for k in [0, 1, after / 2, after - 1] {
        let event = first_after + k;
        // The hash follows the frame head and the type byte.
        let hash_at = events[event] + 9;
        let flipped = [bytes[hash_at] ^ 0x5A];
        match recover_from(rewritten(&bytes, &whole, hash_at, &flipped)) {
            Err(JournalError::ReplayDiverged { event: at }) => {
                assert_eq!(at, event as u64, "flip in record {event}")
            }
            other => panic!("flip in record {event}: expected a divergence, got {other:?}"),
        }
    }
}

/// Recovery re-derives each held stream from the session's offer index.
/// Right after the restore, each server must hold exactly the streams, and
/// each link the bandwidth, that the uninterrupted run held at the
/// snapshot tick: its capacity ledger names the sessions admitted by then
/// and not yet departed, and the offer each committed, whose streams steps
/// 1–4 rebuild. On two servers behind 4 Mbit/s client links, a restored
/// offer other than the committed one shows at every snapshot holding one.
#[test]
fn restored_capacity_is_what_the_run_held_at_each_snapshot() {
    let (clients, profile) = (clients(), tv_news_profile());
    let specs = specs(&clients, &profile);
    let cfg = JournalConfig {
        snapshot_every_events: 8,
        ..chaos_journal_cfg()
    };
    let original = world_with(16, 4_000_000);
    let journal = Journal::in_memory(cfg);
    let drive = broker(&original);
    let fleet = FleetSpec::new(&specs)
        .journal(&journal)
        .explain(RetentionPolicy::default());
    let full = drive.drive(&fleet);
    assert!(full.retries > 0, "the links must contend");
    let ctx = drive.session().context();
    let ledger = &full
        .explains
        .as_ref()
        .expect("explain was requested")
        .ledger;
    // Each commit with the instants its derived row holds it between.
    let held: Vec<_> = (ledger.iter())
        .zip(ledger_rows(ctx, &specs, &full))
        .map(|(entry, row)| (entry.session, entry.offer, row.admit_ms, row.depart_ms))
        .collect();
    let bytes = journal.bytes();
    let mut holding = 0;
    for frame in snapshot_frames(&bytes) {
        // The snapshot's tick is its first field, after the type byte.
        let at = frame.start + 9;
        let at_ms = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let mut servers = vec![Vec::new(); 2];
        let mut links = vec![0u64; original.network.topology().link_ids().len()];
        for &(session, index, ..) in (held.iter()).filter(|h| h.2 <= at_ms && at_ms < h.3) {
            let spec = &specs[session as usize];
            let Ok(Prepared::Offers(mut ranked, ..)) =
                reprepare(ctx, spec.client, spec.document, spec.profile)
            else {
                panic!("session {session} was admitted from a list")
            };
            for v in ranked.materialize(index as usize).offer.variants {
                servers[v.server.0 as usize].push(v.id);
                if v.blocks_per_second > 0 {
                    let bps = charged_bit_rate(&v, ctx.guarantee);
                    let path = original.network.path(spec.client.id, v.server);
                    for link in path.expect("a committed stream has a route") {
                        links[link.0 as usize] += bps;
                    }
                }
            }
        }
        servers.iter_mut().for_each(|held| held.sort_unstable());
        let fresh = world_with(16, 4_000_000);
        let cut = Journal::from_bytes(bytes[..frame.end].to_vec(), cfg);
        let rec = (broker(&fresh).recover(&FleetSpec::new(&specs).journal(&cut)))
            .unwrap_or_else(|e| panic!("recovery from the snapshot at {at_ms} ms failed: {e}"));
        assert_eq!(
            (
                &rec.restored.server_streams,
                &rec.restored.link_reserved_bps
            ),
            (&servers, &links),
            "capacity restored from the snapshot at {at_ms} ms"
        );
        holding += usize::from(servers.iter().any(|held| !held.is_empty()));
    }
    assert!(holding >= 8, "only {holding} snapshots hold an offer");
}

/// Scanning an in-memory journal for its record ends reads the buffer
/// where it lies: nothing the journal's size is allocated.
#[test]
fn scanning_record_ends_copies_no_journal() {
    let (full, bytes) = full_run();
    let journal = Journal::from_bytes(bytes.clone(), chaos_journal_cfg());
    let before = FRESH_BYTES.with(Cell::get);
    let ends = journal.event_record_ends();
    let fresh = FRESH_BYTES.with(Cell::get) - before;
    assert_eq!(ends.len(), full.events.len());
    assert!(
        fresh < bytes.len() as u64,
        "scanning {} journal bytes allocated {fresh} fresh bytes",
        bytes.len()
    );
}

/// The record ends are counted before they are stored: scanning makes one
/// allocation, of exactly one `usize` per event record.
#[test]
fn record_ends_are_one_allocation_of_their_exact_length() {
    let (full, bytes) = full_run();
    let journal = Journal::from_bytes(bytes, chaos_journal_cfg());
    let (allocations, fresh) = (ALLOCATIONS.with(Cell::get), FRESH_BYTES.with(Cell::get));
    let ends = journal.event_record_ends();
    let allocations = ALLOCATIONS.with(Cell::get) - allocations;
    let fresh = FRESH_BYTES.with(Cell::get) - fresh;
    assert_eq!(ends.len(), full.events.len());
    assert_eq!(ends.capacity(), ends.len());
    assert_eq!(
        (allocations, fresh),
        (1, (std::mem::size_of::<usize>() * ends.len()) as u64)
    );
}

/// An in-memory journal compacts inside its one buffer: a compacting
/// drive makes exactly the fresh allocations of the same drive that never
/// compacts, though it rewrites its journal again and again.
#[test]
fn in_memory_compaction_allocates_no_copy_of_the_journal() {
    let (clients, profile) = (clients(), tv_news_profile());
    let specs = specs(&clients, &profile);
    let w = world(16);
    let drive = |compact| {
        let journal = Journal::in_memory(JournalConfig {
            snapshot_every_events: 8,
            compact,
            crash_after_events: None,
        });
        let fleet = FleetSpec::new(&specs).journal(&journal);
        let before = FRESH_BYTES.with(Cell::get);
        let report = broker(&w).drive(&fleet);
        assert_eq!(report.leaked_streams, 0);
        drop(report);
        (
            FRESH_BYTES.with(Cell::get) - before,
            journal.stats().compactions,
        )
    };
    drive(true); // fills the route memo both measured drives then share
    let (compacting, compactions) = drive(true);
    let (appending, none) = drive(false);
    assert!(compactions >= 4, "only {compactions} compactions");
    assert_eq!(none, 0);
    assert_eq!(
        compacting, appending,
        "{compactions} compactions allocated fresh bytes"
    );
}

/// The compaction the journal did before it compacted in place, kept as
/// the reference: `appended`'s frames go one by one onto a journal holding
/// `start`, and a snapshot that the rule says compacts gathers the header
/// and terminal frames into a fresh buffer, followed by the snapshot.
fn two_buffer_compaction(start: &[u8], appended: &[u8]) -> Vec<u8> {
    let kept = |bytes: &[u8]| -> Vec<u8> {
        (frames(bytes).into_iter())
            .filter(|&(.., kind)| kind == 1 || kind == 4)
            .flat_map(|(from, to, _)| bytes[from..to].to_vec())
            .collect()
    };
    let mut journal = start.to_vec();
    let mut kept_bytes = kept(start).len();
    let mut compacted_len = journal.len();
    for (from, to, kind) in frames(appended) {
        let frame = &appended[from..to];
        if kind == 3 && journal.len() - compacted_len >= kept_bytes + frame.len() {
            journal = kept(&journal);
            journal.extend_from_slice(frame);
            compacted_len = journal.len();
            continue;
        }
        if kind == 1 || kind == 4 {
            kept_bytes += frame.len();
        }
        journal.extend_from_slice(frame);
    }
    journal
}

/// Seeded snapshot cadences, each run fresh and resumed from seeded crash
/// points: the compacted journal is, byte for byte, what the two-buffer
/// rewrite makes of the same appends.
#[test]
fn in_place_compaction_writes_what_the_two_buffer_rewrite_wrote() {
    let config = chaos_config();
    let mut rng = StreamRng::new(0x5EED_C0DE);
    let mut compactions = 0;
    for _ in 0..6 {
        let every = 2 + rng.below(96);
        let cfg = |compact| JournalConfig {
            snapshot_every_events: every,
            compact,
            crash_after_events: None,
        };
        let appending = Journal::in_memory(cfg(false));
        run_contended_journaled(&config, None, &appending);
        let compacting = Journal::in_memory(cfg(true));
        run_contended_journaled(&config, None, &compacting);
        compactions += compacting.stats().compactions;
        let history = appending.bytes();
        assert_eq!(
            compacting.bytes(),
            two_buffer_compaction(&[], &history),
            "a fresh run snapshotting every {every} events"
        );
        let ends = appending.event_record_ends();
        for _ in 0..3 {
            let cut = ends[rng.below(ends.len() as u64) as usize];
            let resumed = |compact| {
                let journal = Journal::from_bytes(history[..cut].to_vec(), cfg(compact));
                recover_contended(&config, None, &journal).expect("the cut recovers");
                journal.bytes()
            };
            let (compacted, appended) = (resumed(true), resumed(false));
            assert_eq!(
                compacted,
                two_buffer_compaction(&history[..cut], &appended[cut..]),
                "resumed at byte {cut}, snapshotting every {every} events"
            );
        }
    }
    assert!(compactions >= 6, "only {compactions} compactions");
}
