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
//! The last two tests hand `Broker::recover` a world that is not the one
//! the journal was written against — the one mismatch the header's spec
//! hash cannot see — and require a typed error and an untouched world
//! instead of a panic, and so must a well-framed snapshot whose session
//! ids or pending events do not fit the fleet. A journal-off run, counted
//! by this file's allocator, allocates the same count every time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use news_on_demand::broker::{
    crc32, Broker, BrokerConfig, BrokerReport, CapacitySnapshot, FleetSpec, Journal, JournalConfig,
    JournalError, OutcomeEvent, OutcomeKind, RecoveryReport, SessionSpec,
};
use news_on_demand::client::ClientMachine;
use news_on_demand::cmfs::{Guarantee, ServerConfig, ServerFarm};
use news_on_demand::mmdb::{Catalog, CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::qosneg::negotiate::{NegotiationContext, StreamingMode};
use news_on_demand::qosneg::profile::tv_news_profile;
use news_on_demand::qosneg::{ClassificationStrategy, CostModel};
use news_on_demand::simcore::StreamRng;
use news_on_demand::workload::{
    recover_contended, run_contended_journaled, run_contended_with, ContendedConfig,
};

thread_local! {
    /// Per-thread, so tests running in parallel do not count each other.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method delegates verbatim to `System`; only the
// thread-local counter is added, and it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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
fn assert_exactly_once(sessions: usize, combined: &[&OutcomeEvent]) {
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
    assert_eq!(
        rec.report.events,
        &full.events[at..],
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
    let combined: Vec<&OutcomeEvent> = full.events[..at]
        .iter()
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
        network: Network::new(Topology::dumbbell(4, 2, 25_000_000, 155_000_000)),
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

/// Journal a contended run on a 16-stream farm, cut the journal at the
/// end of event record `cut_after_event`, and recover the same fleet —
/// first against an identical fresh world (the positive control), then
/// against a 1-stream farm. Returns the control's report and the second
/// recovery's error, after checking that it left its world untouched.
fn recover_on_a_smaller_farm(cut_after_event: usize) -> (RecoveryReport, JournalError) {
    let clients: Vec<ClientMachine> = (0..4)
        .map(|i| ClientMachine::era_workstation(ClientId(i)))
        .collect();
    let profile = tv_news_profile();
    let specs: Vec<SessionSpec<'_>> = (0..48u64)
        .map(|i| SessionSpec {
            client: &clients[(i % 4) as usize],
            document: DocumentId(i % 8 + 1),
            profile: &profile,
            arrival_ms: i * 250,
            hold_ms: Some(8_000),
        })
        .collect();
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
    assert!(
        matches!(err, JournalError::ReplayDiverged { event } if event <= 20),
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

/// One snapshot record of a journal byte stream, located by walking its
/// frames (`len u32, crc u32, payload`): where the frame starts and ends,
/// and the byte offsets of what the test below rewrites.
struct SnapshotFrame {
    start: usize,
    end: usize,
    /// Offset of each finished session's id.
    result_ids: Vec<usize>,
    /// Per live session: its id, the offset of the id, and the offset of
    /// its pending-admission byte.
    live: Vec<(u64, usize, usize)>,
    /// Per pending event: the offset of its kind byte (0 retry, 1 confirm,
    /// 2 departure; the session id follows it) and its session.
    events: Vec<(usize, u64)>,
}

/// Every snapshot record of `bytes`, decoded just far enough to find the
/// session ids and pending-admission bytes in its payload.
fn snapshot_frames(bytes: &[u8]) -> Vec<SnapshotFrame> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos + 8 <= bytes.len() {
        let (start, end) = (pos, pos + 8 + u32_at(pos));
        pos = end;
        // Record type 3 is a snapshot.
        if end > bytes.len() || bytes[start + 8] != 3 {
            continue;
        }
        // Six u64 counters, then the finished sessions (21 bytes each).
        let mut at = start + 9 + 6 * 8;
        let results = u32_at(at);
        at += 4;
        let result_ids = (0..results).map(|r| at + r * 21).collect();
        at += results * 21;
        // Live sessions: id, attempts, RNG, pending admit, closed,
        // reserved, then their holds (53 bytes, a net flag and the
        // bandwidth when the flag is set).
        let mut live = Vec::new();
        let sessions = u32_at(at);
        at += 4;
        for _ in 0..sessions {
            live.push((u64_at(at), at, at + 28));
            let holds = u32_at(at + 31);
            at += 35;
            for _ in 0..holds {
                at += 54 + if bytes[at + 53] != 0 { 8 } else { 0 };
            }
        }
        // Pending events: time, kind, session.
        let count = u32_at(at);
        at += 4;
        let events = (0..count)
            .map(|e| at + e * 17 + 8)
            .map(|kind| (kind, u64_at(kind + 1)))
            .collect();
        assert_eq!(at + count * 17, end, "snapshot layout");
        frames.push(SnapshotFrame {
            start,
            end,
            result_ids,
            live,
            events,
        });
    }
    frames
}

/// `bytes` cut after `frame`, with `patch` written at `at` and the frame's
/// CRC recomputed, so the journal is well framed but says what the patch
/// says.
fn rewritten(bytes: &[u8], frame: &SnapshotFrame, at: usize, patch: &[u8]) -> Vec<u8> {
    let mut out = bytes[..frame.end].to_vec();
    out[at..at + patch.len()].copy_from_slice(patch);
    let crc = crc32(&out[frame.start + 8..frame.end]);
    out[frame.start + 4..frame.start + 8].copy_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn an_inconsistent_snapshot_is_a_typed_error_not_a_panic() {
    let (_, bytes) = full_run();
    let sessions = chaos_config().sessions as u64;
    let frames = snapshot_frames(&bytes);
    assert!(frames.len() >= 3, "cadence 64 must snapshot this run");
    let malformed = |journal: Vec<u8>, what: &str| match recover_from(journal) {
        Err(JournalError::Malformed(_)) => {}
        other => panic!("{what}: expected a malformed-journal error, got {other:?}"),
    };
    // How many rewrites of each kind were refused: finished id, live id,
    // confirmation, departure, second event.
    let mut refused = [0; 5];
    for frame in &frames {
        // The cut itself, unpatched, recovers: the offsets are right.
        let cut = recover_from(bytes[..frame.end].to_vec()).expect("a snapshot cut recovers");
        assert!(cut.resumed_at_ms.is_some());
        for &at in frame.result_ids.iter().take(1) {
            let past = sessions.to_le_bytes();
            malformed(rewritten(&bytes, frame, at, &past), "finished id");
            refused[0] += 1;
        }
        for &(_, at, _) in frame.live.iter().take(1) {
            malformed(
                rewritten(&bytes, frame, at, &u64::MAX.to_le_bytes()),
                "live id",
            );
            refused[1] += 1;
        }
        // A pending event turned into a confirmation for a session that
        // awaits none, into a departure for a session that is not live, and
        // into a second event for a session that has one.
        let awaits = |session: u64| {
            let (.., pending) = frame.live.iter().find(|(id, ..)| *id == session)?;
            Some(bytes[*pending] != 0)
        };
        for &(kind, _) in (frame.events.iter())
            .filter(|&&(_, session)| awaits(session) == Some(false))
            .take(1)
        {
            malformed(rewritten(&bytes, frame, kind, &[1]), "confirm");
            refused[2] += 1;
        }
        let gone = (0..sessions).find(|&id| awaits(id).is_none());
        if let (Some(&(kind, ..)), Some(id)) = (frame.events.first(), gone) {
            let mut patch = [2; 9];
            patch[1..].copy_from_slice(&id.to_le_bytes());
            malformed(rewritten(&bytes, frame, kind, &patch), "departure");
            refused[3] += 1;
        }
        if let [(kind, _), (_, other), ..] = frame.events[..] {
            let patch = other.to_le_bytes();
            malformed(rewritten(&bytes, frame, kind + 1, &patch), "twice");
            refused[4] += 1;
        }
    }
    assert!(
        refused.iter().all(|&n| n > 0),
        "rewrites refused: {refused:?}"
    );
}
