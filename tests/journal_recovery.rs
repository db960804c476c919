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
//! instead of a panic.

use news_on_demand::broker::{
    Broker, BrokerConfig, BrokerReport, CapacitySnapshot, FleetSpec, Journal, JournalConfig,
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
