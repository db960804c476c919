//! Peak heap of a fully observed drive.
//!
//! A seeded, contended, faulted fleet drives with every channel on — a
//! recorder with a tail-sampling tracer, explanations, an in-memory
//! journal, SLO windows and the full outcome log — and then hands its
//! journal over as the benchmark's observed workload does (a copy of the
//! bytes and the record ends). This file's allocator tracks the bytes live
//! on the test's thread and their high-water mark, which the test prints
//! as `heap.peak_bytes <n>`; the number is the same on every run.
//! `scripts/check.sh` fails when it is above `scripts/heap_ceiling.txt`:
//! lower the file when a change saves bytes, raise it visibly when one
//! must spend them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use news_on_demand::broker::{
    Broker, BrokerConfig, EventRetention, FaultPlan, FleetSpec, Journal, JournalConfig, SessionSpec,
};
use news_on_demand::client::ClientMachine;
use news_on_demand::cmfs::{Guarantee, ServerConfig, ServerFarm};
use news_on_demand::mmdb::{CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::obs::{default_fleet_slos, Recorder, RetentionPolicy, Tracer};
use news_on_demand::qosneg::negotiate::{NegotiationContext, StreamingMode};
use news_on_demand::qosneg::profile::tv_news_profile;
use news_on_demand::qosneg::{ClassificationStrategy, CostModel};
use news_on_demand::simcore::StreamRng;

thread_local! {
    /// Bytes live on this thread (freed elsewhere counts as never freed).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE`.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct PeakAlloc;

// SAFETY: every method delegates verbatim to `System`; only the
// thread-local counters are added, and they never allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

#[test]
fn an_all_channels_on_drive_reports_its_heap_peak() {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));

    let servers = 4;
    let mut rng = StreamRng::new(12);
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 64,
        servers: (0..servers).map(ServerId).collect(),
        ..CorpusParams::default()
    })
    .build(&mut rng.split());
    let farm = ServerFarm::uniform(servers as usize, ServerConfig::era_default());
    let network = Network::new(Topology::dumbbell(
        16,
        servers as usize,
        25_000_000,
        155_000_000,
    ));
    let cost_model = CostModel::era_default();
    let clients: Vec<ClientMachine> = (0..16)
        .map(|i| ClientMachine::era_workstation(ClientId(i)))
        .collect();
    let profile = tv_news_profile();
    let specs: Vec<SessionSpec<'_>> = (0..4_000u64)
        .map(|i| SessionSpec {
            client: &clients[(i % 16) as usize],
            document: DocumentId(rng.zipf(64, 0.9) as u64 + 1),
            profile: &profile,
            arrival_ms: i * 400,
            hold_ms: Some(20_000),
        })
        .collect();
    let faults = FaultPlan::seeded(
        &mut rng,
        &farm.ids(),
        &network.topology().link_ids(),
        1_600_000,
        3,
    );
    let recorder = Recorder::new();
    recorder.set_tracer(Tracer::with_sampling(RetentionPolicy::default()));
    farm.set_recorder(&recorder);
    network.set_recorder(recorder.clone());
    let ctx = NegotiationContext {
        catalog: &catalog,
        farm: &farm,
        network: &network,
        cost_model: &cost_model,
        strategy: ClassificationStrategy::SnsThenOif,
        guarantee: Guarantee::Guaranteed,
        enumeration_cap: 500_000,
        jitter_buffer_ms: 2_000,
        prune_dominated: false,
        streaming: StreamingMode::Auto,
        recorder: Some(&recorder),
        explain: false,
    };
    let broker = Broker::new(
        ctx,
        BrokerConfig {
            choice_period_ms: 300,
            ..BrokerConfig::era_default()
        },
    );
    let journal = Journal::in_memory(JournalConfig::default());
    let fleet = FleetSpec::new(&specs)
        .faults(&faults)
        .retention(EventRetention::Full)
        .windows(1_000)
        .slos(default_fleet_slos())
        .explain(RetentionPolicy::default())
        .journal(&journal);

    let report = broker.drive(&fleet);
    let bytes = journal.bytes();
    let ends = journal.event_record_ends();

    assert_eq!(report.leaked_streams, 0);
    assert!(
        report.retries > 0 && report.starved > 0,
        "the fleet must contend"
    );
    assert!(report.admitted > report.starved);
    assert!(report.faults_injected > 0);
    assert!(!ends.is_empty() && ends.len() <= report.events.len());
    assert!(!bytes.is_empty());
    let peak = PEAK.with(Cell::get) - start;
    println!("heap.peak_bytes {peak}");
}
