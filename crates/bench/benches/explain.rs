//! B13 — decision-provenance overhead.
//!
//! Explanations must be free to leave compiled in: with `explain` off,
//! every hook on the negotiation hot path is a gated branch that performs
//! **zero heap allocations** — asserted here with a counting global
//! allocator, alongside per-negotiation allocation counts showing the
//! entire explain cost sits behind the gate. With tail-sampled
//! explanations live (the `--explain-out` default retention), a
//! 10k-session contended fleet run must stay within ~10% of the identical
//! unexplained run; the ratio is asserted outside `NOD_BENCH_FAST` (CI
//! smoke samples are too few to bound noise) and always emitted as a
//! metric.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use nod_bench::micro::Micro;
use nod_bench::standard_world;
use nod_client::ClientMachine;
use nod_cmfs::Guarantee;
use nod_mmdoc::{ClientId, DocumentId};
use nod_obs::RetentionPolicy;
use nod_qosneg::explain::DecisionLog;
use nod_qosneg::negotiate::{NegotiationContext, StreamingMode};
use nod_qosneg::profile::tv_news_profile;
use nod_qosneg::{ClassificationStrategy, NegotiationRequest, Session};
use nod_workload::{run_contended_with, ContendedConfig};

/// Counts heap allocations so the disabled-path check is exact, not a
/// timing judgement call. A single relaxed atomic add per allocation;
/// both timed benches share the overhead equally.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The contended fleet the overhead pair runs: 10k sessions, enough
/// refusals that retained failures carry real refusal records.
fn fleet_config(explain: bool) -> ContendedConfig {
    ContendedConfig {
        seed: 3,
        sessions: 10_000,
        servers: 8,
        explain: explain.then(RetentionPolicy::default),
        ..ContendedConfig::default()
    }
}

fn main() {
    let fast = std::env::var("NOD_BENCH_FAST").is_ok_and(|v| v == "1");
    let mut m = Micro::new();

    // Disabled hot path: the exact gate every negotiation runs — build
    // the (absent) log, then take each recording branch. All of it must
    // early-out before any allocation.
    const CALLS: u64 = 10_000;
    let before = alloc_count();
    for _ in 0..CALLS {
        let mut log: Option<Box<DecisionLog>> = black_box(false).then(Box::default);
        if let Some(l) = log.as_deref_mut() {
            l.feasible_variants += 1;
        }
        black_box(&log);
    }
    let disabled_hook_allocs = alloc_count() - before;
    m.metric(
        "b13_explain_hook/disabled_allocs_per_call",
        disabled_hook_allocs as f64 / CALLS as f64,
    );
    assert_eq!(
        disabled_hook_allocs, 0,
        "the explain-disabled hook path must not allocate"
    );

    // Per-negotiation attribution: the same negotiation with explain off
    // (twice — the count must be exactly reproducible) and on. Every
    // allocation the decision log costs must land behind the gate.
    let w = standard_world(11, 24, 2, 4);
    let ctx = |explain: bool| NegotiationContext {
        catalog: &w.catalog,
        farm: &w.farm,
        network: &w.network,
        cost_model: &w.cost,
        strategy: ClassificationStrategy::SnsThenOif,
        guarantee: Guarantee::Guaranteed,
        enumeration_cap: 2_000_000,
        jitter_buffer_ms: 2_000,
        prune_dominated: false,
        streaming: StreamingMode::Auto,
        recorder: None,
        explain,
    };
    let client = ClientMachine::era_workstation(ClientId(0));
    let profile = tv_news_profile();
    let negotiate = |explain: bool| -> u64 {
        let session = Session::new(ctx(explain));
        let request = NegotiationRequest::new(&client, DocumentId(1), &profile);
        let before = alloc_count();
        let outcome = session.submit(&request).expect("document 1 negotiates");
        let allocs = alloc_count() - before;
        assert_eq!(outcome.decisions.is_some(), explain, "gate honors the flag");
        if let Some(res) = &outcome.reservation {
            res.release(&w.farm, &w.network);
        }
        black_box(outcome);
        allocs
    };
    negotiate(false); // warm caches and lazy pools
    let off_a = negotiate(false);
    let off_b = negotiate(false);
    let on = negotiate(true);
    assert_eq!(
        off_a, off_b,
        "explain-disabled negotiation allocations must be exactly reproducible"
    );
    assert!(
        on > off_a,
        "explain-enabled negotiation must pay for its log behind the gate \
         (enabled {on} <= disabled {off_a})"
    );
    m.metric("b13_explain_allocs/disabled_per_negotiation", off_a as f64);
    m.metric("b13_explain_allocs/enabled_per_negotiation", on as f64);
    m.metric("b13_explain_allocs/added_by_explain", (on - off_a) as f64);

    // End-to-end overhead: a 10k-session contended fleet without and with
    // tail-sampled explanations. The timed window is the run itself;
    // serializing the artifact is offline export. Samples are *paired* —
    // unexplained and explained alternate — so machine-load drift lands
    // on both sides equally instead of biasing whichever ran second.
    let pairs = if fast { 2 } else { 7 };
    let mut plain_ns: Vec<f64> = Vec::with_capacity(pairs);
    let mut explained_ns: Vec<f64> = Vec::with_capacity(pairs);
    let mut retained = 0usize;
    let mut ledger_rows = 0usize;
    let mut plain_allocs = 0u64;
    let mut explained_allocs = 0u64;
    for i in 0..pairs + 1 {
        let cfg = fleet_config(false);
        let a0 = alloc_count();
        let t0 = std::time::Instant::now();
        let (result, _) = run_contended_with(&cfg, None);
        let plain = t0.elapsed().as_nanos() as f64;
        plain_allocs = alloc_count() - a0;
        black_box(result.retries);
        let cfg = fleet_config(true);
        let a0 = alloc_count();
        let t0 = std::time::Instant::now();
        let (result, report) = run_contended_with(&cfg, None);
        let explained = t0.elapsed().as_nanos() as f64;
        explained_allocs = alloc_count() - a0;
        black_box(result.retries);
        let explains = report.explains.expect("explain was enabled");
        retained = explains.sessions.len();
        ledger_rows = explains.ledger.len();
        if i > 0 {
            // pair 0 warms both paths and is discarded
            plain_ns.push(plain);
            explained_ns.push(explained);
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    let baseline = median(&mut plain_ns);
    let explained = median(&mut explained_ns);
    let ratio = explained / baseline;
    m.metric("b13_explain_overhead/plain_median_ns", baseline);
    m.metric("b13_explain_overhead/explained_median_ns", explained);
    m.metric("b13_explain_overhead/plain_allocs", plain_allocs as f64);
    m.metric(
        "b13_explain_overhead/explained_allocs",
        explained_allocs as f64,
    );
    m.metric("b13_explain_overhead/retained_sessions", retained as f64);
    m.metric("b13_explain_overhead/ledger_rows", ledger_rows as f64);
    m.metric("b13_explain_overhead/explained_over_plain", ratio);
    assert!(
        retained > 0 && ledger_rows > 1_000,
        "explained run retained suspiciously little: {retained} sessions, {ledger_rows} ledger rows"
    );
    if !fast {
        assert!(
            ratio <= 1.10,
            "explain overhead {:.1}% exceeds the 10% budget \
             (plain {baseline:.0} ns, explained {explained:.0} ns)",
            (ratio - 1.0) * 100.0,
        );
    }

    m.report();
}
