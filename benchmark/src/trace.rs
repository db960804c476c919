//! The traced run: per-layer metrics, measured from outside.
//!
//! Kept apart from the timed runs. Every layer is timed through its
//! public functions with the benchmark's own span recorder; nothing
//! inside the program is instrumented. One traced run does five things:
//!
//! 1. builds the workload's world, timing each set-up stage;
//! 2. replays a prefix of the workload's own requests through
//!    `prepare` → `commit_prepared` → `SessionReservation::release`
//!    under spans (tree: `session` → `qosneg.prepare` / `qosneg.commit` /
//!    `qosneg.release`), traced and untraced;
//! 3. drives the workload's fleet once for the broker's counts and
//!    attributes the drive time to the replayed per-call costs;
//! 4. micro-probes the lower layers on that world, half loaded;
//! 5. runs paired on/off drives of the reference fleet, one per channel.
//!
//! Layers a workload does not run are measured on a small reference
//! world instead, so that every traced run prints every metric:
//! `click_mixed` takes its broker rows from metro world(10 000), and the
//! fleets take the per-class `submit` rows from a 512-article click
//! corpus.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use nod_broker::{Broker, BrokerConfig, EventRetention, FleetSpec, Journal, JournalConfig, Slab};
use nod_cmfs::{Guarantee, StreamRequirement};
use nod_mmdoc::{ClientId, DocumentId, MediaKind, MonomediaId, ServerId, Variant};
use nod_obs::Recorder;
use nod_qosneg::negotiate::{commit_prepared, prepare, Prepared};
use nod_qosneg::{NegotiationRequest, OfferEngine, Session, SessionReservation};
use nod_simcore::{EventQueue, SimTime, StreamRng, ZipfSampler};

use crate::metrics::Values;
use crate::run::{lap_seeds, out_dir, RunArgs};
use crate::spans::{self_seconds_by_name, unattributed_share, SpanLog};
use crate::stats::{mean, median, percentile};
use crate::workloads::{run_fleet, Channels, Plan, CLICK_HELD, SMOKE_DIVISOR};
use crate::worlds::{
    metro_network, ArticleClass, ClickParams, MetroParams, Request, UserMix, World, HOLD_MS,
};

/// Requests the span replay covers at most.
const REPLAY_MAX: usize = 20_000;
/// Sessions of the reference fleet: metro world(10 000), healthy farm.
const REFERENCE_SESSIONS: usize = 10_000;
/// Articles of the reference click corpus.
const REFERENCE_ARTICLES: usize = 512;
/// Calls per micro-probe, and calls per span within one.
const PROBE_CALLS: usize = 10_000;
const PROBE_BATCH: usize = 100;
/// Paired on/off rounds per channel.
const TAX_ROUNDS: usize = 4;

pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Total self time per span name, s.
    pub self_seconds: Vec<(&'static str, f64)>,
    pub spans_path: PathBuf,
}

/// When the replay gives a reservation back.
#[derive(Clone, Copy)]
enum ReleaseRule {
    /// At arrival + hold on the replay's own virtual clock (fleets).
    AtHold,
    /// When more than this many are held, the oldest (click).
    Rolling(usize),
}

#[derive(Default)]
struct Replay {
    wall_s: f64,
    offers: Vec<f64>,
    tried: Vec<f64>,
    first_offer: u64,
    ok: u64,
    refused: u64,
    errored: u64,
}

/// Replay `requests` through the prepare/commit pair the broker uses,
/// one span per call. No retries: a refused session is simply gone.
fn replay(world: &World, requests: &[Request], rule: ReleaseRule, log: &mut SpanLog) -> Replay {
    let ctx = world.ctx();
    let mut out = Replay::default();
    let mut due: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut rolling: VecDeque<u32> = VecDeque::new();
    let mut held: HashMap<u32, (SessionReservation, u32)> = HashMap::new();
    let release =
        |log: &mut SpanLog, held: &mut HashMap<u32, (SessionReservation, u32)>, s: u32| {
            let (reservation, parent) = held.remove(&s).expect("held sessions are tracked");
            let span = log.open("qosneg.release", parent, s);
            reservation.release(&world.farm, &world.network);
            log.close(span);
        };
    let t = Instant::now();
    for (i, request) in requests.iter().enumerate() {
        let s = i as u32 + 1;
        if let ReleaseRule::AtHold = rule {
            while due
                .peek()
                .is_some_and(|Reverse((at, _))| *at <= request.arrival_ms)
            {
                let Reverse((_, leaving)) = due.pop().expect("peeked");
                release(log, &mut held, leaving);
            }
        }
        let (client, profile) = world.user(request);
        let session = log.open("session", 0, s);
        let span = log.open("qosneg.prepare", session, s);
        let prepared = prepare(&ctx, client, request.document, profile);
        log.close(span);
        match prepared {
            Ok(Prepared::Offers(ordered, trace, decisions)) => {
                out.offers.push(ordered.len() as f64);
                let span = log.open("qosneg.commit", session, s);
                let outcome = commit_prepared(&ctx, client, profile, ordered, trace, decisions);
                out.tried.push(outcome.trace.reservation_attempts as f64);
                match outcome.reservation {
                    Some(reservation) => {
                        log.close(span);
                        out.ok += 1;
                        out.first_offer += u64::from(outcome.trace.reservation_attempts == 1);
                        held.insert(s, (reservation, session));
                        match rule {
                            ReleaseRule::AtHold => {
                                due.push(Reverse((request.arrival_ms + HOLD_MS, s)));
                            }
                            ReleaseRule::Rolling(_) => rolling.push_back(s),
                        }
                    }
                    None => {
                        log.close_as(span, "qosneg.commit.refused");
                        out.refused += 1;
                    }
                }
            }
            // Ended before step 5: a local or no-offer refusal.
            Ok(Prepared::Early(_)) => out.refused += 1,
            Err(_) => out.errored += 1,
        }
        log.close(session);
        if let ReleaseRule::Rolling(max) = rule {
            if rolling.len() > max {
                release(log, &mut held, rolling.pop_front().expect("non-empty"));
            }
        }
    }
    let leftover: Vec<u32> = {
        let mut v: Vec<u32> = held.keys().copied().collect();
        v.sort_unstable();
        v
    };
    for s in leftover {
        release(log, &mut held, s);
    }
    out.wall_s = t.elapsed().as_secs_f64();
    out
}

/// Durations, µs, of every span called `name`.
fn span_us(log: &SpanLog, name: &str) -> Vec<f64> {
    log.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

fn span_ns(log: &SpanLog, id: u32) -> u64 {
    log.spans()[id as usize - 1].duration_ns()
}

/// Time `calls` invocations of `f`, one span per [`PROBE_BATCH`] calls,
/// and return the mean ns per call.
fn probe(log: &mut SpanLog, name: &'static str, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut ns = 0u64;
    let mut i = 0;
    while i < calls {
        let n = PROBE_BATCH.min(calls - i);
        let span = log.open(name, 0, 0);
        for k in i..i + n {
            f(k);
        }
        log.close(span);
        ns += span_ns(log, span);
        i += n;
    }
    ns as f64 / calls.max(1) as f64
}

/// A document's candidate variants per component.
type PerMono<'w> = Vec<(MonomediaId, Vec<&'w Variant>)>;

/// Step 2 of the negotiation, as `prepare` does it: the document's
/// variants the client can decode and reach, and each component's
/// duration.
fn feasible<'w>(world: &'w World, request: &Request) -> (PerMono<'w>, HashMap<MonomediaId, u64>) {
    let (client, _) = world.user(request);
    let per_mono = world
        .catalog
        .variants_of_document(request.document)
        .expect("requests name catalog documents")
        .into_iter()
        .map(|(mono, variants)| {
            let ok = variants
                .into_iter()
                .filter(|v| client.feasible(v))
                .filter(|v| world.network.path(client.id, v.server).is_ok())
                .collect();
            (mono, ok)
        })
        .collect();
    let durations = world
        .catalog
        .document(request.document)
        .expect("requests name catalog documents")
        .monomedia()
        .iter()
        .map(|m| (m.id, m.duration_ms))
        .collect();
    (per_mono, durations)
}

/// The offer engine's three costs on a sample of the workload's
/// requests: build, eager classify-all, and the stream's first yield.
fn engine_probes(world: &World, requests: &[Request], log: &mut SpanLog, values: &mut Values) {
    let ctx = world.ctx();
    let stride = (requests.len() / 500).max(1);
    let (mut build, mut classify, mut first) = (Vec::new(), Vec::new(), Vec::new());
    for request in requests.iter().step_by(stride) {
        let (_, profile) = world.user(request);
        let (per_mono, durations) = feasible(world, request);
        let span = log.open("qosneg.engine_build", 0, 0);
        let engine = OfferEngine::build(
            &per_mono,
            &durations,
            profile,
            ctx.cost_model,
            ctx.guarantee,
            ctx.strategy,
            ctx.enumeration_cap,
        );
        log.close(span);
        let Ok(engine) = engine else { continue };
        build.push(span_ns(log, span) as f64 / 1e3);
        let span = log.open("qosneg.classify_all", 0, 0);
        black_box(engine.classify_all());
        log.close(span);
        classify.push(span_ns(log, span) as f64 / 1e3);
        if engine.streaming_supported() {
            let span = log.open("qosneg.stream_first", 0, 0);
            black_box(engine.reservation_stream().next());
            log.close(span);
            first.push(span_ns(log, span) as f64 / 1e3);
        }
    }
    values.set("qosneg.engine_build_us", mean(&build));
    values.set("qosneg.classify_all_us", mean(&classify));
    values.set("qosneg.stream_first_us", mean(&first));
}

/// Median `Session::submit` latency per article class on a click
/// corpus, each reservation released at once.
fn submit_by_class(world: &World, values: &mut Values) {
    let session = Session::new(world.ctx());
    let mut us: [Vec<f64>; 3] = Default::default();
    for request in &world.requests {
        let class = world.classes[request.document.0 as usize - 1] as usize;
        if us[class].len() >= 300 {
            continue;
        }
        let (client, profile) = world.user(request);
        let req = NegotiationRequest::new(client, request.document, profile);
        let t = Instant::now();
        let outcome = session.submit(&req);
        us[class].push(t.elapsed().as_nanos() as f64 / 1e3);
        if let Ok(Some(r)) = outcome.map(|o| o.reservation) {
            session.release(&r);
        }
    }
    let p50 = |c: ArticleClass| {
        let v = &us[c as usize];
        if v.is_empty() {
            0.0
        } else {
            median(v)
        }
    };
    values.set("qosneg.submit_standard_p50_us", p50(ArticleClass::Standard));
    values.set("qosneg.submit_rich_p50_us", p50(ArticleClass::Rich));
    values.set("qosneg.submit_wide_p50_us", p50(ArticleClass::Wide));
}

/// Micro-probes of `mmdb`, `cmfs`, `netsim`, `simcore`, `broker::Slab`,
/// `obs` and the span recorder itself, on `world` as it stands.
fn layer_probes(world: &World, peak_live: usize, log: &mut SpanLog, values: &mut Values) {
    let documents = world.catalog.document_count() as u64;
    let ns = probe(log, "mmdb.variants_of_document", PROBE_CALLS, |k| {
        black_box(
            world
                .catalog
                .variants_of_document(DocumentId(k as u64 % documents + 1))
                .ok(),
        );
    });
    values.set("mmdb.variants_of_document_ns", ns);

    // cmfs: the median clip's requirement against every server.
    let mut clips: Vec<&Variant> = world
        .catalog
        .variants()
        .filter(|v| v.format.media_kind() == MediaKind::Video)
        .collect();
    clips.sort_by_key(|v| (v.avg_bit_rate(), v.id));
    let clip = clips[clips.len() / 2];
    let req = StreamRequirement::for_variant(clip, Guarantee::Guaranteed);
    let servers = world.farm.ids();
    let admitted: Vec<_> = servers
        .iter()
        .filter_map(|&s| world.farm.try_reserve(s, req).ok().map(|id| (s, id)))
        .collect();
    values.set(
        "cmfs.admit_ok_share",
        admitted.len() as f64 / servers.len() as f64,
    );
    for &(s, id) in &admitted {
        world.farm.release(s, id);
    }
    // The ok path on the server with the most room, a few at a time so
    // that the batch itself never fills it; the refused path on a full
    // one.
    const FEW: usize = 2;
    let room = |s: ServerId| {
        let fit: Vec<_> = (0..2 * FEW)
            .map_while(|_| world.farm.try_reserve(s, req).ok())
            .collect();
        for &id in &fit {
            world.farm.release(s, id);
        }
        fit.len()
    };
    let roomy = *servers
        .iter()
        .max_by_key(|&&s| (room(s), Reverse(s)))
        .expect("every farm has servers");
    let mut ids = Vec::with_capacity(FEW);
    let (mut reserve_ns, mut release_ns, mut ok_calls) = (0u64, 0u64, 0usize);
    while ok_calls < PROBE_CALLS {
        let span = log.open("cmfs.try_reserve", 0, 0);
        for _ in 0..FEW {
            ids.extend(world.farm.try_reserve(roomy, req).ok());
        }
        log.close(span);
        let reserved = ids.len();
        let reserve = span_ns(log, span);
        let span = log.open("cmfs.release", 0, 0);
        for id in ids.drain(..) {
            world.farm.release(roomy, id);
        }
        log.close(span);
        if reserved < FEW {
            // Not even a few fit: this world has no ok path to time.
            break;
        }
        reserve_ns += reserve;
        release_ns += span_ns(log, span);
        ok_calls += FEW;
    }
    values.set(
        "cmfs.try_reserve_ok_ns",
        reserve_ns as f64 / ok_calls.max(1) as f64,
    );
    values.set(
        "cmfs.release_ns",
        release_ns as f64 / ok_calls.max(1) as f64,
    );
    let mut fill = Vec::new();
    while let Ok(id) = world.farm.try_reserve(roomy, req) {
        fill.push(id);
    }
    let ns = probe(log, "cmfs.try_reserve.refused", PROBE_CALLS, |_| {
        black_box(world.farm.try_reserve(roomy, req).is_err());
    });
    values.set("cmfs.try_reserve_refused_ns", ns);
    for id in fill {
        world.farm.release(roomy, id);
    }

    // netsim: cached routes, cold routes on a fresh network, and a
    // small reservation along one route.
    let clients = world.users.len();
    // Distinct pairs until every client has met every server.
    let pair = |k: usize| {
        (
            ClientId((k % clients) as u64),
            servers[k / clients % servers.len()],
        )
    };
    let pairs = (clients * servers.len()).min(PROBE_CALLS);
    for k in 0..pairs {
        let (c, s) = pair(k);
        black_box(world.network.path(c, s).ok());
    }
    let ns = probe(log, "netsim.path.hit", PROBE_CALLS, |k| {
        let (c, s) = pair(k);
        black_box(world.network.path(c, s).ok());
    });
    values.set("netsim.path_hit_ns", ns);
    let cold = metro_network(servers.len());
    let ns = probe(log, "netsim.path.miss", pairs, |k| {
        let (c, s) = pair(k);
        black_box(cold.path(c, s).ok());
    });
    values.set("netsim.path_miss_us", ns / 1e3);
    let mut net_ids = Vec::with_capacity(PROBE_BATCH);
    let (mut reserve_ns, mut net_release_ns) = (0u64, 0u64);
    for batch in 0..PROBE_CALLS / PROBE_BATCH {
        let span = log.open("netsim.try_reserve", 0, 0);
        for k in 0..PROBE_BATCH {
            let (c, s) = pair(batch * PROBE_BATCH + k);
            net_ids.extend(world.network.try_reserve(c, s, 64_000).ok());
        }
        log.close(span);
        reserve_ns += span_ns(log, span);
        let span = log.open("netsim.release", 0, 0);
        for id in net_ids.drain(..) {
            world.network.release(id);
        }
        log.close(span);
        net_release_ns += span_ns(log, span);
    }
    values.set(
        "netsim.try_reserve_ns",
        reserve_ns as f64 / PROBE_CALLS as f64,
    );
    values.set(
        "netsim.release_ns",
        net_release_ns as f64 / PROBE_CALLS as f64,
    );

    // simcore: the event queue at the workload's peak-live depth.
    let depth = peak_live.max(1);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut rng = StreamRng::new(depth as u64);
    for i in 0..depth {
        queue.schedule(SimTime::from_millis(rng.below(HOLD_MS)), i as u32);
    }
    let ns = probe(log, "simcore.event_queue", PROBE_CALLS, |_| {
        let (at, e) = queue.pop().expect("the queue never drains");
        queue.schedule(at + nod_simcore::SimDuration::from_millis(HOLD_MS), e);
    });
    values.set("simcore.event_queue_ns_per_op", ns / 2.0);
    let zipf = ZipfSampler::new(documents as usize, 0.3);
    let ns = probe(log, "simcore.zipf_sample", PROBE_CALLS, |_| {
        black_box(zipf.sample(&mut rng));
    });
    values.set("simcore.zipf_sample_ns", ns);

    // broker: slab churn at the same depth.
    let mut slab: Slab<u64> = Slab::with_capacity(depth);
    let mut slots: VecDeque<u32> = (0..depth).map(|i| slab.insert(i as u64)).collect();
    let ns = probe(log, "broker.slab", PROBE_CALLS, |k| {
        let slot = slots.pop_front().expect("the slab never drains");
        black_box(slab.remove(slot));
        slots.push_back(slab.insert(k as u64));
    });
    values.set("broker.slab_ns_per_op", ns / 2.0);

    // obs: one counter bump and one span on a sharded recorder.
    let rec = Recorder::sharded(2);
    let ns = probe(log, "obs.counter", PROBE_CALLS, |_| {
        rec.counter("bench.probe", 1)
    });
    values.set("obs.counter_ns", ns);
    let ns = probe(log, "obs.span", PROBE_CALLS, |_| {
        rec.span("bench.probe").end()
    });
    values.set("obs.span_ns", ns);

    // bench: what one of this recorder's own spans costs.
    let mut own = SpanLog::new(true);
    let t = Instant::now();
    for _ in 0..PROBE_CALLS {
        let span = own.open("bench.span", 0, 0);
        own.close(span);
    }
    values.set(
        "bench.span_overhead_ns",
        t.elapsed().as_nanos() as f64 / PROBE_CALLS as f64,
    );
}

/// Drive-time ratios on the reference fleet. Each round drives the base
/// and every variant once, on a fresh world each. Interference on a
/// shared host only ever slows a drive down, so a ratio compares the
/// fastest drive of the variant with the fastest drive of its base.
fn channel_taxes(seed: u64, metro: &MetroParams, values: &mut Values) {
    let with = |f: fn(&mut Channels)| {
        let mut c = Channels::none();
        f(&mut c);
        c
    };
    // (drive, channels, workers); `taxes` below pairs them up.
    let drives: [(Channels, usize); 10] = [
        (Channels::none(), 1),
        (with(|c| c.recorder = true), 1),
        (with(|c| c.tracer = true), 1),
        (with(|c| c.explain = true), 1),
        (with(|c| c.journal = Some(JournalConfig::default())), 1),
        (with(|c| c.retention = EventRetention::Full), 1),
        (with(|c| c.slos = true), 1),
        (with(|c| c.retention = EventRetention::CountsOnly), 1),
        (Channels::all(), 1),
        (Channels::none(), 2),
    ];
    // (metric, variant, base), as indices into `drives`.
    let taxes: [(&'static str, usize, usize); 8] = [
        ("obs.recorder_tax", 1, 0),
        ("obs.trace_tax", 2, 1),
        ("qosneg.explain_tax", 3, 0),
        ("broker.journal_tax", 4, 0),
        ("broker.retention_full_tax", 5, 0),
        // Windows and SLO folds, against a run that keeps counts only.
        ("broker.windows_slo_tax", 6, 7),
        ("obs.all_on_tax", 8, 0),
        ("broker.w2_over_w1", 9, 0),
    ];
    let mut fastest = [f64::INFINITY; 10];
    for _ in 0..TAX_ROUNDS {
        for (best, (channels, workers)) in fastest.iter_mut().zip(&drives) {
            *best = best.min(run_fleet(seed, metro, *workers, channels, 0).drive_s);
        }
    }
    for (name, variant, base) in taxes {
        values.set(name, fastest[variant] / fastest[base]);
    }
}

/// Journal a reference drive without compaction, cut the journal at
/// half of its event records, and time `Broker::recover` from the cut.
fn recovery_probe(seed: u64, metro: &MetroParams, values: &mut Values) -> Result<(), String> {
    let mut channels = Channels::none();
    channels.journal = Some(JournalConfig {
        compact: false,
        ..JournalConfig::default()
    });
    let run = run_fleet(seed, metro, 1, &channels, 0);
    let mut journaled = run.journal.expect("the drive was journaled");
    values.set(
        "broker.journal_bytes_per_event",
        journaled.stats.bytes as f64 / journaled.stats.events_appended.max(1) as f64,
    );
    let ends = &journaled.event_record_ends;
    journaled.bytes.truncate(ends[ends.len() / 2]);
    let journal = Journal::from_bytes(journaled.bytes, JournalConfig::default());

    let world = World::metro(seed, metro);
    let specs = world.specs();
    let broker = Broker::new(world.ctx(), BrokerConfig::era_default());
    let fleet = FleetSpec::new(&specs)
        .faults(&world.faults)
        .retention(EventRetention::WindowsOnly)
        .journal(&journal);
    let t = Instant::now();
    let recovered = broker
        .recover(&fleet)
        .map_err(|e| format!("recover failed: {e}"))?;
    values.set("broker.recover_s", t.elapsed().as_secs_f64());
    values.set(
        "broker.recover_replayed_events",
        recovered.replayed_events as f64,
    );
    if recovered.report.results != run.report.results {
        return Err("the recovered run ended differently from the uninterrupted one".into());
    }
    Ok(())
}

pub fn trace(args: &RunArgs) -> Result<Traced, String> {
    let seed = lap_seeds(args.seed).next().expect("endless");
    let div = if args.smoke { SMOKE_DIVISOR } else { 1 };
    let plan = args.workload.plan(args.smoke);
    let reference_metro = MetroParams {
        sessions: REFERENCE_SESSIONS / div,
        streams_per_server: 12,
        fault_windows: 0,
        users: UserMix::Stratified,
    };
    let reference_click = ClickParams {
        documents: REFERENCE_ARTICLES / div.min(8),
        requests: 6_000 / div.min(8),
    };
    // The fleet the broker rows come from, and how to build the world
    // the replay runs on.
    let (fleet_metro, fleet_workers, fleet_channels, rule) = match plan {
        Plan::Fleet {
            metro,
            workers,
            channels,
            ..
        } => (metro, workers, channels, ReleaseRule::AtHold),
        Plan::Click { .. } => (
            reference_metro,
            1,
            Channels::none(),
            ReleaseRule::Rolling(CLICK_HELD),
        ),
    };
    let build = || match plan {
        Plan::Fleet { metro, .. } => World::metro(seed, &metro),
        Plan::Click { click, .. } => World::click(seed, &click),
    };
    let mut values = Values::default();
    let mut log = SpanLog::new(true);

    // 1. Set-up stages.
    let world = build();
    values.set("workload.world_build_s", world.stages.world);
    values.set("workload.schedule_build_s", world.stages.schedule);
    values.set("mmdb.corpus_build_s", world.stages.corpus);
    values.set("mmdb.documents", world.catalog.document_count() as f64);
    values.set("mmdb.variants", world.catalog.variant_count() as f64);
    values.set("netsim.topology_build_s", world.stages.topology);

    // 2. The span replay, untraced on one fresh world and traced on
    // another, so both start with a cold route cache. A short discarded
    // replay first, so neither pays for growing the heap.
    let prefix = world.requests.len().min(REPLAY_MAX);
    replay(
        &world,
        &world.requests[..prefix / 8],
        rule,
        &mut SpanLog::new(false),
    );
    let world = build();
    let untraced = replay(
        &world,
        &world.requests[..prefix],
        rule,
        &mut SpanLog::new(false),
    );
    let world = build();
    let traced = replay(&world, &world.requests[..prefix], rule, &mut log);
    let prepare_us = span_us(&log, "qosneg.prepare");
    let commit_ok_us = span_us(&log, "qosneg.commit");
    let commit_refused_us = span_us(&log, "qosneg.commit.refused");
    let release_us = span_us(&log, "qosneg.release");
    values.set("qosneg.prepare_us", mean(&prepare_us));
    values.set("qosneg.prepare_p99_us", percentile(&prepare_us, 99.0));
    values.set("qosneg.prepare_calls", prepare_us.len() as f64);
    values.set("qosneg.offers_per_prepare", mean(&traced.offers));
    values.set("qosneg.commit_ok_us", mean(&commit_ok_us));
    values.set("qosneg.commit_refused_us", mean(&commit_refused_us));
    values.set("qosneg.commit_offers_tried", mean(&traced.tried));
    values.set(
        "qosneg.commit_first_offer_share",
        traced.first_offer as f64 / traced.ok.max(1) as f64,
    );
    values.set("qosneg.release_us", mean(&release_us));
    values.set("bench.trace_overhead", traced.wall_s / untraced.wall_s);
    if (traced.ok, traced.refused) != (untraced.ok, untraced.refused) {
        return Err("tracing changed what the replay decided".into());
    }
    engine_probes(&world, &world.requests[..prefix], &mut log, &mut values);

    // Per-class submit rows: the workload's corpus if it is a click
    // corpus, else the reference one.
    match plan {
        Plan::Click { .. } => submit_by_class(&world, &mut values),
        Plan::Fleet { .. } => submit_by_class(&World::click(seed, &reference_click), &mut values),
    }

    // 3. The fleet drive and its attribution. The per-call costs come
    // from a replay on the same fleet's world.
    let run = run_fleet(seed, &fleet_metro, fleet_workers, &fleet_channels, 0);
    let r = &run.report;
    if r.leaked_streams != 0 {
        return Err(format!("drive leaked {} streams", r.leaked_streams));
    }
    let offered = run.offered as u64;
    let attempts = offered + r.retries;
    let fleet_log = match plan {
        Plan::Fleet { .. } => None,
        Plan::Click { .. } => {
            let w = World::metro(seed, &fleet_metro);
            let mut l = SpanLog::new(true);
            replay(
                &w,
                &w.requests[..w.requests.len().min(REPLAY_MAX)],
                ReleaseRule::AtHold,
                &mut l,
            );
            Some(l)
        }
    };
    let cost_s = |name| mean(&span_us(fleet_log.as_ref().unwrap_or(&log), name)) / 1e6;
    let admitted = r.admitted as u64;
    values.set("broker.drive_s", run.drive_s);
    values.set("broker.us_per_session", run.drive_s * 1e6 / offered as f64);
    values.set("broker.us_per_attempt", run.drive_s * 1e6 / attempts as f64);
    values.set("broker.attempts", attempts as f64);
    values.set("broker.retries", r.retries as f64);
    values.set("broker.events", run.events() as f64);
    values.set("broker.peak_live_sessions", r.peak_live_sessions as f64);
    values.set(
        "broker.failed_share",
        (r.starved + r.rejected + r.errored) as f64 / offered as f64,
    );
    values.set("broker.session_p99_virtual_ms", r.latency.p99);
    values.set(
        "broker.unattributed_share",
        unattributed_share(
            run.drive_s,
            &[
                (attempts, cost_s("qosneg.prepare")),
                (admitted, cost_s("qosneg.commit")),
                (attempts - admitted, cost_s("qosneg.commit.refused")),
                (admitted, cost_s("qosneg.release")),
            ],
        ),
    );
    // The same generator at a fifth of the sessions.
    let fifth = MetroParams {
        sessions: fleet_metro.sessions / 5,
        ..fleet_metro
    };
    let small = run_fleet(seed, &fifth, 1, &Channels::none(), 0);
    let plain = if (fleet_workers, fleet_channels) == (1, Channels::none()) {
        run.drive_s
    } else {
        run_fleet(seed, &fleet_metro, 1, &Channels::none(), 0).drive_s
    };
    values.set(
        "broker.scale_sag",
        (plain / fleet_metro.sessions as f64) / (small.drive_s / fifth.sessions as f64),
    );

    // 4. Lower layers, on the replay's world loaded with the first half
    // of the prefix and nothing released.
    let world = build();
    let session = Session::new(world.ctx());
    let loaded: Vec<SessionReservation> = world.requests[..prefix / 2]
        .iter()
        .take(match rule {
            ReleaseRule::AtHold => r.peak_live_sessions / 2,
            ReleaseRule::Rolling(max) => max / 2,
        })
        .filter_map(|request| {
            let (client, profile) = world.user(request);
            let req = NegotiationRequest::new(client, request.document, profile);
            session.submit(&req).ok().and_then(|o| o.reservation)
        })
        .collect();
    layer_probes(&world, r.peak_live_sessions, &mut log, &mut values);
    for reservation in &loaded {
        session.release(reservation);
    }

    // 5. Channel taxes and recovery, on the reference fleet.
    channel_taxes(seed, &reference_metro, &mut values);
    recovery_probe(seed, &reference_metro, &mut values)?;

    #[cfg(feature = "count-allocs")]
    {
        let world = build();
        let before = crate::alloc::count();
        let counted = replay(
            &world,
            &world.requests[..prefix],
            rule,
            &mut SpanLog::new(false),
        );
        black_box(counted.ok);
        values.set(
            "qosneg.allocs_per_negotiation",
            (crate::alloc::count() - before) as f64 / prefix as f64,
        );
    }

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let spans_path = dir.join(format!(
        "{}-s{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    log.write_jsonl(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    Ok(Traced {
        attempted: prefix as u64,
        failed: traced.errored,
        values,
        self_seconds: self_seconds_by_name(log.spans()),
        spans_path,
    })
}
