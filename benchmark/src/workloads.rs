//! The five named workloads and the timed section of each.

use std::collections::VecDeque;
use std::time::Instant;

use nod_broker::{
    Broker, BrokerConfig, BrokerReport, CapacitySnapshot, EventRetention, FleetSpec, Journal,
    JournalConfig, JournalStats,
};
use nod_obs::{default_fleet_slos, Recorder, RetentionPolicy, Tracer};
use nod_qosneg::{NegotiationOutcome, NegotiationRequest, QosError, Session, SessionReservation};

use crate::digest::{fleet_digest, fold_outcome, Fnv1a};
use crate::worlds::{ClickParams, MetroParams, Request, UserMix, World};

/// Offered sessions of the three fleets that share one spec.
const FLEET_SESSIONS: usize = 50_000;
/// Offered sessions of the overload fleet.
const OVERLOAD_SESSIONS: usize = 10_000;
/// Articles in the click corpus.
const CLICK_DOCUMENTS: usize = 4_096;
/// Submits per click lap; the first `CLICK_UNTIMED` of them are untimed.
const CLICK_OPS: usize = 50_000;
const CLICK_UNTIMED: usize = 1_000;
/// Reservations a click client holds before releasing the oldest.
pub const CLICK_HELD: usize = 200;
/// Submits of the viewer probe a fleet lap runs after its drive.
const PROBE_OPS: usize = 20_000;
/// `--smoke` runs every workload at this fraction of its size.
pub const SMOKE_DIVISOR: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    FleetSharded,
    FleetObserved,
    FleetOverload,
    ClickMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FleetSteady,
        Workload::FleetSharded,
        Workload::FleetObserved,
        Workload::FleetOverload,
        Workload::ClickMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetSharded => "fleet_sharded",
            Workload::FleetObserved => "fleet_observed",
            Workload::FleetOverload => "fleet_overload",
            Workload::ClickMixed => "click_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one lap of the workload runs, at full size or `--smoke` size.
    pub fn plan(self, smoke: bool) -> Plan {
        let div = if smoke { SMOKE_DIVISOR } else { 1 };
        let metro = |sessions: usize, streams_per_server, fault_windows| MetroParams {
            sessions: sessions / div,
            streams_per_server,
            fault_windows,
            users: UserMix::Stratified,
        };
        let fleet = |metro, workers, channels| Plan::Fleet {
            metro,
            workers,
            channels,
            probe_ops: PROBE_OPS / div,
        };
        match self {
            Workload::FleetSteady => fleet(metro(FLEET_SESSIONS, 12, 0), 1, Channels::none()),
            Workload::FleetSharded => fleet(metro(FLEET_SESSIONS, 12, 0), 2, Channels::none()),
            Workload::FleetObserved => fleet(metro(FLEET_SESSIONS, 12, 0), 1, Channels::all()),
            Workload::FleetOverload => {
                fleet(metro(OVERLOAD_SESSIONS, 120, 16), 1, Channels::none())
            }
            Workload::ClickMixed => Plan::Click {
                click: ClickParams {
                    documents: CLICK_DOCUMENTS / div,
                    requests: CLICK_OPS / div,
                },
                untimed: CLICK_UNTIMED / div,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Plan {
    Fleet {
        metro: MetroParams,
        workers: usize,
        channels: Channels,
        probe_ops: usize,
    },
    Click {
        click: ClickParams,
        untimed: usize,
    },
}

impl Plan {
    /// The plan whose digest this one must reproduce: the same fleet at
    /// one worker with every channel off. Worker count and observation
    /// may cost time, but must not change the story.
    pub fn reference(self) -> Plan {
        match self {
            Plan::Fleet {
                metro, probe_ops, ..
            } => Plan::Fleet {
                metro,
                workers: 1,
                channels: Channels::none(),
                probe_ops,
            },
            click => click,
        }
    }

    pub fn lap(&self, seed: u64) -> Result<Lap, String> {
        match *self {
            Plan::Fleet {
                metro,
                workers,
                channels,
                probe_ops,
            } => {
                let run = run_fleet(seed, &metro, workers, &channels, probe_ops);
                run.lap()
            }
            Plan::Click { click, untimed } => run_click(seed, &click, untimed),
        }
    }
}

/// Which observability and persistence channels a fleet drive turns on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channels {
    /// Sharded `Recorder` on the context, the farm and the network.
    pub recorder: bool,
    /// Tail-sampling `Tracer` on that recorder (implies the recorder).
    pub tracer: bool,
    /// `FleetSpec::explain(RetentionPolicy::default())`.
    pub explain: bool,
    /// `Journal::in_memory` — off disk, so the number measures the
    /// program and not this host's storage.
    pub journal: Option<JournalConfig>,
    /// `default_fleet_slos()` over `windows(1000)`.
    pub slos: bool,
    pub retention: EventRetention,
}

impl Channels {
    pub fn none() -> Channels {
        Channels {
            recorder: false,
            tracer: false,
            explain: false,
            journal: None,
            slos: false,
            retention: EventRetention::WindowsOnly,
        }
    }

    pub fn all() -> Channels {
        Channels {
            recorder: true,
            tracer: true,
            explain: true,
            journal: Some(JournalConfig::default()),
            slos: true,
            retention: EventRetention::Full,
        }
    }
}

/// One lap: a fresh world built (timed as set-up) and the timed section
/// run once on it, cold route cache included — a user pays both on
/// every launch.
#[derive(Debug, Clone)]
pub struct Lap {
    pub setup_s: f64,
    pub timed_s: f64,
    /// Offered sessions (fleet) or timed submits (click).
    pub ops: u64,
    /// Ops that ended holding a reservation.
    pub served: u64,
    /// Ops that errored instead of reaching a negotiation status.
    pub errored: u64,
    pub digest: u64,
    /// Host µs of each `Session::submit`: every timed op of a click lap,
    /// or the viewer probe a fleet lap runs on its drained world.
    pub negotiate_us: Vec<f64>,
}

/// Workers are clamped to the cores this host has.
fn clamp_workers(workers: usize) -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    workers.clamp(1, nproc)
}

/// What a journaled drive left behind.
pub struct Journaled {
    pub stats: JournalStats,
    pub bytes: Vec<u8>,
    /// Byte offsets just past each event record.
    pub event_record_ends: Vec<usize>,
}

pub struct FleetRun {
    pub offered: usize,
    pub setup_s: f64,
    pub drive_s: f64,
    pub report: BrokerReport,
    pub journal: Option<Journaled>,
    pub probe_us: Vec<f64>,
    probe_leaked: usize,
}

impl FleetRun {
    /// Events the drive emitted, whatever the retention kept.
    pub fn events(&self) -> u64 {
        if !self.report.events.is_empty() {
            return self.report.events.len() as u64;
        }
        self.report
            .windows
            .iter()
            .map(|w| w.terminals() + w.retries + w.departures + w.fault_edges)
            .sum()
    }

    fn lap(self) -> Result<Lap, String> {
        let r = &self.report;
        if r.leaked_streams != 0 {
            return Err(format!("drive leaked {} streams", r.leaked_streams));
        }
        if self.probe_leaked != 0 {
            return Err(format!("viewer probe leaked {} streams", self.probe_leaked));
        }
        if r.results.len() != self.offered {
            return Err(format!(
                "{} results for {} offered sessions",
                r.results.len(),
                self.offered
            ));
        }
        let fates = r.admitted + r.starved + r.rejected + r.errored;
        if fates != self.offered {
            return Err(format!("fates sum to {fates}, offered {}", self.offered));
        }
        Ok(Lap {
            setup_s: self.setup_s,
            timed_s: self.drive_s,
            ops: self.offered as u64,
            served: r.admitted as u64,
            errored: r.errored as u64,
            digest: fleet_digest(r),
            negotiate_us: self.probe_us,
        })
    }
}

/// Build metro world(N) and drive it once through `Broker::drive`.
/// Set-up is everything before the drive: world, schedule, specs,
/// channels and broker.
pub fn run_fleet(
    seed: u64,
    metro: &MetroParams,
    workers: usize,
    channels: &Channels,
    probe_ops: usize,
) -> FleetRun {
    let workers = clamp_workers(workers);
    let t_setup = Instant::now();
    let world = World::metro(seed, metro);
    let specs = world.specs();
    let recorder = (channels.recorder || channels.tracer).then(|| {
        let rec = Recorder::sharded(workers.max(2));
        if channels.tracer {
            rec.set_tracer(Tracer::with_sampling(RetentionPolicy::default()));
        }
        world.farm.set_recorder(&rec);
        world.network.set_recorder(rec.clone());
        rec
    });
    let journal = channels.journal.map(Journal::in_memory);
    let mut ctx = world.ctx();
    ctx.recorder = recorder.as_ref();
    let broker = Broker::new(ctx, BrokerConfig::era_default());
    let mut fleet = FleetSpec::new(&specs)
        .faults(&world.faults)
        .workers(workers)
        .retention(channels.retention);
    if channels.slos {
        fleet = fleet.windows(1_000).slos(default_fleet_slos());
    }
    if channels.explain {
        fleet = fleet.explain(RetentionPolicy::default());
    }
    if let Some(j) = &journal {
        fleet = fleet.journal(j);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_drive = Instant::now();
    let report = broker.drive(&fleet);
    let drive_s = t_drive.elapsed().as_secs_f64();

    let before = CapacitySnapshot::capture(&world.farm, &world.network);
    let probe_us = viewer_probe(broker.session(), &world, probe_ops);
    let after = CapacitySnapshot::capture(&world.farm, &world.network);
    FleetRun {
        offered: specs.len(),
        setup_s,
        drive_s,
        report,
        journal: journal.map(|j| Journaled {
            stats: j.stats(),
            bytes: j.bytes(),
            event_record_ends: j.event_record_ends(),
        }),
        probe_us,
        probe_leaked: before.leaked_streams(&after),
    }
}

/// One closed-loop click: submit, time the submit alone, keep the
/// reservation, and give back the oldest once more than [`CLICK_HELD`]
/// are held. Returns the host µs and what the negotiation said.
fn click_once(
    session: &Session<'_>,
    world: &World,
    request: &Request,
    held: &mut VecDeque<SessionReservation>,
) -> (f64, Result<NegotiationOutcome, QosError>) {
    let (client, profile) = world.user(request);
    let req = NegotiationRequest::new(client, request.document, profile);
    let t = Instant::now();
    let outcome = session.submit(&req);
    let us = t.elapsed().as_nanos() as f64 / 1e3;
    if let Ok(outcome) = &outcome {
        held.extend(outcome.reservation.clone());
    }
    if held.len() > CLICK_HELD {
        session.release(&held.pop_front().expect("non-empty"));
    }
    (us, outcome)
}

/// The viewer's click on a fleet world: `ops` closed-loop
/// `Session::submit`s drawn evenly from the workload's own requests.
/// `Broker::drive` gives no host latency per session, so this is how a
/// fleet workload reports one.
fn viewer_probe(session: &Session<'_>, world: &World, ops: usize) -> Vec<f64> {
    let mut held = VecDeque::with_capacity(CLICK_HELD + 1);
    let stride = (world.requests.len() / ops.max(1)).max(1);
    let latencies = world
        .requests
        .iter()
        .step_by(stride)
        .take(ops)
        .map(|request| click_once(session, world, request, &mut held).0)
        .collect();
    for reservation in held {
        session.release(&reservation);
    }
    latencies
}

/// One click lap: one client thread, closed loop, every submit timed on
/// its own; a rolling [`CLICK_HELD`] reservations are held and the
/// oldest released. The timed section starts after `untimed` submits.
pub fn run_click(seed: u64, click: &ClickParams, untimed: usize) -> Result<Lap, String> {
    let t_setup = Instant::now();
    let world = World::click(seed, click);
    let session = Session::new(world.ctx());
    let pristine = CapacitySnapshot::capture(&world.farm, &world.network);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut held: VecDeque<SessionReservation> = VecDeque::with_capacity(CLICK_HELD + 1);
    let mut digest = Fnv1a::default();
    let mut negotiate_us = Vec::with_capacity(world.requests.len());
    let (mut served, mut errored) = (0u64, 0u64);
    let mut t_section = Instant::now();
    for (i, request) in world.requests.iter().enumerate() {
        if i == untimed {
            t_section = Instant::now();
        }
        match click_once(&session, &world, request, &mut held) {
            (us, Ok(outcome)) => {
                fold_outcome(&mut digest, &outcome);
                if i >= untimed {
                    negotiate_us.push(us);
                    served += u64::from(outcome.reservation.is_some());
                }
            }
            (_, Err(_)) if i >= untimed => errored += 1,
            (_, Err(_)) => {}
        }
    }
    let timed_s = t_section.elapsed().as_secs_f64();
    for reservation in held {
        session.release(&reservation);
    }
    let leaked = pristine.leaked_streams(&CapacitySnapshot::capture(&world.farm, &world.network));
    if leaked != 0 {
        return Err(format!("click lap leaked {leaked} streams"));
    }
    Ok(Lap {
        setup_s,
        timed_s,
        ops: (world.requests.len() - untimed) as u64,
        served,
        errored,
        digest: digest.finish(),
        negotiate_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_distinct_parseable_name() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fleet"), None);
    }

    /// The restated recipe is the workload the EXPERIMENTS prose
    /// describes: bench B12's 100 000-session row at seed 12.
    #[test]
    fn metro_world_reproduces_the_b12_row_at_100k() {
        let metro = MetroParams {
            sessions: 100_000,
            streams_per_server: 12,
            fault_windows: 0,
            users: UserMix::Sampled,
        };
        let run = run_fleet(12, &metro, 1, &Channels::none(), 0);
        assert_eq!(run.report.retries, 16_065);
        assert_eq!(run.report.starved, 424);
        assert_eq!(run.report.peak_live_sessions, 3_770);
        assert_eq!(run.report.leaked_streams, 0);
    }

    #[test]
    fn sharding_and_observing_do_not_change_the_digest() {
        let digests: Vec<u64> = [
            Workload::FleetSteady,
            Workload::FleetSharded,
            Workload::FleetObserved,
        ]
        .into_iter()
        .map(|w| w.plan(true).lap(5).expect("checks pass").digest)
        .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }
}
