//! Fault injection: timed degradations of servers and links.
//!
//! A [`FaultPlan`] is a list of [`FaultWindow`]s, each holding one
//! [`Fault`] active over a half-open interval `[from_ms, until_ms)` of
//! broker virtual time. The broker applies the plan by *recomputing*
//! target state at every window edge ([`FaultPlan::apply_state_at`]):
//! every server and link the plan mentions is reset to nominal and the
//! windows active at that instant are re-applied, so overlapping windows
//! on one target compose correctly and the last window's end always
//! restores nominal health.
//!
//! Plans are plain data — built by hand for targeted tests, or drawn
//! from a seeded [`StreamRng`] via [`FaultPlan::seeded`] for replayable
//! randomized churn.

use nod_cmfs::ServerFarm;
use nod_mmdoc::ServerId;
use nod_netsim::{LinkId, Network};
use nod_simcore::StreamRng;

/// One kind of injected degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The server is down: health 0, so it refuses every admission, and
    /// [`FileServer::violated_reservations`](nod_cmfs::FileServer::violated_reservations)
    /// lists its committed streams. The broker does nothing more: no
    /// session on it is marked, counted or adapted, and each plays out its
    /// hold as if served (ROADMAP item 1(c)).
    ServerCrash {
        /// The crashed server.
        server: ServerId,
    },
    /// The server stops taking (most) new work but keeps serving
    /// committed streams: admission factor drops to `factor`.
    ServerSlowAdmission {
        /// The draining server.
        server: ServerId,
        /// Admission throttle in `[0, 1]`; 0 pauses admissions entirely.
        factor: f64,
    },
    /// The link carries nothing: health 0.
    LinkBlackout {
        /// The dark link.
        link: LinkId,
    },
    /// The link's effective capacity drops to `health` of nominal.
    LinkCapacityDrop {
        /// The degraded link.
        link: LinkId,
        /// Remaining capacity fraction in `[0, 1]`.
        health: f64,
    },
}

impl Fault {
    fn apply(&self, farm: &ServerFarm, network: &Network) {
        match *self {
            Fault::ServerCrash { server } => {
                if let Some(s) = farm.server(server) {
                    s.set_health(0.0);
                }
            }
            Fault::ServerSlowAdmission { server, factor } => {
                if let Some(s) = farm.server(server) {
                    s.set_admission_factor(factor);
                }
            }
            Fault::LinkBlackout { link } => network.set_link_health(link, 0.0),
            Fault::LinkCapacityDrop { link, health } => network.set_link_health(link, health),
        }
    }

    fn reset_target(&self, farm: &ServerFarm, network: &Network) {
        match *self {
            Fault::ServerCrash { server } | Fault::ServerSlowAdmission { server, .. } => {
                if let Some(s) = farm.server(server) {
                    s.set_health(1.0);
                    s.set_admission_factor(1.0);
                }
            }
            Fault::LinkBlackout { link } | Fault::LinkCapacityDrop { link, .. } => {
                network.set_link_health(link, 1.0)
            }
        }
    }
}

/// A fault active over `[from_ms, until_ms)` of broker virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start, inclusive, ms.
    pub from_ms: u64,
    /// Window end, exclusive, ms.
    pub until_ms: u64,
    /// The injected fault.
    pub fault: Fault,
}

impl FaultWindow {
    /// Is the window active at `now_ms`?
    pub fn active_at(&self, now_ms: u64) -> bool {
        self.from_ms <= now_ms && now_ms < self.until_ms
    }
}

/// A replayable set of fault windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The windows, in no particular order.
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan: no faults ever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a window.
    pub fn push(&mut self, from_ms: u64, until_ms: u64, fault: Fault) -> &mut Self {
        assert!(from_ms < until_ms, "fault window must be non-empty");
        self.windows.push(FaultWindow {
            from_ms,
            until_ms,
            fault,
        });
        self
    }

    /// Draw `count` windows over `[0, horizon_ms)` from a seeded RNG:
    /// each picks a random kind, target, start and duration (5–20% of
    /// the horizon). Same RNG state ⇒ the identical plan, so a run under
    /// this plan replays exactly.
    pub fn seeded(
        rng: &mut StreamRng,
        servers: &[ServerId],
        links: &[LinkId],
        horizon_ms: u64,
        count: usize,
    ) -> Self {
        assert!(horizon_ms >= 20, "horizon too short for a fault window");
        let mut plan = FaultPlan::none();
        for _ in 0..count {
            let duration = rng.range_u64(horizon_ms / 20, horizon_ms / 5).max(1);
            let from_ms = rng.below(horizon_ms - duration);
            let kind = if links.is_empty() {
                rng.below(2)
            } else if servers.is_empty() {
                2 + rng.below(2)
            } else {
                rng.below(4)
            };
            let fault = match kind {
                0 => Fault::ServerCrash {
                    server: *rng.choose(servers),
                },
                1 => Fault::ServerSlowAdmission {
                    server: *rng.choose(servers),
                    factor: rng.range_f64(0.0, 0.5),
                },
                2 => Fault::LinkBlackout {
                    link: *rng.choose(links),
                },
                _ => Fault::LinkCapacityDrop {
                    link: *rng.choose(links),
                    health: rng.range_f64(0.2, 0.8),
                },
            };
            plan.push(from_ms, from_ms + duration, fault);
        }
        plan
    }

    /// Every window edge (start or end), sorted and deduplicated — the
    /// instants the broker must re-evaluate fault state at.
    pub fn edges_ms(&self) -> Vec<u64> {
        let mut edges: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|w| [w.from_ms, w.until_ms])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Recompute fault state at `now_ms`: reset every mentioned target to
    /// nominal, then apply all windows active now (in declaration order,
    /// so a later window wins a conflict on the same target).
    pub fn apply_state_at(&self, farm: &ServerFarm, network: &Network, now_ms: u64) {
        for w in &self.windows {
            w.fault.reset_target(farm, network);
        }
        for w in &self.windows {
            if w.active_at(now_ms) {
                w.fault.apply(farm, network);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nod_cmfs::ServerConfig;
    use nod_netsim::Topology;

    fn world() -> (ServerFarm, Network) {
        let farm = ServerFarm::uniform(2, ServerConfig::era_default());
        let network = Network::new(Topology::dumbbell(2, 2, 25_000_000, 155_000_000));
        (farm, network)
    }

    #[test]
    fn overlapping_windows_compose_and_restore_nominal() {
        let (farm, network) = world();
        let sid = ServerId(0);
        let mut plan = FaultPlan::none();
        plan.push(
            100,
            300,
            Fault::ServerSlowAdmission {
                server: sid,
                factor: 0.5,
            },
        );
        plan.push(200, 400, Fault::ServerCrash { server: sid });

        plan.apply_state_at(&farm, &network, 150);
        assert_eq!(farm.server(sid).unwrap().admission_factor(), 0.5);
        assert_eq!(farm.server(sid).unwrap().health(), 1.0);

        plan.apply_state_at(&farm, &network, 250);
        assert_eq!(
            farm.server(sid).unwrap().health(),
            0.0,
            "crash wins while overlapping"
        );
        assert_eq!(farm.server(sid).unwrap().admission_factor(), 0.5);

        // First window ends at 300: only the crash remains.
        plan.apply_state_at(&farm, &network, 350);
        assert_eq!(farm.server(sid).unwrap().admission_factor(), 1.0);
        assert_eq!(farm.server(sid).unwrap().health(), 0.0);

        plan.apply_state_at(&farm, &network, 400);
        assert_eq!(
            farm.server(sid).unwrap().health(),
            1.0,
            "end edge restores nominal"
        );
    }

    #[test]
    fn link_faults_track_windows() {
        let (farm, network) = world();
        let link = network.topology().link_ids()[0];
        let mut plan = FaultPlan::none();
        plan.push(0, 50, Fault::LinkCapacityDrop { link, health: 0.4 });
        plan.apply_state_at(&farm, &network, 10);
        assert_eq!(network.link_health(link), 0.4);
        plan.apply_state_at(&farm, &network, 50);
        assert_eq!(network.link_health(link), 1.0);
    }

    #[test]
    fn recomputation_at_an_edge_matches_the_sequential_history() {
        // Recovery's contract: a snapshot cut at tick `t` restores fault
        // state with one `apply_state_at(t)` call against a fresh world,
        // while the crashed run got there by applying every edge ≤ t in
        // order. The two must agree at *every* edge — including edges
        // where a window closes at the very tick the snapshot is cut
        // (reset-then-reapply must not resurrect or half-reset a target).
        let servers = [ServerId(0), ServerId(1)];
        let (seq_farm, seq_net) = world();
        let links = seq_net.topology().link_ids();
        let plan = FaultPlan::seeded(&mut StreamRng::new(0xFA17), &servers, &links, 60_000, 12);

        let state = |farm: &ServerFarm, net: &Network| {
            let servers: Vec<(f64, f64)> = [ServerId(0), ServerId(1)]
                .iter()
                .map(|&s| {
                    let sv = farm.server(s).unwrap();
                    (sv.health(), sv.admission_factor())
                })
                .collect();
            let links: Vec<f64> = links.iter().map(|&l| net.link_health(l)).collect();
            (servers, links)
        };

        let mut checked = 0;
        for &edge in &plan.edges_ms() {
            // The crashed run's history: every edge up to and including
            // this one, applied in order.
            for &e in plan.edges_ms().iter().filter(|&&e| e <= edge) {
                plan.apply_state_at(&seq_farm, &seq_net, e);
            }
            // Recovery: one recomputation on a pristine world.
            let (rec_farm, rec_net) = world();
            plan.apply_state_at(&rec_farm, &rec_net, edge);
            assert_eq!(
                state(&seq_farm, &seq_net),
                state(&rec_farm, &rec_net),
                "fault state diverges when recovery snapshots at edge {edge} ms"
            );
            checked += 1;
        }
        assert!(checked >= 12, "seeded plan produced too few edges");
    }

    #[test]
    fn seeded_plans_replay_bit_for_bit() {
        let servers = [ServerId(0), ServerId(1)];
        let (_, network) = world();
        let links = network.topology().link_ids();
        let a = FaultPlan::seeded(&mut StreamRng::new(9), &servers, &links, 60_000, 8);
        let b = FaultPlan::seeded(&mut StreamRng::new(9), &servers, &links, 60_000, 8);
        assert_eq!(a, b);
        assert_eq!(a.windows.len(), 8);
        assert!(a.edges_ms().len() <= 16);
        for w in &a.windows {
            assert!(w.until_ms <= 60_000 && w.from_ms < w.until_ms);
        }
    }
}
