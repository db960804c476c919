//! The metro-scale fleet world behind `run_fleet` and its CI smoke.
//!
//! One deterministic builder produces a city-sized news-on-demand
//! deployment — a catalog and server farm that both grow with the
//! session count (a bigger city publishes more articles and runs more
//! servers), a dumbbell topology with metro-grade access and backbone
//! links fat enough that admission, not the network, is the bottleneck —
//! plus a Poisson arrival schedule over a fixed pool of client machines.
//! Per-document and per-server load are held constant as the fleet grows:
//! article popularity is a gentle zipf over the scaled catalog, so the
//! hottest article's concurrent demand stays within what its 1–3
//! replicas can serve at every scale. (A steep zipf over a fixed
//! catalog would instead concentrate ~8% of all demand on one article,
//! and since replicas cannot scale with the fleet, 100k+ sessions would
//! collapse into a retry storm — the run would measure the hot-spot
//! pathology, not the engine.) What varies with `sessions` is engine-side
//! scale only: live-session slab occupancy, event-queue depth, and the
//! volume of prepare/commit work per wall-clock second.

use nod_broker::SessionSpec;
use nod_client::ClientMachine;
use nod_cmfs::{ServerConfig, ServerFarm};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::{ClientId, DocumentId, ServerId};
use nod_netsim::{Network, Topology};
use nod_qosneg::{CostModel, UserProfile};
use nod_simcore::{StreamRng, ZipfSampler};

/// How long every fleet session holds its resources, ms.
pub const FLEET_HOLD_MS: u64 = 60_000;

/// The virtual span arrivals spread over, minutes. Peak concurrency is
/// roughly `sessions × hold / span` — about 1/30 of the offered load is
/// in flight at once, which is what keeps live memory (the slab arena)
/// far below the session count.
const ARRIVAL_SPAN_MIN: f64 = 30.0;

/// A metro-scale fleet: the shared world plus the arrival schedule. The
/// spec slice borrows the machine/profile pools, so the fleet must
/// outlive the run.
pub struct MetroFleet {
    /// The metadata catalog (~1 article per 40 sessions, 256 floor).
    pub catalog: Catalog,
    /// The server farm, one server per ~12 concurrent streams.
    pub farm: ServerFarm,
    /// Metro dumbbell: 10 Gb/s access, 400 Gb/s backbone.
    pub network: Network,
    /// The pricing model.
    pub cost: CostModel,
    users: Vec<(ClientMachine, UserProfile)>,
    /// `(user index, document, arrival_ms)` per session.
    arrivals: Vec<(u32, DocumentId, u64)>,
}

impl MetroFleet {
    /// Build the fleet for `sessions` offered sessions, deterministically
    /// from `seed`.
    pub fn build(seed: u64, sessions: usize) -> Self {
        const CLIENT_POOL: usize = 64;
        // The catalog grows with the city: ~1 article per 40 offered
        // sessions keeps per-article concurrent demand flat across the
        // sweep (256 floor so small sweeps still have variety).
        let documents = (sessions / 40).max(256);
        // Streams the fleet would hold concurrently if everyone were
        // admitted.
        let concurrent = ((sessions as f64) * (FLEET_HOLD_MS as f64 / 60_000.0) / ARRIVAL_SPAN_MIN)
            .ceil() as usize;
        // The era server's effective capacity on this workload is well
        // below its 64-slot admission cap (disk rounds bound it first);
        // ~12 concurrent metro streams per server keeps admission in the
        // healthy-but-contended band across the sweep.
        let servers = (concurrent / 12).max(2);

        let mut master = StreamRng::new(seed);
        let mut corpus_rng = master.split();
        let mut arrival_rng = master.split();
        let mut user_rng = master.split();

        let catalog = CorpusBuilder::new(CorpusParams {
            documents,
            servers: (0..servers as u64).map(ServerId).collect(),
            // Extra copies spread the popular articles across the farm
            // so a hot document is not capped by one server.
            replicas: (1, 3),
            ..CorpusParams::default()
        })
        .build(&mut corpus_rng);
        let farm = ServerFarm::uniform(servers, ServerConfig::era_default());
        let network = Network::new(Topology::dumbbell(
            CLIENT_POOL,
            servers,
            10_000_000_000,
            400_000_000_000,
        ));

        let population = nod_workload::UserPopulation::era_default();
        let users: Vec<(ClientMachine, UserProfile)> = (0..CLIENT_POOL)
            .map(|i| {
                let (_, profile, machine) = population.sample(&mut user_rng, ClientId(i as u64));
                (machine, profile)
            })
            .collect();

        let mean_gap_secs = ARRIVAL_SPAN_MIN * 60.0 / sessions.max(1) as f64;
        // Gentle skew: with s = 0.3 the top article draws
        // ~concurrent / N^0.7 streams — bounded at every scale — where a
        // steep s = 0.9 would pin ~1/H(N) ≈ 8% of the whole fleet on one
        // article's few replicas. Precomputed sampler: per-draw zipf is
        // O(catalog) and the schedule makes 10⁶ draws.
        let popularity = ZipfSampler::new(documents, 0.3);
        let mut at_secs = 0.0;
        let arrivals = (0..sessions)
            .map(|n| {
                at_secs += arrival_rng.exp(mean_gap_secs);
                let user = (n % CLIENT_POOL) as u32;
                let doc = DocumentId(popularity.sample(&mut user_rng) as u64 + 1);
                (user, doc, (at_secs * 1_000.0) as u64)
            })
            .collect();

        MetroFleet {
            catalog,
            farm,
            network,
            cost: CostModel::era_default(),
            users,
            arrivals,
        }
    }

    /// The session specs, in arrival order.
    pub fn specs(&self) -> Vec<SessionSpec<'_>> {
        self.arrivals
            .iter()
            .map(|&(user, document, arrival_ms)| {
                let (machine, profile) = &self.users[user as usize];
                SessionSpec {
                    client: machine,
                    document,
                    profile,
                    arrival_ms,
                    hold_ms: Some(FLEET_HOLD_MS),
                }
            })
            .collect()
    }

    /// Servers in the farm (for reporting).
    pub fn servers(&self) -> usize {
        self.farm.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic_and_scales_the_farm() {
        let a = MetroFleet::build(12, 1_000);
        let b = MetroFleet::build(12, 1_000);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.servers(), b.servers());
        let big = MetroFleet::build(12, 100_000);
        assert!(
            big.servers() > a.servers() * 10,
            "farm must scale with the fleet: {} vs {}",
            big.servers(),
            a.servers()
        );
        assert_eq!(a.specs().len(), 1_000);
        // Arrivals are sorted (cumulative Poisson clock).
        assert!(a.arrivals.windows(2).all(|w| w[0].2 <= w[1].2));
    }
}
