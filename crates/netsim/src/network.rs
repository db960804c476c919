//! The network service: reservation, metrics, congestion injection.

use nod_simcore::sync::{Mutex, Sharded};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use nod_mmdoc::{ClientId, ServerId};
use nod_obs::{Counter, Recorder};

use crate::routing::{route_tree, RouteError, RouteTree};
use crate::topology::{LinkId, NodeId, Topology};

/// Handle to a committed path reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetReservationId(pub u64);

/// Path-level metrics the QoS mapping consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathMetrics {
    /// End-to-end propagation delay, microseconds.
    pub delay_us: u64,
    /// Hop count.
    pub hops: usize,
    /// Smallest *unreserved* capacity along the path, bits/s.
    pub bottleneck_available_bps: u64,
    /// Largest link utilization along the path (`0.0..=1.0+`).
    pub max_utilization: f64,
    /// First-order jitter estimate (µs) from queueing at the busiest hop.
    pub jitter_us: u64,
    /// First-order loss-rate estimate at current load.
    pub loss_rate: f64,
}

/// Network-level failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetError {
    /// Client machine is not attached to the topology.
    UnknownClient(ClientId),
    /// Server machine is not attached to the topology.
    UnknownServer(ServerId),
    /// No path between the endpoints.
    Unreachable(RouteError),
    /// A link on the path cannot carry the requested bandwidth.
    InsufficientBandwidth {
        /// The saturated link.
        link: LinkId,
        /// Bandwidth still available on it, bits/s.
        available_bps: u64,
        /// Bandwidth requested, bits/s.
        requested_bps: u64,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownClient(c) => write!(f, "client {c} not attached"),
            NetError::UnknownServer(s) => write!(f, "server {s} not attached"),
            NetError::Unreachable(e) => write!(f, "{e}"),
            NetError::InsufficientBandwidth {
                link,
                available_bps,
                requested_bps,
            } => write!(
                f,
                "{link}: requested {requested_bps} b/s, only {available_bps} b/s available"
            ),
        }
    }
}

impl std::error::Error for NetError {}

/// A memoized route, shared: a metrics read, a reservation attempt and
/// the reservation table entry all hold the route itself, never a copy.
type Route = Arc<[LinkId]>;

#[derive(Debug, Default)]
struct NetState {
    reserved_bps: BTreeMap<LinkId, u64>,
    health: BTreeMap<LinkId, f64>,
    reservations: BTreeMap<NetReservationId, (Route, u64)>,
}

/// The network's metrics, resolved when the recorder is attached.
#[derive(Debug)]
struct Metrics {
    rec: Recorder,
    path_rejections: Counter,
    attempts: Counter,
    accepted: Counter,
    unknown_client: Counter,
    unknown_server: Counter,
    unreachable: Counter,
    bandwidth: Counter,
}

impl Metrics {
    fn resolve(rec: Recorder) -> Metrics {
        let rejected = |reason| {
            rec.counter_handle(
                "net.reservation",
                &[("result", "rejected"), ("reason", reason)],
            )
        };
        Metrics {
            path_rejections: rec.counter_handle("net.path.rejections", &[]),
            attempts: rec.counter_handle("net.reservation.attempts", &[]),
            accepted: rec.counter_handle("net.reservation", &[("result", "accepted")]),
            unknown_client: rejected("unknown_client"),
            unknown_server: rejected("unknown_server"),
            unreachable: rejected("unreachable"),
            bandwidth: rejected("bandwidth"),
            rec,
        }
    }

    /// Count a reservation verdict and mark it in the active trace.
    fn verdict(&self, c: Counter) {
        self.rec.add(c, 1);
        self.rec.trace_point_key(c.key(), None);
    }
}

/// The reservable network.
///
/// Thread-safe: concurrent negotiations share one instance; a path
/// reservation is atomic (all links or none) under the state lock.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    state: Mutex<NetState>,
    /// Memoized client↔server routes. The topology is immutable once the
    /// network is built (link health scales capacity, never delay), so a
    /// cached route can't go stale — Dijkstra runs once per pair instead
    /// of once per reservation attempt. On a metro dumbbell the hub node
    /// is incident to every link, which makes an uncached lookup
    /// O(total links); without the memo, per-session cost grows with farm
    /// size and a city-scale fleet spends most of its time re-routing the
    /// same three-hop paths. Sharded so clients negotiating from
    /// different threads against one shared `Network` don't serialize on
    /// one cache lock.
    routes: Sharded<HashMap<(ClientId, ServerId), Route>>,
    /// Shortest-path trees by source node, filled on first use. A server
    /// streams to many clients, so one Dijkstra per server answers every
    /// client pair — without the tree, warming the pair cache costs one
    /// Dijkstra per pair, which is quadratic in fleet size.
    trees: Sharded<HashMap<NodeId, Arc<RouteTree>>>,
    next_id: AtomicU64,
    /// Set-once observability hook; `None` keeps reservation allocation-free.
    metrics: OnceLock<Metrics>,
}

impl Network {
    /// Wrap a topology.
    pub fn new(topo: Topology) -> Self {
        Network {
            topo,
            state: Mutex::new(NetState::default()),
            routes: Sharded::new(16, HashMap::new),
            trees: Sharded::new(16, HashMap::new),
            next_id: AtomicU64::new(1),
            metrics: OnceLock::new(),
        }
    }

    /// Attach an observability recorder (set-once; later calls are
    /// ignored). Path reservations then count
    /// `net.reservation{result=…}` — rejections carry a `reason` label —
    /// and unroutable path lookups count `net.path.rejections`.
    pub fn set_recorder(&self, recorder: Recorder) {
        if self.metrics.get().is_none() {
            let _ = self.metrics.set(Metrics::resolve(recorder));
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    fn endpoints(&self, client: ClientId, server: ServerId) -> Result<(NodeId, NodeId), NetError> {
        let c = self
            .topo
            .client_node(client)
            .ok_or(NetError::UnknownClient(client))?;
        let s = self
            .topo
            .server_node(server)
            .ok_or(NetError::UnknownServer(server))?;
        Ok((c, s))
    }

    /// Which shard of the route memo holds the pair.
    fn route_shard(client: ClientId, server: ServerId) -> u64 {
        client.0.rotate_left(32) ^ server.0
    }

    /// Is there a route between the pair? The same answer — and the same
    /// `net.path.rejections` counting — as `path(..).is_ok()`, without
    /// copying the route.
    pub fn reachable(&self, client: ClientId, server: ServerId) -> bool {
        self.route(client, server).is_ok()
    }

    /// [`Network::reachable`] without counting `net.path.rejections`: for
    /// re-deriving a decision whose lookups were counted when it was made.
    pub fn has_route(&self, client: ClientId, server: ServerId) -> bool {
        self.lookup(client, server).is_ok()
    }

    /// The route a client↔server stream would take.
    pub fn path(&self, client: ClientId, server: ServerId) -> Result<Vec<LinkId>, NetError> {
        self.route(client, server).map(|links| links.to_vec())
    }

    /// The memoized route; an unroutable pair counts
    /// `net.path.rejections`.
    fn route(&self, client: ClientId, server: ServerId) -> Result<Route, NetError> {
        let result = self.lookup(client, server);
        if let (Err(_), Some(m)) = (&result, self.metrics.get()) {
            m.rec.add(m.path_rejections, 1);
        }
        result
    }

    /// The memoized route, uncounted.
    #[inline]
    fn lookup(&self, client: ClientId, server: ServerId) -> Result<Route, NetError> {
        let shard_key = Self::route_shard(client, server);
        if let Some(links) = self.routes.lock_key(shard_key).get(&(client, server)) {
            return Ok(Arc::clone(links));
        }
        let result = self.endpoints(client, server).and_then(|(c, s)| {
            let tree = self
                .trees
                .lock_key(s.0)
                .entry(s)
                .or_insert_with(|| Arc::new(route_tree(&self.topo, s)))
                .clone();
            tree.path_to(s, c)
                .map(Route::from)
                .map_err(NetError::Unreachable)
        });
        // Only routable pairs are cached: failures stay cheap to compute
        // and keep counting on every lookup.
        if let Ok(links) = &result {
            self.routes
                .lock_key(shard_key)
                .insert((client, server), Arc::clone(links));
        }
        result
    }

    fn link_capacity(&self, st: &NetState, link: LinkId) -> u64 {
        let cap = self.topo.link(link).expect("known link").capacity_bps as f64;
        (cap * st.health.get(&link).copied().unwrap_or(1.0)) as u64
    }

    /// Metrics along the current route at current load.
    pub fn path_metrics(
        &self,
        client: ClientId,
        server: ServerId,
    ) -> Result<PathMetrics, NetError> {
        let links = self.route(client, server)?;
        let st = self.state.lock();
        let mut delay = 0u64;
        let mut bottleneck = u64::MAX;
        let mut max_util = 0.0f64;
        for &l in links.iter() {
            let lk = self.topo.link(l).expect("route links exist");
            delay += lk.delay_us;
            let cap = self.link_capacity(&st, l);
            let used = st.reserved_bps.get(&l).copied().unwrap_or(0);
            bottleneck = bottleneck.min(cap.saturating_sub(used));
            let util = used as f64 / cap.max(1) as f64;
            max_util = max_util.max(util);
        }
        if links.is_empty() {
            bottleneck = 0;
        }
        Ok(PathMetrics {
            delay_us: delay,
            hops: links.len(),
            bottleneck_available_bps: bottleneck,
            max_utilization: max_util,
            jitter_us: Self::jitter_model_us(max_util),
            loss_rate: Self::loss_model(max_util),
        })
    }

    /// Queueing jitter grows superlinearly with the busiest hop's
    /// utilization: ~1 ms idle, ~20 ms at full reservation.
    fn jitter_model_us(util: f64) -> u64 {
        let u = util.clamp(0.0, 1.5);
        (1_000.0 + 19_000.0 * u * u) as u64
    }

    /// Loss is negligible below 90% reservation, then climbs steeply
    /// (buffer overflow regime).
    fn loss_model(util: f64) -> f64 {
        let base = 1e-4;
        if util <= 0.9 {
            base
        } else {
            base + (util - 0.9) * 0.05
        }
    }

    /// Reserve `bps` along the client↔server route — all links or none.
    pub fn try_reserve(
        &self,
        client: ClientId,
        server: ServerId,
        bps: u64,
    ) -> Result<NetReservationId, NetError> {
        if let Some(m) = self.metrics.get() {
            m.rec.add(m.attempts, 1);
        }
        let links = match self.route(client, server) {
            Ok(links) => links,
            Err(e) => {
                self.count_rejection(&e);
                return Err(e);
            }
        };
        let mut st = self.state.lock();
        for &l in links.iter() {
            let cap = self.link_capacity(&st, l);
            let used = st.reserved_bps.get(&l).copied().unwrap_or(0);
            if used + bps > cap {
                let err = NetError::InsufficientBandwidth {
                    link: l,
                    available_bps: cap.saturating_sub(used),
                    requested_bps: bps,
                };
                drop(st);
                self.count_rejection(&err);
                return Err(err);
            }
        }
        for &l in links.iter() {
            *st.reserved_bps.entry(l).or_insert(0) += bps;
        }
        let id = NetReservationId(self.next_id.fetch_add(1, Ordering::Relaxed));
        st.reservations.insert(id, (links, bps));
        if let Some(m) = self.metrics.get() {
            m.verdict(m.accepted);
        }
        Ok(id)
    }

    fn count_rejection(&self, err: &NetError) {
        if let Some(m) = self.metrics.get() {
            m.verdict(match err {
                NetError::UnknownClient(_) => m.unknown_client,
                NetError::UnknownServer(_) => m.unknown_server,
                NetError::Unreachable(_) => m.unreachable,
                NetError::InsufficientBandwidth { .. } => m.bandwidth,
            });
        }
    }

    /// Release a reservation (idempotent).
    pub fn release(&self, id: NetReservationId) {
        let mut st = self.state.lock();
        if let Some((links, bps)) = st.reservations.remove(&id) {
            for l in links.iter() {
                if let Some(v) = st.reserved_bps.get_mut(l) {
                    *v = v.saturating_sub(bps);
                }
            }
        }
    }

    /// Active reservation count.
    pub fn active_reservations(&self) -> usize {
        self.state.lock().reservations.len()
    }

    /// Total bandwidth reserved across all links, bits/s (counting a flow
    /// once per link it crosses) — the capacity-audit accessor the broker
    /// compares before and after a fully-drained run.
    pub fn total_reserved_bps(&self) -> u64 {
        self.state.lock().reserved_bps.values().sum()
    }

    /// Current health factor of a link (1.0 unless degraded).
    pub fn link_health(&self, link: LinkId) -> f64 {
        self.state.lock().health.get(&link).copied().unwrap_or(1.0)
    }

    /// Reserved fraction of a link's nominal capacity.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        let st = self.state.lock();
        let cap = self.topo.link(link).map(|l| l.capacity_bps).unwrap_or(0);
        st.reserved_bps.get(&link).copied().unwrap_or(0) as f64 / cap.max(1) as f64
    }

    /// Inject congestion on one link: scale its effective capacity.
    ///
    /// # Panics
    /// Panics outside [0, 1].
    pub fn set_link_health(&self, link: LinkId, health: f64) {
        assert!((0.0..=1.0).contains(&health), "health must be in [0,1]");
        self.state.lock().health.insert(link, health);
    }

    /// Reservations crossing links whose reserved bandwidth now exceeds the
    /// degraded capacity — the flows experiencing QoS violations.
    pub fn violated_reservations(&self) -> Vec<NetReservationId> {
        let st = self.state.lock();
        let congested: Vec<LinkId> = st
            .reserved_bps
            .iter()
            .filter(|(&l, &used)| used > self.link_capacity(&st, l))
            .map(|(&l, _)| l)
            .collect();
        if congested.is_empty() {
            return Vec::new();
        }
        st.reservations
            .iter()
            .filter(|(_, (links, _))| links.iter().any(|l| congested.contains(l)))
            .map(|(&id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dumbbell() -> Network {
        // 10 Mb/s access links, 155 Mb/s backbone: access is the bottleneck.
        Network::new(Topology::dumbbell(2, 2, 10_000_000, 155_000_000))
    }

    #[test]
    fn path_and_metrics() {
        let net = dumbbell();
        let m = net.path_metrics(ClientId(0), ServerId(0)).unwrap();
        assert_eq!(m.hops, 3);
        assert_eq!(m.delay_us, 500 + 2_000 + 500);
        assert_eq!(m.bottleneck_available_bps, 10_000_000);
        assert_eq!(m.max_utilization, 0.0);
        assert!(m.jitter_us >= 1_000);
        assert!(m.loss_rate <= 2e-4);
    }

    #[test]
    fn reserve_release_cycle() {
        let net = dumbbell();
        let r = net
            .try_reserve(ClientId(0), ServerId(0), 4_000_000)
            .unwrap();
        let m = net.path_metrics(ClientId(0), ServerId(0)).unwrap();
        assert_eq!(m.bottleneck_available_bps, 6_000_000);
        assert!(m.max_utilization > 0.35);
        net.release(r);
        let m2 = net.path_metrics(ClientId(0), ServerId(0)).unwrap();
        assert_eq!(m2.bottleneck_available_bps, 10_000_000);
        net.release(r); // idempotent
        assert_eq!(net.active_reservations(), 0);
    }

    #[test]
    fn access_link_saturates_first() {
        let net = dumbbell();
        net.try_reserve(ClientId(0), ServerId(0), 8_000_000)
            .unwrap();
        let err = net
            .try_reserve(ClientId(0), ServerId(0), 4_000_000)
            .unwrap_err();
        match err {
            NetError::InsufficientBandwidth {
                available_bps,
                requested_bps,
                ..
            } => {
                assert_eq!(available_bps, 2_000_000);
                assert_eq!(requested_bps, 4_000_000);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A different client still gets through (separate access link).
        assert!(net.try_reserve(ClientId(1), ServerId(0), 4_000_000).is_ok());
    }

    #[test]
    fn failed_reservation_leaves_no_residue() {
        let net = dumbbell();
        // Fill the backbone-but-not-access case: impossible here, so instead
        // verify a failed reservation does not partially reserve.
        net.try_reserve(ClientId(0), ServerId(0), 9_000_000)
            .unwrap();
        let before: Vec<f64> = net
            .topology()
            .link_ids()
            .iter()
            .map(|&l| net.link_utilization(l))
            .collect();
        assert!(net
            .try_reserve(ClientId(0), ServerId(0), 5_000_000)
            .is_err());
        let after: Vec<f64> = net
            .topology()
            .link_ids()
            .iter()
            .map(|&l| net.link_utilization(l))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn unknown_endpoints() {
        let net = dumbbell();
        assert_eq!(
            net.try_reserve(ClientId(9), ServerId(0), 1).unwrap_err(),
            NetError::UnknownClient(ClientId(9))
        );
        assert_eq!(
            net.try_reserve(ClientId(0), ServerId(9), 1).unwrap_err(),
            NetError::UnknownServer(ServerId(9))
        );
    }

    #[test]
    fn congestion_violates_crossing_flows() {
        let net = dumbbell();
        let r0 = net
            .try_reserve(ClientId(0), ServerId(0), 6_000_000)
            .unwrap();
        let _r1 = net
            .try_reserve(ClientId(1), ServerId(0), 6_000_000)
            .unwrap();
        assert!(net.violated_reservations().is_empty());
        // Degrade client 0's access link (the first client access link).
        let access0 = net.path(ClientId(0), ServerId(0)).unwrap()[2];
        net.set_link_health(access0, 0.4); // 4 Mb/s effective < 6 reserved
        let v = net.violated_reservations();
        assert_eq!(v, vec![r0]);
        net.set_link_health(access0, 1.0);
        assert!(net.violated_reservations().is_empty());
    }

    #[test]
    fn jitter_and_loss_grow_with_load() {
        let net = dumbbell();
        let idle = net.path_metrics(ClientId(0), ServerId(0)).unwrap();
        net.try_reserve(ClientId(0), ServerId(0), 9_500_000)
            .unwrap();
        let busy = net.path_metrics(ClientId(0), ServerId(0)).unwrap();
        assert!(busy.jitter_us > idle.jitter_us);
        assert!(busy.loss_rate > idle.loss_rate);
    }

    #[test]
    fn concurrent_reservations_respect_capacity() {
        use std::sync::Arc;
        let net = Arc::new(dumbbell());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let net = Arc::clone(&net);
                std::thread::spawn(move || {
                    let mut ok = 0;
                    for _ in 0..10 {
                        if net.try_reserve(ClientId(0), ServerId(0), 1_000_000).is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 10, "exactly the access capacity must be granted");
    }
}
