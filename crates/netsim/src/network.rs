//! The network service: reservation, metrics, congestion injection.
//!
//! Ids: link state sits at the index of the topology's dense [`LinkId`]s,
//! and a link id the topology lacks is inert — health 1.0, utilization 0,
//! health changes ignored. [`NetReservationId`]s are issued ascending
//! from 1 and never reused.

use nod_simcore::IntMap;
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

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
type Route = Rc<[LinkId]>;

/// One link's live state.
#[derive(Debug, Clone, Copy)]
struct LinkState {
    /// Nominal capacity scaled by `health`, bits/s.
    capacity_bps: u64,
    reserved_bps: u64,
    health: f64,
}

/// Nominal capacity scaled by a health factor.
fn scaled(nominal_bps: u64, health: f64) -> u64 {
    (nominal_bps as f64 * health) as u64
}

#[derive(Debug)]
struct NetState {
    /// Indexed by [`LinkId`]. Route links index it directly: every route
    /// is built from the topology's own links.
    links: Vec<LinkState>,
    reservations: IntMap<NetReservationId, (Route, u64)>,
    /// The last reservation id issued.
    last_id: u64,
    /// Memoized client↔server routes, for the callers that need the links
    /// themselves (`path`, `path_metrics`, `try_reserve`); a yes/no
    /// reachability question never comes here ([`Labels`]). The topology
    /// is immutable once the network is built (link health scales
    /// capacity, never delay), so a cached route can't go stale — Dijkstra
    /// runs once per pair instead of once per reservation attempt. On a
    /// metro dumbbell the hub node is incident to every link, which makes
    /// an uncached lookup O(total links); without the memo, per-session
    /// cost grows with farm size and a city-scale fleet spends most of its
    /// time re-routing the same three-hop paths. Only endpoints the
    /// topology attached become keys, so the integer hasher sees no
    /// outside-chosen ids.
    routes: IntMap<(ClientId, ServerId), Route>,
    /// Shortest-path trees by source node, filled on first use. A server
    /// streams to many clients, so one Dijkstra per server answers every
    /// client pair — without the tree, warming the pair cache costs one
    /// Dijkstra per pair, which is quadratic in fleet size.
    trees: IntMap<NodeId, RouteTree>,
}

impl NetState {
    /// The state of `link`; `None` for an id the topology lacks.
    fn link(&mut self, link: LinkId) -> Option<&mut LinkState> {
        self.links.get_mut(usize::try_from(link.0).ok()?)
    }

    /// The memoized route, uncounted.
    fn lookup(
        &mut self,
        topo: &Topology,
        client: ClientId,
        server: ServerId,
    ) -> Result<Route, NetError> {
        if let Some(links) = self.routes.get(&(client, server)) {
            return Ok(Rc::clone(links));
        }
        let c = (topo.client_node(client)).ok_or(NetError::UnknownClient(client))?;
        let s = (topo.server_node(server)).ok_or(NetError::UnknownServer(server))?;
        let tree = self.trees.entry(s).or_insert_with(|| route_tree(topo, s));
        let links = Route::from(tree.path_to(s, c).map_err(NetError::Unreachable)?);
        // Only routable pairs are cached: a failure is one probe of the
        // server's cached tree, and the callers count it on every lookup.
        self.routes.insert((client, server), Rc::clone(&links));
        Ok(links)
    }

    /// Reserve `bps` on every link of `route`, or on none.
    fn reserve(&mut self, route: Route, bps: u64) -> Result<NetReservationId, NetError> {
        for &l in route.iter() {
            let s = &self.links[l.0 as usize];
            if s.reserved_bps + bps > s.capacity_bps {
                return Err(NetError::InsufficientBandwidth {
                    link: l,
                    available_bps: s.capacity_bps.saturating_sub(s.reserved_bps),
                    requested_bps: bps,
                });
            }
        }
        for &l in route.iter() {
            self.links[l.0 as usize].reserved_bps += bps;
        }
        self.last_id += 1;
        let id = NetReservationId(self.last_id);
        self.reservations.insert(id, (route, bps));
        Ok(id)
    }
}

/// Connected-component labels of the attached endpoints. Routing runs
/// Dijkstra over the static undirected graph, which finds a route exactly
/// when both endpoints lie in one connected component, so "is there a
/// route?" is a label compare. An id the topology never attached has no
/// label and reaches nothing.
#[derive(Debug)]
struct Labels {
    clients: IntMap<ClientId, u32>,
    servers: IntMap<ServerId, u32>,
}

impl Labels {
    /// Union–find over the topology's links, once per network.
    fn of(topo: &Topology) -> Labels {
        let nodes = topo.node_ids();
        // Every link endpoint and every attachment node is a registered
        // node, so `index` answers every lookup below.
        let index: IntMap<NodeId, u32> = (nodes.iter().enumerate())
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let mut parent: Vec<u32> = (0..nodes.len() as u32).collect();
        fn root(parent: &mut [u32], mut i: u32) -> u32 {
            while parent[i as usize] != i {
                // Path halving: point at the grandparent on the way up.
                let up = parent[parent[i as usize] as usize];
                parent[i as usize] = up;
                i = up;
            }
            i
        }
        for l in topo.links() {
            let a = root(&mut parent, index[&l.a]);
            let b = root(&mut parent, index[&l.b]);
            parent[a as usize] = b;
        }
        let mut label = |node: NodeId| root(&mut parent, index[&node]);
        let clients = topo.clients().map(|(c, n)| (c, label(n))).collect();
        let servers = topo.servers().map(|(s, n)| (s, label(n))).collect();
        Labels { clients, servers }
    }
}

/// One client's side of [`Network::reachable`]: its component label,
/// looked up once, against which each server is a label compare. Step 2
/// of a negotiation asks it about every candidate variant's server.
#[derive(Debug, Clone, Copy)]
pub struct Reach<'n> {
    network: &'n Network,
    label: Option<u32>,
    counted: bool,
}

impl Reach<'_> {
    /// Is there a route from the client to `server`? The same answer as
    /// `path(..).is_ok()`; a no counts `net.path.rejections` once, unless
    /// this view is [`Reach::uncounted`].
    #[inline]
    pub fn server(&self, server: ServerId) -> bool {
        let ok =
            self.label.is_some() && self.network.labels.servers.get(&server) == self.label.as_ref();
        if !ok && self.counted {
            self.network.count_path_rejection();
        }
        ok
    }

    /// The same answers without counting `net.path.rejections`: for
    /// re-deriving a decision whose lookups were counted when it was made.
    pub fn uncounted(self) -> Self {
        Reach {
            counted: false,
            ..self
        }
    }
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
    fn verdict<T>(&self, result: &Result<T, NetError>) {
        let c = match result {
            Ok(_) => self.accepted,
            Err(NetError::UnknownClient(_)) => self.unknown_client,
            Err(NetError::UnknownServer(_)) => self.unknown_server,
            Err(NetError::Unreachable(_)) => self.unreachable,
            Err(NetError::InsufficientBandwidth { .. }) => self.bandwidth,
        };
        self.rec.add(c, 1);
        self.rec.trace_point_key(c.key(), None);
    }
}

/// The reservable network.
///
/// Single-threaded: one `RefCell` holds the link state, the reservation
/// table and the route memos, so every method takes `&self` and a path
/// reservation is all links or none. The component labels are fixed at
/// construction.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    labels: Labels,
    state: RefCell<NetState>,
    /// Set-once observability hook; `None` keeps reservation allocation-free.
    metrics: OnceCell<Metrics>,
}

impl Network {
    /// Wrap a topology, labelling each attached client and server with
    /// its connected component (O(links), once).
    pub fn new(topo: Topology) -> Self {
        let links = (topo.links().iter())
            .map(|l| LinkState {
                capacity_bps: scaled(l.capacity_bps, 1.0),
                reserved_bps: 0,
                health: 1.0,
            })
            .collect();
        Network {
            labels: Labels::of(&topo),
            topo,
            state: RefCell::new(NetState {
                links,
                reservations: IntMap::default(),
                last_id: 0,
                routes: IntMap::default(),
                trees: IntMap::default(),
            }),
            metrics: OnceCell::new(),
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

    /// Is there a route between the pair? The same answer — and the same
    /// `net.path.rejections` count, one per no — as `path(..).is_ok()`,
    /// answered by comparing the endpoints' component labels: no route
    /// lookup. An unknown or unattached id reaches nothing.
    pub fn reachable(&self, client: ClientId, server: ServerId) -> bool {
        self.reach(client).server(server)
    }

    /// [`Network::reachable`] without counting `net.path.rejections`: for
    /// re-deriving a decision whose lookups were counted when it was made.
    pub fn has_route(&self, client: ClientId, server: ServerId) -> bool {
        self.reach(client).uncounted().server(server)
    }

    /// `client`'s side of [`Network::reachable`], for asking about many
    /// servers with one client lookup.
    pub fn reach(&self, client: ClientId) -> Reach<'_> {
        Reach {
            network: self,
            label: self.labels.clients.get(&client).copied(),
            counted: true,
        }
    }

    /// Count one unroutable answer, when a recorder is attached.
    fn count_path_rejection(&self) {
        if let Some(m) = self.metrics.get() {
            m.rec.add(m.path_rejections, 1);
        }
    }

    /// The route a client↔server stream would take.
    pub fn path(&self, client: ClientId, server: ServerId) -> Result<Vec<LinkId>, NetError> {
        let route = self.route(&mut self.state.borrow_mut(), client, server);
        route.map(|links| links.to_vec())
    }

    /// The memoized route; an unroutable pair counts
    /// `net.path.rejections`.
    fn route(
        &self,
        st: &mut NetState,
        client: ClientId,
        server: ServerId,
    ) -> Result<Route, NetError> {
        let result = st.lookup(&self.topo, client, server);
        if result.is_err() {
            self.count_path_rejection();
        }
        result
    }

    /// Metrics along the current route at current load.
    pub fn path_metrics(
        &self,
        client: ClientId,
        server: ServerId,
    ) -> Result<PathMetrics, NetError> {
        let mut st = self.state.borrow_mut();
        let links = self.route(&mut st, client, server)?;
        let mut delay = 0u64;
        let mut bottleneck = u64::MAX;
        let mut max_util = 0.0f64;
        for &l in links.iter() {
            delay += self.topo.links()[l.0 as usize].delay_us;
            let s = &st.links[l.0 as usize];
            bottleneck = bottleneck.min(s.capacity_bps.saturating_sub(s.reserved_bps));
            let util = s.reserved_bps as f64 / s.capacity_bps.max(1) as f64;
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
        let mut st = self.state.borrow_mut();
        let result = (self.route(&mut st, client, server)).and_then(|links| st.reserve(links, bps));
        drop(st);
        if let Some(m) = self.metrics.get() {
            m.verdict(&result);
        }
        result
    }

    /// Release a reservation (idempotent).
    pub fn release(&self, id: NetReservationId) {
        let mut st = self.state.borrow_mut();
        if let Some((links, bps)) = st.reservations.remove(&id) {
            for l in links.iter() {
                let s = &mut st.links[l.0 as usize];
                s.reserved_bps = s.reserved_bps.saturating_sub(bps);
            }
        }
    }

    /// Active reservation count.
    pub fn active_reservations(&self) -> usize {
        self.state.borrow().reservations.len()
    }

    /// Total bandwidth reserved across all links, bits/s (counting a flow
    /// once per link it crosses) — the capacity-audit accessor the broker
    /// compares before and after a fully-drained run.
    pub fn total_reserved_bps(&self) -> u64 {
        self.state
            .borrow()
            .links
            .iter()
            .map(|s| s.reserved_bps)
            .sum()
    }

    /// Reserved bandwidth of every link, bits/s, indexed by [`LinkId`].
    pub fn reserved_bps(&self) -> Vec<u64> {
        self.state
            .borrow()
            .links
            .iter()
            .map(|s| s.reserved_bps)
            .collect()
    }

    /// Current health factor of a link (1.0 unless degraded).
    pub fn link_health(&self, link: LinkId) -> f64 {
        self.state.borrow_mut().link(link).map_or(1.0, |s| s.health)
    }

    /// Reserved fraction of a link's nominal capacity.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        let Some(l) = self.topo.link(link) else {
            return 0.0;
        };
        let used = self
            .state
            .borrow_mut()
            .link(link)
            .map_or(0, |s| s.reserved_bps);
        used as f64 / l.capacity_bps.max(1) as f64
    }

    /// Inject congestion on one link: scale its effective capacity. An id
    /// the topology lacks is ignored.
    ///
    /// # Panics
    /// Panics outside [0, 1].
    pub fn set_link_health(&self, link: LinkId, health: f64) {
        assert!((0.0..=1.0).contains(&health), "health must be in [0,1]");
        let Some(l) = self.topo.link(link) else {
            return;
        };
        if let Some(s) = self.state.borrow_mut().link(link) {
            s.health = health;
            s.capacity_bps = scaled(l.capacity_bps, health);
        }
    }

    /// Reservations crossing links whose reserved bandwidth now exceeds the
    /// degraded capacity — the flows experiencing QoS violations — in
    /// ascending id order.
    pub fn violated_reservations(&self) -> Vec<NetReservationId> {
        let st = self.state.borrow();
        let congested = |s: &LinkState| s.reserved_bps > s.capacity_bps;
        if !st.links.iter().any(congested) {
            return Vec::new();
        }
        let mut ids: Vec<NetReservationId> = (st.reservations.iter())
            .filter(|(_, (links, _))| links.iter().any(|l| congested(&st.links[l.0 as usize])))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
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
    fn violations_across_several_congested_links_list_ascending_ids() {
        let net = Network::new(Topology::dumbbell(3, 2, 10_000_000, 155_000_000));
        let reserve = |c, s, bps| net.try_reserve(ClientId(c), ServerId(s), bps).unwrap();
        let r0 = reserve(0, 0, 6_000_000);
        let _r1 = reserve(1, 0, 6_000_000);
        let r2 = reserve(2, 1, 6_000_000);
        let r3 = reserve(0, 1, 3_000_000);
        let r4 = reserve(2, 0, 2_000_000);
        // Degrade client 2's access link before client 0's: the list
        // follows reservation ids, not the order links were congested.
        for c in [2, 0] {
            let access = net.path(ClientId(c), ServerId(0)).unwrap()[2];
            net.set_link_health(access, 0.4);
        }
        assert_eq!(net.violated_reservations(), vec![r0, r2, r3, r4]);
    }

    #[test]
    fn links_the_topology_lacks_are_inert() {
        let net = dumbbell();
        let known = net.topology().link_ids();
        for ghost in [LinkId(known.len() as u64), LinkId(10_000), LinkId(u64::MAX)] {
            assert_eq!(net.link_health(ghost), 1.0);
            assert_eq!(net.link_utilization(ghost), 0.0);
            net.set_link_health(ghost, 0.3);
            assert_eq!(net.link_utilization(ghost), 0.0);
        }
        // No real link felt it: full capacity, no violations.
        for &l in &known {
            assert_eq!(net.link_health(l), 1.0);
        }
        net.try_reserve(ClientId(0), ServerId(0), 10_000_000)
            .unwrap();
        assert!(net.violated_reservations().is_empty());
    }

    #[test]
    fn double_and_unknown_releases_are_no_ops() {
        let net = dumbbell();
        let a = net
            .try_reserve(ClientId(0), ServerId(0), 1_000_000)
            .unwrap();
        let b = net
            .try_reserve(ClientId(1), ServerId(1), 2_000_000)
            .unwrap();
        net.release(a);
        net.release(a);
        for ghost in [0, b.0 + 1, u64::MAX] {
            net.release(NetReservationId(ghost));
        }
        assert_eq!(net.active_reservations(), 1);
        assert_eq!(net.total_reserved_bps(), 3 * 2_000_000);
        net.release(b);
        assert_eq!(net.active_reservations(), 0);
        assert_eq!(net.total_reserved_bps(), 0);
    }

    #[test]
    fn total_reserved_bps_follows_interleaved_reserves_and_releases() {
        // Every dumbbell route is three hops, so a flow counts 3×.
        let net = dumbbell();
        let a = net
            .try_reserve(ClientId(0), ServerId(0), 1_000_000)
            .unwrap();
        assert_eq!(net.total_reserved_bps(), 3_000_000);
        let b = net
            .try_reserve(ClientId(1), ServerId(1), 2_000_000)
            .unwrap();
        assert_eq!(net.total_reserved_bps(), 9_000_000);
        net.release(a);
        assert_eq!(net.total_reserved_bps(), 6_000_000);
        let c = net
            .try_reserve(ClientId(0), ServerId(1), 4_000_000)
            .unwrap();
        assert_eq!(net.total_reserved_bps(), 18_000_000);
        net.release(b);
        assert_eq!(net.total_reserved_bps(), 12_000_000);
        net.release(c);
        assert_eq!(net.total_reserved_bps(), 0);
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
        // Eight clients' ten attempts each, interleaved round-robin the
        // way the single drive loop serves them, on one 10 Mb/s access
        // link.
        let net = dumbbell();
        let granted = (0..10 * 8)
            .filter(|_| net.try_reserve(ClientId(0), ServerId(0), 1_000_000).is_ok())
            .count();
        assert_eq!(granted, 10, "exactly the access capacity must be granted");
    }
}
