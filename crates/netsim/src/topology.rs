//! Network topology: nodes and full-duplex links.

use std::collections::BTreeMap;
use std::fmt;

use nod_mmdoc::{ClientId, ServerId};

/// A switching/endpoint node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A full-duplex link between two nodes. Capacity is per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u64);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity per direction, bits/s.
    pub capacity_bps: u64,
    /// Propagation delay, microseconds.
    pub delay_us: u64,
}

/// The static network graph plus endpoint attachments.
///
/// Link ids are dense: [`Topology::add_link`] numbers links `0..n` in the
/// order they are added, and a link lives at its id's index. An id at or
/// past `n` names no link, and [`Topology::link`] answers it with `None`.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Indexed by [`LinkId`].
    links: Vec<Link>,
    adjacency: BTreeMap<NodeId, Vec<LinkId>>,
    servers: BTreeMap<ServerId, NodeId>,
    clients: BTreeMap<ClientId, NodeId>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a node (idempotent — nodes are implicit in links, this just
    /// registers isolated nodes).
    pub fn add_node(&mut self, node: NodeId) {
        self.adjacency.entry(node).or_default();
    }

    /// Add a full-duplex link and return its id, the next dense index.
    ///
    /// # Panics
    /// Panics on zero capacity or a self-loop.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, capacity_bps: u64, delay_us: u64) -> LinkId {
        assert!(capacity_bps > 0, "link needs positive capacity");
        assert_ne!(a, b, "self-loop links are not allowed");
        let id = LinkId(self.links.len() as u64);
        self.links.push(Link {
            a,
            b,
            capacity_bps,
            delay_us,
        });
        self.adjacency.entry(a).or_default().push(id);
        self.adjacency.entry(b).or_default().push(id);
        id
    }

    /// Attach a server machine to a node.
    pub fn attach_server(&mut self, server: ServerId, node: NodeId) {
        self.add_node(node);
        self.servers.insert(server, node);
    }

    /// Attach a client machine to a node.
    pub fn attach_client(&mut self, client: ClientId, node: NodeId) {
        self.add_node(node);
        self.clients.insert(client, node);
    }

    /// The node a server is attached to.
    pub fn server_node(&self, server: ServerId) -> Option<NodeId> {
        self.servers.get(&server).copied()
    }

    /// The node a client is attached to.
    pub fn client_node(&self, client: ClientId) -> Option<NodeId> {
        self.clients.get(&client).copied()
    }

    /// Every link, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Link parameters; `None` for an id the topology lacks.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(usize::try_from(id.0).ok()?)
    }

    /// Links incident to a node.
    pub fn incident(&self, node: NodeId) -> &[LinkId] {
        self.adjacency
            .get(&node)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The far endpoint of `link` as seen from `from`.
    ///
    /// # Panics
    /// Panics if `from` is not an endpoint of `link`, or `link` is not in
    /// the topology.
    pub fn other_end(&self, link: LinkId, from: NodeId) -> NodeId {
        let l = self.link(link).expect("link in the topology");
        if l.a == from {
            l.b
        } else if l.b == from {
            l.a
        } else {
            panic!("{from} is not an endpoint of {link}");
        }
    }

    /// All link ids, ascending.
    pub fn link_ids(&self) -> Vec<LinkId> {
        (0..self.links.len() as u64).map(LinkId).collect()
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.adjacency.keys().copied().collect()
    }

    /// A classic dumbbell: `clients` client nodes and `servers` server
    /// nodes joined by an access/backbone pair of switches.
    ///
    /// Client access links: `access_bps`; server trunks and the backbone:
    /// `backbone_bps`. Returns the topology with servers `0..servers` and
    /// clients `0..clients` attached.
    pub fn dumbbell(
        clients: usize,
        servers: usize,
        access_bps: u64,
        backbone_bps: u64,
    ) -> Topology {
        let mut t = Topology::new();
        let client_switch = NodeId(0);
        let server_switch = NodeId(1);
        t.add_link(client_switch, server_switch, backbone_bps, 2_000);
        for c in 0..clients {
            let n = NodeId(2 + c as u64);
            t.add_link(n, client_switch, access_bps, 500);
            t.attach_client(ClientId(c as u64), n);
        }
        for s in 0..servers {
            let n = NodeId(2 + clients as u64 + s as u64);
            t.add_link(n, server_switch, backbone_bps, 500);
            t.attach_server(ServerId(s as u64), n);
        }
        t
    }

    /// A star: every client and server hangs off one central switch.
    /// Client access links get `access_bps`; server trunks `trunk_bps`.
    pub fn star(clients: usize, servers: usize, access_bps: u64, trunk_bps: u64) -> Topology {
        let mut t = Topology::new();
        let hub = NodeId(0);
        t.add_node(hub);
        for c in 0..clients {
            let n = NodeId(1 + c as u64);
            t.add_link(n, hub, access_bps, 500);
            t.attach_client(ClientId(c as u64), n);
        }
        for s in 0..servers {
            let n = NodeId(1 + clients as u64 + s as u64);
            t.add_link(n, hub, trunk_bps, 500);
            t.attach_server(ServerId(s as u64), n);
        }
        t
    }

    /// A binary aggregation tree of switches with `depth` levels; clients
    /// attach to the leaves round-robin and servers to the root. Models a
    /// campus/metro hierarchy where upstream links aggregate and can
    /// become shared bottlenecks.
    ///
    /// Leaf access links get `access_bps`; each aggregation level doubles
    /// the link capacity up to the root trunks.
    pub fn tree(depth: u32, clients: usize, servers: usize, access_bps: u64) -> Topology {
        assert!(depth >= 1, "tree needs at least one level");
        let mut t = Topology::new();
        let root = NodeId(0);
        t.add_node(root);
        // Build the switch tree level by level; node ids are allocated
        // breadth-first starting at 1.
        let mut next_id = 1u64;
        let mut frontier = vec![root];
        let mut leaves = vec![root];
        for level in 1..=depth {
            let mut new_frontier = Vec::new();
            let capacity = access_bps << (depth - level + 1);
            for &parent in &frontier {
                for _ in 0..2 {
                    let n = NodeId(next_id);
                    next_id += 1;
                    t.add_link(n, parent, capacity, 500);
                    new_frontier.push(n);
                }
            }
            leaves = new_frontier.clone();
            frontier = new_frontier;
        }
        for c in 0..clients {
            let leaf = leaves[c % leaves.len()];
            let n = NodeId(next_id);
            next_id += 1;
            t.add_link(n, leaf, access_bps, 300);
            t.attach_client(ClientId(c as u64), n);
        }
        for srv in 0..servers {
            let n = NodeId(next_id);
            next_id += 1;
            t.add_link(n, root, access_bps << depth, 300);
            t.attach_server(ServerId(srv as u64), n);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut t = Topology::new();
        let l = t.add_link(NodeId(1), NodeId(2), 10_000_000, 1_000);
        assert_eq!(t.link(l).unwrap().capacity_bps, 10_000_000);
        assert_eq!(t.incident(NodeId(1)), &[l]);
        assert_eq!(t.other_end(l, NodeId(1)), NodeId(2));
        assert_eq!(t.other_end(l, NodeId(2)), NodeId(1));
        assert_eq!(t.node_ids().len(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Topology::new().add_link(NodeId(1), NodeId(1), 1, 0);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_end_validates_membership() {
        let mut t = Topology::new();
        let l = t.add_link(NodeId(1), NodeId(2), 1_000, 0);
        t.other_end(l, NodeId(3));
    }

    #[test]
    fn attachments() {
        let mut t = Topology::new();
        t.attach_server(ServerId(0), NodeId(5));
        t.attach_client(ClientId(3), NodeId(6));
        assert_eq!(t.server_node(ServerId(0)), Some(NodeId(5)));
        assert_eq!(t.client_node(ClientId(3)), Some(NodeId(6)));
        assert_eq!(t.server_node(ServerId(9)), None);
    }

    #[test]
    fn star_connects_everyone_via_hub() {
        let t = Topology::star(3, 2, 10_000_000, 100_000_000);
        assert_eq!(t.link_ids().len(), 5);
        for c in 0..3u64 {
            assert!(t.client_node(ClientId(c)).is_some());
        }
        // Any client-server pair routes in exactly 2 hops.
        use crate::routing::route;
        let r = route(
            &t,
            t.client_node(ClientId(2)).unwrap(),
            t.server_node(ServerId(1)).unwrap(),
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn tree_aggregates_toward_the_root() {
        let t = Topology::tree(2, 8, 2, 5_000_000);
        use crate::routing::route;
        // Every client reaches every server.
        for c in 0..8u64 {
            for s in 0..2u64 {
                let r = route(
                    &t,
                    t.client_node(ClientId(c)).unwrap(),
                    t.server_node(ServerId(s)).unwrap(),
                )
                .unwrap();
                // client access + 2 tree levels + server trunk
                assert_eq!(r.len(), 4);
            }
        }
        // Upstream links are fatter than access links.
        let access = t.incident(t.client_node(ClientId(0)).unwrap())[0];
        let trunk = t.incident(t.server_node(ServerId(0)).unwrap())[0];
        assert!(t.link(trunk).unwrap().capacity_bps > t.link(access).unwrap().capacity_bps);
    }

    #[test]
    fn dumbbell_shape() {
        let t = Topology::dumbbell(3, 2, 10_000_000, 155_000_000);
        // 1 backbone + 3 access + 2 trunks.
        assert_eq!(t.link_ids().len(), 6);
        assert_eq!(t.node_ids().len(), 7);
        for c in 0..3 {
            assert!(t.client_node(ClientId(c)).is_some());
        }
        for s in 0..2 {
            assert!(t.server_node(ServerId(s)).is_some());
        }
    }
}
