//! Reachability answers must agree with routing, and count the same.
//!
//! On every topology shape the fleet builds (star, tree, dumbbell) and on
//! seeded random graphs that carry a detached island, isolated nodes and
//! a client sharing a lone node with a server, for every client × server
//! pair including ids the topology never attached:
//!
//! * `reachable(c, s) == path(c, s).is_ok()` and `has_route(c, s) ==
//!   reachable(c, s)`;
//! * `reachable` and `path` count `net.path.rejections` once per
//!   unreachable answer — on the first call for a pair and on every
//!   repeat — and `has_route` never counts.

use nod_mmdoc::{ClientId, ServerId};
use nod_netsim::{Network, NodeId, Topology};
use nod_obs::Recorder;
use nod_simcore::StreamRng;

const REJECTIONS: &str = "net.path.rejections";

/// A network with a recorder attached, and that recorder.
fn observed(topo: Topology) -> (Network, Recorder) {
    let net = Network::new(topo);
    let rec = Recorder::new();
    net.set_recorder(rec.clone());
    (net, rec)
}

fn rejections(rec: &Recorder) -> u64 {
    rec.snapshot().counter(REJECTIONS)
}

/// Every pair over the attached ids plus two ids past each end.
fn pairs(clients: u64, servers: u64) -> Vec<(ClientId, ServerId)> {
    let mut out = Vec::new();
    for c in 0..clients + 2 {
        for s in 0..servers + 2 {
            out.push((ClientId(c), ServerId(s)));
        }
    }
    out
}

/// Check one topology: the three answers agree pair by pair, each call
/// sequence leaves the expected `net.path.rejections` delta, and a repeat
/// of the sequence (route memos now warm) counts exactly the same again.
/// Returns the number of unreachable pairs.
fn check(topo: Topology, clients: u64, servers: u64, tag: &str) -> usize {
    let pairs = pairs(clients, servers);

    // Reference: `path` on its own network, counted per call.
    let (net, rec) = observed(topo.clone());
    let routed: Vec<bool> = pairs.iter().map(|&(c, s)| net.path(c, s).is_ok()).collect();
    let unreachable = routed.iter().filter(|&&ok| !ok).count();
    assert_eq!(rejections(&rec), unreachable as u64, "{tag}: path counts");

    // `reachable` first on a fresh network, then `has_route`, then
    // `reachable` again: same answers, counted once per unreachable
    // answer of `reachable` and never by `has_route`.
    let (net, rec) = observed(topo.clone());
    for round in 0..2 {
        for (&(c, s), &want) in pairs.iter().zip(&routed) {
            let before = rejections(&rec);
            assert_eq!(net.reachable(c, s), want, "{tag}: reachable {c} {s}");
            assert_eq!(
                rejections(&rec) - before,
                u64::from(!want),
                "{tag} round {round}: reachable {c} {s} counts"
            );
            let before = rejections(&rec);
            assert_eq!(net.has_route(c, s), want, "{tag}: has_route {c} {s}");
            assert_eq!(rejections(&rec), before, "{tag}: has_route {c} {s} counts");
        }
    }

    // `has_route` before anything else has looked, then `path`: the
    // quiet check leaves nothing behind that changes the counted one.
    let (net, rec) = observed(topo);
    let quiet: Vec<bool> = pairs.iter().map(|&(c, s)| net.has_route(c, s)).collect();
    assert_eq!(quiet, routed, "{tag}: has_route on a fresh network");
    assert_eq!(rejections(&rec), 0, "{tag}: has_route counts nothing");
    for (&(c, s), &want) in pairs.iter().zip(&routed) {
        assert_eq!(net.path(c, s).is_ok(), want, "{tag}: path {c} {s}");
        assert_eq!(net.reachable(c, s), want, "{tag}: reachable {c} {s}");
    }
    assert_eq!(
        rejections(&rec),
        2 * unreachable as u64,
        "{tag}: path + reachable"
    );
    unreachable
}

/// Only the ids past the attached range are unreachable.
fn unknown_pairs(clients: u64, servers: u64) -> usize {
    ((clients + 2) * (servers + 2) - clients * servers) as usize
}

#[test]
fn star_tree_and_dumbbell_reach_every_attached_pair() {
    let shapes = [
        ("star", Topology::star(5, 3, 10_000_000, 100_000_000), 5, 3),
        ("tree", Topology::tree(2, 7, 2, 5_000_000), 7, 2),
        (
            "dumbbell",
            Topology::dumbbell(4, 3, 10_000_000, 155_000_000),
            4,
            3,
        ),
    ];
    for (tag, topo, clients, servers) in shapes {
        assert_eq!(
            check(topo, clients, servers, tag),
            unknown_pairs(clients, servers),
            "{tag}"
        );
    }
}

/// A seeded random graph: a connected main part, a detached island with
/// links of its own, two isolated nodes (one holding a client and a
/// server together), endpoints spread over all of them.
fn islands(seed: u64) -> (Topology, u64, u64) {
    let mut rng = StreamRng::new(seed);
    let main = 4 + rng.below(6);
    let island = 2 + rng.below(3);
    let mut t = Topology::new();
    // Main part: a random spanning tree plus a few chords.
    for n in 1..main {
        t.add_link(
            NodeId(n),
            NodeId(rng.below(n)),
            10_000_000,
            100 + rng.below(900),
        );
    }
    for _ in 0..rng.below(4) {
        let (a, b) = (rng.below(main), rng.below(main));
        if a != b {
            t.add_link(NodeId(a), NodeId(b), 10_000_000, 100 + rng.below(900));
        }
    }
    // The island: a path over its own nodes.
    for k in 1..island {
        t.add_link(NodeId(main + k), NodeId(main + k - 1), 5_000_000, 300);
    }
    let lone = NodeId(main + island);
    let shared = NodeId(main + island + 1);
    let nodes = main + island;
    let clients = 3 + rng.below(5);
    let servers = 2 + rng.below(4);
    for c in 0..clients {
        t.attach_client(ClientId(c), NodeId(rng.below(nodes)));
    }
    for s in 0..servers {
        t.attach_server(ServerId(s), NodeId(rng.below(nodes)));
    }
    // Pin one client and one server on each side of the cut, one of
    // each alone, and a client and a server sharing a lone node.
    t.attach_client(ClientId(0), NodeId(0));
    t.attach_server(ServerId(0), NodeId(main));
    t.attach_client(ClientId(1), lone);
    t.attach_client(ClientId(2), shared);
    t.attach_server(ServerId(1), shared);
    (t, clients, servers)
}

#[test]
fn random_graphs_with_a_detached_island_agree_with_routing() {
    for seed in 0..40u64 {
        let (topo, clients, servers) = islands(seed);
        let unreachable = check(topo, clients, servers, &format!("islands seed {seed}"));
        assert!(
            unreachable > unknown_pairs(clients, servers),
            "seed {seed}: the island must cut some attached pairs"
        );
    }
}

#[test]
fn unattached_and_unknown_ids_are_unreachable_and_counted() {
    let mut t = Topology::dumbbell(2, 2, 10_000_000, 155_000_000);
    // Registered nodes with nothing attached, and ids nobody attached.
    t.add_node(NodeId(100));
    let (net, rec) = observed(t);
    let cases = [
        (ClientId(0), ServerId(7)),
        (ClientId(7), ServerId(0)),
        (ClientId(7), ServerId(7)),
        (ClientId(u64::MAX), ServerId(u64::MAX)),
    ];
    for (i, &(c, s)) in cases.iter().enumerate() {
        assert!(!net.has_route(c, s));
        assert_eq!(rejections(&rec), 2 * i as u64);
        assert!(!net.reachable(c, s));
        assert!(net.path(c, s).is_err());
        assert_eq!(rejections(&rec), 2 * i as u64 + 2);
    }
    // Without a recorder nothing is counted and the answers stand.
    let quiet = Network::new(Topology::dumbbell(2, 2, 10_000_000, 155_000_000));
    assert!(quiet.reachable(ClientId(1), ServerId(1)));
    assert!(!quiet.reachable(ClientId(2), ServerId(1)));
    assert!(!quiet.has_route(ClientId(2), ServerId(1)));
}
