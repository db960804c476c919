//! Network simulator substrate.
//!
//! Stands in for the ATM testbed connecting the CITR prototype's client and
//! server machines. The QoS negotiation sees the network as:
//!
//! * a **topology** of nodes and full-duplex links with capacity and
//!   propagation delay ([`topology`]);
//! * **routes** between a client and a server ([`routing`], Dijkstra on
//!   propagation delay);
//! * a **bandwidth reservation** service along a route with two-phase
//!   semantics — all links or none ([`network`]);
//! * **path metrics** (delay, hop count, bottleneck bandwidth) used by the
//!   QoS mapping, plus per-link congestion injection for the adaptation
//!   experiments.

pub mod network;
pub mod routing;
pub mod topology;

pub use network::{NetError, NetReservationId, Network, PathMetrics, Reach};
pub use routing::{route, RouteError};
pub use topology::{LinkId, NodeId, Topology};
