//! A farm of file servers, the negotiation's server-side resource pool.

use nod_mmdoc::ServerId;
use nod_obs::Recorder;

use crate::admission::{AdmissionError, StreamRequirement};
use crate::server::{FileServer, ReservationId, ServerConfig};

/// The set of server machines known to the QoS manager.
///
/// Server ids may be any `u64`s, sparse or not: the farm keeps its
/// servers in one list sorted by id and finds one by binary search. An id
/// the farm lacks is [`FarmError::NoSuchServer`]. The farm owns its
/// servers; each keeps its own reservation table.
#[derive(Debug, Default)]
pub struct ServerFarm {
    /// Ascending by id.
    servers: Vec<(ServerId, FileServer)>,
}

impl ServerFarm {
    /// An empty farm.
    pub fn new() -> Self {
        ServerFarm::default()
    }

    /// A farm of `n` identically configured servers with ids `0..n`.
    pub fn uniform(n: usize, config: ServerConfig) -> Self {
        let mut farm = ServerFarm::new();
        for i in 0..n {
            farm.add(FileServer::new(ServerId(i as u64), config.clone()));
        }
        farm
    }

    /// Add a server.
    ///
    /// # Panics
    /// Panics on a duplicate server id.
    pub fn add(&mut self, server: FileServer) {
        let id = server.id();
        match self.servers.binary_search_by_key(&id, |&(id, _)| id) {
            Ok(_) => panic!("duplicate server {id}"),
            Err(at) => self.servers.insert(at, (id, server)),
        }
    }

    /// Look up a server.
    pub fn server(&self, id: ServerId) -> Option<&FileServer> {
        let at = self.servers.binary_search_by_key(&id, |&(id, _)| id);
        at.ok().map(|at| &self.servers[at].1)
    }

    /// Attach an observability recorder to every server in the farm (see
    /// [`FileServer::set_recorder`]).
    pub fn set_recorder(&self, recorder: &Recorder) {
        for (_, server) in &self.servers {
            server.set_recorder(recorder.clone());
        }
    }

    /// All server ids, ascending.
    pub fn ids(&self) -> Vec<ServerId> {
        self.servers.iter().map(|&(id, _)| id).collect()
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the farm has no servers.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Reserve on a specific server.
    pub fn try_reserve(
        &self,
        id: ServerId,
        req: StreamRequirement,
    ) -> Result<ReservationId, FarmError> {
        let server = self.server(id).ok_or(FarmError::NoSuchServer(id))?;
        server.try_reserve(req).map_err(FarmError::Admission)
    }

    /// Release a reservation on a specific server (idempotent).
    pub fn release(&self, id: ServerId, reservation: ReservationId) {
        if let Some(server) = self.server(id) {
            server.release(reservation);
        }
    }

    /// Servers currently reporting violated reservations, with the victims.
    pub fn violations(&self) -> Vec<(ServerId, Vec<ReservationId>)> {
        self.servers
            .iter()
            .filter_map(|(id, s)| {
                let v = s.violated_reservations();
                (!v.is_empty()).then_some((*id, v))
            })
            .collect()
    }

    /// Aggregate reserved capacity across the farm — the capacity-audit
    /// snapshot the broker compares before and after a fully-drained run
    /// to detect leaked reservations.
    pub fn usage(&self) -> FarmUsage {
        let mut usage = FarmUsage::default();
        for (_, server) in &self.servers {
            usage.streams += server.active_streams();
            usage.round_us += server.used_round_us();
            usage.bps += server.used_bps();
        }
        usage
    }

    /// Mean disk utilization across the farm.
    pub fn mean_disk_utilization(&self) -> f64 {
        if self.servers.is_empty() {
            return 0.0;
        }
        self.servers
            .iter()
            .map(|(_, s)| s.disk_utilization())
            .sum::<f64>()
            / self.servers.len() as f64
    }
}

/// Aggregate reserved capacity across a farm (see [`ServerFarm::usage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FarmUsage {
    /// Active reservations, all servers.
    pub streams: usize,
    /// Reserved disk round time, µs, all servers.
    pub round_us: u64,
    /// Reserved interface bandwidth, bits/s, all servers.
    pub bps: u64,
}

/// Farm-level reservation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarmError {
    /// The requested server is not in the farm.
    NoSuchServer(ServerId),
    /// The server refused admission.
    Admission(AdmissionError),
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::NoSuchServer(id) => write!(f, "no such server {id}"),
            FarmError::Admission(e) => write!(f, "admission refused: {e}"),
        }
    }
}

impl std::error::Error for FarmError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Guarantee;
    use nod_mmdoc::VariantId;

    fn req(id: u64) -> StreamRequirement {
        StreamRequirement {
            variant: VariantId(id),
            max_bit_rate: 3_000_000,
            avg_bit_rate: 1_200_000,
            max_block_bytes: 15_000,
            avg_block_bytes: 6_000,
            blocks_per_second: 25,
            guarantee: Guarantee::Guaranteed,
        }
    }

    #[test]
    fn uniform_farm() {
        let farm = ServerFarm::uniform(3, ServerConfig::era_default());
        assert_eq!(farm.len(), 3);
        assert_eq!(farm.ids(), vec![ServerId(0), ServerId(1), ServerId(2)]);
        assert!(farm.server(ServerId(2)).is_some());
        assert!(farm.server(ServerId(9)).is_none());
    }

    #[test]
    fn reserve_and_release_via_farm() {
        let farm = ServerFarm::uniform(2, ServerConfig::era_default());
        let r = farm.try_reserve(ServerId(0), req(1)).unwrap();
        assert_eq!(farm.server(ServerId(0)).unwrap().active_streams(), 1);
        assert_eq!(farm.server(ServerId(1)).unwrap().active_streams(), 0);
        farm.release(ServerId(0), r);
        assert_eq!(farm.server(ServerId(0)).unwrap().active_streams(), 0);
        // Releasing on an unknown server is a no-op.
        farm.release(ServerId(7), r);
    }

    #[test]
    fn unknown_server_error() {
        let farm = ServerFarm::uniform(1, ServerConfig::era_default());
        assert_eq!(
            farm.try_reserve(ServerId(5), req(1)).unwrap_err(),
            FarmError::NoSuchServer(ServerId(5))
        );
    }

    #[test]
    fn violations_surface_per_server() {
        let farm = ServerFarm::uniform(2, ServerConfig::era_default());
        for i in 0..10 {
            farm.try_reserve(ServerId(0), req(i)).unwrap();
        }
        assert!(farm.violations().is_empty());
        farm.server(ServerId(0)).unwrap().set_health(0.2);
        let v = farm.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, ServerId(0));
        assert!(!v[0].1.is_empty());
    }

    #[test]
    fn sparse_ids_stay_ascending_and_are_all_found() {
        let sparse = [ServerId(900), ServerId(1 << 62), ServerId(3)];
        let mut farm = ServerFarm::new();
        for id in sparse {
            farm.add(FileServer::new(id, ServerConfig::era_default()));
        }
        let ascending = vec![ServerId(3), ServerId(900), ServerId(1 << 62)];
        assert_eq!(farm.ids(), ascending);
        for id in sparse {
            assert_eq!(farm.server(id).map(|s| s.id()), Some(id));
            let r = farm.try_reserve(id, req(id.0)).unwrap();
            farm.release(id, r);
        }
        for absent in [ServerId(0), ServerId(4), ServerId(901), ServerId(u64::MAX)] {
            assert!(farm.server(absent).is_none());
            assert_eq!(
                farm.try_reserve(absent, req(1)).unwrap_err(),
                FarmError::NoSuchServer(absent)
            );
            farm.release(absent, ReservationId(1));
        }
        // Violations come back in ascending server order too.
        for &id in ascending.iter().rev() {
            for i in 0..10 {
                farm.try_reserve(id, req(i)).unwrap();
            }
            if id != ServerId(900) {
                farm.server(id).unwrap().set_health(0.2);
            }
        }
        let servers: Vec<_> = farm.violations().into_iter().map(|(id, _)| id).collect();
        assert_eq!(servers, vec![ServerId(3), ServerId(1 << 62)]);
        assert_eq!(farm.usage().streams, 30);
    }

    #[test]
    #[should_panic(expected = "duplicate server")]
    fn duplicate_server_rejected() {
        let mut farm = ServerFarm::new();
        farm.add(FileServer::new(ServerId(1), ServerConfig::era_default()));
        farm.add(FileServer::new(ServerId(1), ServerConfig::era_default()));
    }
}
