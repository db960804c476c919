//! Release-on-failure auditing.
//!
//! The paper's commitment step is all-or-nothing: a refused offer must
//! leave no residue on any server or link it touched. The broker extends
//! that invariant across a whole run — after every admitted session has
//! departed, farm and network capacity must equal what a pristine world
//! holds. A [`CapacitySnapshot`] captures both sides; comparing the
//! before/after pair catches leaked reservations from *any* layer
//! (negotiation commit, broker bookkeeping, fault-window races).

use nod_cmfs::{FarmUsage, ServerFarm};
use nod_mmdoc::VariantId;
use nod_netsim::Network;

/// Committed capacity across the farm and the network at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CapacitySnapshot {
    /// Farm-side usage (streams, disk round time, interface bandwidth).
    pub farm: FarmUsage,
    /// Live network path reservations.
    pub net_reservations: usize,
    /// Total reserved link bandwidth, bps.
    pub net_reserved_bps: u64,
    /// Per server, in the farm's (ascending id) order, the variant each of
    /// its active streams serves, ascending.
    pub server_streams: Vec<Vec<VariantId>>,
    /// Reserved bandwidth per link, bps, indexed by link id.
    pub link_reserved_bps: Vec<u64>,
}

impl CapacitySnapshot {
    /// Capture current usage.
    pub fn capture(farm: &ServerFarm, network: &Network) -> Self {
        CapacitySnapshot {
            farm: farm.usage(),
            net_reservations: network.active_reservations(),
            net_reserved_bps: network.total_reserved_bps(),
            server_streams: (farm.ids().into_iter())
                .map(|id| {
                    farm.server(id)
                        .map_or(Vec::new(), |s| s.reserved_variants())
                })
                .collect(),
            link_reserved_bps: network.reserved_bps(),
        }
    }

    /// Resources held in `after` but not in `self` — the leak, if any.
    /// Saturating: a release *below* the baseline also shows up (as zero
    /// here, but `self != after` still holds).
    pub fn leaked_streams(&self, after: &CapacitySnapshot) -> usize {
        (after.farm.streams + after.net_reservations)
            .saturating_sub(self.farm.streams + self.net_reservations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nod_cmfs::{Guarantee, ServerConfig, StreamRequirement};
    use nod_mmdoc::{ServerId, VariantId};
    use nod_netsim::Topology;

    #[test]
    fn snapshot_sees_and_forgets_a_reservation() {
        let farm = ServerFarm::uniform(1, ServerConfig::era_default());
        let network = Network::new(Topology::dumbbell(1, 1, 25_000_000, 155_000_000));
        let before = CapacitySnapshot::capture(&farm, &network);
        assert_eq!(before.farm, FarmUsage::default());
        assert_eq!((before.net_reservations, before.net_reserved_bps), (0, 0));

        let id = farm
            .try_reserve(
                ServerId(0),
                StreamRequirement {
                    variant: VariantId(1),
                    max_bit_rate: 15_000 * 8 * 25,
                    avg_bit_rate: 6_000 * 8 * 25,
                    max_block_bytes: 15_000,
                    avg_block_bytes: 6_000,
                    blocks_per_second: 25,
                    guarantee: Guarantee::Guaranteed,
                },
            )
            .unwrap();
        let during = CapacitySnapshot::capture(&farm, &network);
        assert_eq!(before.leaked_streams(&during), 1);
        assert_ne!(before, during);

        farm.release(ServerId(0), id);
        let after = CapacitySnapshot::capture(&farm, &network);
        assert_eq!(before, after);
        assert_eq!(before.leaked_streams(&after), 0);
    }
}
