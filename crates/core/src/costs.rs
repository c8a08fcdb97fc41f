//! Cost model for the software layers of the MPI library.

use rankmpi_vtime::Nanos;

/// Virtual-time costs of library-internal operations (everything that is not
/// the NIC/wire, which lives in [`rankmpi_fabric::NetworkProfile`]).
///
/// The defaults reflect the relative magnitudes the paper's cited measurements
/// establish: message matching is a costly serial operation whose cost grows
/// with queue depth (Lesson on partitioned motivation, \[56\] in the paper);
/// intra-node shared-memory transfers are ~5× cheaper than NIC messages; local
/// reductions cost ~1 ns/element.
#[derive(Debug, Clone)]
pub struct CoreCosts {
    /// Fixed cost of one matching-engine operation (enqueue or probe) on the
    /// flat-queue (linear) engine.
    pub match_base: Nanos,
    /// Additional matching cost per queue element scanned.
    pub match_per_scan: Nanos,
    /// Cost of skipping one tombstone (a lazily deleted index entry) on the
    /// sequence-merged engine — dearer than a flat-queue compare because each
    /// skip is a separate store probe.
    pub match_wildcard_per_scan: Nanos,
    /// Fixed cost of one matching operation on the sequence-merged engine:
    /// dearer than touching a flat queue's head (up to four index lookups
    /// and head comparisons), which is what buys depth-independent exact
    /// *and* wildcard matching.
    pub match_merged_base: Nanos,
    /// Cost to allocate/initialize a request object.
    pub request_setup: Nanos,
    /// Per-byte cost of copying payloads (eager-protocol copies), picoseconds.
    pub copy_byte_ps: u64,
    /// Latency of an intra-node shared-memory message.
    pub shm_latency: Nanos,
    /// Per-message occupancy of an intra-node shared-memory channel.
    pub shm_gap: Nanos,
    /// Per-byte cost of shared-memory transfer, picoseconds.
    pub shm_byte_ps: u64,
    /// Per-element cost of a local reduction (f64 add/max).
    pub reduce_per_elem: Nanos,
    /// CPU cost to apply an RMA operation at the target.
    pub rma_apply: Nanos,
    /// Extra cost for an atomic RMA apply (fetch-add vs plain store).
    pub rma_atomic_extra: Nanos,
}

impl Default for CoreCosts {
    fn default() -> Self {
        CoreCosts {
            match_base: Nanos(40),
            match_per_scan: Nanos(4),
            match_wildcard_per_scan: Nanos(6),
            match_merged_base: Nanos(58),
            request_setup: Nanos(25),
            copy_byte_ps: 62, // ~16 GB/s single-threaded memcpy
            shm_latency: Nanos(200),
            shm_gap: Nanos(30),
            shm_byte_ps: 62,
            reduce_per_elem: Nanos(1),
            rma_apply: Nanos(30),
            rma_atomic_extra: Nanos(25),
        }
    }
}

impl CoreCosts {
    /// Copy cost for `bytes` through the eager path.
    pub fn copy_cost(&self, bytes: usize) -> Nanos {
        Nanos(bytes as u64 * self.copy_byte_ps / 1_000)
    }

    /// Occupancy of a shared-memory channel for one message of `bytes`.
    pub fn shm_occupancy(&self, bytes: usize) -> Nanos {
        self.shm_gap + Nanos(bytes as u64 * self.shm_byte_ps / 1_000)
    }

    /// Cost of locally reducing `elems` elements.
    pub fn reduce_cost(&self, elems: usize) -> Nanos {
        self.reduce_per_elem * elems as u64
    }

    /// Matching cost after scanning `scanned` flat-queue entries.
    pub fn match_cost(&self, scanned: usize) -> Nanos {
        self.match_base + self.match_per_scan * scanned as u64
    }

    /// Matching cost of one engine operation, priced from the work the
    /// engine reported: each structure has its own fixed base (flat-queue
    /// touch or merged head comparison), plus a per-entry scan term and a
    /// tombstone-skip term.
    pub fn match_cost_of(&self, work: &crate::matching::ScanWork) -> Nanos {
        use crate::matching::EngineKind;
        let base = match work.engine {
            EngineKind::Linear => self.match_base,
            EngineKind::SeqMerged => self.match_merged_base,
        };
        base + self.match_per_scan * work.scanned as u64
            + self.match_wildcard_per_scan * work.wildcard_scanned as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_scales_with_bytes() {
        let c = CoreCosts::default();
        assert_eq!(c.copy_cost(0), Nanos(0));
        assert_eq!(c.copy_cost(16_000), Nanos(16_000 * 62 / 1_000));
    }

    #[test]
    fn match_cost_grows_linearly() {
        let c = CoreCosts::default();
        let base = c.match_cost(0);
        assert_eq!(c.match_cost(10), base + c.match_per_scan * 10);
    }

    #[test]
    fn merged_cost_is_flat_for_exact_and_wildcard() {
        use crate::matching::ScanWork;
        let c = CoreCosts::default();
        // A merged wildcard match compares at most 4 candidate heads — its
        // cost never carries a queue-depth term, unlike a linear scan of
        // 1024 entries.
        let merged_wild = c.match_cost_of(&ScanWork::merged(4, 0));
        assert_eq!(merged_wild, c.match_merged_base + c.match_per_scan * 4);
        assert!(merged_wild < c.match_cost_of(&ScanWork::linear(1024)) / 10);
        // Shallow queues: the index lookups make merging slightly dearer
        // than touching a flat queue's head.
        assert!(c.match_cost_of(&ScanWork::merged(1, 0)) > c.match_cost_of(&ScanWork::linear(1)));
        // Tombstone skips are charged their own per-step rate.
        assert_eq!(
            c.match_cost_of(&ScanWork::merged(1, 3)),
            c.match_merged_base + c.match_per_scan + c.match_wildcard_per_scan * 3
        );
    }

    #[test]
    fn shm_is_cheaper_than_typical_nic_path() {
        let c = CoreCosts::default();
        // 8-byte message: shm occupancy ~30ns vs NIC gap ~120ns.
        assert!(c.shm_occupancy(8) < Nanos(120));
    }
}
