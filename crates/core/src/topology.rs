//! Process-level NUMA topology model for the native queues.
//!
//! The paper's machine (and the simulator mirroring it) is ccNUMA: a cache
//! line has a *home node*, and touching a line homed elsewhere costs a
//! multiple of a local access. The native side of this workspace runs on
//! whatever host CI happens to give it — often a single socket, sometimes a
//! single core — so [`Topology`] models the part that matters to the
//! algorithms: a node count, a static placement of threads and heap slots
//! onto nodes, and an *emulated* per-remote-line-transfer cost
//! ([`Topology::remote_ns`]) charged as a calibrated busy-wait. With the
//! knob at zero (the default) the model is free and the host behaves as the
//! UMA machine it probably is; with it non-zero, remote episodes cost real
//! wall time and the NUMA crossover becomes measurable on any host.
//!
//! The knob is a live atomic on purpose: benches and chaos tests raise it
//! mid-run to emulate a regional latency spike (the native twin of the
//! simulator's `Fault::RegionDelay`) and watch the adaptive controller
//! react.

use std::sync::atomic::{AtomicU64, Ordering};

use funnelpq_util::mono_ns;

/// Static thread/slot placement over `nodes` NUMA nodes plus the live
/// remote-access cost knob. Shared by [`crate::NumaPq`] and its adaptive
/// controller.
#[derive(Debug)]
pub struct Topology {
    nodes: usize,
    max_threads: usize,
    /// Emulated cost of one remote cache-line transfer, in nanoseconds.
    /// Zero disables the emulation entirely.
    remote_ns: AtomicU64,
}

impl Topology {
    /// A topology of `nodes` nodes hosting `max_threads` threads, with the
    /// remote-transfer cost starting at `remote_ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `max_threads` is zero.
    pub fn new(nodes: usize, max_threads: usize, remote_ns: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(max_threads > 0, "need at least one thread");
        Topology {
            nodes,
            max_threads,
            remote_ns: AtomicU64::new(remote_ns),
        }
    }

    /// Number of NUMA nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node thread `tid` lives on: threads are split into `nodes`
    /// contiguous blocks, mirroring how a pinned-thread sweep fills sockets
    /// in order.
    #[inline]
    pub fn node_of_tid(&self, tid: usize) -> usize {
        debug_assert!(tid < self.max_threads);
        tid * self.nodes / self.max_threads
    }

    /// The home node of slot `slot` out of `nslots`: slots are split into
    /// `nodes` contiguous blocks, so a node's threads and its slots are
    /// co-located.
    #[inline]
    pub fn node_of_slot(&self, slot: usize, nslots: usize) -> usize {
        debug_assert!(slot < nslots);
        slot * self.nodes / nslots
    }

    /// The contiguous slot range `start..end` homed on `node`, given
    /// `nslots` total slots. Empty only when `nslots < nodes`.
    pub fn slot_range(&self, node: usize, nslots: usize) -> (usize, usize) {
        debug_assert!(node < self.nodes);
        let start = (node * nslots).div_ceil(self.nodes);
        let end = ((node + 1) * nslots).div_ceil(self.nodes);
        (start, end)
    }

    /// Whether any thread *other than* `tid` lives on `node` — i.e. whether
    /// a delegated request to `node` could ever be served.
    pub fn has_server(&self, tid: usize, node: usize) -> bool {
        let (lo, hi) = self.thread_range(node);
        hi - lo > usize::from(tid >= lo && tid < hi)
    }

    /// The contiguous thread range `start..end` living on `node`.
    pub fn thread_range(&self, node: usize) -> (usize, usize) {
        debug_assert!(node < self.nodes);
        let start = (node * self.max_threads).div_ceil(self.nodes);
        let end = ((node + 1) * self.max_threads).div_ceil(self.nodes);
        (start, end)
    }

    /// Current emulated remote-transfer cost in nanoseconds.
    #[inline]
    pub fn remote_ns(&self) -> u64 {
        // ORDERING: Relaxed — a cost knob; it publishes no other memory,
        // and a reader that sees the old value for a while only charges
        // (or scores) a few operations at the old price.
        self.remote_ns.load(Ordering::Relaxed)
    }

    /// Sets the emulated remote-transfer cost. Takes effect on the next
    /// charged access — raising it mid-run is the native analogue of the
    /// simulator's regional latency spike.
    pub fn set_remote_ns(&self, ns: u64) {
        // ORDERING: Relaxed; see `remote_ns`.
        self.remote_ns.store(ns, Ordering::Relaxed);
    }

    /// Charges `transfers` remote cache-line transfers to the calling
    /// thread as a busy-wait of `transfers * remote_ns()` nanoseconds.
    /// Free (one relaxed load, one branch) while the knob is zero.
    #[inline]
    pub fn charge(&self, transfers: u64) {
        // ORDERING: Relaxed; see `remote_ns`.
        let ns = self.remote_ns.load(Ordering::Relaxed);
        if ns == 0 {
            return;
        }
        self.charge_cold(transfers.saturating_mul(ns));
    }

    #[cold]
    fn charge_cold(&self, total_ns: u64) {
        let deadline = mono_ns().saturating_add(total_ns);
        while mono_ns() < deadline {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_partitions_threads_and_slots() {
        let t = Topology::new(2, 8, 0);
        let nodes: Vec<usize> = (0..8).map(|tid| t.node_of_tid(tid)).collect();
        assert_eq!(nodes, [0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(t.thread_range(0), (0, 4));
        assert_eq!(t.thread_range(1), (4, 8));
        let slots: Vec<usize> = (0..16).map(|s| t.node_of_slot(s, 16)).collect();
        assert_eq!(&slots[..8], &[0; 8]);
        assert_eq!(&slots[8..], &[1; 8]);
        assert_eq!(t.slot_range(0, 16), (0, 8));
        assert_eq!(t.slot_range(1, 16), (8, 16));
        // Ranges tile the slot space even when nothing divides evenly.
        let t = Topology::new(3, 5, 0);
        let mut covered = 0;
        for node in 0..3 {
            let (lo, hi) = t.slot_range(node, 7);
            assert_eq!(lo, covered);
            covered = hi;
            for s in lo..hi {
                assert_eq!(t.node_of_slot(s, 7), node);
            }
        }
        assert_eq!(covered, 7);
    }

    #[test]
    fn has_server_excludes_the_asking_thread() {
        let t = Topology::new(2, 2, 0);
        // One thread per node: nobody else can serve my own node, but the
        // other node has its one thread.
        assert!(!t.has_server(0, 0));
        assert!(t.has_server(0, 1));
        let t = Topology::new(2, 1, 0);
        assert!(!t.has_server(0, 0));
        assert!(!t.has_server(0, 1), "node 1 hosts no threads at all");
    }

    #[test]
    fn charge_is_free_at_zero_and_waits_otherwise() {
        let t = Topology::new(2, 2, 0);
        let before = mono_ns();
        for _ in 0..1000 {
            t.charge(3);
        }
        assert!(mono_ns() - before < 10_000_000, "zero knob must be ~free");
        t.set_remote_ns(200_000);
        let before = mono_ns();
        t.charge(2);
        assert!(mono_ns() - before >= 400_000, "charged wait too short");
    }
}
