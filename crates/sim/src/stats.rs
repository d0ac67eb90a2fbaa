//! Latency accumulators for experiment measurements.
//!
//! The [`Acc`] accumulator itself lives in `funnelpq-util` (the serving
//! layer accounts its end-to-end latencies into the same histograms); this
//! module re-exports it and adds the simulator-specific aggregation: named
//! series plus per-cache-line contention tracking.

use std::collections::BTreeMap;

pub use funnelpq_util::{Acc, ACC_BUCKETS};

/// All statistics gathered during a simulation run.
///
/// Algorithms and workload drivers record latency samples under string keys
/// (e.g. `"insert"`, `"delete-min"`, `"all"`); the machine itself tracks
/// aggregate memory-system behaviour and per-cache-line contention.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    series: BTreeMap<&'static str, Acc>,
    /// Total shared-memory transactions performed.
    pub mem_accesses: u64,
    /// Transactions whose issuing processor and target cache line lived on
    /// different NUMA nodes (always 0 on a 1-node machine).
    pub remote_accesses: u64,
    /// Total cycles transactions spent queued behind busy lines.
    pub queue_delay_cycles: u64,
    /// `(line, accesses, queue-delay cycles)` of every touched line, in
    /// line order. The machine keeps these counts in its paged line table
    /// and copies the touched ones out when it takes a snapshot.
    pub(crate) per_line: Vec<(usize, u64, u64)>,
}

/// Aggregate contention attributed to one labelled memory region (see
/// [`crate::Machine::label`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotSpot {
    /// The label given at build time (or `"<unlabelled>"`).
    pub label: String,
    /// Transactions that touched the region.
    pub accesses: u64,
    /// Cycles those transactions spent queued behind busy lines.
    pub queue_delay_cycles: u64,
}

impl Stats {
    /// Creates an empty statistics table.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Records a sample under `key`.
    pub fn record(&mut self, key: &'static str, v: u64) {
        self.series.entry(key).or_default().record(v);
    }

    /// Returns the accumulator for `key`, if any sample was recorded.
    pub fn get(&self, key: &str) -> Option<&Acc> {
        self.series.get(key)
    }

    /// Returns the accumulator for `key`, or an empty one.
    pub fn acc(&self, key: &str) -> Acc {
        self.series.get(key).cloned().unwrap_or_default()
    }

    /// Iterates over all recorded series in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Acc)> {
        self.series.iter().map(|(k, v)| (*k, v))
    }

    /// Per-cache-line `(line, accesses, queue-delay cycles)` for every line
    /// that was touched, in line order. For contention reports and the
    /// differential tests that compare machines line by line.
    pub fn per_line(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.per_line.iter().copied()
    }

    /// Mean queueing delay per memory access, a contention indicator.
    pub fn mean_queue_delay(&self) -> f64 {
        if self.mem_accesses == 0 {
            0.0
        } else {
            self.queue_delay_cycles as f64 / self.mem_accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_series() {
        let mut s = Stats::new();
        s.record("ins", 5);
        s.record("ins", 7);
        s.record("del", 1);
        assert_eq!(s.acc("ins").count(), 2);
        assert_eq!(s.acc("del").count(), 1);
        assert_eq!(s.acc("missing").count(), 0);
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn acc_reexport_is_the_util_type() {
        // The simulator's Acc and the util crate's Acc must stay the same
        // type, so histograms merge across layers.
        let mut a: funnelpq_util::Acc = Acc::new();
        a.record(7);
        assert_eq!(a.p50(), 8);
        assert_eq!(ACC_BUCKETS, funnelpq_util::ACC_BUCKETS);
    }
}
