//! Figure 6: latency of all seven priority-queue implementations with 16
//! priorities at low concurrency (2–16 processors).
//!
//! Expected shape (paper §4.1): SingleLock and HuntEtAl rise steeply
//! (roughly linearly); SkipList does slightly better; SimpleLinear leads;
//! LinearFunnels is ~2–3x SimpleLinear; FunnelTree ≈ SimpleTree, both
//! ~40–50% above SimpleLinear.

use funnelpq_bench::{lat, print_table, standard_workload, trace_enabled, write_trace_artifacts};
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::run_queue_workload;

fn main() {
    let procs = [2usize, 4, 6, 8, 10, 12, 14, 16];
    let mut rows = Vec::new();
    for &p in &procs {
        let wl = standard_workload(p, 16);
        let mut row = vec![p.to_string()];
        for algo in Algorithm::ALL {
            let r = run_queue_workload(algo, &wl);
            row.push(lat(r.all.mean()));
        }
        rows.push(row);
    }
    let mut header = vec!["P"];
    let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
    header.extend(names);
    print_table(
        "Figure 6 — mean access latency (cycles), 16 priorities, low concurrency",
        &header,
        &rows,
    );

    // Exemplar trace: the steepest riser of the figure at its top point.
    if trace_enabled() {
        let wl = standard_workload(16, 16);
        let (trace, series) = write_trace_artifacts("fig6", Algorithm::SingleLock, &wl)
            .expect("write fig6 trace artifacts");
        println!("wrote {trace} and {series}");
    }
}
