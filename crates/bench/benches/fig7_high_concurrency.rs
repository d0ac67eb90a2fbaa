//! Figure 7: latency of the four scalable implementations with 16
//! priorities from 2 to 256 processors — and, beyond the paper, optional
//! 512/1024-processor rows (`FUNNELPQ_MAX_P=1024`) that the event-wheel
//! scheduler makes practical.
//!
//! Expected shape (paper §4.1): SimpleLinear fastest until ~32 processors;
//! SimpleTree slowest at high concurrency (root counter hot spot);
//! FunnelTree takes the lead around 64 processors and at 256 is ~8x faster
//! than SimpleTree and ~3x faster than SimpleLinear.

use funnelpq_bench::{
    lat, max_procs, print_table, standard_workload, trace_enabled, write_trace_artifacts,
};
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::run_queue_workload;

fn main() {
    let all_procs = [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let cap = max_procs();
    let mut rows = Vec::new();
    for &p in all_procs.iter().filter(|&&p| p <= cap) {
        let wl = standard_workload(p, 16);
        let mut row = vec![p.to_string()];
        for algo in Algorithm::SCALABLE {
            let r = run_queue_workload(algo, &wl);
            row.push(lat(r.all.mean()));
        }
        rows.push(row);
    }
    let mut header = vec!["P"];
    header.extend(Algorithm::SCALABLE.iter().map(|a| a.name()));
    print_table(
        &format!(
            "Figure 7 — mean access latency (cycles), 16 priorities, 2..{} processors",
            all_procs.iter().filter(|&&p| p <= cap).max().unwrap()
        ),
        &header,
        &rows,
    );

    // Exemplar trace: FunnelTree at the crossover point where it takes the
    // lead from SimpleLinear.
    if trace_enabled() {
        let wl = standard_workload(64, 16);
        let (trace, series) = write_trace_artifacts("fig7", Algorithm::FunnelTree, &wl)
            .expect("write fig7 trace artifacts");
        println!("wrote {trace} and {series}");
    }
}
