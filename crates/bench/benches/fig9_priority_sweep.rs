//! Figure 9: latency as the priority range goes from 2 to 512 at 64
//! processors (left graph) and 256 processors (right graph; SimpleTree is
//! "off the graph" there, and the paper omits it).
//!
//! Expected shape: SimpleLinear is "U"-shaped at 64 P (more work vs. less
//! contention); LinearFunnels slows roughly linearly with N (each new
//! funnel costs more than the contention it saves); SimpleTree is almost
//! flat (root-dominated); FunnelTree grows less than logarithmically and
//! is the only method that works well across nearly all priority ranges at
//! high concurrency.

use funnelpq_bench::{lat, print_table, standard_workload, trace_enabled, write_trace_artifacts};
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::run_queue_workload;

fn sweep(procs: usize, include_simple_tree: bool) {
    let priorities = [2usize, 4, 8, 16, 32, 64, 128, 256, 512];
    let algos: Vec<Algorithm> = Algorithm::SCALABLE
        .into_iter()
        .filter(|a| include_simple_tree || *a != Algorithm::SimpleTree)
        .collect();
    let mut rows = Vec::new();
    for &n in &priorities {
        let wl = standard_workload(procs, n);
        let mut row = vec![n.to_string()];
        for &algo in &algos {
            let r = run_queue_workload(algo, &wl);
            row.push(lat(r.all.mean()));
        }
        rows.push(row);
    }
    let mut header = vec!["N"];
    header.extend(algos.iter().map(|a| a.name()));
    print_table(
        &format!("Figure 9 — mean access latency (cycles) vs. priorities, {procs} processors"),
        &header,
        &rows,
    );
}

fn main() {
    sweep(64, true);
    sweep(256, false); // SimpleTree off-graph at 256, as in the paper

    // Exemplar trace: the wide-priority-range point where FunnelTree's
    // sub-logarithmic growth shows.
    if trace_enabled() {
        let wl = standard_workload(64, 256);
        let (trace, series) = write_trace_artifacts("fig9", Algorithm::FunnelTree, &wl)
            .expect("write fig9 trace artifacts");
        println!("wrote {trace} and {series}");
    }
}
