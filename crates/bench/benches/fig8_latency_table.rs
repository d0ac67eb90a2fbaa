//! Figure 8 (the paper's table): insert / delete-min latency split for the
//! four scalable implementations, N ∈ {16, 128} priorities and
//! P ∈ {16, 64, 256} processors. Latencies reported in thousands of
//! cycles, as in the paper.
//!
//! Expected shape: for the tree methods insert is cheaper than delete-min
//! (half the counter updates on average); SimpleLinear's delete cost grows
//! with N at low P and its contention falls with N at high P; funnel
//! methods pay overhead for more funnels as N grows but stay flat in P.
//!
//! Beyond the paper's means, the table reports p50/p99 over all accesses
//! (log2-histogram upper bounds) — the tail is where contention collapse
//! shows long before the mean moves.

use funnelpq_bench::{print_table, standard_workload, trace_enabled, write_trace_artifacts};
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::run_queue_workload;

/// Formats a cycle count in thousands, like the paper's table.
fn kcyc(v: f64) -> String {
    format!("{:.1}", v / 1000.0)
}

fn main() {
    let combos = [
        (16usize, 16usize),
        (16, 128),
        (64, 16),
        (64, 128),
        (256, 16),
        (256, 128),
    ];
    let mut rows = Vec::new();
    for &(p, n) in &combos {
        let wl = standard_workload(p, n);
        let mut row = vec![p.to_string(), n.to_string()];
        for algo in Algorithm::SCALABLE {
            let r = run_queue_workload(algo, &wl);
            row.push(kcyc(r.insert.mean()));
            row.push(kcyc(r.delete.mean()));
            row.push(kcyc(r.all.mean()));
            row.push(kcyc(r.all.p50() as f64));
            row.push(kcyc(r.all.p99() as f64));
        }
        rows.push(row);
    }
    let mut header: Vec<String> = vec!["P".into(), "N".into()];
    for algo in Algorithm::SCALABLE {
        let n = algo.name();
        header.push(format!("{n} Ins."));
        header.push(format!("{n} Del."));
        header.push(format!("{n} All"));
        header.push(format!("{n} p50"));
        header.push(format!("{n} p99"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "Figure 8 — insert / delete-min latency (thousands of cycles; p50/p99 are histogram upper bounds)",
        &header_refs,
        &rows,
    );

    // Exemplar trace: the heaviest cell of the table.
    if trace_enabled() {
        let wl = standard_workload(256, 128);
        let (trace, series) = write_trace_artifacts("fig8", Algorithm::FunnelTree, &wl)
            .expect("write fig8 trace artifacts");
        println!("wrote {trace} and {series}");
    }
}
