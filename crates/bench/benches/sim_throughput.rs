//! SimPerf: wall-clock throughput of the simulator itself, measured as
//! simulated memory transactions per second of host time. Runs the Figure 7
//! workload (16 priorities, FunnelTree plus the other scalable algorithms
//! at the headline P=256 point) on both event-queue implementations:
//!
//! * `wheel` — the indexed event wheel the simulator normally uses;
//! * `naive` — the linear-scan reference list (`--naive-events`), which is
//!   the obviously-correct baseline the wheel is differentially tested
//!   against.
//!
//! Both produce bit-identical simulation results (asserted here), so the
//! ratio of their wall-clock times is a pure scheduler speedup. Results are
//! written to `BENCH_sim.json` for CI artifacts and EXPERIMENTS.md.

use std::time::Instant;

use funnelpq_bench::{
    print_table, standard_workload, trace_enabled, write_bench_json, write_trace_files, BenchRecord,
};
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::{
    run_queue_workload, run_queue_workload_traced, RunResult, Workload,
};

struct Measurement {
    name: String,
    wall_s: f64,
    tx_per_sec: f64,
    transactions: u64,
    sim_cycles: u64,
}

/// Timed runs per measurement.
const REPS: usize = 3;

fn measure(name: &str, wl: &Workload) -> (Measurement, RunResult) {
    // One warm-up run, then time `REPS` full runs.
    let result = run_queue_workload(Algorithm::FunnelTree, wl);
    let t0 = Instant::now();
    for _ in 0..REPS {
        let r = run_queue_workload(Algorithm::FunnelTree, wl);
        assert_eq!(r.total_cycles, result.total_cycles, "non-deterministic run");
    }
    let wall_s = t0.elapsed().as_secs_f64() / REPS as f64;
    let transactions = result.stats.mem_accesses;
    (
        Measurement {
            name: name.to_string(),
            wall_s,
            tx_per_sec: transactions as f64 / wall_s,
            transactions,
            sim_cycles: result.total_cycles,
        },
        result,
    )
}

fn main() {
    let mut measurements: Vec<Measurement> = Vec::new();
    let mut records: Vec<BenchRecord> = Vec::new();

    // Wheel-scheduler throughput across the Figure 7 sweep (P=256 is
    // covered by the head-to-head below).
    for &p in &[64usize, 512, 1024] {
        let wl = standard_workload(p, 16);
        let (m, _) = measure(&format!("wheel_p{p}"), &wl);
        measurements.push(m);
    }

    // Head-to-head at the paper's headline point: identical workload on the
    // wheel and on the naive linear-scan reference queue.
    let wl = standard_workload(256, 16);
    let (wheel, wheel_result) = measure("wheel_p256", &wl);
    let mut naive_wl = wl.clone();
    naive_wl.naive_events = true;
    let (naive, naive_result) = measure("naive_p256", &naive_wl);

    // The two machines must agree bit-for-bit before the speedup means
    // anything.
    assert_eq!(wheel_result.total_cycles, naive_result.total_cycles);
    assert_eq!(wheel_result.all.sum(), naive_result.all.sum());
    assert_eq!(
        wheel_result.stats.mem_accesses,
        naive_result.stats.mem_accesses
    );
    let speedup = naive.wall_s / wheel.wall_s;

    // Tracing differential: attaching a TraceLog must leave the simulation
    // bit-identical (including per-line stats), and untraced runs — the
    // measurements above — pay only a pointer-presence test per
    // transaction, so their throughput stays within noise of the seed.
    let t0 = Instant::now();
    let traced = run_queue_workload_traced(Algorithm::FunnelTree, &wl);
    let traced_wall = t0.elapsed().as_secs_f64();
    assert_eq!(traced.result.total_cycles, wheel_result.total_cycles);
    assert_eq!(traced.result.all.sum(), wheel_result.all.sum());
    assert_eq!(
        traced.result.stats.mem_accesses,
        wheel_result.stats.mem_accesses
    );
    let traced_lines: Vec<_> = traced.result.stats.per_line().collect();
    let untraced_lines: Vec<_> = wheel_result.stats.per_line().collect();
    assert_eq!(traced_lines, untraced_lines, "per-line stats must match");
    let trace_overhead = traced_wall / wheel.wall_s;
    println!(
        "traced run at P=256: {} events, bit-identical results, {:.2}x wall-clock vs untraced",
        traced.events.len(),
        trace_overhead
    );

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .chain([&wheel, &naive])
        .map(|m| {
            vec![
                m.name.clone(),
                m.transactions.to_string(),
                m.sim_cycles.to_string(),
                format!("{:.1}", m.wall_s * 1e3),
                format!("{:.0}", m.tx_per_sec / 1e3),
            ]
        })
        .collect();
    print_table(
        "SimPerf — simulated transactions/sec, Figure 7 workload (16 priorities)",
        &["run", "transactions", "sim cycles", "wall ms", "ktx/s"],
        &rows,
    );
    println!("wheel vs naive event queue at P=256: {speedup:.1}x wall-clock speedup");

    for m in measurements.iter().chain([&wheel, &naive]) {
        records.push(BenchRecord {
            name: m.name.clone(),
            fields: vec![
                ("transactions", m.transactions as f64),
                ("sim_cycles", m.sim_cycles as f64),
                ("wall_s", m.wall_s),
                ("tx_per_sec", m.tx_per_sec),
            ],
        });
    }
    records.push(BenchRecord {
        name: "speedup_wheel_vs_naive_p256".into(),
        fields: vec![("speedup", speedup)],
    });
    records.push(BenchRecord {
        name: "traced_p256".into(),
        fields: vec![
            ("wall_s", traced_wall),
            ("events", traced.events.len() as f64),
            ("overhead_vs_untraced", trace_overhead),
        ],
    });
    if trace_enabled() {
        let (trace_path, series_path) =
            write_trace_files("sim", &traced).expect("write trace artifacts");
        println!("wrote {trace_path} and {series_path}");
    }
    // Benches run with the package directory as cwd; anchor the report at
    // the workspace root where CI picks it up.
    let path = std::env::var("FUNNELPQ_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json").into());
    write_bench_json(&path, "sim_throughput", &records).expect("write BENCH_sim.json");
    println!("wrote {path}");
}
