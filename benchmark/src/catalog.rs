//! The benchmark's catalogue: workload names, metric names, units,
//! directions and bounds — the one place they are spelled.
//!
//! `BENCHMARK.json` at the repo root is this catalogue rendered
//! (`pqbench --print-benchmark-json`); a unit test keeps the two equal.

use funnelpq_util::json::JsonWriter;

use crate::native::ROSTER;
use crate::simwl;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput).
    Higher,
    /// Smaller is better (time, cost, error).
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// The metric's name, as printed and as later issues cite it.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The six workloads: name, one-line reason.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "native_mixed",
        "closed loop, 2 threads, fair-coin insert/delete_min on 16384 items x 9 queues: the singles path a library adopter calls; core+sync do all the work, server/sim none",
    ),
    (
        "native_batch",
        "same shape on 8 queues (HuntEtAl's batched insert livelocks), alternating insert_batch(8)/delete_min_batch(8): one sync episode per 8 items, so a singles win that costs the batched path shows",
    ),
    (
        "native_observed",
        "native_mixed with an AtomicRecorder attached (SingleLock, MultiQueue): the workload always-on metrics act on; native_mixed bypasses the recorder and should not move with it",
    ),
    (
        "server_saturated",
        "closed loop, 1 client + 1 dispatcher, capacity 1024, no pacing: submit-admit-route-insert-drain-dispatch-telemetry does most of the work, the queue little; max sustainable jobs/s",
    ),
    (
        "server_open_250k",
        "open loop at a fixed 250000 jobs/s (~15% of saturation), timed from each job's due time: the latency tenants feel, set by dispatcher wake-up cadence, not by queue speed",
    ),
    (
        "sim_p256",
        "the paper's Figure-7 point on the simulator (256 procs, 16 priorities, 5 queues): sim+simqueues carry the paper's result, native layers do nothing; exact counts, host-time speed",
    ),
];

/// Default measuring time of one run, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// The end-to-end metrics. Every workload reports all three; what each
/// means on each workload is tabulated in the README. One bound has to
/// cover a metric on all six workloads, so each is sized for the least
/// steady of them on this host: `sim_p256` spread 14 % (IQR ÷ median over
/// ten runs) in a noisy hour and `server_saturated`'s level wandered 1.4–1.9
/// M jobs/s over tens of minutes, against 3–5 % for the native workloads.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        MetricDef {
            name: "ops_per_s".into(),
            unit: "1/s",
            better: Better::Higher,
            bound: Some(0.25),
        },
        MetricDef {
            name: "latency_ns".into(),
            unit: "ns",
            better: Better::Lower,
            bound: Some(0.25),
        },
        MetricDef {
            name: "setup_s".into(),
            unit: "s",
            better: Better::Lower,
            bound: Some(0.25),
        },
    ]
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The per-layer ledger, in print order: util, sync, core, server, sim,
/// simqueues, trace.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = vec![
        layer("util.clock_ns", "ns", Lower),
        layer("util.acc_record_ns", "ns", Lower),
        layer("bench.gen_ns", "ns", Lower),
    ];
    for name in [
        "sync.mcs.pair_ns.t1",
        "sync.mcs.pair_ns.t2",
        "sync.ttas.pair_ns.t1",
        "sync.ttas.pair_ns.t2",
        "sync.locked_counter.op_ns.t2",
        "sync.funnel_counter.op_ns.t1",
        "sync.funnel_counter.op_ns.t2",
        "sync.funnel_stack.pair_ns.t1",
        "sync.funnel_stack.pair_ns.t2",
        "sync.lock_bin.pair_ns.t2",
    ] {
        v.push(layer(name, "ns", Lower));
    }
    v.push(layer("core.heap.pair_ns", "ns", Lower));
    for a in ROSTER {
        let a = a.name();
        v.push(layer(format!("core.{a}.pair_ns.t1"), "ns", Lower));
        v.push(layer(format!("core.{a}.insert_mean_ns"), "ns", Lower));
        v.push(layer(format!("core.{a}.delete_mean_ns"), "ns", Lower));
        v.push(layer(format!("core.{a}.op_p99_ns"), "ns", Lower));
        v.push(layer(format!("core.{a}.batch_item_ns.t1"), "ns", Lower));
        v.push(layer(format!("core.{a}.lock_acq_per_op"), "ratio", Lower));
        v.push(layer(format!("core.{a}.cas_retry_per_op"), "ratio", Lower));
    }
    for a in ["FunnelTree", "LinearFunnels"] {
        v.push(layer(format!("core.{a}.elim_hit_ratio"), "ratio", Higher));
        v.push(layer(format!("core.{a}.collision_per_op"), "ratio", Higher));
    }
    for a in ["SingleLock", "HuntEtAl", "MultiQueue"] {
        v.push(layer(format!("core.{a}.replace_min_ns.t1"), "ns", Lower));
    }
    for a in ["SingleLock", "MultiQueue"] {
        v.push(layer(
            format!("core.obs.overhead_ratio.{a}"),
            "ratio",
            Lower,
        ));
    }
    v.push(layer("core.NumaPq.mode_switches", "count", Lower));
    for (name, unit, better) in [
        ("server.submit_mean_ns", "ns", Lower),
        ("server.submit_p99_ns", "ns", Lower),
        ("server.route_ns", "ns", Lower),
        ("server.refused_ratio", "ratio", Lower),
        ("server.drain_ms", "ms", Lower),
        ("server.stop_ms", "ms", Lower),
        ("server.telemetry_snapshot_ns", "ns", Lower),
        ("server.latency_p50_bucket_ns", "ns", Lower),
        ("server.latency_p99_bucket_ns", "ns", Lower),
        ("server.over_limit_ratio", "ratio", Lower),
        ("server.queue_share", "ratio", Lower),
        ("server.jobs_per_s.MultiQueue", "1/s", Higher),
        ("server.jobs_per_s.FunnelTree", "1/s", Higher),
        ("server.recorder_overhead_ratio", "ratio", Lower),
        ("server.gen_late_mean_ns", "ns", Lower),
        ("server.gen_late_max_ns", "ns", Lower),
        ("sim.host_ns_per_tx", "ns", Lower),
        ("sim.traced_overhead_ratio", "ratio", Lower),
        ("sim.naive_over_wheel_ratio", "ratio", Higher),
        ("sim.mem_accesses", "count", Lower),
        ("sim.queue_delay_share", "ratio", Lower),
    ] {
        v.push(layer(name, unit, better));
    }
    for a in simwl::ROSTER {
        let a = a.name();
        v.push(layer(format!("simq.{a}.latency_cycles"), "cycles", Lower));
        v.push(layer(format!("simq.{a}.top_hotspot_share"), "ratio", Lower));
    }
    v.push(layer("simq.MultiQueue.rank_error_mean", "count", Lower));
    v.push(layer("simq.MultiQueue.rank_error_p99", "count", Lower));
    v.push(layer("simq.MultiQueue.rank_error_max", "count", Lower));
    v.push(layer("trace.overhead_ratio", "ratio", Higher));
    v
}

/// Renders the catalogue as the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut w = JsonWriter::spaced();
    w.begin_obj(true);
    w.key("command");
    w.begin_arr(false);
    for part in [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ] {
        w.str(part);
    }
    w.end();
    w.key("paths");
    w.begin_arr(false);
    w.str("benchmark");
    w.end();
    w.field_u64("run_seconds", RUN_SECONDS);
    w.key("workloads");
    w.begin_arr(true);
    for (name, why) in WORKLOADS {
        w.begin_obj(false);
        w.field_str("name", name);
        w.field_str("why", why);
        w.end();
    }
    w.end();
    for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        w.key(key);
        w.begin_arr(true);
        for d in defs {
            w.begin_obj(false);
            w.field_str("name", &d.name);
            w.field_str("unit", d.unit);
            w.field_str("better", d.better.as_str());
            if let Some(b) = d.bound {
                w.field_f64("bound", b);
            }
            w.end();
        }
        w.end();
    }
    w.end();
    let mut out = w.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        let mut chars = n.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert_eq!(layers.len(), 122);
        assert!(layers.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut names = std::collections::BTreeSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(name_ok(&d.name), "bad metric name {}", d.name);
            assert!(names.insert(d.name.clone()), "duplicate {}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name));
            assert!(names.insert(name.to_string()), "duplicate {name}");
            assert!(why.len() <= 200, "{name}: why is {} chars", why.len());
            assert!(!why.contains('\n'));
        }
        for d in &e2e {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        assert!(layers.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn benchmark_json_on_disk_is_the_rendered_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json());
        assert!(on_disk.len() <= 64 * 1024);
    }
}
