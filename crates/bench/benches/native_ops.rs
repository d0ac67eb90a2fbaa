//! Microbenches of the native (real-thread) implementations, timed with a
//! plain `Instant` harness (the container builds fully offline, so no
//! criterion).
//!
//! The host for the paper-shape experiments is the simulator (`fig*`
//! benches); these benches measure the native library's single-thread
//! operation cost and small-thread-count throughput, which is what a
//! downstream adopter of the `funnelpq` crate would feel.
//!
//! Two recorder configurations run side by side: the default
//! `NoopRecorder` (which must monomorphize away — its column is the
//! library's true cost) and an attached `AtomicRecorder`, whose per-run
//! `MetricsSnapshot`s are written to `BENCH_native_metrics.json`. The
//! noop-vs-atomic delta is the observable price of metrics; the noop
//! column itself is the number to compare against pre-observability
//! baselines. The recorder counts every op and times a sample of them;
//! the `timed/count` column shows the sample, and the bench fails if a
//! recorder stopped sampling (`timed == 0`) or stopped skipping
//! (`timed == count`).

use std::sync::Arc;
use std::time::Instant;

use funnelpq::obs::{AtomicRecorder, MetricsSnapshot};
use funnelpq::{
    Algorithm, BoundedPq, FunnelConfig, FunnelTreeConfig, HuntConfig, LinearFunnelsConfig,
    PqBuilder, PqConfig,
};
use funnelpq_bench::{print_table, scale_percent, write_bench_json, BenchRecord};

fn builder(a: Algorithm, n: usize, t: usize) -> PqBuilder {
    let cfg = match PqConfig::for_algorithm(a).expect("natively buildable") {
        PqConfig::HuntEtAl(_) => PqConfig::HuntEtAl(HuntConfig { capacity: 1 << 14 }),
        cfg => cfg,
    };
    PqBuilder::from_config(cfg, n, t)
}

/// Times `iters` insert+delete_min pairs on thread id 0 (with a warmup of
/// a tenth); returns ns per pair.
fn time_pairs(q: &dyn BoundedPq<u64>, iters: u64) -> f64 {
    let mut k = 0u64;
    for _ in 0..iters / 10 {
        k = k.wrapping_add(7);
        q.insert(0, (k % 16) as usize, k);
        std::hint::black_box(q.delete_min(0));
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        k = k.wrapping_add(7);
        q.insert(0, (k % 16) as usize, k);
        std::hint::black_box(q.delete_min(0));
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

struct SingleThreadRow {
    algorithm: Algorithm,
    noop_ns: f64,
    atomic_ns: f64,
    snapshot: MetricsSnapshot,
}

fn bench_single_thread_ops(iters: u64) -> Vec<SingleThreadRow> {
    let mut rows = Vec::new();
    for a in Algorithm::ALL {
        let q = builder(a, 16, 1).build::<u64>();
        let noop_ns = time_pairs(q.as_ref(), iters);

        let rec = Arc::new(AtomicRecorder::new());
        let q = builder(a, 16, 1).recorder(Arc::clone(&rec)).build::<u64>();
        let atomic_ns = time_pairs(q.as_ref(), iters);

        let snapshot = rec.snapshot();
        for (s, kind) in [
            (&snapshot.insert, "insert"),
            (&snapshot.delete_min, "delete_min"),
        ] {
            assert!(
                0 < s.timed && s.timed < s.count,
                "{}: {kind} timed {} of {} ops — the recorder must time a sample, not none or all",
                a.name(),
                s.timed,
                s.count
            );
        }
        rows.push(SingleThreadRow {
            algorithm: a,
            noop_ns,
            atomic_ns,
            snapshot,
        });
    }
    rows
}

/// Times `rounds` iterations of `insert_batch(k)` + `delete_min_batch(k)`
/// (with a warmup of a tenth); returns ns per item moved.
fn time_batch_rounds(q: &dyn BoundedPq<u64>, k: usize, rounds: u64) -> f64 {
    let mut x = 0u64;
    let mut out = Vec::with_capacity(k);
    let mut round = |timing: bool| {
        let mut batch = Vec::with_capacity(k);
        for _ in 0..k {
            x = x.wrapping_add(7);
            batch.push(((x % 16) as usize, x));
        }
        q.insert_batch(0, batch).expect("pris in range");
        out.clear();
        if timing {
            std::hint::black_box(q.delete_min_batch(0, k, &mut out));
        } else {
            q.delete_min_batch(0, k, &mut out);
        }
    };
    for _ in 0..rounds / 10 {
        round(false);
    }
    let t0 = Instant::now();
    for _ in 0..rounds {
        round(true);
    }
    t0.elapsed().as_nanos() as f64 / (rounds * 2 * k as u64) as f64
}

/// Noop/atomic A/B over the batched entry points of the four queues with
/// native batch overrides: the noop column is the proof that the batch
/// instrumentation ([`funnelpq::obs::Recorder::record_batch`]) still
/// monomorphizes away when unobserved.
fn bench_batch_ab(iters: u64) -> Vec<(Algorithm, f64, f64)> {
    const K: usize = 8;
    let rounds = (iters / K as u64).max(100);
    [
        Algorithm::SingleLock,
        Algorithm::HuntEtAl,
        Algorithm::SkipList,
        Algorithm::MultiQueue,
    ]
    .into_iter()
    .map(|a| {
        let q = builder(a, 16, 1).build::<u64>();
        let noop_ns = time_batch_rounds(q.as_ref(), K, rounds);

        let rec = Arc::new(AtomicRecorder::new());
        let q = builder(a, 16, 1).recorder(Arc::clone(&rec)).build::<u64>();
        let atomic_ns = time_batch_rounds(q.as_ref(), K, rounds);
        let snap = rec.snapshot();
        assert!(
            snap.batch.count > 0,
            "{}: instrumented batch run recorded no BatchOp",
            a.name()
        );
        assert!(
            (snap.batch.mean_items() - K as f64).abs() < 1.0,
            "{}: batch-size histogram disagrees with k={K}",
            a.name()
        );
        (a, noop_ns, atomic_ns)
    })
    .collect()
}

/// Two threads hammering insert+delete pairs; returns ns per pair. With
/// one core this measures interleaved (not parallel) behaviour — still
/// useful as a lock-convoy smoke test.
fn two_thread_pairs(q: Arc<dyn BoundedPq<u64>>, reps: u64) -> f64 {
    const OPS: u64 = 200;
    let t0 = Instant::now();
    for _ in 0..reps {
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            for i in 0..OPS {
                q2.insert(1, (i % 16) as usize, i);
                std::hint::black_box(q2.delete_min(1));
            }
        });
        for i in 0..OPS {
            q.insert(0, (i % 16) as usize, i);
            std::hint::black_box(q.delete_min(0));
        }
        h.join().unwrap();
    }
    t0.elapsed().as_nanos() as f64 / (reps * OPS * 2) as f64
}

fn bench_two_thread_mixed(reps: u64) -> Vec<(Algorithm, f64)> {
    Algorithm::ALL
        .into_iter()
        .map(|a| {
            let q: Arc<dyn BoundedPq<u64>> = Arc::from(builder(a, 16, 2).build::<u64>());
            (a, two_thread_pairs(q, reps))
        })
        .collect()
}

/// A/B of the collision-slot cache padding (`FunnelConfig::pad_slots`) on
/// the two funnel algorithms, under the contended two-thread load where
/// false sharing between adjacent slots is visible at all.
fn bench_funnel_pad_ab(reps: u64) -> Vec<(Algorithm, f64, f64)> {
    [Algorithm::LinearFunnels, Algorithm::FunnelTree]
        .into_iter()
        .map(|a| {
            let run = |pad: bool| {
                let mut fc = FunnelConfig::for_threads(2);
                fc.pad_slots = pad;
                let cfg = match a {
                    Algorithm::LinearFunnels => {
                        PqConfig::LinearFunnels(LinearFunnelsConfig { funnel: Some(fc) })
                    }
                    _ => PqConfig::FunnelTree(FunnelTreeConfig {
                        funnel: Some(fc),
                        ..Default::default()
                    }),
                };
                let q: Arc<dyn BoundedPq<u64>> =
                    Arc::from(PqBuilder::from_config(cfg, 16, 2).build::<u64>());
                two_thread_pairs(q, reps)
            };
            (a, run(true), run(false))
        })
        .collect()
}

fn main() {
    let iters = (100_000u64 * scale_percent() as u64 / 100).max(1_000);
    let reps = (30u64 * scale_percent() as u64 / 100).max(3);

    let single = bench_single_thread_ops(iters);
    print_table(
        "Native single-thread insert+delete pair cost",
        &[
            "queue",
            "ns/pair (noop)",
            "ns/pair (metrics)",
            "overhead %",
            "timed/count",
        ],
        &single
            .iter()
            .map(|r| {
                let timed = r.snapshot.insert.timed + r.snapshot.delete_min.timed;
                vec![
                    r.algorithm.name().to_string(),
                    format!("{:.0}", r.noop_ns),
                    format!("{:.0}", r.atomic_ns),
                    format!("{:+.1}", (r.atomic_ns / r.noop_ns - 1.0) * 100.0),
                    format!("{timed}/{}", r.snapshot.total_ops()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let two = bench_two_thread_mixed(reps);
    print_table(
        "Native two-thread mixed insert+delete pair cost",
        &["queue", "ns/pair"],
        &two.iter()
            .map(|(a, ns)| vec![a.name().to_string(), format!("{ns:.0}")])
            .collect::<Vec<_>>(),
    );

    let batch_ab = bench_batch_ab(iters);
    print_table(
        "Batched entry points: noop vs metrics recorder (k=8, ns per item)",
        &["queue", "ns/item (noop)", "ns/item (metrics)", "overhead %"],
        &batch_ab
            .iter()
            .map(|(a, noop, atomic)| {
                vec![
                    a.name().to_string(),
                    format!("{noop:.0}"),
                    format!("{atomic:.0}"),
                    format!("{:+.1}", (atomic / noop - 1.0) * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let pad_ab = bench_funnel_pad_ab(reps);
    print_table(
        "Funnel collision-slot padding A/B (two threads)",
        &["queue", "ns/pair (padded)", "ns/pair (compact)", "delta %"],
        &pad_ab
            .iter()
            .map(|(a, padded, compact)| {
                vec![
                    a.name().to_string(),
                    format!("{padded:.0}"),
                    format!("{compact:.0}"),
                    format!("{:+.1}", (compact / padded - 1.0) * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Machine-readable report: per-algorithm cost with and without metrics.
    let mut records: Vec<BenchRecord> = single
        .iter()
        .map(|r| {
            let two_ns = two
                .iter()
                .find(|(a, _)| *a == r.algorithm)
                .map(|(_, ns)| *ns)
                .unwrap_or(f64::NAN);
            BenchRecord {
                name: r.algorithm.name().to_string(),
                fields: vec![
                    ("noop_ns_per_pair", r.noop_ns),
                    ("atomic_ns_per_pair", r.atomic_ns),
                    (
                        "atomic_overhead_percent",
                        (r.atomic_ns / r.noop_ns - 1.0) * 100.0,
                    ),
                    ("two_thread_ns_per_pair", two_ns),
                ],
            }
        })
        .collect();
    records.extend(batch_ab.iter().map(|(a, noop, atomic)| BenchRecord {
        name: format!("{}_batch_ab", a.name()),
        fields: vec![
            ("noop_batch_ns_per_item", *noop),
            ("atomic_batch_ns_per_item", *atomic),
            ("atomic_overhead_percent", (atomic / noop - 1.0) * 100.0),
        ],
    }));
    // The slot-padding A/B rides along in the same report: `compact` is
    // the pre-padding dense layout, so `pad_delta_percent` > 0 is the cost
    // false sharing was adding.
    records.extend(pad_ab.iter().map(|(a, padded, compact)| BenchRecord {
        name: format!("{}_pad_ab", a.name()),
        fields: vec![
            ("padded_ns_per_pair", *padded),
            ("compact_ns_per_pair", *compact),
            ("pad_delta_percent", (compact / padded - 1.0) * 100.0),
        ],
    }));
    // Benches run with the package directory as cwd; anchor the reports at
    // the workspace root where CI picks them up.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let ops_path = format!("{root}/BENCH_native_ops.json");
    if let Err(e) = write_bench_json(&ops_path, "native_ops", &records) {
        eprintln!("could not write {ops_path}: {e}");
    }

    // Full metrics snapshots (event counters + latency histograms) from the
    // AtomicRecorder runs, one object per algorithm.
    let mut out = format!(
        "{{\n  \"schema_version\": {},\n  \"benchmark\": \"native_metrics\",\n  \"snapshots\": [\n",
        funnelpq_util::json::SCHEMA_VERSION,
    );
    for (i, r) in single.iter().enumerate() {
        out.push_str(&r.snapshot.to_json(r.algorithm.name()));
        out.push_str(if i + 1 == single.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    let metrics_path = format!("{root}/BENCH_native_metrics.json");
    if let Err(e) = std::fs::write(&metrics_path, out) {
        eprintln!("could not write {metrics_path}: {e}");
    }
    println!("wrote {ops_path} and {metrics_path}");
}
