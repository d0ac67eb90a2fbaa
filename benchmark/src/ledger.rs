//! The traced pass: every per-layer metric of the catalogue, from one
//! sweep over the layers — probes first, then one traced slice per
//! (workload, subject).
//!
//! Three instruments, kept apart so they do not perturb each other:
//! sampled op spans (benchmark-side stamps, written as Chrome traces),
//! `AtomicRecorder` counts (a separate sub-slice), and plain timing.
//! End-to-end numbers are never taken from this pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use funnelpq::obs::{AtomicRecorder, CounterEvent};
use funnelpq::{Algorithm, PqConfig};
use funnelpq_server::Scheduler;
use funnelpq_simqueues::workload::{run_queue_workload, run_queue_workload_traced};
use funnelpq_util::mono_ns;

use crate::native::{self, Kind, Shape, Tally, THREADS};
use crate::probes::{self, Solo};
use crate::report::{Outcome, Sample};
use crate::server::{self, Load};
use crate::spans::{write_chrome, NoProbe, Span, SpanBuf, SpanProbe, SAMPLE_PERIOD};
use crate::stats::{geomean, mean_u64, percentile, stream_seed, P99_MIN_SAMPLES};
use crate::{catalog, simwl, Check, Ctx, Workload};

/// Op spans one worker may record per slice; at 1-in-64 a fast queue fills
/// this early in the slice, later stamps are counted as dropped.
const OP_SPANS_PER_THREAD: usize = 2048;

/// `Acc` bucket index from which a latency counts as over the limit:
/// bucket `i` holds `[2^(i-1), 2^i)`, so 21 starts at 2²⁰ ns ≈ 1.05 ms.
const OVER_LIMIT_BUCKET: usize = 21;

struct Ledger<'a> {
    ctx: &'a Ctx<'a>,
    /// One twelfth of the pass's budget: every slice length below is a
    /// multiple of it, so `--seconds` scales the pass uniformly.
    unit: f64,
    found: BTreeMap<String, (f64, usize)>,
    detail: Vec<Sample>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    notes: Vec<String>,
    /// Throughput of each workload's traced slices, for the overhead ratio.
    traced_rate: Vec<(Workload, f64)>,
    traces: Vec<(Workload, Vec<Span>)>,
}

impl Ledger<'_> {
    fn len(&self, units: f64) -> Duration {
        Duration::from_secs_f64(self.unit * units)
    }

    fn put(&mut self, name: impl Into<String>, value: f64, n: usize) {
        let name = name.into();
        let dup = self.found.insert(name.clone(), (value, n));
        assert!(dup.is_none(), "per-layer metric {name} measured twice");
    }

    fn check(&mut self, c: Check) {
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.violations.extend(c.violations);
    }

    fn seed(&self, label: &str, subject: usize, stream: usize) -> u64 {
        stream_seed(self.ctx.seed, label, subject, 0, stream)
    }

    // ---- util, sync, core and server probes ------------------------------

    fn probes(&mut self) {
        let _armed = self.ctx.watchdog.arm("layer probes", self.len(4.0));
        let short = self.len(0.05);
        let long = self.len(0.1);
        self.put("util.clock_ns", probes::clock_ns(short), 1);
        self.put("util.acc_record_ns", probes::acc_record_ns(short), 1);
        self.put(
            "bench.gen_ns",
            native::generator_ns(Shape::Mixed, self.seed("gen", 0, 0), 2_000_000),
            1,
        );
        for t in [1, 2] {
            self.put(
                format!("sync.mcs.pair_ns.t{t}"),
                probes::mcs_pair_ns(t, long),
                1,
            );
            self.put(
                format!("sync.ttas.pair_ns.t{t}"),
                probes::ttas_pair_ns(t, long),
                1,
            );
            self.put(
                format!("sync.funnel_counter.op_ns.t{t}"),
                probes::funnel_counter_op_ns(t, long),
                1,
            );
            self.put(
                format!("sync.funnel_stack.pair_ns.t{t}"),
                probes::funnel_stack_pair_ns(t, long),
                1,
            );
        }
        self.put(
            "sync.locked_counter.op_ns.t2",
            probes::locked_counter_op_ns(2, long),
            1,
        );
        self.put(
            "sync.lock_bin.pair_ns.t2",
            probes::lock_bin_pair_ns(2, long),
            1,
        );
        self.put(
            "core.heap.pair_ns",
            probes::heap_pair_ns(self.seed("heap", 0, 0), short),
            1,
        );
        let solo = self.len(0.08);
        for (i, algo) in native::ROSTER.into_iter().enumerate() {
            let a = algo.name();
            let seed = self.seed("solo", i, 0);
            self.put(
                format!("core.{a}.pair_ns.t1"),
                probes::solo_ns(algo, Solo::Pair, seed, solo),
                1,
            );
            self.put(
                format!("core.{a}.batch_item_ns.t1"),
                probes::solo_ns(algo, Solo::BatchItem, seed, solo),
                1,
            );
            if matches!(
                algo,
                Algorithm::SingleLock | Algorithm::HuntEtAl | Algorithm::MultiQueue
            ) {
                self.put(
                    format!("core.{a}.replace_min_ns.t1"),
                    probes::solo_ns(algo, Solo::ReplaceMin, seed, solo),
                    1,
                );
            }
        }
        self.put("server.route_ns", probes::route_ns(short), 1);
    }

    // ---- native workloads -------------------------------------------------

    /// One span-traced slice of `kind`'s `subject`: the slice span on the
    /// coordinator's buffer, the workers' sampled op spans merged into it.
    fn native_span_slice(
        &mut self,
        kind: Kind,
        subject: usize,
        observed: bool,
        len: Duration,
        coord: &mut SpanBuf,
        root: u64,
    ) -> (Tally, SpanBuf) {
        let algo = kind.roster()[subject];
        let label = format!("{}/traced", kind.name());
        let what = format!("{label} {}", algo.name());
        let _armed = self.ctx.watchdog.arm(what.clone(), len);
        let recorder = observed.then(|| Arc::new(AtomicRecorder::new()));
        let p = native::prepare(algo, recorder, self.seed(&label, subject, 2));
        let slice_id = coord.reserve_id();
        let start = mono_ns();
        let workers = (0..THREADS)
            .map(|t| SpanProbe::new(t as u32 + 1, OP_SPANS_PER_THREAD, algo.name(), slice_id))
            .collect();
        let seeds = [self.seed(&label, subject, 0), self.seed(&label, subject, 1)];
        let (tally, workers) = native::run_slice(p.q.as_ref(), kind.shape(), seeds, len, workers);
        coord.close(slice_id, "slice", algo.name(), start, root);
        let mut ops = SpanBuf::new(0, THREADS * OP_SPANS_PER_THREAD);
        for w in workers {
            ops.absorb(w.buf);
        }
        self.check(native::verify(p, &tally, &what));
        (tally, ops)
    }

    fn native_mixed(&mut self) {
        let kind = Kind::Mixed;
        let mut coord = SpanBuf::new(0, 1 << 16);
        let root = coord.reserve_id();
        let root_start = mono_ns();
        let mut rates = Vec::new();
        let mut dropped = 0;
        for (i, algo) in native::ROSTER.into_iter().enumerate() {
            let a = algo.name();
            // Sub-slice 1: sampled op spans, no recorder.
            let (tally, ops) =
                self.native_span_slice(kind, i, false, self.len(0.15), &mut coord, root);
            rates.push(tally.ops_per_s());
            let ins = ops.durations("insert");
            let del = ops.durations("delete_min");
            let mut all: Vec<u64> = ins.iter().chain(&del).copied().collect();
            all.sort_unstable();
            self.put(
                format!("core.{a}.insert_mean_ns"),
                mean_u64(&ins),
                ins.len(),
            );
            self.put(
                format!("core.{a}.delete_mean_ns"),
                mean_u64(&del),
                del.len(),
            );
            self.put(
                format!("core.{a}.op_p99_ns"),
                percentile(&all, 99.0) as f64,
                all.len(),
            );
            if all.len() < P99_MIN_SAMPLES {
                self.notes.push(format!(
                    "core.{a}.op_p99_ns rests on {} samples (< {P99_MIN_SAMPLES}): not a p99",
                    all.len()
                ));
            }
            dropped += ops.dropped;
            coord.absorb(ops);

            // Sub-slice 2: recorder counts, no stamps.
            let label = "native_mixed/counted";
            let what = format!("{label} {a}");
            let len = self.len(0.1);
            let _armed = self.ctx.watchdog.arm(what.clone(), len);
            let rec = Arc::new(AtomicRecorder::new());
            let p = native::prepare(algo, Some(Arc::clone(&rec)), self.seed(label, i, 2));
            // Prefill events are not part of the slice.
            let before = rec.snapshot();
            let seeds = [self.seed(label, i, 0), self.seed(label, i, 1)];
            let (tally, _) = native::run_slice(
                p.q.as_ref(),
                Shape::Mixed,
                seeds,
                len,
                vec![NoProbe, NoProbe],
            );
            let after = rec.snapshot();
            let count = |e: CounterEvent| (after.event(e) - before.event(e)) as f64;
            let calls = tally.calls as usize;
            let per_op = |x: f64| x / tally.calls as f64;
            self.put(
                format!("core.{a}.lock_acq_per_op"),
                per_op(count(CounterEvent::LockAcquire)),
                calls,
            );
            self.put(
                format!("core.{a}.cas_retry_per_op"),
                per_op(count(CounterEvent::CasRetry)),
                calls,
            );
            if matches!(algo, Algorithm::FunnelTree | Algorithm::LinearFunnels) {
                let (hit, miss) = (count(CounterEvent::ElimHit), count(CounterEvent::ElimMiss));
                let engaged = hit + miss;
                self.put(
                    format!("core.{a}.elim_hit_ratio"),
                    if engaged > 0.0 { hit / engaged } else { 0.0 },
                    engaged as usize,
                );
                self.put(
                    format!("core.{a}.collision_per_op"),
                    per_op(count(CounterEvent::FunnelCollision)),
                    calls,
                );
            }
            if algo == Algorithm::NumaPq {
                self.put(
                    "core.NumaPq.mode_switches",
                    count(CounterEvent::ModeSwitch),
                    calls,
                );
            }
            self.check(native::verify(p, &tally, &what));
        }
        if dropped > 0 {
            self.notes.push(format!(
                "native_mixed: {dropped} op stamps beyond {OP_SPANS_PER_THREAD} per thread \
                 per slice were not kept"
            ));
        }
        coord.close(root, "workload", "native_mixed", root_start, 0);
        self.traced_rate
            .push((Workload::NativeMixed, geomean(&rates)));
        self.traces
            .push((Workload::NativeMixed, coord.into_spans()));
    }

    fn native_batch(&mut self) {
        let mut coord = SpanBuf::new(0, 1 << 16);
        let root = coord.reserve_id();
        let root_start = mono_ns();
        let mut rates = Vec::new();
        for i in 0..native::BATCH_ROSTER.len() {
            let (tally, ops) =
                self.native_span_slice(Kind::Batch, i, false, self.len(0.1), &mut coord, root);
            rates.push(tally.ops_per_s());
            coord.absorb(ops);
        }
        coord.close(root, "workload", "native_batch", root_start, 0);
        self.traced_rate
            .push((Workload::NativeBatch, geomean(&rates)));
        self.traces
            .push((Workload::NativeBatch, coord.into_spans()));
    }

    fn native_observed(&mut self) {
        let mut coord = SpanBuf::new(0, 1 << 16);
        let root = coord.reserve_id();
        let root_start = mono_ns();
        let mut rates = Vec::new();
        for (i, algo) in native::OBSERVED.into_iter().enumerate() {
            // Same stamps on both sides, so the ratio is the recorder's.
            let len = self.len(0.25);
            let (plain, _) =
                self.native_span_slice(Kind::Observed, i, false, len, &mut coord, root);
            let (observed, ops) =
                self.native_span_slice(Kind::Observed, i, true, len, &mut coord, root);
            self.put(
                format!("core.obs.overhead_ratio.{}", algo.name()),
                plain.ops_per_s() / observed.ops_per_s(),
                2,
            );
            rates.push(observed.ops_per_s());
            coord.absorb(ops);
        }
        coord.close(root, "workload", "native_observed", root_start, 0);
        self.traced_rate
            .push((Workload::NativeObserved, geomean(&rates)));
        self.traces
            .push((Workload::NativeObserved, coord.into_spans()));
    }

    // ---- server workloads -------------------------------------------------

    /// One untraced `server_saturated` slice on `backend`.
    fn saturated_plain(&mut self, backend: PqConfig, subject: usize, units: f64) -> f64 {
        let what = format!("server_saturated/plain {}", backend.algorithm().name());
        let len = self.len(units);
        let _armed = self.ctx.watchdog.arm(what.clone(), len);
        let o = server::run_slice(
            Scheduler::new,
            backend,
            Load::Saturated,
            self.seed("server_saturated/plain", subject, 0),
            len,
            &mut NoProbe,
            |_| {},
        );
        self.check(server::verify(&o, Load::Saturated, &what));
        o.jobs_per_s()
    }

    fn server_traced(&mut self, load: Load) -> (server::SliceOut, Vec<u64>, f64) {
        let label = format!("{}/traced", load.name());
        let len = self.len(if load == Load::Saturated { 0.5 } else { 0.7 });
        let _armed = self.ctx.watchdog.arm(label.clone(), len);
        let mut coord = SpanBuf::new(0, 1 << 16);
        let root = coord.reserve_id();
        let root_start = mono_ns();
        let slice_id = coord.reserve_id();
        // The client is the calling thread; it stamps as worker 1.
        let mut probe = SpanProbe::new(1, 1 << 15, "SingleLock", slice_id);
        let mut snapshot_ns = 0.0;
        let o = server::run_slice(
            Scheduler::new,
            PqConfig::SingleLock,
            load,
            self.seed(&label, 0, 0),
            len,
            &mut probe,
            |s| {
                let t0 = Instant::now();
                for _ in 0..8 {
                    std::hint::black_box(s.telemetry());
                }
                snapshot_ns = t0.elapsed().as_nanos() as f64 / 8.0;
            },
        );
        coord.close(slice_id, "slice", "SingleLock", root_start, root);
        let submits = probe.buf.durations("submit");
        coord.absorb(probe.buf);
        coord.close(root, "workload", load.name(), root_start, 0);
        self.check(server::verify(&o, load, &label));
        self.traced_rate.push((load.workload(), o.jobs_per_s()));
        self.traces.push((load.workload(), coord.into_spans()));
        (o, submits, snapshot_ns)
    }

    fn server(&mut self) {
        let (o, mut submits, snapshot_ns) = self.server_traced(Load::Saturated);
        submits.sort_unstable();
        self.put("server.submit_mean_ns", mean_u64(&submits), submits.len());
        self.put(
            "server.submit_p99_ns",
            percentile(&submits, 99.0) as f64,
            submits.len(),
        );
        self.put(
            "server.refused_ratio",
            o.client.refused as f64 / o.client.submits as f64,
            o.client.submits as usize,
        );
        self.put("server.drain_ms", o.drain_ms, 1);
        self.put("server.stop_ms", o.stop_ms, 1);
        self.put("server.telemetry_snapshot_ns", snapshot_ns, 8);

        let plain = self.saturated_plain(PqConfig::SingleLock, 0, 0.5);
        let queue_ns =
            probes::server_queue_ns_per_job(self.seed("server/queue", 0, 0), self.len(0.05));
        self.put("server.queue_share", queue_ns / (1e9 / plain), 1);
        for (i, algo) in [Algorithm::MultiQueue, Algorithm::FunnelTree]
            .into_iter()
            .enumerate()
        {
            let backend = PqConfig::for_algorithm(algo).expect("natively buildable");
            let rate = self.saturated_plain(backend, i + 1, 0.4);
            self.put(format!("server.jobs_per_s.{}", algo.name()), rate, 1);
        }

        let what = "server_saturated/recorded";
        let len = self.len(0.5);
        let recorded = {
            let _armed = self.ctx.watchdog.arm(what, len);
            server::run_slice(
                |cfg| Scheduler::with_recorder(cfg, Arc::new(AtomicRecorder::new())),
                PqConfig::SingleLock,
                Load::Saturated,
                self.seed(what, 0, 0),
                len,
                &mut NoProbe,
                |_| {},
            )
        };
        self.check(server::verify(&recorded, Load::Saturated, what));
        self.put(
            "server.recorder_overhead_ratio",
            plain / recorded.jobs_per_s(),
            2,
        );

        let (o, _, _) = self.server_traced(Load::Open);
        let lat = &o.report.latency_ns;
        let n = lat.count() as usize;
        self.put("server.latency_p50_bucket_ns", lat.p50() as f64, n);
        self.put("server.latency_p99_bucket_ns", lat.p99() as f64, n);
        let over: u64 = lat.bucket_counts()[OVER_LIMIT_BUCKET..].iter().sum();
        self.put(
            "server.over_limit_ratio",
            over as f64 / lat.count().max(1) as f64,
            n,
        );
        let sent = o.client.submits as usize;
        self.put("server.gen_late_mean_ns", o.client.late_mean_ns(), sent);
        self.put("server.gen_late_max_ns", o.client.late_max_ns as f64, sent);
        if o.client.late_mean_ns() > server::LATE_FLAG_NS {
            self.notes.push(format!(
                "server_open_250k/traced: generator ran {:.0} ns late on average: \
                 the latency buckets measure the generator",
                o.client.late_mean_ns()
            ));
        }
    }

    // ---- simulator ---------------------------------------------------------

    fn sim(&mut self) {
        let _armed = self
            .ctx
            .watchdog
            .arm("sim_p256/traced", Duration::from_secs(8));
        let wl = simwl::workload(self.ctx.seed);
        let mut coord = SpanBuf::new(0, 64);
        let root = coord.reserve_id();
        let root_start = mono_ns();
        let pass = simwl::roster_pass(&wl, |algo, wl| {
            let start = mono_ns();
            let r = run_queue_workload(algo, wl);
            coord.push("run_queue_workload", algo.name(), start, mono_ns(), root);
            r
        });
        let ops = pass.results.iter().map(|r| r.all.count()).sum::<u64>();
        self.attempted += ops;
        self.put(
            "sim.host_ns_per_tx",
            pass.total_host_ns() as f64 / pass.tx() as f64,
            pass.tx() as usize,
        );
        self.put("sim.mem_accesses", pass.tx() as f64, simwl::ROSTER.len());
        let delay: u64 = pass
            .results
            .iter()
            .map(|r| r.stats.queue_delay_cycles)
            .sum();
        let latency: u64 = pass.results.iter().map(|r| r.all.sum()).sum();
        self.put(
            "sim.queue_delay_share",
            delay as f64 / latency as f64,
            ops as usize,
        );
        for (algo, r) in simwl::ROSTER.iter().zip(&pass.results) {
            let a = algo.name();
            let n = r.all.count() as usize;
            self.put(format!("simq.{a}.latency_cycles"), r.all.mean(), n);
            let top = r.hotspots.first().map_or(0, |h| h.queue_delay_cycles);
            self.put(
                format!("simq.{a}.top_hotspot_share"),
                top as f64 / r.stats.queue_delay_cycles.max(1) as f64,
                r.stats.mem_accesses as usize,
            );
        }

        // Host-time ratios on FunnelTree alone: the same schedule on the
        // wheel, on the wheel with a tracer attached, and on the naive
        // linear-scan event queue. All three must agree in every count.
        let ft = Algorithm::FunnelTree;
        let timed = |f: &dyn Fn() -> simwl::Counts| {
            let t0 = Instant::now();
            let c = f();
            (c, t0.elapsed().as_nanos() as f64)
        };
        let (wheel, wheel_ns) = timed(&|| simwl::Counts::of(&run_queue_workload(ft, &wl)));
        let start = mono_ns();
        let (traced, traced_ns) =
            timed(&|| simwl::Counts::of(&run_queue_workload_traced(ft, &wl).result));
        coord.push(
            "run_queue_workload_traced",
            ft.name(),
            start,
            mono_ns(),
            root,
        );
        let mut naive_wl = wl.clone();
        naive_wl.naive_events = true;
        let (naive, naive_ns) = timed(&|| simwl::Counts::of(&run_queue_workload(ft, &naive_wl)));
        self.put("sim.traced_overhead_ratio", traced_ns / wheel_ns, 1);
        self.put("sim.naive_over_wheel_ratio", naive_ns / wheel_ns, 1);
        self.attempted += 2;
        if wheel != traced || wheel != naive {
            self.failed += 1;
            self.violations.push(
                "sim_p256/traced: wheel, traced and naive FunnelTree runs differ in a count".into(),
            );
        }

        self.attempted += 1;
        match simwl::audited_multiqueue(&wl) {
            Ok(run) => {
                let a = simwl::Audit::of(&run);
                let n = a.samples as usize;
                self.put("simq.MultiQueue.rank_error_mean", a.rank_error_mean, n);
                self.put("simq.MultiQueue.rank_error_p99", a.rank_error_p99 as f64, n);
                self.put("simq.MultiQueue.rank_error_max", a.rank_error_max as f64, n);
            }
            Err(e) => {
                self.failed += 1;
                self.violations
                    .push(format!("sim_p256/traced: audit failed: {e}"));
                for k in ["mean", "p99", "max"] {
                    self.put(format!("simq.MultiQueue.rank_error_{k}"), f64::NAN, 0);
                }
            }
        }
        coord.close(root, "workload", Workload::SimP256.name(), root_start, 0);
        self.traced_rate
            .push((Workload::SimP256, wheel_ns / traced_ns));
        self.traces.push((Workload::SimP256, coord.into_spans()));
    }

    // ---- tracing overhead --------------------------------------------------

    /// `trace.overhead_ratio`: traced ÷ untraced throughput. With a
    /// selected workload the untraced side is one fresh end-to-end round
    /// of it; in suite mode it is the end-to-end pass just run, and the
    /// catalogue metric is the geometric mean over the six workloads.
    fn overhead(&mut self, selected: Option<Workload>, baselines: &[(Workload, f64)]) {
        let mut ratios = Vec::new();
        for &(w, traced) in &self.traced_rate.clone() {
            if selected.is_some_and(|s| s != w) {
                continue;
            }
            let untraced = if w == Workload::SimP256 {
                // Already a ratio: wheel ÷ traced host time.
                1.0
            } else if let Some((_, b)) = baselines.iter().find(|(bw, _)| *bw == w) {
                *b
            } else {
                let base = w.e2e(&self.ctx.with_seconds(self.unit * 1.5));
                let base = Outcome::from_e2e(w, base);
                self.attempted += base.attempted;
                self.failed += base.failed;
                let rate = base
                    .metric("ops_per_s")
                    .expect("every end-to-end pass reports ops_per_s")
                    .value;
                self.violations.extend(base.violations);
                rate
            };
            let ratio = traced / untraced;
            self.detail.push(Sample::new(
                format!("trace.overhead_ratio[{}]", w.name()),
                ratio,
                "ratio",
                1,
            ));
            ratios.push(ratio);
        }
        self.put("trace.overhead_ratio", geomean(&ratios), ratios.len());
    }

    fn finish(mut self, title: String, stem: String, out_dir: &Path) -> Outcome {
        for (w, spans) in &self.traces {
            let path = out_dir.join(format!("trace_{}.json", w.name()));
            match write_chrome(&path, w.name(), spans) {
                Ok(()) => self.notes.push(format!(
                    "{} spans (1 op in {SAMPLE_PERIOD} stamped) -> {}",
                    spans.len(),
                    path.display()
                )),
                Err(e) => {
                    self.failed += 1;
                    self.violations
                        .push(format!("could not write {}: {e}", path.display()));
                }
            }
        }
        let metrics = catalog::per_layer()
            .into_iter()
            .map(|d| {
                let (value, n) = self
                    .found
                    .remove(&d.name)
                    .unwrap_or_else(|| panic!("traced pass did not measure {}", d.name));
                Sample::new(d.name, value, d.unit, n)
            })
            .collect();
        assert!(
            self.found.is_empty(),
            "traced pass measured metrics outside the catalogue: {:?}",
            self.found.keys()
        );
        Outcome {
            title,
            stem,
            metrics,
            detail: self.detail,
            attempted: self.attempted,
            failed: self.failed,
            violations: self.violations,
            notes: self.notes,
        }
    }
}

/// Runs the traced pass. `selected` is the workload whose tracing overhead
/// is reported (`None`: all six, against `baselines` from the end-to-end
/// pass just run). Trace files go to `out_dir`.
pub fn traced_pass(
    ctx: &Ctx<'_>,
    selected: Option<Workload>,
    baselines: &[(Workload, f64)],
    out_dir: &Path,
) -> Outcome {
    let mut l = Ledger {
        ctx,
        unit: ctx.seconds / 12.0,
        found: BTreeMap::new(),
        detail: Vec::new(),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        notes: Vec::new(),
        traced_rate: Vec::new(),
        traces: Vec::new(),
    };
    l.probes();
    l.native_mixed();
    l.native_batch();
    l.native_observed();
    l.server();
    l.sim();
    l.overhead(selected, baselines);
    let (title, stem) = match selected {
        Some(w) => (
            format!("traced pass (per-layer ledger; overhead of {})", w.name()),
            format!("ledger_{}", w.name()),
        ),
        None => ("traced pass (per-layer ledger)".into(), "ledger".into()),
    };
    l.finish(title, stem, out_dir)
}
