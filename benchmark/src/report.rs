//! Turning a pass into printed metrics, the result object and its
//! provenance; and the A/A comparison.

use std::path::Path;
use std::process::Command;

use funnelpq_util::json::JsonWriter;

#[cfg(test)]
use crate::stats::Summary;
use crate::stats::{geomean, median, rel_gap};
use crate::{catalog, native, server, simwl, Ctx, E2eOut, Workload};

/// One printed value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// The value, with every digit it was measured to.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many raw samples (slices, stamped ops, runs) it summarises.
    pub n: usize,
}

impl Sample {
    /// A sample.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Self {
        Sample {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// Six decimals, or scientific notation where those would print a
/// microsecond-scale set-up time as 0.000028.
fn human(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// Everything one pass of one workload produced.
pub struct Outcome {
    /// Heading for the human-readable block.
    pub title: String,
    /// File-name stem of the result copy under `out/`.
    pub stem: String,
    /// The catalogue metrics of this pass — exactly the `end_to_end` set or
    /// exactly the `per_layer` set.
    pub metrics: Vec<Sample>,
    /// Further named values (per-subject medians, exact sim counts).
    pub detail: Vec<Sample>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per violated invariant.
    pub violations: Vec<String>,
    /// Remarks that qualify the numbers.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Summarises an end-to-end pass: per subject its slices' [`Summary`],
    /// over the roster the geometric mean of those.
    pub fn from_e2e(w: Workload, out: E2eOut) -> Outcome {
        let slices: usize = out.series.iter().map(|s| s.ops_per_s.len()).sum();
        let sum = out.summary;
        let rate: Vec<f64> = out.series.iter().map(|s| sum.rate(&s.ops_per_s)).collect();
        let wait: Vec<f64> = out.series.iter().map(|s| sum.time(&s.latency_ns)).collect();
        let metrics = vec![
            Sample::new("ops_per_s", geomean(&rate), "1/s", slices),
            Sample::new("latency_ns", geomean(&wait), "ns", slices),
            Sample::new("setup_s", median(&out.setup_s), "s", out.setup_s.len()),
        ];
        let mut detail = Vec::new();
        for (s, (&r, &l)) in out.series.iter().zip(rate.iter().zip(&wait)) {
            let n = s.ops_per_s.len();
            match w {
                Workload::NativeMixed | Workload::NativeBatch | Workload::NativeObserved => {
                    detail.push(Sample::new(format!("mops.{}", s.name), r / 1e6, "Mops", n));
                }
                Workload::ServerSaturated => {
                    detail.push(Sample::new("jobs_per_s", r, "1/s", n));
                }
                Workload::ServerOpen => {
                    detail.push(Sample::new("dispatch_latency_mean_ns", l, "ns", n));
                }
                Workload::SimP256 => {
                    detail.push(Sample::new(format!("sim_tx_per_s.{}", s.name), r, "1/s", n));
                }
            }
        }
        let mut notes = out.notes;
        for s in &out.series {
            let each: Vec<String> = s.ops_per_s.iter().map(|x| format!("{x:.0}")).collect();
            notes.push(format!("{} ops/s by slice: {}", s.name, each.join(" ")));
            if w == Workload::ServerOpen {
                let each: Vec<String> = s.latency_ns.iter().map(|x| format!("{x:.0}")).collect();
                notes.push(format!(
                    "{} latency ns by slice: {}",
                    s.name,
                    each.join(" ")
                ));
            }
        }
        detail.extend(out.detail);
        Outcome {
            title: format!("{} — end-to-end pass", w.name()),
            stem: format!("result_{}", w.name()),
            metrics,
            detail,
            attempted: out.attempted,
            failed: out.failed,
            violations: out.violations,
            notes,
        }
    }

    /// The catalogue metric called `name`, if this pass produced it.
    pub fn metric(&self, name: &str) -> Option<&Sample> {
        self.metrics.iter().find(|s| s.name == name)
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Prints every value by name, with unit and sample count.
    pub fn print_human(&self) {
        println!("\n## {}", self.title);
        for s in self.metrics.iter().chain(&self.detail) {
            println!(
                "{:<44} {:>16} {:<7} n={}",
                s.name,
                human(s.value),
                s.unit,
                s.n
            );
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        for v in &self.violations {
            println!("VIOLATION: {v}");
        }
        println!(
            "checks: attempted {} failed {} -> {}",
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
    }

    fn write_result(&self, w: &mut JsonWriter) {
        w.key("correct");
        w.bool(self.correct());
        w.field_u64("attempted", self.attempted.max(1));
        w.field_u64("failed", self.failed);
        w.key("metrics");
        w.begin_obj(false);
        for s in &self.metrics {
            w.key(&s.name);
            w.begin_obj(false);
            w.field_f64("value", s.value);
            w.field_str("unit", s.unit);
            w.end();
        }
        w.end();
    }

    /// The result object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, on one line.
    pub fn result_json(&self) -> String {
        let mut w = JsonWriter::spaced();
        w.begin_obj(false);
        self.write_result(&mut w);
        w.end();
        w.finish()
    }

    /// Writes the result with its provenance to `out_dir`, prints the
    /// result object as the last stdout line, and says whether the pass
    /// was correct.
    pub fn finish(&self, provenance: &Provenance, out_dir: &Path) -> bool {
        let mut w = JsonWriter::spaced();
        w.begin_obj(true);
        self.write_result(&mut w);
        w.key("detail");
        w.begin_obj(true);
        for s in &self.detail {
            w.key(&s.name);
            w.begin_obj(false);
            w.field_f64("value", s.value);
            w.field_str("unit", s.unit);
            w.field_u64("n", s.n as u64);
            w.end();
        }
        w.end();
        w.key("provenance");
        provenance.write(&mut w);
        w.end();
        let path = out_dir.join(format!("{}.json", self.stem));
        let written = std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(&path, w.finish() + "\n"));
        if let Err(e) = written {
            eprintln!("pqbench: could not write {}: {e}", path.display());
        }
        println!("{}", self.result_json());
        self.correct()
    }
}

/// Where and how a result was measured.
pub struct Provenance {
    commit: String,
    seed: u64,
    nproc: usize,
    cpu: String,
    kernel: String,
    rustc: String,
    seconds: f64,
    /// Per workload: slice length (s) and rounds per subject.
    slices: Vec<(&'static str, (f64, usize))>,
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

impl Provenance {
    /// Reads the host's identity and works out the slice lengths `ctx`
    /// implies.
    pub fn collect(ctx: &Ctx<'_>, nproc: usize) -> Provenance {
        let unknown = || "unknown".to_string();
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| unknown());
        let rounds = |subjects: usize, slice_s: f64| (slice_s, ctx.rounds(subjects, slice_s));
        Provenance {
            // A driver checkout is not a git repository; that is fine.
            commit: first_line_of(Command::new("git").args([
                "-C",
                env!("CARGO_MANIFEST_DIR"),
                "rev-parse",
                "HEAD",
            ]))
            .unwrap_or_else(unknown),
            seed: ctx.seed,
            nproc,
            cpu,
            kernel,
            rustc: first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(unknown),
            seconds: ctx.seconds,
            slices: vec![
                (
                    "native_mixed",
                    rounds(native::ROSTER.len(), native::SLICE_S),
                ),
                (
                    "native_batch",
                    rounds(native::BATCH_ROSTER.len(), native::SLICE_S),
                ),
                (
                    "native_observed",
                    rounds(native::OBSERVED.len(), native::SLICE_S),
                ),
                (
                    "server_saturated",
                    rounds(1, server::Load::Saturated.slice_s()),
                ),
                ("server_open_250k", rounds(1, server::Load::Open.slice_s())),
            ],
        }
    }

    /// Prints the block ahead of the results.
    pub fn print(&self) {
        println!(
            "pqbench commit={} seed={:#x} nproc={} cpu=\"{}\" kernel={} rustc=\"{}\" seconds={}",
            self.commit, self.seed, self.nproc, self.cpu, self.kernel, self.rustc, self.seconds
        );
        let lens: Vec<String> = self
            .slices
            .iter()
            .map(|(w, (s, r))| format!("{w}={r}x{s}s"))
            .collect();
        println!(
            "slices (rounds x length): {} {}=fixed work, >={} passes",
            lens.join(" "),
            Workload::SimP256.name(),
            simwl::SAME_SEED_REPS
        );
    }

    fn write(&self, w: &mut JsonWriter) {
        w.begin_obj(true);
        w.field_str("commit", &self.commit);
        w.field_u64("seed", self.seed);
        w.field_u64("nproc", self.nproc as u64);
        w.field_str("cpu", &self.cpu);
        w.field_str("kernel", &self.kernel);
        w.field_str("rustc", &self.rustc);
        w.field_f64("seconds", self.seconds);
        w.key("slices");
        w.begin_obj(false);
        for (name, (slice_s, rounds)) in &self.slices {
            w.key(name);
            w.begin_obj(false);
            w.field_f64("slice_s", *slice_s);
            w.field_u64("rounds", *rounds as u64);
            w.end();
        }
        w.end();
        w.end();
    }
}

/// A/A: the end-to-end pass twice on the same code and seed. Prints every
/// (metric, workload) pair with both values, their relative gap and the
/// metric's bound; `false` if any gap exceeds its bound or a check failed.
pub fn aa(ctx: &Ctx<'_>, only: Option<Workload>) -> bool {
    let workloads: Vec<Workload> = only.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    println!(
        "\n{:<18} {:<12} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for w in workloads {
        let a = Outcome::from_e2e(w, w.e2e(ctx));
        let b = Outcome::from_e2e(w, w.e2e(ctx));
        for pass in [&a, &b] {
            for v in &pass.violations {
                println!("VIOLATION: {v}");
            }
            ok &= pass.correct();
        }
        for def in catalog::end_to_end() {
            let (x, y) = match (a.metric(&def.name), b.metric(&def.name)) {
                (Some(x), Some(y)) => (x.value, y.value),
                _ => {
                    println!("{:<18} {:<12} missing", w.name(), def.name);
                    ok = false;
                    continue;
                }
            };
            let gap = rel_gap(x, y);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let agree = gap <= bound;
            ok &= agree;
            println!(
                "{:<18} {:<12} {:>16} {:>16} {:>7.2}% {:>5.0}%{}",
                w.name(),
                def.name,
                human(x),
                human(y),
                gap * 100.0,
                bound * 100.0,
                if agree { "" } else { "  DISAGREE" }
            );
        }
    }
    println!("A/A: {}", if ok { "agree" } else { "DISAGREE" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            title: "t".into(),
            stem: "s".into(),
            metrics: vec![
                Sample::new("ops_per_s", 1234567.891, "1/s", 45),
                Sample::new("setup_s", 0.0213, "s", 5),
            ],
            detail: vec![Sample::new("mops.SingleLock", 1.5, "Mops", 5)],
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_shape() {
        let json = outcome().result_json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234567.891, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.0213, \"unit\": \"s\"}}}"
        );
        assert!(!json.contains('\n'));
    }

    #[test]
    fn a_violation_or_a_failure_makes_the_pass_incorrect() {
        let mut o = outcome();
        assert!(o.correct());
        o.failed = 1;
        assert!(!o.correct());
        assert!(o.result_json().starts_with("{\"correct\": false"));
        let mut o = outcome();
        o.violations.push("x".into());
        assert!(!o.correct());
    }

    #[test]
    fn e2e_summary_is_median_then_geomean() {
        let mut out = E2eOut::new(["A", "B"].into_iter(), Summary::Median);
        out.series[0].ops_per_s = vec![1e6, 4e6, 2e6];
        out.series[0].latency_ns = vec![100.0, 300.0, 200.0];
        out.series[1].ops_per_s = vec![8e6, 8e6, 8e6];
        out.series[1].latency_ns = vec![50.0, 50.0, 50.0];
        out.setup_s = vec![0.3, 0.1, 0.2];
        out.attempted = 1;
        let o = Outcome::from_e2e(Workload::NativeMixed, out);
        assert!((o.metric("ops_per_s").unwrap().value - 4e6).abs() < 1e-3);
        assert!((o.metric("latency_ns").unwrap().value - 100.0).abs() < 1e-9);
        assert_eq!(o.metric("setup_s").unwrap().value, 0.2);
        assert_eq!(o.metric("ops_per_s").unwrap().n, 6);
        let names: Vec<_> = o.metrics.iter().map(|s| s.name.clone()).collect();
        let want: Vec<_> = catalog::end_to_end().into_iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        assert_eq!(o.detail[0].name, "mops.A");
    }
}
