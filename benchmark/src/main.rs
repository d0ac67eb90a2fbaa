//! `pqbench` — the repo's one named benchmark. See `benchmark/README.md`.
//!
//! Three ways to run it:
//!
//! * `pqbench --workload W --seed N --seconds S --trace 0|1` — one pass of
//!   one workload, the form `BENCHMARK.json`'s `command` is driven in. The
//!   last stdout line is the result object.
//! * `pqbench [--seed N] [--seconds S]` — the whole suite: the end-to-end
//!   pass over all six workloads, then the traced pass.
//! * `pqbench --aa [...]` — the end-to-end pass twice, every (metric,
//!   workload) pair compared against its bound.

mod catalog;
mod ledger;
mod native;
mod probes;
mod report;
mod server;
mod simwl;
mod spans;
mod stats;
mod watchdog;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, Sample};
use stats::Summary;
use watchdog::Watchdog;

/// What every workload needs to know about the run.
pub struct Ctx<'a> {
    /// The run seed every RNG stream derives from.
    pub seed: u64,
    /// Measuring time budget of one workload pass, seconds.
    pub seconds: f64,
    /// The slice watchdog.
    pub watchdog: &'a Watchdog,
}

impl Ctx<'_> {
    /// How many rounds over `subjects` fit the budget at `slice_s` seconds
    /// a slice (at least one). Slice lengths are fixed per workload — they
    /// set how well a slice isolates an interference burst — so
    /// `--seconds` buys rounds, not longer slices.
    pub fn rounds(&self, subjects: usize, slice_s: f64) -> usize {
        ((self.seconds / (subjects as f64 * slice_s)) as usize).max(1)
    }

    /// The same run with a different time budget.
    pub fn with_seconds(&self, seconds: f64) -> Ctx<'_> {
        Ctx {
            seed: self.seed,
            seconds,
            watchdog: self.watchdog,
        }
    }
}

/// Per-slice values of one subject (an algorithm, a backend, the
/// simulator) of a workload.
pub struct Series {
    /// The subject's name.
    pub name: &'static str,
    /// Completed operations per second, one value per slice.
    pub ops_per_s: Vec<f64>,
    /// Mean time of one operation as its caller sees it, one per slice.
    pub latency_ns: Vec<f64>,
}

impl Series {
    fn push(&mut self, ops_per_s: f64, latency_ns: f64) {
        self.ops_per_s.push(ops_per_s);
        self.latency_ns.push(latency_ns);
    }
}

/// Outcome of one slice's output check.
#[derive(Debug, Default)]
pub struct Check {
    /// Things checked (calls made, items drained, invariants tested).
    pub attempted: u64,
    /// Things that failed.
    pub failed: u64,
    /// One line per violated invariant.
    pub violations: Vec<String>,
}

/// What one workload's end-to-end pass hands back.
pub struct E2eOut {
    /// One series per subject, in roster order.
    pub series: Vec<Series>,
    /// Set-up time, one value per round (summed over the roster).
    pub setup_s: Vec<f64>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per violated invariant.
    pub violations: Vec<String>,
    /// Exact, workload-specific values worth printing beside the metrics.
    pub detail: Vec<Sample>,
    /// Remarks that qualify the numbers (flagged slices, audit summaries).
    pub notes: Vec<String>,
    /// How each subject's slices become one value.
    pub summary: Summary,
}

impl E2eOut {
    fn new(subjects: impl Iterator<Item = &'static str>, summary: Summary) -> Self {
        E2eOut {
            summary,
            series: subjects
                .map(|name| Series {
                    name,
                    ops_per_s: Vec::new(),
                    latency_ns: Vec::new(),
                })
                .collect(),
            setup_s: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            detail: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn absorb(&mut self, c: Check) {
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.violations.extend(c.violations);
    }
}

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `native_mixed`.
    NativeMixed,
    /// `native_batch`.
    NativeBatch,
    /// `native_observed`.
    NativeObserved,
    /// `server_saturated`.
    ServerSaturated,
    /// `server_open_250k`.
    ServerOpen,
    /// `sim_p256`.
    SimP256,
}

impl Workload {
    /// All six, in catalogue order.
    pub const ALL: [Workload; 6] = [
        Workload::NativeMixed,
        Workload::NativeBatch,
        Workload::NativeObserved,
        Workload::ServerSaturated,
        Workload::ServerOpen,
        Workload::SimP256,
    ];

    /// The workload's catalogue name.
    pub fn name(self) -> &'static str {
        catalog::WORKLOADS[Workload::ALL
            .iter()
            .position(|w| *w == self)
            .expect("ALL lists every workload")]
        .0
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs this workload's end-to-end pass within `ctx.seconds`.
    pub fn e2e(self, ctx: &Ctx<'_>) -> E2eOut {
        match self {
            Workload::NativeMixed => native::e2e(ctx, native::Kind::Mixed),
            Workload::NativeBatch => native::e2e(ctx, native::Kind::Batch),
            Workload::NativeObserved => native::e2e(ctx, native::Kind::Observed),
            Workload::ServerSaturated => server::e2e(ctx, server::Load::Saturated),
            Workload::ServerOpen => server::e2e(ctx, server::Load::Open),
            Workload::SimP256 => simwl::e2e(ctx),
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    print_benchmark_json: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0xF00D,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        aa: false,
        print_benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("a workload name")?;
                a.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value("an integer, decimal or 0x-hex")?;
                a.seed = parse_u64(v).ok_or_else(|| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("seconds")?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {v:?} (1..=600)"))?;
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                };
            }
            "--aa" => a.aa = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(a)
}

/// Where trace files and result copies go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn run(args: &Args) -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < native::THREADS {
        eprintln!(
            "pqbench: needs {} hardware threads for its two busy threads, found {nproc}",
            native::THREADS
        );
        return false;
    }
    let watchdog = Watchdog::start();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        watchdog: &watchdog,
    };
    let provenance = report::Provenance::collect(&ctx, nproc);
    provenance.print();

    if args.aa {
        return report::aa(&ctx, args.workload);
    }
    match (args.workload, args.trace) {
        (Some(w), false) => {
            let outcome = Outcome::from_e2e(w, w.e2e(&ctx));
            outcome.print_human();
            outcome.finish(&provenance, &out_dir())
        }
        (Some(w), true) => {
            let outcome = ledger::traced_pass(&ctx, Some(w), &[], &out_dir());
            outcome.print_human();
            outcome.finish(&provenance, &out_dir())
        }
        (None, _) => {
            let mut ok = true;
            let mut baselines: Vec<(Workload, f64)> = Vec::new();
            for w in Workload::ALL {
                let outcome = Outcome::from_e2e(w, w.e2e(&ctx));
                outcome.print_human();
                if let Some(Sample { value, .. }) = outcome.metric("ops_per_s") {
                    baselines.push((w, *value));
                }
                ok &= outcome.finish(&provenance, &out_dir());
            }
            let traced = ledger::traced_pass(&ctx, None, &baselines, &out_dir());
            traced.print_human();
            ok & traced.finish(&provenance, &out_dir())
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pqbench: {e}");
            eprintln!(
                "usage: pqbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--aa]"
            );
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if run(&args) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_contract_form() {
        let argv: Vec<String> = "--workload sim_p256 --seed 0xF00D --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload, Some(Workload::SimP256));
        assert_eq!(a.seed, 0xF00D);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace && !a.aa);
        assert_eq!(parse_u64("61453"), Some(0xF00D));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
    }

    #[test]
    fn workload_names_round_trip_through_the_catalogue() {
        for (w, (name, _)) in Workload::ALL.into_iter().zip(catalog::WORKLOADS) {
            assert_eq!(w.name(), name);
            assert_eq!(Workload::parse(name), Some(w));
        }
    }
}
