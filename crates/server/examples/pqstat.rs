//! `pqstat` — live stats surface for the funnelpq-server scheduler.
//!
//! Drives a closed-loop workload (bursty arrivals, hot-tenant skew,
//! one-shot + periodic jobs) against a chosen queue backend and
//! prints the scheduler's [`TelemetrySnapshot`]: per-tenant and per-shard
//! latency/slack histograms, the windowed throughput/depth time-series,
//! and the sampled rank-error estimate (nonzero only for relaxed
//! backends — a strict backend's drains are sorted, so it scores exactly
//! zero).
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p funnelpq-server --example pqstat
//! cargo run --release -p funnelpq-server --example pqstat -- \
//!     --backend SingleLock --duration-ms 500 --out pqstat.json
//! cargo run --release -p funnelpq-server --example pqstat -- --watch
//! ```
//!
//! One-shot mode runs the workload for `--duration-ms`, then prints the
//! final snapshot JSON (stdout, or `--out`). `--watch` additionally
//! prints a one-line summary every `--interval-ms` while the load runs,
//! ending in the dispatchers' wait accounting: `parks` (times blocked),
//! `polls=hits/windows`, `coalesced` (windows spent waiting for a batch
//! to fill) and `batch` (mean jobs per drain).

use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use funnelpq::{Algorithm, PqConfig};
use funnelpq_server::{Deadline, JobSpec, RetryPolicy, Scheduler, ServerConfig, TenantId};
use funnelpq_util::XorShift64Star;

const USAGE: &str = "\
pqstat — run a scheduler workload and print its live telemetry snapshot

USAGE:
    cargo run --release -p funnelpq-server --example pqstat -- [OPTIONS]

OPTIONS:
    --backend <NAME>     queue backend (SingleLock, FunnelTree, MultiQueue, ...)
                         [default: MultiQueue]
    --duration-ms <N>    how long to drive the workload    [default: 1000]
    --watch              print a summary line every interval while running
    --interval-ms <N>    watch-mode refresh period         [default: 250]
    --out <PATH>         write the final snapshot JSON to a file
                         [default: stdout]
    --seed <N>           workload RNG seed                 [default: 48879]
    -h, --help           show this help
";

struct Args {
    backend: Algorithm,
    duration: Duration,
    watch: bool,
    interval: Duration,
    out: Option<String>,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        backend: Algorithm::MultiQueue,
        duration: Duration::from_millis(1000),
        watch: false,
        interval: Duration::from_millis(250),
        out: None,
        seed: 0xBEEF,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            return Err(String::new());
        }
        if flag == "--watch" {
            args.watch = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let ms = |what: &str, v: &str| -> Result<u64, String> {
            v.parse().map_err(|_| format!("bad {what}: {v:?}"))
        };
        match flag.as_str() {
            "--backend" => args.backend = Algorithm::from_str(&value)?,
            "--duration-ms" => args.duration = Duration::from_millis(ms("duration", &value)?),
            "--interval-ms" => args.interval = Duration::from_millis(ms("interval", &value)?),
            "--out" => args.out = Some(value),
            "--seed" => args.seed = ms("seed", &value)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

// The load geometry: shallow per-tenant quotas keep the MultiQueue's
// internal heaps short, so drain batches cross heap boundaries and the
// rank-error estimator sees genuine relaxation.
const SHARDS: usize = 4;
const TENANTS: u32 = 8;
const CLIENTS: usize = 4;
const BANDS: usize = 8192;
const CAPACITY: usize = 128;
const QUOTA: usize = 16;
const SERVICE_NS: u64 = 100_000;

fn config(backend: PqConfig) -> ServerConfig {
    ServerConfig {
        shards: SHARDS,
        tenants: TENANTS as usize,
        clients: CLIENTS,
        bands: BANDS,
        horizon_ns: 60_000_000_000,
        backend,
        drain_batch: 8,
        global_capacity: CAPACITY,
        tenant_quota: QUOTA,
        service_ns: SERVICE_NS,
        telemetry_window_ns: 100_000_000,
        affinity: (0..TENANTS)
            .map(|t| (TenantId(t), t as usize % SHARDS))
            .collect(),
        ..ServerConfig::default()
    }
}

/// One closed-loop client: submit until admission pushes back, then back
/// off under the house [`RetryPolicy`] (jittered exponential, honouring
/// the server's shed hints). 30% of submissions hit the hot tenant 0;
/// every tenth job is periodic.
fn client_loop(s: &Scheduler, client: usize, seed: u64, stop: &AtomicBool) -> u64 {
    let mut rng = XorShift64Star::new(seed ^ ((client as u64) << 40));
    let mut retry = RetryPolicy::new(20_000, 2_000_000, seed ^ ((client as u64) << 24));
    let mut sent = 0u64;
    let mut k = 0u64;
    while !stop.load(Ordering::Acquire) {
        let tenant = if rng.below(10) < 3 {
            TenantId(0)
        } else {
            TenantId(rng.below(u64::from(TENANTS)) as u32)
        };
        let slack_ns = 2_000_000 + rng.below(50_000_000);
        let spec = if k.is_multiple_of(10) {
            JobSpec::periodic(tenant, Deadline::In(slack_ns), k, 10_000_000, 2)
        } else {
            JobSpec::once(tenant, Deadline::In(slack_ns), k)
        };
        k += 1;
        match s.submit(client, spec) {
            Ok(_) => {
                sent += 1;
                retry.note_ok();
            }
            Err(e) => match retry.next_delay(&e) {
                Some(delay) => std::thread::sleep(delay),
                // Permanent (stopped scheduler, config): retrying is futile.
                None => break,
            },
        }
    }
    sent
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let backend = match PqConfig::for_algorithm(args.backend) {
        Some(b) => b,
        None => {
            eprintln!("error: {} is simulator-only", args.backend.name());
            return ExitCode::FAILURE;
        }
    };
    let s = match Scheduler::new(config(backend)) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    s.start();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            let seed = args.seed;
            std::thread::spawn(move || client_loop(&s, client, seed, &stop))
        })
        .collect();

    let until = Instant::now() + args.duration;
    while Instant::now() < until {
        let tick = args
            .interval
            .min(until.saturating_duration_since(Instant::now()));
        std::thread::sleep(tick);
        if args.watch {
            let t = s.telemetry();
            let numa = match t.numa_mode() {
                Some(mode) => format!(" numa={mode} switches={}", t.mode_switches()),
                None => String::new(),
            };
            let w = t.waits();
            eprintln!(
                "[{:>6.0}ms] dispatched={} misses={} depth={} rank_err={:.3} windows={} \
                 parks={} polls={}/{} coalesced={} batch={:.1}{numa}",
                t.at_ns as f64 / 1e6,
                t.dispatched(),
                t.misses(),
                t.depth(),
                t.rank_error_mean(),
                t.windows.len(),
                w.parks,
                w.poll_hits,
                w.poll_hits + w.poll_misses,
                w.coalesced,
                w.mean_batch(),
            );
        }
    }

    stop.store(true, Ordering::Release);
    let sent: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();
    while s.in_flight() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let snapshot = s.telemetry();
    let report = s.stop();
    if args.watch {
        eprintln!(
            "done: submitted={sent} dispatched={} miss_rate={:.5}",
            report.dispatched,
            report.miss_rate(),
        );
    }
    let json = snapshot.to_json();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}
