//! Shared plumbing for the figure-reproduction benches: experiment scaling,
//! table formatting, and the standard workload construction.

#![warn(missing_docs)]

use funnelpq_sim::trace::{chrome_trace_json, TimeSeries};
use funnelpq_simqueues::funnel::{CounterMode, SimFunnelConfig};
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::{
    run_counter_workload_traced, run_queue_workload_traced, TracedRun, Workload,
};

/// Parses the value of a positive-integer environment knob: `None` (unset)
/// gives `default`; anything that is not an integer ≥ 1 is an error naming
/// the variable and the value, so a typo cannot silently run the default
/// (full-scale) sweep.
fn parse_knob(name: &str, raw: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(v) = raw else {
        return Ok(default);
    };
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{name}={v:?}: expected a positive integer")),
    }
}

/// Reads the positive-integer knob `name` from the environment; exits with
/// status 2 on a value [`parse_knob`] rejects.
fn env_knob(name: &str, default: usize) -> usize {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Scale factor for experiment sizes, set with `FUNNELPQ_SCALE` (percent).
/// `FUNNELPQ_FAST=1` is shorthand for 25%. Defaults to 100%; an unparsable
/// or zero `FUNNELPQ_SCALE` exits with an error.
pub fn scale_percent() -> usize {
    if std::env::var("FUNNELPQ_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        return 25;
    }
    env_knob("FUNNELPQ_SCALE", 100)
}

/// Operations per processor after scaling (base 64, minimum 8).
pub fn scaled_ops() -> usize {
    (64 * scale_percent() / 100).max(8)
}

/// The standard workload of §4, scaled.
pub fn standard_workload(procs: usize, num_priorities: usize) -> Workload {
    let mut wl = Workload::standard(procs, num_priorities);
    wl.ops_per_proc = scaled_ops();
    wl
}

/// Largest processor count the concurrency sweeps run, set with
/// `FUNNELPQ_MAX_P`. Defaults to 256 (the paper's figures); the event-wheel
/// scheduler makes 512 and 1024 practical. An unparsable or zero value
/// exits with an error.
pub fn max_procs() -> usize {
    env_knob("FUNNELPQ_MAX_P", 256)
}

/// Prints a Markdown-ish table: header row, then one row per entry.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!();
    println!("## {title}");
    println!();
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(|c| c.len()).unwrap_or(0))
                .max()
                .unwrap_or(0)
                .max(h.len())
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    fmt_row(header.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for r in rows {
        fmt_row(r.clone());
    }
    println!();
}

/// True when the figure benches should also emit one exemplar trace
/// artifact: pass `--trace` after `--` (`cargo bench --bench fig7 --
/// --trace`) or set `FUNNELPQ_TRACE=1`.
pub fn trace_enabled() -> bool {
    std::env::var("FUNNELPQ_TRACE")
        .map(|v| v == "1")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--trace")
}

/// Directory trace artifacts are written to: `FUNNELPQ_TRACE_DIR`, or the
/// workspace root.
pub fn trace_dir() -> String {
    std::env::var("FUNNELPQ_TRACE_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").into())
}

/// A time-series window for a run of `total_cycles`: about 1% of the run,
/// never finer than 256 cycles.
pub fn trace_window(total_cycles: u64) -> u64 {
    (total_cycles / 100).max(256)
}

/// Writes one traced run's artifacts — `TRACE_<tag>.json` (Chrome Trace
/// Format, Perfetto-loadable) and `TIMESERIES_<tag>.json` (windowed
/// contention series) — into [`trace_dir`]. Returns the two paths.
pub fn write_trace_files(tag: &str, traced: &TracedRun) -> std::io::Result<(String, String)> {
    let window = trace_window(traced.result.total_cycles);
    let series = TimeSeries::build(&traced.events, &traced.regions, window);
    let chrome = chrome_trace_json(&traced.events, &traced.regions, 16, Some(&series));
    let dir = trace_dir();
    let trace_path = format!("{dir}/TRACE_{tag}.json");
    let series_path = format!("{dir}/TIMESERIES_{tag}.json");
    std::fs::write(&trace_path, chrome)?;
    std::fs::write(&series_path, series.to_json())?;
    Ok((trace_path, series_path))
}

/// Runs `algo` on `wl` with tracing attached and writes the exemplar
/// artifacts for figure `tag` (see [`write_trace_files`]).
pub fn write_trace_artifacts(
    tag: &str,
    algo: Algorithm,
    wl: &Workload,
) -> std::io::Result<(String, String)> {
    let traced = run_queue_workload_traced(algo, wl);
    write_trace_files(tag, &traced)
}

/// Counter-workload variant of [`write_trace_artifacts`] (Figure 5).
pub fn write_counter_trace_artifacts(
    tag: &str,
    mode: CounterMode,
    pct_dec: u32,
    cfg: SimFunnelConfig,
    wl: &Workload,
) -> std::io::Result<(String, String)> {
    let traced = run_counter_workload_traced(mode, pct_dec, cfg, wl);
    write_trace_files(tag, &traced)
}

/// Formats a mean-latency cell.
pub fn lat(v: f64) -> String {
    format!("{v:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_ops_has_floor() {
        assert!(scaled_ops() >= 8);
    }

    #[test]
    fn lat_formats_whole_cycles() {
        assert_eq!(lat(1234.56), "1235");
        assert_eq!(lat(0.4), "0");
    }

    #[test]
    fn workload_uses_scaled_ops() {
        let wl = standard_workload(4, 8);
        assert_eq!(wl.procs, 4);
        assert_eq!(wl.num_priorities, 8);
        assert_eq!(wl.ops_per_proc, scaled_ops());
    }

    #[test]
    fn env_knobs_reject_what_they_cannot_parse() {
        assert_eq!(parse_knob("FUNNELPQ_SCALE", None, 100), Ok(100));
        assert_eq!(parse_knob("FUNNELPQ_SCALE", Some("25"), 100), Ok(25));
        for bad in ["", "0", "abc"] {
            let err = parse_knob("FUNNELPQ_MAX_P", Some(bad), 256).unwrap_err();
            assert!(
                err.contains("FUNNELPQ_MAX_P") && err.contains(&format!("{bad:?}")),
                "error must name the variable and the value: {err}"
            );
        }
    }

    #[test]
    fn print_table_handles_ragged_rows() {
        // Smoke test: must not panic on short rows.
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into()], vec!["22".into(), "333".into()]],
        );
    }
}
