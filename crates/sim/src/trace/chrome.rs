//! Chrome Trace Format export: render a trace as per-processor timelines,
//! per-hot-line occupancy rows, and per-region queue-depth counters that
//! load directly in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Row shapes and document framing come from the workspace-shared
//! [`ChromeTrace`] builder, so simulator traces and `pqbench`'s native
//! span timelines render identically in the same UI.

use std::collections::BTreeMap;

use funnelpq_util::chrome::{Arg, ChromeTrace};

use super::{RegionMap, TimeSeries, TraceEvent};

const PID_PROCESSORS: u32 = 0;
const PID_LINES: u32 = 1;
const PID_COUNTERS: u32 = 2;

/// Serializes `events` as a Chrome Trace Format JSON document.
///
/// Rows rendered:
///
/// * **Process 0 "processors"** — one thread per simulated processor.
///   User spans ([`crate::ProcCtx::span`]) become `B`/`E` duration events;
///   each memory transaction becomes an `X` slice from issue to completion
///   with its line, region and queueing delay in `args`.
/// * **Process 1 "memory lines"** — one thread per hot cache line (the
///   `hot_lines` lines with the most queueing delay), showing back-to-back
///   `X` slices for the line's service occupancy. A serialized line renders
///   as a solid bar; funnel layers render as sparse stripes.
/// * **Process 2 "queue depth"** — when a [`TimeSeries`] is supplied, one
///   `C` counter track per labelled region sampling windowed mean queue
///   depth, plus one per region with blocked processors sampling mean
///   blocked depth (waiters parked on the region, e.g. an MCS queue).
///
/// Timestamps are simulated cycles written as microseconds (Perfetto wants
/// µs; the unit label is cosmetic — read "1 µs" as "1 cycle").
pub fn chrome_trace_json(
    events: &[TraceEvent],
    regions: &RegionMap,
    hot_lines: usize,
    counters: Option<&TimeSeries>,
) -> String {
    let mut t = ChromeTrace::new();
    t.process_name(PID_PROCESSORS, "processors");

    // Per-processor rows.
    let mut procs_seen: Vec<bool> = Vec::new();
    for ev in events {
        let p = ev.proc();
        if p >= procs_seen.len() {
            procs_seen.resize(p + 1, false);
        }
        procs_seen[p] = true;
    }
    for (p, seen) in procs_seen.iter().enumerate() {
        if *seen {
            t.thread_name(PID_PROCESSORS, p as u64, &format!("proc {p}"));
        }
    }

    // Rank lines by queueing delay for the occupancy rows.
    let mut line_delay: BTreeMap<usize, u64> = BTreeMap::new();
    for ev in events {
        if let TraceEvent::Txn {
            line,
            arrival,
            start,
            ..
        } = *ev
        {
            *line_delay.entry(line).or_insert(0) += start - arrival;
        }
    }
    let mut ranked: Vec<(usize, u64)> = line_delay.into_iter().collect();
    ranked.sort_by_key(|&(line, delay)| (std::cmp::Reverse(delay), line));
    ranked.truncate(hot_lines);
    let hot: BTreeMap<usize, ()> = ranked.iter().map(|&(line, _)| (line, ())).collect();
    if !hot.is_empty() {
        t.process_name(PID_LINES, "memory lines");
        for &(line, _) in &ranked {
            t.thread_name(
                PID_LINES,
                line as u64,
                &format!("line {} \u{2014} {}", line, regions.name_of_line(line)),
            );
        }
    }

    // Event rows.
    for ev in events {
        match *ev {
            TraceEvent::Txn {
                proc,
                addr,
                line,
                kind,
                issue,
                arrival,
                start,
                release,
                complete,
                ..
            } => {
                t.complete(
                    kind.name(),
                    "txn",
                    PID_PROCESSORS,
                    proc as u64,
                    issue,
                    complete - issue,
                    &[
                        ("addr", Arg::U64(addr as u64)),
                        ("line", Arg::U64(line as u64)),
                        ("queued", Arg::U64(start - arrival)),
                    ],
                );
                if hot.contains_key(&line) {
                    t.complete(
                        kind.name(),
                        "line",
                        PID_LINES,
                        line as u64,
                        start,
                        release - start,
                        &[
                            ("proc", Arg::U64(proc as u64)),
                            ("queued", Arg::U64(start - arrival)),
                        ],
                    );
                }
            }
            TraceEvent::SpanBegin { proc, name, time } => {
                t.begin(name, "span", PID_PROCESSORS, proc as u64, time);
            }
            TraceEvent::SpanEnd { proc, name, time } => {
                t.end(name, "span", PID_PROCESSORS, proc as u64, time);
            }
            TraceEvent::TaskSpawn { proc, time } => {
                t.instant("spawn", "sched", PID_PROCESSORS, proc as u64, time, &[]);
            }
            TraceEvent::TaskBlock { proc, time, addr } => {
                t.instant(
                    "block",
                    "sched",
                    PID_PROCESSORS,
                    proc as u64,
                    time,
                    &[("addr", Arg::U64(addr as u64))],
                );
            }
            TraceEvent::TaskResume { proc, time, addr } => {
                t.instant(
                    "resume",
                    "sched",
                    PID_PROCESSORS,
                    proc as u64,
                    time,
                    &[("addr", Arg::U64(addr as u64))],
                );
            }
            TraceEvent::TaskComplete { proc, time } => {
                t.instant("complete", "sched", PID_PROCESSORS, proc as u64, time, &[]);
            }
        }
    }

    // Windowed queue-depth and blocked-depth counters.
    if let Some(ts) = counters {
        let queued: Vec<usize> = (0..ts.region_names().len())
            .filter(|&r| ts.windows().iter().any(|w| w.region_queued_cycles[r] > 0))
            .collect();
        let parked: Vec<usize> = (0..ts.region_names().len())
            .filter(|&r| ts.windows().iter().any(|w| w.region_blocked_cycles[r] > 0))
            .collect();
        if !queued.is_empty() || !parked.is_empty() {
            t.process_name(PID_COUNTERS, "queue depth");
        }
        for &r in &queued {
            let name = format!("depth: {}", ts.region_names()[r]);
            for w in ts.windows() {
                let depth = w.region_queued_cycles[r] as f64 / ts.window_cycles() as f64;
                t.counter(
                    &name,
                    PID_COUNTERS,
                    0,
                    w.start,
                    &[("depth", Arg::F3(depth))],
                );
            }
        }
        for &r in &parked {
            let name = format!("blocked: {}", ts.region_names()[r]);
            for w in ts.windows() {
                let procs = w.region_blocked_cycles[r] as f64 / ts.window_cycles() as f64;
                t.counter(
                    &name,
                    PID_COUNTERS,
                    0,
                    w.start,
                    &[("procs", Arg::F3(procs))],
                );
            }
        }
    }

    t.finish()
}

#[cfg(test)]
mod tests {
    use super::super::{TraceEvent, TxnKind};
    use super::*;

    #[test]
    fn renders_processor_and_line_rows() {
        let regions = RegionMap::new(
            vec!["lock".into(), "<unlabelled>".into()],
            vec![(1, 0)],
            vec![0],
            0,
        );
        let events = [
            TraceEvent::SpanBegin {
                proc: 0,
                name: "lock-hold",
                time: 0,
            },
            TraceEvent::Txn {
                proc: 0,
                addr: 0,
                line: 0,
                kind: TxnKind::Cas,
                issue: 0,
                arrival: 10,
                start: 12,
                release: 16,
                complete: 26,
                mutated: true,
            },
            TraceEvent::SpanEnd {
                proc: 0,
                name: "lock-hold",
                time: 26,
            },
        ];
        let j = chrome_trace_json(&events, &regions, 8, None);
        assert!(j.starts_with("{\"displayTimeUnit\""));
        assert!(j.contains("\"traceEvents\":["));
        assert!(j.contains("\"thread_name\"") && j.contains("proc 0"));
        assert!(j.contains("line 0 \u{2014} lock"));
        assert!(j.contains("\"ph\":\"B\"") && j.contains("\"ph\":\"E\""));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"queued\":2"));
        // No trailing comma before the closing bracket.
        assert!(!j.contains(",\n]"));
    }

    #[test]
    fn hot_line_cap_respected() {
        let regions = RegionMap::new(vec!["<unlabelled>".into()], vec![], vec![], 0);
        let mk = |line: usize, queued: u64| TraceEvent::Txn {
            proc: 0,
            addr: line,
            line,
            kind: TxnKind::Read,
            issue: 0,
            arrival: 1,
            start: 1 + queued,
            release: 2 + queued,
            complete: 3 + queued,
            mutated: false,
        };
        let events = [mk(0, 5), mk(1, 50), mk(2, 1)];
        let j = chrome_trace_json(&events, &regions, 1, None);
        assert!(j.contains("line 1 \u{2014}"));
        assert!(!j.contains("line 0 \u{2014}"));
        assert!(!j.contains("line 2 \u{2014}"));
    }
}
