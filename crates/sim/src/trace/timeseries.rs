//! Windowed time-series over a trace: throughput, queueing delay and
//! per-region queue depth as functions of simulated time.

use funnelpq_util::json::JsonWriter;

use super::{RegionMap, TraceEvent};

/// One fixed-width window of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// First cycle of the window.
    pub start: u64,
    /// Transactions that *completed* in this window (windowed throughput).
    pub txns: u64,
    /// Total queueing delay of those completed transactions.
    pub queue_delay_cycles: u64,
    /// Per-region cycles spent queued (waiting for a busy line) during this
    /// window, indexed like [`RegionMap::names`]. Dividing by the window
    /// width gives the mean queue depth (Little's law).
    pub region_queued_cycles: Vec<u64>,
    /// Per-region transactions whose line service *started* in this window.
    pub region_accesses: Vec<u64>,
    /// Per-region processor-cycles spent *blocked* (suspended between
    /// [`TraceEvent::TaskBlock`] and [`TraceEvent::TaskResume`]) on a word
    /// of the region during this window. Dividing by the window width gives
    /// the mean number of processors parked on the region — under an MCS
    /// lock this, not line queueing, is where serialization shows, because
    /// waiters spin on their own queue nodes.
    pub region_blocked_cycles: Vec<u64>,
}

impl Window {
    /// Mean queueing delay of the transactions completed in this window.
    pub fn mean_queue_delay(&self) -> f64 {
        if self.txns == 0 {
            0.0
        } else {
            self.queue_delay_cycles as f64 / self.txns as f64
        }
    }
}

/// A trace reduced to fixed-width windows over simulated time.
///
/// Built post-run from the events of a [`super::TraceLog`] plus the
/// machine's [`RegionMap`]; serialized with [`TimeSeries::to_json`] (no
/// external dependencies, like `funnelpq::obs::MetricsSnapshot`).
///
/// The headline signals are **mean queue depth** and **mean blocked depth**
/// per region: for each transaction the queueing interval `[arrival,
/// start)` — and for each suspended task the blocked interval from
/// `TaskBlock` to `TaskResume` — is apportioned to the windows it overlaps,
/// and each window's cycles divided by the window width give the average
/// number of transactions (resp. parked processors) waiting on that
/// region — the time-resolved version of `Machine::hotspots`. A
/// serializing structure (one lock, one root counter) shows a sustained
/// depth near `P`; a funnel spreads the same traffic thin across its
/// layers.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    window: u64,
    region_names: Vec<String>,
    windows: Vec<Window>,
}

impl TimeSeries {
    /// Builds the series with `window`-cycle buckets.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn build(events: &[TraceEvent], regions: &RegionMap, window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        let horizon = events
            .iter()
            .map(|ev| match *ev {
                TraceEvent::Txn { complete, .. } => complete,
                _ => ev.time(),
            })
            .max()
            .unwrap_or(0);
        let n_windows = if events.is_empty() {
            0
        } else {
            (horizon / window + 1) as usize
        };
        let n_regions = regions.len();
        let mut windows: Vec<Window> = (0..n_windows)
            .map(|i| Window {
                start: i as u64 * window,
                txns: 0,
                queue_delay_cycles: 0,
                region_queued_cycles: vec![0; n_regions],
                region_accesses: vec![0; n_regions],
                region_blocked_cycles: vec![0; n_regions],
            })
            .collect();
        // Apportions `[from, to)` worth of `region` cycles into `field`.
        let spread = |windows: &mut Vec<Window>,
                      field: fn(&mut Window) -> &mut Vec<u64>,
                      region: usize,
                      from: u64,
                      to: u64| {
            let mut t = from;
            while t < to {
                let w = (t / window) as usize;
                let w_end = (w as u64 + 1) * window;
                let seg_end = w_end.min(to);
                field(&mut windows[w])[region] += seg_end - t;
                t = seg_end;
            }
        };
        // Open blocked interval per processor: (region, block time).
        let mut blocked: Vec<Option<(usize, u64)>> = Vec::new();
        for ev in events {
            match *ev {
                TraceEvent::Txn {
                    line,
                    arrival,
                    start,
                    complete,
                    ..
                } => {
                    let region = regions.region_of_line(line);
                    let wc = (complete / window) as usize;
                    windows[wc].txns += 1;
                    windows[wc].queue_delay_cycles += start - arrival;
                    let ws = (start / window) as usize;
                    windows[ws].region_accesses[region] += 1;
                    // Apportion the queueing interval [arrival, start)
                    // across the windows it overlaps.
                    spread(
                        &mut windows,
                        |w| &mut w.region_queued_cycles,
                        region,
                        arrival,
                        start,
                    );
                }
                TraceEvent::TaskBlock { proc, addr, time } => {
                    if blocked.len() <= proc {
                        blocked.resize(proc + 1, None);
                    }
                    blocked[proc] = Some((regions.region_of_addr(addr), time));
                }
                TraceEvent::TaskResume { proc, time, .. } => {
                    if let Some(Some((region, from))) = blocked.get_mut(proc).map(Option::take) {
                        spread(
                            &mut windows,
                            |w| &mut w.region_blocked_cycles,
                            region,
                            from,
                            time,
                        );
                    }
                }
                _ => {}
            }
        }
        TimeSeries {
            window,
            region_names: regions.names().to_vec(),
            windows,
        }
    }

    /// Window width in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window
    }

    /// Region display names, aligned with the per-window vectors.
    pub fn region_names(&self) -> &[String] {
        &self.region_names
    }

    /// The windows, in time order.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Mean queue depth of `region` in window `w` (queued cycles divided by
    /// window width).
    pub fn mean_depth(&self, w: usize, region: usize) -> f64 {
        self.windows[w].region_queued_cycles[region] as f64 / self.window as f64
    }

    /// Maximum windowed mean queue depth of `region` over the run.
    pub fn peak_depth(&self, region: usize) -> f64 {
        self.windows
            .iter()
            .map(|w| w.region_queued_cycles[region] as f64 / self.window as f64)
            .fold(0.0, f64::max)
    }

    /// Fraction of windows in which `region`'s mean queue depth is at least
    /// `threshold` — "how sustained is the contention".
    pub fn sustained_fraction(&self, region: usize, threshold: f64) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let hits = self
            .windows
            .iter()
            .filter(|w| w.region_queued_cycles[region] as f64 / self.window as f64 >= threshold)
            .count();
        hits as f64 / self.windows.len() as f64
    }

    /// Mean number of processors blocked on `region` in window `w`.
    pub fn blocked_depth(&self, w: usize, region: usize) -> f64 {
        self.windows[w].region_blocked_cycles[region] as f64 / self.window as f64
    }

    /// Maximum windowed mean blocked depth of `region` over the run.
    pub fn peak_blocked_depth(&self, region: usize) -> f64 {
        self.windows
            .iter()
            .map(|w| w.region_blocked_cycles[region] as f64 / self.window as f64)
            .fold(0.0, f64::max)
    }

    /// Fraction of windows in which at least `threshold` processors were
    /// blocked on `region` on average.
    pub fn sustained_blocked_fraction(&self, region: usize, threshold: f64) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let hits = self
            .windows
            .iter()
            .filter(|w| w.region_blocked_cycles[region] as f64 / self.window as f64 >= threshold)
            .count();
        hits as f64 / self.windows.len() as f64
    }

    /// Serializes the series as JSON via the workspace's shared
    /// [`JsonWriter`] (no external deps; dense numeric sample arrays are
    /// comma-packed).
    pub fn to_json(&self) -> String {
        let mut jw = JsonWriter::spaced();
        jw.begin_obj(true);
        jw.field_u64("window_cycles", self.window);
        jw.field_u64("num_windows", self.windows.len() as u64);
        jw.key("regions");
        jw.begin_arr(false);
        for name in &self.region_names {
            jw.str(name);
        }
        jw.end();
        jw.key("windows");
        jw.begin_arr(true);
        for w in &self.windows {
            jw.begin_obj(false);
            jw.field_u64("start", w.start);
            jw.field_u64("txns", w.txns);
            jw.field_u64("queue_delay_cycles", w.queue_delay_cycles);
            jw.field_f64_fixed("mean_queue_delay", w.mean_queue_delay(), 3);
            jw.key("region_accesses");
            jw.begin_arr_compact();
            for &a in &w.region_accesses {
                jw.u64(a);
            }
            jw.end();
            jw.key("region_mean_depth");
            jw.begin_arr_compact();
            for &q in &w.region_queued_cycles {
                jw.f64_fixed(q as f64 / self.window as f64, 3);
            }
            jw.end();
            jw.key("region_blocked_depth");
            jw.begin_arr_compact();
            for &q in &w.region_blocked_cycles {
                jw.f64_fixed(q as f64 / self.window as f64, 3);
            }
            jw.end();
            jw.end();
        }
        jw.end();
        jw.end();
        let mut out = jw.finish();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::TxnKind;
    use super::*;

    fn map2() -> RegionMap {
        // Lines 0..2 -> region 0 ("hot"), everything else unlabelled.
        RegionMap::new(
            vec!["hot".into(), "<unlabelled>".into()],
            vec![(2, 0)],
            vec![0, 0],
            0,
        )
    }

    fn txn(line: usize, arrival: u64, start: u64, complete: u64) -> TraceEvent {
        TraceEvent::Txn {
            proc: 0,
            addr: line,
            line,
            kind: TxnKind::Read,
            issue: arrival.saturating_sub(1),
            arrival,
            start,
            release: complete.saturating_sub(1),
            complete,
            mutated: false,
        }
    }

    #[test]
    fn empty_events_give_empty_series() {
        let ts = TimeSeries::build(&[], &map2(), 10);
        assert!(ts.windows().is_empty());
        assert!(ts.to_json().contains("\"num_windows\": 0"));
    }

    #[test]
    fn queueing_interval_splits_across_windows() {
        // Queued from cycle 5 to cycle 25 on a region-0 line: windows of 10
        // get 5, 10 and 5 queued cycles.
        let evs = [txn(0, 5, 25, 30)];
        let ts = TimeSeries::build(&evs, &map2(), 10);
        assert_eq!(ts.windows().len(), 4);
        assert_eq!(ts.windows()[0].region_queued_cycles[0], 5);
        assert_eq!(ts.windows()[1].region_queued_cycles[0], 10);
        assert_eq!(ts.windows()[2].region_queued_cycles[0], 5);
        assert_eq!(ts.windows()[3].region_queued_cycles[0], 0);
        // Completion lands in window 3; service started in window 2.
        assert_eq!(ts.windows()[3].txns, 1);
        assert_eq!(ts.windows()[3].queue_delay_cycles, 20);
        assert_eq!(ts.windows()[2].region_accesses[0], 1);
        assert!((ts.mean_depth(1, 0) - 1.0).abs() < 1e-9);
        assert!((ts.peak_depth(0) - 1.0).abs() < 1e-9);
        assert!((ts.sustained_fraction(0, 1.0) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn unmapped_lines_pool_under_unlabelled() {
        let evs = [txn(9, 0, 4, 6)];
        let ts = TimeSeries::build(&evs, &map2(), 10);
        let unl = 1;
        assert_eq!(ts.windows()[0].region_queued_cycles[unl], 4);
        assert_eq!(ts.windows()[0].region_accesses[unl], 1);
    }

    #[test]
    fn json_shape() {
        let evs = [txn(0, 5, 25, 30)];
        let ts = TimeSeries::build(&evs, &map2(), 10);
        let j = ts.to_json();
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert!(j.contains("\"regions\": [\"hot\", \"<unlabelled>\"]"));
        assert!(j.contains("\"region_mean_depth\""));
        assert!(j.contains("\"region_blocked_depth\""));
    }

    #[test]
    fn blocked_intervals_split_across_windows() {
        // Proc 2 parks on a region-0 word from cycle 5 to cycle 25.
        let evs = [
            TraceEvent::TaskBlock {
                proc: 2,
                addr: 0,
                time: 5,
            },
            TraceEvent::TaskResume {
                proc: 2,
                addr: 0,
                time: 25,
            },
            // An unmatched resume (task never blocked) must be ignored.
            TraceEvent::TaskResume {
                proc: 7,
                addr: 0,
                time: 8,
            },
        ];
        let ts = TimeSeries::build(&evs, &map2(), 10);
        assert_eq!(ts.windows()[0].region_blocked_cycles[0], 5);
        assert_eq!(ts.windows()[1].region_blocked_cycles[0], 10);
        assert_eq!(ts.windows()[2].region_blocked_cycles[0], 5);
        assert!((ts.blocked_depth(1, 0) - 1.0).abs() < 1e-9);
        assert!((ts.peak_blocked_depth(0) - 1.0).abs() < 1e-9);
        assert!((ts.sustained_blocked_fraction(0, 1.0) - 1.0 / 3.0).abs() < 1e-9);
    }
}
