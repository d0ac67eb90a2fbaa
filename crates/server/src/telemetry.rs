//! Live server telemetry: per-tenant and per-shard latency/slack
//! histograms, a windowed throughput/depth time-series, and a sampled
//! online rank-error estimator — all aggregated on demand into a
//! versioned [`TelemetrySnapshot`] (see `docs/OBSERVABILITY.md`).
//!
//! Each shard owns one `ShardTelemetry` behind a `Mutex`. Its only
//! writer is that shard's dispatcher thread, which takes the (therefore
//! uncontended) lock once per drained batch and lets go of it before it
//! waits for anything; [`Scheduler::telemetry`] readers take it rarely,
//! and wait out at most one batch of non-blocking work. Queue depth is
//! tracked separately as a lock-free counter on the shard so submitters
//! never touch the mutex.
//!
//! ## Rank error
//!
//! Relaxed backends (the MultiQueue) may hand back keys out of order.
//! The estimator samples every [`RANK_SAMPLE_PERIOD`]-th drain episode
//! and scores the batch `delete_min_batch` returned: for each element,
//! how many *later* elements of the same batch carry a strictly smaller
//! band — the number of jobs it cut ahead of. Those displacements feed
//! the `rank_error` histogram. Sampling is gated on
//! [`funnelpq::BoundedPq::ordered_batch_drain`]: only backends whose
//! batches are en-bloc drains (one lock hold, or en-bloc relaxed pops)
//! yield batches whose internal inversions are attributable to queue
//! policy rather than to benign interleaving, so a strict backend scores
//! exactly zero and a MultiQueue's score is genuine relaxation.
//!
//! [`Scheduler::telemetry`]: crate::Scheduler::telemetry

use funnelpq::AdaptiveStats;
use funnelpq_util::json::{JsonWriter, SCHEMA_VERSION};
use funnelpq_util::Acc;

use crate::job::Job;

/// How many drain episodes pass between rank-error samples. Scoring is
/// O(batch²) in the drain batch size, so sampling keeps it off the hot
/// path while still accumulating hundreds of samples per second.
pub const RANK_SAMPLE_PERIOD: u64 = 8;

/// How many time-series windows each shard retains (a ring; older
/// windows are overwritten in place).
pub const WINDOW_COUNT: usize = 64;

/// Per-tenant accounting, accumulated by whichever shard dispatches the
/// tenant's jobs and merged across shards at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// The tenant id.
    pub tenant: u32,
    /// Dispatches on behalf of this tenant (each periodic firing counts).
    pub dispatched: u64,
    /// Dispatches that missed their deadline on the virtual service clock.
    pub misses: u64,
    /// Wall-clock enqueue→dispatch latency histogram (nanoseconds).
    pub latency_ns: Acc,
    /// Deadline slack remaining at dispatch (nanoseconds; `0` = dispatched
    /// at or past the deadline). A healthy tenant's p50 sits well above 0.
    pub slack_ns: Acc,
}

impl TenantStats {
    fn merge(&mut self, other: &TenantStats) {
        self.dispatched += other.dispatched;
        self.misses += other.misses;
        self.latency_ns.merge(&other.latency_ns);
        self.slack_ns.merge(&other.slack_ns);
    }
}

/// Per-shard accounting as captured at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Which shard.
    pub shard: usize,
    /// Dispatches this shard has performed: the sum of its tenant rows.
    pub dispatched: u64,
    /// Deadline misses among them: the sum of its tenant rows.
    pub misses: u64,
    /// Jobs sitting in the shard's queue right now.
    pub depth: u64,
    /// Wall-clock enqueue→dispatch latency histogram (nanoseconds): its
    /// tenant rows' histograms merged.
    pub latency_ns: Acc,
    /// Per-element displacement histogram from sampled drain batches
    /// (see the module docs). Empty when the backend's batches are not
    /// en-bloc drains.
    pub rank_error: Acc,
    /// How many drain batches were scored into `rank_error`.
    pub rank_samples: u64,
    /// Supervisor restarts of this shard's dispatcher after panics.
    pub restarts: u64,
    /// Jobs requeued after panics (restart survivors + give-up failover).
    pub requeued: u64,
    /// Jobs shed at admission for this shard (overload control).
    pub shed: u64,
    /// How the dispatcher has spent its time between drains.
    pub waits: WaitStats,
    /// NUMA-adaptive controller snapshot, when the backend is `NumaPq`:
    /// current mode, switch-overs, epochs, delegation traffic. `None`
    /// for every other backend.
    pub adaptive: Option<AdaptiveStats>,
}

/// The dispatcher's wait accounting (see `docs/SERVER.md`, "The
/// dispatcher"): how often it found work by polling, gave up polling,
/// blocked, waited for a batch to fill, and how much each drain then took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Times the dispatcher went to `thread::park` on an empty queue
    /// (filed before it blocks, so a snapshot of an idle server shows it;
    /// the rare park called off by a job landing that instant counts too).
    pub parks: u64,
    /// Poll windows that ended because work arrived.
    pub poll_hits: u64,
    /// Poll windows that expired empty (each collapses the window to zero
    /// and is followed by a park).
    pub poll_misses: u64,
    /// Windows the dispatcher waited (at most 2 µs each) for a backlog
    /// smaller than `drain_batch` to fill, because the arrival gap it had
    /// measured said another job was due. Filed with the drain that
    /// follows. A sparse stream reads near zero, a saturating producer up
    /// to one per drain.
    pub coalesced: u64,
    /// Non-empty `delete_min_batch` episodes.
    pub drains: u64,
    /// Jobs those episodes took off the queue.
    pub drained: u64,
}

impl WaitStats {
    /// Mean jobs per drain episode (`0.0` before the first drain).
    pub fn mean_batch(&self) -> f64 {
        if self.drains == 0 {
            0.0
        } else {
            self.drained as f64 / self.drains as f64
        }
    }

    fn merge(&mut self, other: &WaitStats) {
        self.parks += other.parks;
        self.poll_hits += other.poll_hits;
        self.poll_misses += other.poll_misses;
        self.coalesced += other.coalesced;
        self.drains += other.drains;
        self.drained += other.drained;
    }
}

/// One time-series window: counts over `window_ns` of wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Window start, in nanoseconds since the scheduler's epoch.
    pub start_ns: u64,
    /// Dispatches that landed in this window.
    pub dispatched: u64,
    /// Deadline misses among them.
    pub misses: u64,
    /// Queue depth as last observed inside the window (summed across
    /// shards in the merged view).
    pub depth: u64,
}

/// Fixed-size ring of time-series windows, indexed by
/// `now_ns / window_ns`. Old windows are reused in place, so the ring
/// always holds the most recent `WINDOW_COUNT` windows that saw traffic.
#[derive(Debug, Clone)]
pub(crate) struct WindowRing {
    window_ns: u64,
    /// `(window_index + 1, stats)`; 0 marks a never-used slot.
    slots: Vec<(u64, WindowStats)>,
}

impl WindowRing {
    pub(crate) fn new(window_ns: u64) -> Self {
        WindowRing {
            window_ns: window_ns.max(1),
            slots: vec![(0, WindowStats::default()); WINDOW_COUNT],
        }
    }

    fn slot(&mut self, now_ns: u64) -> &mut WindowStats {
        let index = now_ns / self.window_ns;
        let slot = &mut self.slots[index as usize % WINDOW_COUNT];
        if slot.0 != index + 1 {
            slot.0 = index + 1;
            slot.1 = WindowStats {
                start_ns: index * self.window_ns,
                ..WindowStats::default()
            };
        }
        &mut slot.1
    }

    pub(crate) fn record_dispatch(&mut self, now_ns: u64, missed: bool) {
        let w = self.slot(now_ns);
        w.dispatched += 1;
        w.misses += u64::from(missed);
    }

    pub(crate) fn record_depth(&mut self, now_ns: u64, depth: u64) {
        self.slot(now_ns).depth = depth;
    }

    /// The live windows, oldest first.
    pub(crate) fn windows(&self) -> Vec<WindowStats> {
        let mut out: Vec<WindowStats> = self
            .slots
            .iter()
            .filter(|(used, _)| *used != 0)
            .map(|&(_, w)| w)
            .collect();
        out.sort_by_key(|w| w.start_ns);
        out
    }
}

/// One shard's telemetry cell: the one place the server files a
/// dispatch, a miss, a latency, a restart or a requeue. Written only by
/// the shard's dispatcher (uncontended mutex); read by
/// [`Scheduler::telemetry`], and once more by [`Scheduler::stop`] for
/// the report. Shard totals are not filed: [`TelemetrySnapshot::assemble`]
/// sums them from the tenant rows.
///
/// [`Scheduler::telemetry`]: crate::Scheduler::telemetry
/// [`Scheduler::stop`]: crate::Scheduler::stop
#[derive(Debug, Clone)]
pub(crate) struct ShardTelemetry {
    pub(crate) rank_error: Acc,
    pub(crate) rank_samples: u64,
    /// Written by the shard's supervisor between dispatcher incarnations
    /// (never concurrently with the dispatcher — the supervisor *is* the
    /// dispatcher thread).
    pub(crate) restarts: u64,
    pub(crate) requeued: u64,
    pub(crate) waits: WaitStats,
    pub(crate) windows: WindowRing,
    /// Indexed by tenant id.
    pub(crate) tenants: Vec<TenantStats>,
}

impl ShardTelemetry {
    pub(crate) fn new(tenants: usize, window_ns: u64) -> Self {
        ShardTelemetry {
            rank_error: Acc::new(),
            rank_samples: 0,
            restarts: 0,
            requeued: 0,
            waits: WaitStats::default(),
            windows: WindowRing::new(window_ns),
            tenants: (0..tenants)
                .map(|t| TenantStats {
                    tenant: t as u32,
                    ..TenantStats::default()
                })
                .collect(),
        }
    }

    /// Files one dispatch: the tenant's row (count, miss, latency and
    /// slack) and the current time-series window. Admission refuses a
    /// tenant out of range, so every dispatched job has a row.
    pub(crate) fn record_dispatch(
        &mut self,
        job: &Job,
        now_ns: u64,
        latency_ns: u64,
        missed: bool,
    ) {
        self.windows.record_dispatch(now_ns, missed);
        let t = &mut self.tenants[job.tenant.0 as usize];
        t.dispatched += 1;
        t.misses += u64::from(missed);
        t.latency_ns.record(latency_ns);
        t.slack_ns.record(job.deadline_ns.saturating_sub(now_ns));
    }

    /// Scores one sampled drain batch: each element's displacement is the
    /// number of later batch elements with a strictly smaller band.
    pub(crate) fn record_rank_sample(&mut self, batch: &[(usize, Job)]) {
        self.rank_samples += 1;
        for (i, &(band, _)) in batch.iter().enumerate() {
            let displaced = batch[i + 1..]
                .iter()
                .filter(|&&(later, _)| later < band)
                .count();
            self.rank_error.record(displaced as u64);
        }
    }
}

/// A consistent-enough point-in-time view of the whole scheduler's
/// telemetry (shards are read one after another, so cross-shard totals
/// can be a few dispatches apart — fine for monitoring).
///
/// Serialize with [`TelemetrySnapshot::to_json`]; the layout is stamped
/// with [`SCHEMA_VERSION`] so readers can refuse drifted emitters.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// JSON layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// When the snapshot was taken, nanoseconds since the scheduler epoch.
    pub at_ns: u64,
    /// The backend algorithm's canonical name.
    pub backend: String,
    /// The time-series window width, nanoseconds.
    pub window_ns: u64,
    /// Per-shard stats, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Per-tenant stats merged across shards; only tenants that have
    /// dispatched at least one job appear.
    pub tenants: Vec<TenantStats>,
    /// Time-series windows merged across shards, oldest first.
    pub windows: Vec<WindowStats>,
}

impl TelemetrySnapshot {
    /// Total dispatches across shards.
    pub fn dispatched(&self) -> u64 {
        self.shards.iter().map(|s| s.dispatched).sum()
    }

    /// Total deadline misses across shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses).sum()
    }

    /// Total queued jobs across shards at snapshot time.
    pub fn depth(&self) -> u64 {
        self.shards.iter().map(|s| s.depth).sum()
    }

    /// Total drain batches scored into the rank-error estimate, across
    /// shards (zero for backends whose batches are not en-bloc drains).
    pub fn rank_samples(&self) -> u64 {
        self.shards.iter().map(|s| s.rank_samples).sum()
    }

    /// Total dispatcher restarts across shards.
    pub fn restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Total jobs requeued after panics, across shards.
    pub fn requeued(&self) -> u64 {
        self.shards.iter().map(|s| s.requeued).sum()
    }

    /// Total jobs shed at admission, across shards.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Dispatcher wait accounting summed across shards.
    pub fn waits(&self) -> WaitStats {
        self.shards.iter().fold(WaitStats::default(), |mut w, s| {
            w.merge(&s.waits);
            w
        })
    }

    /// The NUMA-adaptive controller's current mode name, when the
    /// backend is `NumaPq` (the first shard's controller speaks for the
    /// fleet: every shard runs the same policy over the same machine).
    pub fn numa_mode(&self) -> Option<&'static str> {
        self.shards
            .iter()
            .find_map(|s| s.adaptive.map(|a| a.mode.name()))
    }

    /// Total NUMA mode switch-overs across shards (zero for backends
    /// without an adaptive controller).
    pub fn mode_switches(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.adaptive.map(|a| a.switches))
            .sum()
    }

    /// Mean sampled rank error per dispatched element, across shards
    /// (`0.0` when nothing has been sampled — including for backends
    /// whose batches are not en-bloc drains).
    pub fn rank_error_mean(&self) -> f64 {
        let (sum, count) = self.shards.iter().fold((0u64, 0u64), |(s, c), sh| {
            (s + sh.rank_error.sum(), c + sh.rank_error.count())
        });
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    fn acc_json(w: &mut JsonWriter, k: &str, acc: &Acc) {
        w.key(k);
        w.begin_obj(false);
        w.field_u64("count", acc.count());
        w.field_f64_fixed("mean", if acc.count() == 0 { 0.0 } else { acc.mean() }, 1);
        w.field_u64("p50", acc.p50());
        w.field_u64("p99", acc.p99());
        w.field_u64("p999", acc.p999());
        w.field_u64("max", acc.max());
        w.end();
    }

    fn waits_json(w: &mut JsonWriter, waits: &WaitStats) {
        w.key("waits");
        w.begin_obj(false);
        w.field_u64("parks", waits.parks);
        w.field_u64("poll_hits", waits.poll_hits);
        w.field_u64("poll_misses", waits.poll_misses);
        w.field_u64("coalesced", waits.coalesced);
        w.field_u64("drains", waits.drains);
        w.field_u64("drained", waits.drained);
        w.end();
    }

    /// Renders the snapshot as a versioned JSON document (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::spaced();
        w.begin_obj(true);
        w.field_u64("schema_version", u64::from(self.schema_version));
        w.field_u64("at_ns", self.at_ns);
        w.field_str("backend", &self.backend);
        w.field_u64("window_ns", self.window_ns);
        w.key("totals");
        w.begin_obj(false);
        w.field_u64("dispatched", self.dispatched());
        w.field_u64("misses", self.misses());
        w.field_u64("depth", self.depth());
        w.field_u64("rank_samples", self.rank_samples());
        w.field_f64("rank_error_mean", self.rank_error_mean());
        w.field_u64("restarts", self.restarts());
        w.field_u64("requeued", self.requeued());
        w.field_u64("shed", self.shed());
        if let Some(mode) = self.numa_mode() {
            w.field_str("numa_mode", mode);
            w.field_u64("mode_switches", self.mode_switches());
        }
        Self::waits_json(&mut w, &self.waits());
        w.end();
        w.key("shards");
        w.begin_arr(true);
        for s in &self.shards {
            w.begin_obj(false);
            w.field_u64("shard", s.shard as u64);
            w.field_u64("dispatched", s.dispatched);
            w.field_u64("misses", s.misses);
            w.field_u64("depth", s.depth);
            Self::acc_json(&mut w, "latency_ns", &s.latency_ns);
            Self::acc_json(&mut w, "rank_error", &s.rank_error);
            w.field_u64("rank_samples", s.rank_samples);
            w.field_u64("restarts", s.restarts);
            w.field_u64("requeued", s.requeued);
            w.field_u64("shed", s.shed);
            Self::waits_json(&mut w, &s.waits);
            if let Some(a) = s.adaptive {
                w.key("numa");
                w.begin_obj(false);
                w.field_str("mode", a.mode.name());
                w.field_u64("switches", a.switches);
                w.field_u64("epochs", a.epochs);
                w.field_u64("delegated", a.delegated);
                w.field_u64("self_served", a.self_served);
                w.field_u64("remote_transfers", a.remote_transfers);
                w.end();
            }
            w.end();
        }
        w.end();
        w.key("tenants");
        w.begin_arr(true);
        for t in &self.tenants {
            w.begin_obj(false);
            w.field_u64("tenant", u64::from(t.tenant));
            w.field_u64("dispatched", t.dispatched);
            w.field_u64("misses", t.misses);
            Self::acc_json(&mut w, "latency_ns", &t.latency_ns);
            Self::acc_json(&mut w, "slack_ns", &t.slack_ns);
            w.end();
        }
        w.end();
        w.key("windows");
        w.begin_arr(true);
        for win in &self.windows {
            w.begin_obj(false);
            w.field_u64("start_ns", win.start_ns);
            w.field_u64("dispatched", win.dispatched);
            w.field_u64("misses", win.misses);
            w.field_u64("depth", win.depth);
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }

    /// Builds the snapshot header and merges per-shard cells into it.
    pub(crate) fn assemble(
        at_ns: u64,
        backend: &str,
        window_ns: u64,
        per_shard: Vec<(ShardTelemetry, u64, u64, Option<AdaptiveStats>)>,
    ) -> Self {
        let mut snap = TelemetrySnapshot {
            schema_version: SCHEMA_VERSION,
            at_ns,
            backend: backend.to_string(),
            window_ns,
            ..TelemetrySnapshot::default()
        };
        let mut tenants: Vec<TenantStats> = Vec::new();
        let mut windows: Vec<WindowStats> = Vec::new();
        for (shard, (cell, depth, shed, adaptive)) in per_shard.into_iter().enumerate() {
            let mut total = TenantStats::default();
            for t in &cell.tenants {
                total.merge(t);
            }
            snap.shards.push(ShardStats {
                shard,
                dispatched: total.dispatched,
                misses: total.misses,
                depth,
                latency_ns: total.latency_ns,
                rank_error: cell.rank_error,
                rank_samples: cell.rank_samples,
                restarts: cell.restarts,
                requeued: cell.requeued,
                shed,
                waits: cell.waits,
                adaptive,
            });
            for t in &cell.tenants {
                if t.dispatched == 0 {
                    continue;
                }
                let idx = t.tenant as usize;
                if tenants.len() <= idx {
                    tenants.resize_with(idx + 1, TenantStats::default);
                    for (i, slot) in tenants.iter_mut().enumerate() {
                        slot.tenant = i as u32;
                    }
                }
                tenants[idx].merge(t);
            }
            for w in cell.windows.windows() {
                match windows.iter_mut().find(|m| m.start_ns == w.start_ns) {
                    Some(m) => {
                        m.dispatched += w.dispatched;
                        m.misses += w.misses;
                        m.depth += w.depth;
                    }
                    None => windows.push(w),
                }
            }
        }
        tenants.retain(|t| t.dispatched > 0);
        windows.sort_by_key(|w| w.start_ns);
        snap.tenants = tenants;
        snap.windows = windows;
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TenantId;

    fn job(tenant: u32, enqueued_ns: u64, deadline_ns: u64) -> Job {
        Job {
            id: 0,
            tenant: TenantId(tenant),
            deadline_ns,
            payload: 0,
            period_ns: 0,
            repeats_left: 0,
            enqueued_ns,
            enqueued_slot: 0,
        }
    }

    #[test]
    fn dispatches_land_in_tenant_and_window_buckets() {
        let mut t = ShardTelemetry::new(4, 100);
        t.record_dispatch(&job(1, 0, 500), 50, 50, false);
        t.record_dispatch(&job(1, 0, 90), 150, 150, true);
        t.record_dispatch(&job(3, 100, 1_000), 160, 60, false);
        assert_eq!(t.tenants[1].dispatched, 2);
        assert_eq!(t.tenants[1].misses, 1);
        assert_eq!(t.tenants[3].slack_ns.count(), 1);
        assert_eq!(t.tenants[0].dispatched, 0);
        let wins = t.windows.windows();
        assert_eq!(wins.len(), 2);
        assert_eq!(
            wins[0],
            WindowStats {
                start_ns: 0,
                dispatched: 1,
                misses: 0,
                depth: 0
            }
        );
        assert_eq!(wins[1].start_ns, 100);
        assert_eq!(wins[1].dispatched, 2);
        assert_eq!(wins[1].misses, 1);
    }

    #[test]
    fn window_ring_reuses_old_slots() {
        let mut r = WindowRing::new(10);
        r.record_dispatch(5, false);
        // WINDOW_COUNT windows later the same slot is reused for the new
        // index; the old window is gone.
        r.record_dispatch(5 + 10 * WINDOW_COUNT as u64, true);
        let wins = r.windows();
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].start_ns, 10 * WINDOW_COUNT as u64);
        assert_eq!(wins[0].misses, 1);
    }

    #[test]
    fn rank_sample_scores_displacements() {
        let mut t = ShardTelemetry::new(1, 100);
        // Sorted batch: zero everywhere.
        t.record_rank_sample(&[(1, job(0, 0, 0)), (2, job(0, 0, 0)), (2, job(0, 0, 0))]);
        assert_eq!(t.rank_error.sum(), 0);
        assert_eq!(t.rank_error.count(), 3);
        // (5, 1, 3): the 5 jumped ahead of both later elements, the 1 and
        // 3 of nothing.
        t.record_rank_sample(&[(5, job(0, 0, 0)), (1, job(0, 0, 0)), (3, job(0, 0, 0))]);
        assert_eq!(t.rank_samples, 2);
        assert_eq!(t.rank_error.sum(), 2);
        assert_eq!(t.rank_error.max(), 2);
    }

    #[test]
    fn snapshot_merges_and_serializes() {
        let mut a = ShardTelemetry::new(4, 100);
        a.record_dispatch(&job(1, 0, 500), 10, 10, false);
        let mut b = ShardTelemetry::new(4, 100);
        b.record_dispatch(&job(1, 0, 90), 150, 150, true);
        b.record_dispatch(&job(2, 0, 500), 160, 160, false);
        b.record_rank_sample(&[(3, job(2, 0, 0)), (1, job(2, 0, 0))]);
        a.restarts = 1;
        a.requeued = 4;
        a.waits = WaitStats {
            parks: 1,
            coalesced: 2,
            drains: 3,
            drained: 5,
            ..WaitStats::default()
        };
        b.waits.coalesced = 1;
        let snap = TelemetrySnapshot::assemble(
            1_000,
            "multiqueue",
            100,
            vec![(a, 7, 2, None), (b, 0, 0, None)],
        );
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        assert_eq!(snap.dispatched(), 3);
        assert_eq!(snap.misses(), 1);
        // Shard totals are their tenant rows summed.
        let b = &snap.shards[1];
        assert_eq!((b.dispatched, b.misses, b.latency_ns.count()), (2, 1, 2));
        assert_eq!(snap.depth(), 7);
        assert_eq!(snap.restarts(), 1);
        assert_eq!(snap.requeued(), 4);
        assert_eq!(snap.shed(), 2);
        assert!(snap.rank_error_mean() > 0.0);
        // Tenant 1 merged across both shards; tenants 0 and 3 absent.
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.tenants[0].tenant, 1);
        assert_eq!(snap.tenants[0].dispatched, 2);
        assert_eq!(snap.tenants[1].tenant, 2);
        // Windows merged by start.
        assert_eq!(snap.windows.len(), 2);
        assert_eq!(snap.windows[0].dispatched, 1);
        assert_eq!(snap.windows[1].dispatched, 2);
        let j = snap.to_json();
        assert!(j.starts_with("{\n  \"schema_version\": 4,"));
        assert!(j.contains("\"backend\": \"multiqueue\""));
        assert!(j.contains("\"tenant\": 1"));
        assert!(j.contains("\"rank_samples\": 1"));
        assert!(j.contains("\"windows\": ["));
        // The wait accounting: summed in the totals, per shard below.
        assert_eq!(snap.waits().coalesced, 3);
        let waits = |parks, coalesced, drains, drained| {
            format!(
                "\"waits\": {{\"parks\": {parks}, \"poll_hits\": 0, \"poll_misses\": 0, \
                 \"coalesced\": {coalesced}, \"drains\": {drains}, \"drained\": {drained}}}"
            )
        };
        assert_eq!(j.matches(&waits(1, 3, 3, 5)).count(), 1, "totals: {j}");
        assert_eq!(j.matches(&waits(1, 2, 3, 5)).count(), 1, "shard 0: {j}");
        assert_eq!(j.matches(&waits(0, 1, 0, 0)).count(), 1, "shard 1: {j}");
    }
}
