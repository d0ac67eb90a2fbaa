//! The sharded scheduler: N shards, each a priority queue plus one
//! supervised dispatcher thread, behind admission control, overload
//! shedding, and a tenant router.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use funnelpq::obs::{NoopRecorder, Recorder};
use funnelpq::{PqBuilder, PqConfig};
use funnelpq_util::{Acc, CachePadded};

use crate::admission::Admission;
use crate::error::{AdmitError, ServerError};
use crate::job::{Deadline, Job, JobId, JobSpec, TenantId};
use crate::router::Router;
use crate::seam::{Seam, SeamHandler};
use crate::shard::{DispatchRecord, Refused, Shard, ShardReport};
use crate::supervise::{panic_message, StopOutcome, StopReport, SuperviseConfig};
use crate::telemetry::{ShardTelemetry, TelemetrySnapshot, RANK_SAMPLE_PERIOD};

/// How many dispatches a dispatcher folds into one published dispatch-rate
/// estimate (the denominator of the shed check's drain-time projection).
const RATE_WINDOW: u64 = 32;

/// The idle poll window's first step up from zero, and its ceiling. Above
/// the ceiling a park (a futex wake plus a reschedule, tens of µs on a VM)
/// is cheaper than the core the spin burns.
const POLL_START_NS: u64 = 10_000;
const POLL_MAX_NS: u64 = 50_000;

/// How long the dispatcher lets a backlog smaller than `drain_batch` grow
/// before draining it anyway, and the arrival gap below which it waits at
/// all (see [`ArrivalGap`]).
const COALESCE_NS: u64 = 2_000;

/// The dispatcher's estimate of how far apart jobs land on its shard,
/// learnt from the [`Job::enqueued_ns`] stamps of the batches it drains:
/// the newest stamp's advance over the previous batch's, per job drained,
/// smoothed over about four batches. It answers one question — is another
/// job due within [`COALESCE_NS`]? — and so whether a backlog smaller than
/// a batch is worth waiting on. Arrivals, not service: [`RateWindow`]
/// measures the other side.
#[derive(Default)]
struct ArrivalGap {
    /// The newest stamp filed so far.
    newest_ns: Option<u64>,
    /// Smoothed nanoseconds between arrivals; `None` until two batches.
    gap_ns: Option<u64>,
}

impl ArrivalGap {
    /// Files one drained batch of `jobs` jobs whose newest stamp is
    /// `newest_ns`. A stamp no newer than the last one filed (a batch of
    /// old jobs from deep in the queue, a failover requeue) says nothing
    /// about arrivals and is skipped.
    fn observe(&mut self, newest_ns: u64, jobs: u64) {
        if let Some(prev) = self.newest_ns {
            if newest_ns <= prev {
                return;
            }
            // Capped at twice the bound: a longer gap says "not due" just
            // as well, and an idle spell filed at full length would keep
            // the burst that ends it from coalescing for dozens of batches.
            let sample = ((newest_ns - prev) / jobs.max(1)).min(2 * COALESCE_NS);
            self.gap_ns = Some(self.gap_ns.map_or(sample, |g| (3 * g + sample) / 4));
        }
        self.newest_ns = Some(newest_ns);
    }

    /// Whether another job is expected within [`COALESCE_NS`]. True until
    /// a gap has been measured, so a fresh or restarted dispatcher
    /// coalesces.
    fn another_due(&self) -> bool {
        self.gap_ns.is_none_or(|g| g < COALESCE_NS)
    }
}

/// The dispatcher's busy-time accumulator behind [`Shard::rate_ns`]: mean
/// nanoseconds per dispatch over at least [`RATE_WINDOW`] dispatches,
/// fed whole episodes (drain + dispatch + pacing) and nothing else.
#[derive(Default)]
struct RateWindow {
    busy: Duration,
    dispatches: u64,
}

impl RateWindow {
    /// Adds one episode; returns the window's mean once it is full.
    fn add(&mut self, busy: Duration, dispatches: u64) -> Option<u64> {
        self.busy += busy;
        self.dispatches += dispatches;
        if self.dispatches < RATE_WINDOW {
            return None;
        }
        let per = self.busy.as_nanos() as u64 / self.dispatches;
        *self = RateWindow::default();
        Some(per)
    }
}

/// Deadline-aware load shedding knobs (see `docs/SERVER.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadConfig {
    /// When on, `submit` fast-fails jobs whose deadline is already
    /// unmeetable: the target shard's queue depth times its measured
    /// per-dispatch time exceeds the job's slack. The refusal is
    /// [`AdmitError::Retry`] with the server's drain-time estimate as a
    /// backpressure hint. Off by default.
    pub shed: bool,
    /// Extra slack (nanoseconds) a job must be short of before it is
    /// shed — headroom against estimate noise, so marginal jobs are
    /// admitted rather than bounced.
    pub margin_ns: u64,
}

/// Everything that shapes a [`Scheduler`], with workable defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shards (one queue + one dispatcher thread each).
    pub shards: usize,
    /// Number of tenants; tenant ids must lie in `0..tenants`.
    pub tenants: usize,
    /// Number of client (submitter) threads; each shard's queue is built
    /// with `clients + 2` thread slots — clients use their own id, the
    /// shard's dispatcher uses id `clients`, and id `clients + 1` is the
    /// recovery slot give-up failover inserts under (serialized by a
    /// scheduler-wide mutex).
    pub clients: usize,
    /// Number of deadline bands (= queue priorities). Deadlines within
    /// `0..horizon_ns` map linearly onto bands; later deadlines clamp to
    /// the last band.
    pub bands: usize,
    /// The deadline horizon the bands cover, in nanoseconds from the
    /// scheduler's epoch.
    pub horizon_ns: u64,
    /// Which queue algorithm (and its typed knobs) backs every shard.
    pub backend: PqConfig,
    /// How many jobs a dispatcher drains per `delete_min_batch` episode.
    pub drain_batch: usize,
    /// Global in-flight capacity across all tenants.
    pub global_capacity: usize,
    /// Per-tenant in-flight quota.
    pub tenant_quota: usize,
    /// Nominal per-job service time in nanoseconds. Dispatchers pace
    /// themselves at one job per `service_ns`, so the shard's virtual
    /// service clock tracks wall time and a deadline's slack is worth
    /// `(deadline - enqueue) / service_ns` dispatch slots. `1` effectively
    /// disables pacing (pure-throughput tests).
    pub service_ns: u64,
    /// Record a [`DispatchRecord`] per dispatch (conservation/ordering
    /// tests). Off by default: it grows a Vec per shard without bound.
    pub record_dispatches: bool,
    /// Width of one telemetry time-series window, in nanoseconds (the
    /// throughput/miss/depth series in [`TelemetrySnapshot`]).
    pub telemetry_window_ns: u64,
    /// Tenants to pin to explicit shards, overriding the hash placement.
    pub affinity: Vec<(TenantId, usize)>,
    /// Deadline-aware load shedding (off by default).
    pub overload: OverloadConfig,
    /// Dispatcher restart policy after panics.
    pub supervise: SuperviseConfig,
    /// The handler the scheduler's [`Seam`]s call, for tests that step in
    /// at a protocol step (`None` in production: each seam then costs one
    /// presence test).
    pub seams: Option<SeamHandler>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            tenants: 16,
            clients: 4,
            bands: 256,
            horizon_ns: 5_000_000_000,
            backend: PqConfig::SingleLock,
            drain_batch: 16,
            global_capacity: 4096,
            tenant_quota: 256,
            service_ns: 10_000,
            record_dispatches: false,
            telemetry_window_ns: 100_000_000,
            affinity: Vec::new(),
            overload: OverloadConfig::default(),
            supervise: SuperviseConfig::default(),
            seams: None,
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> Result<(), ServerError> {
        let reason = if self.shards == 0 {
            "shards must be >= 1"
        } else if self.tenants == 0 {
            "tenants must be >= 1"
        } else if self.clients == 0 {
            "clients must be >= 1"
        } else if self.bands == 0 {
            "bands must be >= 1"
        } else if self.horizon_ns == 0 {
            "horizon_ns must be >= 1"
        } else if self.drain_batch == 0 {
            "drain_batch must be >= 1"
        } else if self.global_capacity == 0 {
            "global_capacity must be >= 1"
        } else if self.tenant_quota == 0 {
            "tenant_quota must be >= 1"
        } else if self.service_ns == 0 {
            "service_ns must be >= 1"
        } else if self.telemetry_window_ns == 0 {
            "telemetry_window_ns must be >= 1"
        } else if self
            .affinity
            .iter()
            .any(|(t, s)| *s >= self.shards || t.0 as usize >= self.tenants)
        {
            "affinity pin out of range"
        } else if self.supervise.backoff_max_ns < self.supervise.backoff_base_ns {
            "supervise backoff_max_ns must be >= backoff_base_ns"
        } else {
            return Ok(());
        };
        Err(ServerError::Config { reason })
    }
}

/// What a stopped scheduler hands back: the dispatchers' own reports, the
/// admission tallies, and the totals of one final telemetry snapshot
/// (`dispatched`, `misses`, `restarts`, `requeued`, `shed`, `latency_ns`).
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// Per-shard reports, indexed by shard.
    pub shards: Vec<ShardReport>,
    /// Per-shard stop outcomes — [`Scheduler::stop`] reports dispatcher
    /// panics here instead of re-raising them.
    pub stops: Vec<StopReport>,
    /// Jobs submitted (including rejected ones).
    pub submitted: u64,
    /// Jobs admitted past quota + capacity and taken by a shard's queue (a
    /// job the backend or a dark shard refuses after admission is not).
    pub admitted: u64,
    /// Jobs refused for per-tenant quota.
    pub rejected_quota: u64,
    /// Jobs refused for global capacity.
    pub rejected_capacity: u64,
    /// Total dispatches across shards (each periodic firing counts).
    pub dispatched: u64,
    /// Jobs fully completed (periodic jobs count once, on their last
    /// firing). Equals `admitted` once the system is quiesced.
    pub completed: u64,
    /// Dispatches that missed their deadline on the virtual service clock.
    pub misses: u64,
    /// Dispatcher panics across shards (injected or genuine).
    pub panics: u64,
    /// Supervisor restarts across shards.
    pub restarts: u64,
    /// Jobs requeued after panics across shards.
    pub requeued: u64,
    /// Jobs lost across shards (give-up with no healthy shard left; their
    /// admission slots were released). The conservation contract becomes
    /// `admitted == completed + lost` at quiesce.
    pub lost: u64,
    /// Jobs shed at admission by overload control.
    pub shed: u64,
    /// Merged wall-clock enqueue→dispatch latency (nanoseconds).
    pub latency_ns: Acc,
    /// Wall-clock nanoseconds between `start()` and `stop()`.
    pub run_ns: u64,
    /// Jobs still admitted-but-undispatched at stop (0 when callers
    /// quiesce clients before stopping, as the conservation contract asks).
    pub in_flight_at_stop: u64,
}

impl ServerReport {
    /// Deadline-miss rate over all dispatches, in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.dispatched == 0 {
            0.0
        } else {
            self.misses as f64 / self.dispatched as f64
        }
    }
}

/// A sharded job scheduler over `funnelpq` priority queues.
///
/// Construction is fully typed: the backend arrives as a [`PqConfig`] and
/// every refusal — bad config, unbuildable queue, quota, capacity, shed —
/// is a [`ServerError`], never a panic. Each shard's dispatcher runs under
/// a supervisor that restarts it after panics (see [`SuperviseConfig`] and
/// `docs/SERVER.md`); [`Scheduler::stop`] reports per-shard outcomes
/// instead of re-raising.
///
/// Lifecycle: [`Scheduler::new`] → [`Scheduler::submit`] (any thread,
/// before or after) → [`Scheduler::start`] → quiesce clients →
/// [`Scheduler::stop`] → [`ServerReport`]. Submitting after `stop` has
/// begun returns [`ServerError::Stopped`] with the job.
pub struct Scheduler<R: Recorder = NoopRecorder> {
    core: Arc<Core>,
    next_id: CachePadded<AtomicU64>,
    handles: Mutex<Vec<JoinHandle<ShardReport>>>,
    started_at: Mutex<Option<Instant>>,
    /// The recorder type the shard queues were built with; the scheduler
    /// itself records nothing.
    recorder: PhantomData<fn() -> R>,
}

/// What the scheduler and its dispatchers share: one copy, behind one
/// `Arc`, so each decision made from it is written once.
struct Core {
    cfg: ServerConfig,
    shards: Vec<Arc<Shard>>,
    router: Router,
    admission: Admission,
    /// The clock [`Job::enqueued_ns`] and deadlines are stamped against.
    epoch: Instant,
    stopping: AtomicBool,
    /// Serializes every give-up failover insert: the recovery thread slot
    /// on each queue is shared by all supervisors, so only one may use it
    /// at a time.
    recovery: Mutex<()>,
}

impl Core {
    /// Nanoseconds since the epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A dispatcher's thread slot on its own shard's queue.
    fn dispatcher_tid(&self) -> usize {
        self.cfg.clients
    }

    /// The thread slot give-up failover inserts under, on any queue.
    fn recovery_tid(&self) -> usize {
        self.cfg.clients + 1
    }

    /// The band (queue priority) a deadline files under.
    fn band_of(&self, deadline_ns: u64) -> usize {
        let b = (deadline_ns as u128 * self.cfg.bands as u128) / self.cfg.horizon_ns as u128;
        (b as usize).min(self.cfg.bands - 1)
    }

    /// The first healthy shard at or clockwise after `start`, if any.
    fn healthy_from(&self, start: usize) -> Option<usize> {
        let n = self.shards.len();
        (0..n)
            .map(|k| (start + k) % n)
            // ORDERING: Acquire; partner is the SeqCst store in `give_up`.
            // The flag guards no data, and routing on it is advisory: a
            // submit that read it up just before it went down is turned back
            // by the SeqCst re-check in `Shard::enqueue`, whose partner is
            // the same store, and `place` re-routes it from there.
            .find(|&si| self.shards[si].healthy.load(Ordering::Acquire))
    }

    /// Enqueues `job` on shard `si`, moving on to the next healthy shard
    /// clockwise whenever the one it tries has gone dark under it.
    fn place(
        &self,
        mut si: usize,
        tid: usize,
        band: usize,
        mut job: Job,
    ) -> Result<(), ServerError> {
        loop {
            match self.shards[si].enqueue(tid, band, job) {
                Ok(()) => return Ok(()),
                Err(Refused::Queue(e)) => return Err(e.into()),
                Err(Refused::Dark(back)) => job = back,
            }
            si = match self.healthy_from(si) {
                Some(next) => next,
                None => return Err(ServerError::NoHealthyShard { job }),
            };
        }
    }
}

impl Scheduler<NoopRecorder> {
    /// Builds a scheduler with the default (zero-cost) recorder.
    pub fn new(cfg: ServerConfig) -> Result<Self, ServerError> {
        Scheduler::with_recorder(cfg, Arc::new(NoopRecorder))
    }
}

impl<R: Recorder> Scheduler<R> {
    /// Builds a scheduler whose shard queues feed `recorder`. The server's
    /// own facts (dispatches, misses, restarts, requeues, sheds) are filed
    /// in its telemetry, not in the recorder.
    pub fn with_recorder(cfg: ServerConfig, recorder: Arc<R>) -> Result<Self, ServerError> {
        cfg.validate()?;
        let mut shards = Vec::with_capacity(cfg.shards);
        for _ in 0..cfg.shards {
            // One thread slot per client, one for the dispatcher, one for
            // give-up recovery inserts from other shards' supervisors.
            let queue = PqBuilder::from_config(cfg.backend.clone(), cfg.bands, cfg.clients + 2)
                .recorder(Arc::clone(&recorder))
                .try_build::<Job>()?;
            shards.push(Arc::new(Shard::new(
                Arc::from(queue),
                ShardTelemetry::new(cfg.tenants, cfg.telemetry_window_ns),
            )));
        }
        let mut router = Router::new(cfg.shards, cfg.tenants);
        for (tenant, shard) in &cfg.affinity {
            router.pin(*tenant, *shard);
        }
        let admission = Admission::new(cfg.tenants, cfg.tenant_quota, cfg.global_capacity);
        Ok(Scheduler {
            core: Arc::new(Core {
                cfg,
                shards,
                router,
                admission,
                epoch: Instant::now(),
                stopping: AtomicBool::new(false),
                recovery: Mutex::new(()),
            }),
            next_id: CachePadded::new(AtomicU64::new(0)),
            handles: Mutex::new(Vec::new()),
            started_at: Mutex::new(None),
            recorder: PhantomData,
        })
    }

    /// Nanoseconds since this scheduler's epoch — the clock deadlines are
    /// expressed against.
    pub fn now_ns(&self) -> u64 {
        self.core.now_ns()
    }

    /// The shard that serves `tenant` (hash placement unless pinned).
    pub fn route(&self, tenant: TenantId) -> usize {
        self.core.router.route(tenant)
    }

    /// The configuration this scheduler was built from.
    pub fn config(&self) -> &ServerConfig {
        &self.core.cfg
    }

    /// Jobs currently admitted but not yet finally dispatched.
    pub fn in_flight(&self) -> usize {
        self.core.admission.in_flight()
    }

    /// Whether shard `shard`'s dispatcher is still serving (a shard goes
    /// dark only by exhausting its restart budget).
    pub fn shard_healthy(&self, shard: usize) -> bool {
        self.core
            .shards
            .get(shard)
            // ORDERING: Acquire, as in `healthy_from`.
            .is_some_and(|s| s.healthy.load(Ordering::Acquire))
    }

    /// Submits `spec` on behalf of client thread `client`
    /// (`0..config().clients`). Routes to the tenant's shard (failing over
    /// past dark shards), optionally sheds unmeetable deadlines, admits
    /// against quota and capacity, and files the job under its deadline
    /// band. Every refusal carries the stamped job back.
    pub fn submit(&self, client: usize, spec: JobSpec) -> Result<JobId, ServerError> {
        let core = &*self.core;
        if client >= core.cfg.clients {
            return Err(ServerError::Config {
                reason: "client id out of range",
            });
        }
        // Route, then fail over past dark shards: a tenant whose home
        // shard gave up is served by the next healthy shard clockwise.
        let routed = core.router.route(spec.tenant);
        // ORDERING: Relaxed; an id need only be unique, which the counter's
        // modification order gives every RMW.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let enqueued_ns = core.now_ns();
        // A relative deadline resolves against the enqueue stamp itself,
        // so the promised slack cannot be eroded by anything that happened
        // before the submit landed.
        let deadline_ns = match spec.deadline {
            Deadline::At(t) => t,
            Deadline::In(d) => enqueued_ns.saturating_add(d),
        };
        let stamp = |slot: u64| Job {
            id,
            tenant: spec.tenant,
            deadline_ns,
            payload: spec.payload,
            period_ns: spec.period_ns,
            repeats_left: spec.repeats,
            enqueued_ns,
            enqueued_slot: slot,
        };
        let si = match core.healthy_from(routed) {
            Some(si) => si,
            None => return Err(ServerError::NoHealthyShard { job: stamp(0) }),
        };
        if let Some(seams) = &core.cfg.seams {
            seams.fire(Seam::SubmitRouted { shard: si });
        }
        let shard = &core.shards[si];
        // ORDERING: Acquire; partner is the Release store in `dispatch`.
        // Only the value is used — a reading of the virtual service clock,
        // monotone by coherence alone — so this is stronger than it needs.
        let job = stamp(shard.dispatched.load(Ordering::Acquire));
        // ORDERING: Acquire; partner is the Release store in `stop`. A submit
        // that misses the flag races the stop and is counted in
        // `in_flight_at_stop` (callers quiesce clients first).
        if core.stopping.load(Ordering::Acquire) {
            return Err(ServerError::Stopped { job });
        }
        if core.cfg.overload.shed {
            if let Some(after_ns) = self.shed_check(shard, &job) {
                // ORDERING: Relaxed, a statistic.
                shard.shed.fetch_add(1, Ordering::Relaxed);
                return Err(AdmitError::Retry { after_ns, job }.into());
            }
        }
        core.admission.try_admit(job)?;
        let band = core.band_of(job.deadline_ns);
        if let Err(e) = core.place(si, client, band, job) {
            core.admission.release(&mut vec![job.tenant.0 as usize]);
            return Err(e);
        }
        core.admission.count_admitted();
        Ok(id)
    }

    /// Projects the shard's drain time against the job's slack; returns
    /// the retry hint when the deadline is unmeetable. The projection is
    /// `depth × per-dispatch time`: every queued job is ahead of this one
    /// in the worst case (same band or earlier), and the per-dispatch time
    /// is the dispatcher's own windowed measurement, never better than the
    /// configured pacing floor.
    fn shed_check(&self, shard: &Shard, job: &Job) -> Option<u64> {
        let depth = shard.depth();
        // ORDERING: Relaxed; partner is the Relaxed store in `run_episodes`.
        // An estimate: any recently published value will do.
        let published = shard.rate_ns.load(Ordering::Relaxed);
        let cfg = &self.core.cfg;
        let rate_ns = if published == 0 {
            cfg.service_ns
        } else {
            published.max(cfg.service_ns)
        };
        let est_wait = depth.saturating_mul(rate_ns);
        let slack = job.deadline_ns.saturating_sub(job.enqueued_ns);
        if est_wait > slack.saturating_add(cfg.overload.margin_ns) {
            Some(est_wait - slack)
        } else {
            None
        }
    }

    /// Takes a live telemetry snapshot: per-shard and per-tenant
    /// histograms, the windowed time-series, queue depths, shed/restart
    /// counts, and the sampled rank-error estimate. Safe to call at any
    /// point in the lifecycle, including while dispatchers run (each
    /// shard's cell is read under a briefly-held lock; cross-shard totals
    /// may be a few dispatches apart).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let at_ns = self.now_ns();
        let per_shard = self
            .core
            .shards
            .iter()
            .map(|s| {
                (
                    s.telemetry_cell().clone(),
                    s.depth(),
                    // ORDERING: Relaxed, a statistic.
                    s.shed.load(Ordering::Relaxed),
                    s.queue.adaptive_stats(),
                )
            })
            .collect();
        TelemetrySnapshot::assemble(
            at_ns,
            self.core.cfg.backend.algorithm().name(),
            self.core.cfg.telemetry_window_ns,
            per_shard,
        )
    }

    /// Spawns one supervised dispatcher thread per shard. Idempotent:
    /// calling again while running is a no-op.
    pub fn start(&self) {
        let mut handles = self.handles.lock().unwrap();
        if !handles.is_empty() {
            return;
        }
        *self.started_at.lock().unwrap() = Some(Instant::now());
        for (i, shard) in self.core.shards.iter().enumerate() {
            let ctx = Dispatcher {
                core: Arc::clone(&self.core),
                shard: Arc::clone(shard),
                index: i,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("funnelpq-shard-{i}"))
                    .spawn(move || ctx.run())
                    .expect("spawn dispatcher thread"),
            );
        }
    }

    /// Stops the dispatchers, collects their reports and takes one final
    /// telemetry snapshot for the report's totals. Never panics:
    /// dispatcher panics were already absorbed by each shard's supervisor,
    /// and each shard's ending is reported as a typed
    /// [`StopReport`] in [`ServerReport::stops`]. Callers should quiesce
    /// client threads first (the conservation contract
    /// `admitted == completed + lost` holds only once no submits race the
    /// stop); anything still queued is counted in
    /// [`ServerReport::in_flight_at_stop`].
    pub fn stop(&self) -> ServerReport {
        // ORDERING: Release; partners are the Acquire loads in `submit`
        // and the dispatch loop. The flag publishes no data; a parked
        // dispatcher sees it because the unpark below synchronizes with the
        // return from its park.
        self.core.stopping.store(true, Ordering::Release);
        // Unconditionally: a dispatcher that read the flag down and is
        // about to park keeps the token and returns from that park at once.
        for shard in &self.core.shards {
            shard.unpark();
        }
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        let run_ns = self
            .started_at
            .lock()
            .unwrap()
            .take()
            .map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut report = ServerReport {
            // ORDERING: Relaxed, a statistic; exact once the caller has
            // quiesced (joined) its clients.
            submitted: self.next_id.load(Ordering::Relaxed),
            admitted: self.core.admission.admitted(),
            rejected_quota: self.core.admission.rejected_quota(),
            rejected_capacity: self.core.admission.rejected_capacity(),
            run_ns,
            ..ServerReport::default()
        };
        let joined: Vec<_> = handles.into_iter().map(JoinHandle::join).collect();
        // Every dispatcher has exited, so the cells are final.
        let t = self.telemetry();
        report.dispatched = t.dispatched();
        report.misses = t.misses();
        report.restarts = t.restarts();
        report.requeued = t.requeued();
        report.shed = t.shed();
        for shard in &t.shards {
            report.latency_ns.merge(&shard.latency_ns);
        }
        for (i, joined) in joined.into_iter().enumerate() {
            match joined {
                Ok(s) => {
                    report.completed += s.completed;
                    report.panics += s.panics;
                    report.lost += s.lost;
                    let cell = &t.shards[s.shard];
                    // At most `max_restarts`, a u32.
                    let restarts = cell.restarts as u32;
                    let outcome = if s.gave_up {
                        StopOutcome::GaveUp {
                            restarts,
                            requeued: cell.requeued,
                            lost: s.lost,
                            last_panic: s.last_panic.clone().unwrap_or_default(),
                        }
                    } else if s.panics > 0 {
                        StopOutcome::Recovered {
                            restarts,
                            requeued: cell.requeued,
                            last_panic: s.last_panic.clone().unwrap_or_default(),
                        }
                    } else {
                        StopOutcome::Clean
                    };
                    report.stops.push(StopReport {
                        shard: s.shard,
                        outcome,
                    });
                    report.shards.push(s);
                }
                // The supervisor itself died (its catch_unwind ring never
                // lets a dispatcher panic out, so this is a supervisor
                // bug): report it, do not re-raise.
                Err(payload) => report.stops.push(StopReport {
                    shard: i,
                    outcome: StopOutcome::SupervisorLost {
                        message: panic_message(payload.as_ref()),
                    },
                }),
            }
        }
        report.in_flight_at_stop = self.core.admission.in_flight() as u64;
        report
    }
}

/// Dispatch-loop state kept *outside* the supervisor's `catch_unwind` so a
/// panic cannot take drained-but-undispatched jobs down with the stack:
/// `out[cursor..]` are exactly the survivors the supervisor must requeue;
/// `finished` has one tenant per completed job whose slot is still owed.
struct EpisodeState {
    out: Vec<(usize, Job)>,
    cursor: usize,
    episode: u64,
    finished: Vec<usize>,
}

/// One dispatcher thread: the shared [`Core`] plus what is its own.
struct Dispatcher {
    core: Arc<Core>,
    /// `core.shards[index]`, held directly: the dispatch loop's shard.
    shard: Arc<Shard>,
    index: usize,
}

impl Dispatcher {
    /// The supervisor: runs the dispatch loop under `catch_unwind`,
    /// requeues panic survivors, restarts with bounded exponential backoff
    /// up to the budget, then fails the shard over to healthy peers.
    fn run(self) -> ShardReport {
        let drain = self.core.cfg.drain_batch;
        let mut report = ShardReport::new(self.index);
        let mut state = EpisodeState {
            out: Vec::with_capacity(drain * 2),
            cursor: 0,
            episode: 0,
            finished: Vec::with_capacity(drain),
        };
        loop {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                self.run_episodes(&mut report, &mut state)
            }));
            let payload = match caught {
                Ok(()) => return report,
                Err(p) => p,
            };
            report.panics += 1;
            report.last_panic = Some(panic_message(payload.as_ref()));
            drop(payload);
            self.core.admission.release(&mut state.finished);
            // Jobs the dead incarnation had drained but not yet dispatched.
            let survivors = state.out.split_off(state.cursor.min(state.out.len()));
            state.out.clear();
            state.cursor = 0;
            let restarts = self.shard.telemetry_cell().restarts;
            if restarts < u64::from(self.core.cfg.supervise.max_restarts) {
                self.restart(&mut report, survivors);
            } else {
                self.give_up(&mut report, survivors);
                return report;
            }
        }
    }

    /// Restart path: survivors go back into this shard's own queue (its
    /// dispatcher slot is free — the dispatcher is us), then the loop
    /// re-enters after backoff.
    fn restart(&self, report: &mut ShardReport, survivors: Vec<(usize, Job)>) {
        let core = &*self.core;
        let mut requeued = 0u64;
        for (band, job) in survivors {
            if self.shard.enqueue(core.dispatcher_tid(), band, job).is_ok() {
                requeued += 1;
            } else {
                core.admission.release(&mut vec![job.tenant.0 as usize]);
                report.lost += 1;
            }
        }
        let restarts = {
            let mut t = self.shard.telemetry_cell();
            t.restarts += 1;
            t.requeued += requeued;
            t.restarts
        };
        std::thread::sleep(Duration::from_nanos(
            core.cfg.supervise.backoff_ns(restarts),
        ));
    }

    /// Give-up path: the restart budget is spent. Mark the shard dark so
    /// submitters route around it, drain until the depth gauge reads zero
    /// (so every insert that raced the mark has landed and been taken), and
    /// hand each job to the first healthy shard clockwise from its home
    /// placement — through the shared recovery thread slot, serialized by
    /// the recovery mutex. Jobs with nowhere to go are released and
    /// reported lost.
    fn give_up(&self, report: &mut ShardReport, survivors: Vec<(usize, Job)>) {
        let core = &*self.core;
        report.gave_up = true;
        // ORDERING: SeqCst, the give-up's Dekker store; partners are the
        // SeqCst re-check in `Shard::enqueue`, which from here on refuses
        // (so no insert lands after the gauge below reads zero), and the
        // Acquire load in `healthy_from`, which skips this shard.
        self.shard.healthy.store(false, Ordering::SeqCst);
        let mut pending = survivors;
        let drain = core.cfg.drain_batch;
        let mut drained: Vec<(usize, Job)> = Vec::with_capacity(drain);
        loop {
            drained.clear();
            let got = self
                .shard
                .queue
                .delete_min_batch(core.dispatcher_tid(), drain, &mut drained);
            if got == 0 {
                // ORDERING: SeqCst, the give-up's Dekker load; partner is the
                // gauge `fetch_add` in `Shard::enqueue`. An enqueue that saw
                // the shard healthy bumped the gauge before this load, so it
                // reads above zero until that job is drained here.
                if self.shard.enqueued.load(Ordering::SeqCst) == 0 {
                    break;
                }
                // An enqueue is between its bump and its insert (or rollback).
                std::thread::yield_now();
                continue;
            }
            // ORDERING: Relaxed, as in `run_episodes`.
            self.shard.enqueued.fetch_sub(got as u64, Ordering::Relaxed);
            pending.append(&mut drained);
        }
        if let Some(seams) = &core.cfg.seams {
            seams.fire(Seam::GiveUpDrained { shard: self.index });
        }
        let mut requeued = 0u64;
        let tid = core.recovery_tid();
        let _recovery = match core.recovery.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        for (band, job) in pending {
            let placed = core
                .healthy_from(core.router.route(job.tenant))
                .is_some_and(|si| core.place(si, tid, band, job).is_ok());
            if placed {
                requeued += 1;
            } else {
                core.admission.release(&mut vec![job.tenant.0 as usize]);
                report.lost += 1;
            }
        }
        self.shard.telemetry_cell().requeued += requeued;
    }

    /// The dispatcher loop proper: wait for work (poll → coalesce → park,
    /// see [`Self::idle_wait`] and [`Self::coalesce`]; it coalesces only
    /// while the [`ArrivalGap`] learnt from drained stamps says another job
    /// is due), drain a batch, account each job, re-arm periodic ones via
    /// the fused `replace_min`, pace at `service_ns` per job, and settle —
    /// sample depth, free the finished jobs' admission slots — once per
    /// `drain` dispatches, under one telemetry guard that is let go before
    /// anything that can block. Once the stop flag is up it stops waiting
    /// and returns on the first empty drain. Runs inside the supervisor's
    /// `catch_unwind`; all loop state that must survive a panic lives in
    /// `state` (the arrival estimate does not: a restart starts afresh).
    fn run_episodes(&self, report: &mut ShardReport, state: &mut EpisodeState) {
        let core = &*self.core;
        let drain = core.cfg.drain_batch;
        let service_ns = core.cfg.service_ns;
        let tid = core.dispatcher_tid();
        self.shard.attach_dispatcher();
        // Rank-error sampling only makes sense when a drain batch is an
        // en-bloc snapshot of the queue (see `telemetry` module docs).
        let track_rank = self.shard.queue.ordered_batch_drain();
        // The pacing clock: each dispatch pushes it service_ns further out,
        // and we spin up to it, so sustained throughput is one job per
        // service_ns and the virtual clock tracks wall time.
        let mut next_ready = core.now_ns();
        let mut rate = RateWindow::default();
        let mut arrivals = ArrivalGap::default();
        // Coalesce windows not yet filed: filed with the next drain, under
        // its telemetry guard.
        let mut coalesced = 0u64;
        let mut poll_ns = 0;
        loop {
            // ORDERING: Acquire; partner is the Release store in `stop`.
            let stopping = core.stopping.load(Ordering::Acquire);
            if !stopping {
                let depth = self.shard.depth();
                if depth == 0 {
                    self.idle_wait(&mut poll_ns);
                    next_ready = core.now_ns();
                    continue;
                }
                if depth < drain as u64 && arrivals.another_due() {
                    self.coalesce(drain);
                    coalesced += 1;
                }
            }
            state.out.clear();
            state.cursor = 0;
            // The rate window sees only drain + dispatch + pacing, never
            // the waits above: an idle gap must not read as slow service.
            let busy = Instant::now();
            let got = self
                .shard
                .queue
                .delete_min_batch(tid, drain, &mut state.out);
            if got == 0 {
                if stopping {
                    return;
                }
                // Depth says non-empty but nothing could be taken: a
                // submitter is between its depth bump and its insert.
                std::thread::yield_now();
                continue;
            }
            // ORDERING: Relaxed, as every decrement of the gauge: it guards no
            // data; the park handshake orders itself (`Shard::enqueue`).
            self.shard.enqueued.fetch_sub(got as u64, Ordering::Relaxed);
            state.episode += 1;
            if let Some(newest) = state.out[..got].iter().map(|(_, j)| j.enqueued_ns).max() {
                arrivals.observe(newest, got as u64);
            }
            // The telemetry guard: uncontended except against an occasional
            // snapshot reader, and `None` while the dispatcher may block.
            let mut held = None;
            let t = held.get_or_insert_with(|| self.shard.telemetry_cell());
            t.waits.drains += 1;
            t.waits.drained += got as u64;
            t.waits.coalesced += std::mem::take(&mut coalesced);
            if track_rank && state.episode.is_multiple_of(RANK_SAMPLE_PERIOD) && got >= 2 {
                // Score the batch before the index-walk below:
                // replace_min re-arms append to `out`, and those
                // entries are not part of the drained snapshot.
                t.record_rank_sample(&state.out[..got]);
            }
            // replace_min below may append the entry it popped; index-walk
            // so those are dispatched in the same episode. The cursor only
            // advances once a job is fully dispatched, so on a panic
            // `out[cursor..]` — including the job in hand — survives.
            while state.cursor < state.out.len() {
                let (_band, job) = state.out[state.cursor];
                if let Some(seams) = &core.cfg.seams {
                    // Before any accounting, so a panic here loses nothing,
                    // and with the telemetry guard let go: the handler may
                    // block.
                    held = None;
                    // ORDERING: Relaxed; this thread is the counter's only
                    // writer and reads its own last store.
                    let n = self.shard.dispatched.load(Ordering::Relaxed);
                    seams.fire(Seam::DispatchJob {
                        shard: self.index,
                        n,
                    });
                }
                let t = held.get_or_insert_with(|| self.shard.telemetry_cell());
                let now = self.dispatch(job, service_ns, report, state, t);
                state.cursor += 1;
                next_ready += service_ns;
                if state.cursor == state.out.len() || state.cursor.is_multiple_of(drain) {
                    // The depth series is last-write-wins per window.
                    t.windows.record_depth(now, self.shard.depth());
                    held = None;
                    core.admission.release(&mut state.finished);
                }
                // No second clock read when backlogged: `dispatch`'s decides.
                if now < next_ready {
                    held = None;
                    self.pace(next_ready);
                }
            }
            if let Some(per) = rate.add(busy.elapsed(), state.cursor as u64) {
                let per = per.clamp(service_ns, service_ns.saturating_mul(1024));
                // ORDERING: Relaxed; partner is the load in `shed_check`.
                self.shard.rate_ns.store(per, Ordering::Relaxed);
            }
        }
    }

    /// The queue is empty. **Poll** the lock-free depth gauge for the
    /// self-tuned window `poll_ns`, then **park** until a submitter (or
    /// `stop`) unparks us. The window adapts the way KVM's halt-polling
    /// does: it doubles (from [`POLL_START_NS`], up to [`POLL_MAX_NS`])
    /// whenever polling found work or would have — a park that ended
    /// within `POLL_MAX_NS` — and collapses to zero the moment a poll
    /// expires empty. So a steady stream is picked up within a cache miss,
    /// an idle shard costs nothing, and on a host with fewer cores than
    /// busy threads (where our spinning is what keeps the submitter off
    /// the CPU, so polls expire) we degrade to parking.
    fn idle_wait(&self, poll_ns: &mut u64) {
        let grown = |poll_ns: u64| (poll_ns * 2).clamp(POLL_START_NS, POLL_MAX_NS);
        let began = Instant::now();
        if *poll_ns > 0 {
            let window = Duration::from_nanos(*poll_ns);
            let hit = loop {
                // ORDERING: Acquire; partner is the Release store in `stop`.
                if self.shard.depth() > 0 || self.core.stopping.load(Ordering::Acquire) {
                    break true;
                }
                if began.elapsed() >= window {
                    break false;
                }
                std::hint::spin_loop();
            };
            if hit {
                *poll_ns = grown(*poll_ns);
                self.shard.telemetry_cell().waits.poll_hits += 1;
                return;
            }
            *poll_ns = 0;
            self.shard.telemetry_cell().waits.poll_misses += 1;
        }
        // Counted before blocking so an idle server's snapshot shows it.
        self.shard.telemetry_cell().waits.parks += 1;
        if self.shard.park_while_empty() && began.elapsed() < Duration::from_nanos(POLL_MAX_NS) {
            *poll_ns = grown(*poll_ns);
        }
    }

    /// The queue holds less than one drain batch and [`ArrivalGap`] says
    /// another job is due. Wait — at most [`COALESCE_NS`] — for the batch
    /// to fill, so a producer running flat out is drained a batch per lock
    /// hold instead of a job per lock hold and the two stop colliding on
    /// the queue lock. A job that arrives alone on a sparse stream does not
    /// come here: it is drained at once. The bound is what a job pays when
    /// the estimate says company is coming and it does not come (a burst
    /// that just ended, a fresh dispatcher that has measured nothing yet).
    fn coalesce(&self, drain: usize) {
        let began = Instant::now();
        while self.shard.depth() < drain as u64
            && began.elapsed() < Duration::from_nanos(COALESCE_NS)
            // ORDERING: Acquire; partner is the Release store in `stop`.
            && !self.core.stopping.load(Ordering::Acquire)
        {
            std::hint::spin_loop();
        }
    }

    /// Accounts one job, re-arms or finishes it; returns the clock it read.
    fn dispatch(
        &self,
        job: Job,
        service_ns: u64,
        report: &mut ShardReport,
        state: &mut EpisodeState,
        t: &mut ShardTelemetry,
    ) -> u64 {
        let core = &*self.core;
        // This thread is the clock's only writer, so a load and a store
        // advance it: unlike a locked RMW, the store does not stall the
        // dispatcher while the line comes back from the submitter that
        // last read it.
        // ORDERING: Relaxed load of this thread's own last store; Release
        // store, whose partners are the Acquire loads that stamp
        // `enqueued_slot`. The clock publishes no data: only its value is
        // read, so this is stronger than it needs.
        let pre = self.shard.dispatched.load(Ordering::Relaxed);
        self.shard.dispatched.store(pre + 1, Ordering::Release);
        let now = core.now_ns();
        let latency = now.saturating_sub(job.enqueued_ns);
        let delay = pre.saturating_sub(job.enqueued_slot);
        let slack = job.deadline_ns.saturating_sub(job.enqueued_ns) / service_ns;
        // A miss must be late on BOTH clocks. Virtual-only lateness can be
        // manufactured by a client stalling between stamping the job and
        // finishing the insert (dispatches pass, slack doesn't move);
        // wall-only lateness by the dispatcher itself being preempted (the
        // virtual clock freezes with it). The conjunction leaves exactly
        // the backend-caused lateness: queueing and ordering error.
        let missed = delay > slack && now > job.deadline_ns;
        if core.cfg.record_dispatches {
            report.dispatch_log.push(DispatchRecord {
                job: job.id,
                tenant: job.tenant,
                band: core.band_of(job.deadline_ns),
                deadline_ns: job.deadline_ns,
                missed,
            });
        }
        t.record_dispatch(&job, now, latency, missed);
        // ORDERING: Acquire; partner is the Release store in `stop`.
        let rearm =
            job.period_ns > 0 && job.repeats_left > 0 && !core.stopping.load(Ordering::Acquire);
        if rearm {
            // Fixed-rate while on time, fixed-delay once late: re-arming
            // from max(deadline, now) keeps every firing's slack at least
            // one full period, so a host stall cannot manufacture a string
            // of impossible deadlines (no thundering catch-up).
            let next = Job {
                deadline_ns: job.deadline_ns.max(now).saturating_add(job.period_ns),
                repeats_left: job.repeats_left - 1,
                enqueued_ns: now,
                // ORDERING: Acquire, as the submit-side stamp; this thread is
                // the only writer, so it reads its own `fetch_add` above.
                enqueued_slot: self.shard.dispatched.load(Ordering::Acquire),
                ..job
            };
            // Fused fast path: the re-insert and the next delete-min share
            // one synchronization episode; whatever it popped joins the
            // in-progress batch.
            let band = core.band_of(next.deadline_ns);
            // ORDERING: Relaxed, unlike the SeqCst bump in `Shard::enqueue`:
            // that one is half of the park handshake, and the only thread
            // this insert could owe a wake-up is this one.
            self.shard.enqueued.fetch_add(1, Ordering::Relaxed);
            let tid = core.dispatcher_tid();
            if let Some(popped) = self.shard.queue.replace_min(tid, band, next) {
                // The popped job left the queue and joins this episode's
                // batch, so the re-arm was depth-neutral.
                // ORDERING: Relaxed, as every decrement of the gauge.
                self.shard.enqueued.fetch_sub(1, Ordering::Relaxed);
                state.out.push(popped);
            }
        } else {
            report.completed += 1;
            state.finished.push(job.tenant.0 as usize);
        }
        now
    }

    /// Wait until `deadline_ns` on the epoch clock. Sleeps for long waits
    /// and yields for short ones rather than spinning: pacing only needs
    /// the *rate* to be right (the virtual clock counts dispatches, not
    /// nanoseconds), and a spinning dispatcher would starve every other
    /// thread on low-core machines. Sleep overshoot self-corrects — the
    /// pacing clock's `+= service_ns` lets a late dispatcher catch up.
    fn pace(&self, deadline_ns: u64) {
        loop {
            let remaining = deadline_ns.saturating_sub(self.core.now_ns());
            if remaining == 0 {
                return;
            }
            if remaining > 100_000 {
                std::thread::sleep(Duration::from_nanos(remaining));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq::{HuntConfig, MultiQueueConfig, PqError};

    fn tiny_cfg() -> ServerConfig {
        ServerConfig {
            shards: 2,
            tenants: 4,
            clients: 2,
            bands: 64,
            horizon_ns: 1_000_000_000,
            service_ns: 1,
            global_capacity: 1024,
            tenant_quota: 512,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn config_validation_is_typed_not_panicky() {
        let bad = ServerConfig {
            shards: 0,
            ..ServerConfig::default()
        };
        assert!(matches!(
            Scheduler::new(bad),
            Err(ServerError::Config { .. })
        ));
        // An affinity pin to a shard, or for a tenant, out of range.
        for affinity in [vec![(TenantId(0), 9)], vec![(TenantId(16), 0)]] {
            let bad = ServerConfig {
                affinity,
                ..ServerConfig::default()
            };
            assert!(matches!(
                Scheduler::new(bad),
                Err(ServerError::Config { .. })
            ));
        }
        // A degenerate backend config surfaces as a build error.
        let bad = ServerConfig {
            backend: PqConfig::MultiQueue(MultiQueueConfig {
                factor: 0,
                ..MultiQueueConfig::default()
            }),
            ..ServerConfig::default()
        };
        assert!(matches!(Scheduler::new(bad), Err(ServerError::Build(_))));
        // An inverted supervision backoff range.
        let bad = ServerConfig {
            supervise: SuperviseConfig {
                backoff_base_ns: 1_000,
                backoff_max_ns: 10,
                ..SuperviseConfig::default()
            },
            ..ServerConfig::default()
        };
        assert!(matches!(
            Scheduler::new(bad),
            Err(ServerError::Config { .. })
        ));
    }

    /// A backend that refuses an insert — a HuntEtAl heap at its item
    /// capacity, below the scheduler's — hands the job back in
    /// `ServerError::Queue`, and frees the admission slot and the tenant
    /// quota the job had taken: every refusal leaves the counts where they
    /// were.
    #[test]
    fn a_backend_refusal_hands_the_job_back_and_frees_its_slot() {
        const HEAP: usize = 8;
        let s = Scheduler::new(ServerConfig {
            shards: 1,
            backend: PqConfig::HuntEtAl(HuntConfig { capacity: HEAP }),
            ..tiny_cfg()
        })
        .unwrap();
        assert!(HEAP < s.config().global_capacity && HEAP < s.config().tenant_quota);
        let now = s.now_ns();
        let spec = |k| JobSpec::once(TenantId(1), Deadline::At(now + 1_000_000), k);
        for k in 0..HEAP as u64 {
            s.submit(0, spec(k)).unwrap();
        }
        for k in 100..103 {
            match s.submit(0, spec(k)) {
                Err(ServerError::Queue(PqError::CapacityExhausted { item })) => {
                    assert_eq!((item.tenant, item.payload), (TenantId(1), k));
                }
                other => panic!("submit {k} past the heap's capacity: {other:?}"),
            }
            assert_eq!(s.in_flight(), HEAP);
            assert_eq!(s.core.admission.tenant_in_flight(1), HEAP);
            assert_eq!(s.core.admission.admitted(), HEAP as u64);
        }
    }

    #[test]
    fn one_shot_jobs_round_trip() {
        let s = Scheduler::new(tiny_cfg()).unwrap();
        let now = s.now_ns();
        for t in 0..4 {
            for k in 0..25 {
                s.submit(
                    0,
                    JobSpec::once(TenantId(t), Deadline::At(now + 1_000_000 + k), k),
                )
                .unwrap();
            }
        }
        s.start();
        while s.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let r = s.stop();
        assert_eq!(r.submitted, 100);
        assert_eq!(r.admitted, 100);
        assert_eq!(r.dispatched, 100);
        assert_eq!(r.completed, 100);
        assert_eq!(r.in_flight_at_stop, 0);
        assert_eq!(r.latency_ns.count(), 100);
        assert_eq!(r.panics, 0);
        assert_eq!(r.lost, 0);
        assert!(r.stops.iter().all(|s| s.outcome.is_clean()));
    }

    #[test]
    fn periodic_jobs_rearm_and_release_once() {
        let s = Scheduler::new(tiny_cfg()).unwrap();
        let now = s.now_ns();
        // 3 firings each: first deadline + 2 repeats.
        for k in 0..10 {
            s.submit(
                0,
                JobSpec::periodic(TenantId(0), Deadline::At(now + 10_000), k, 1_000, 2),
            )
            .unwrap();
        }
        s.start();
        while s.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let r = s.stop();
        assert_eq!(r.admitted, 10);
        assert_eq!(r.completed, 10, "a periodic job completes exactly once");
        assert_eq!(r.dispatched, 30, "3 firings each");
    }

    /// Slots are freed a drained batch at a time, and a batch a periodic
    /// job keeps extending (each re-arm pops one more) is settled every
    /// `drain_batch` dispatches — none of which may free the slot of a job
    /// that re-armed.
    #[test]
    fn a_periodic_job_holds_its_slot_across_rearms_and_frees_it_once() {
        const FIRINGS: u64 = 400;
        let s = Scheduler::new(ServerConfig {
            shards: 1,
            tenant_quota: 1,
            drain_batch: 4,
            service_ns: 100_000,
            ..tiny_cfg()
        })
        .unwrap();
        let timer = JobSpec::periodic(
            TenantId(0),
            Deadline::In(1_000_000),
            0,
            1_000,
            FIRINGS as u32 - 1,
        );
        s.submit(0, timer).unwrap();
        s.start();
        let mut witnessed = 0;
        loop {
            let before = s.telemetry().dispatched();
            let held = s.in_flight();
            if s.telemetry().dispatched() >= FIRINGS {
                break;
            }
            // The last firing had not been filed after `held` was read, so
            // the slot cannot have been given back yet.
            assert_eq!(held, 1, "slot freed after {before} of {FIRINGS} firings");
            witnessed += u64::from(before >= 1);
            std::thread::sleep(Duration::from_micros(500));
        }
        assert!(witnessed > 0, "never looked while the job was re-arming");
        while s.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Freed exactly once: a second release would have wrapped both.
        assert_eq!(s.core.admission.tenant_in_flight(0), 0);
        let r = s.stop();
        assert_eq!(r.dispatched, FIRINGS);
        assert_eq!(r.completed, 1);
        assert_eq!(r.in_flight_at_stop, 0);
    }

    #[test]
    fn submit_after_stop_returns_the_job() {
        let s = Scheduler::new(tiny_cfg()).unwrap();
        s.start();
        let _ = s.stop();
        let err = s
            .submit(0, JobSpec::once(TenantId(1), Deadline::In(1_000), 42))
            .unwrap_err();
        match err {
            ServerError::Stopped { job } => {
                assert_eq!(job.tenant, TenantId(1));
                assert_eq!(job.payload, 42);
            }
            other => panic!("expected Stopped, got {other:?}"),
        }
    }

    #[test]
    fn bands_clamp_to_the_horizon() {
        let s = Scheduler::new(tiny_cfg()).unwrap();
        assert_eq!(s.core.band_of(0), 0);
        assert_eq!(s.core.band_of(u64::MAX), 63);
    }

    #[test]
    fn stop_survives_an_injected_dispatcher_panic() {
        // Regression for the old `h.join().expect(...)` in stop(): a
        // dispatcher panic must surface as a typed StopOutcome, with the
        // panicked shard's jobs recovered, never as a stop()-time panic.
        let fired = [AtomicBool::new(false), AtomicBool::new(false)];
        let s = Scheduler::new(ServerConfig {
            // Each shard's dispatcher panics once, at its 6th dispatch.
            seams: Some(SeamHandler::new(move |seam| {
                if let Seam::DispatchJob { shard, n } = seam {
                    if n >= 5 && !fired[shard].swap(true, Ordering::Relaxed) {
                        panic!("injected: dispatcher panic at dispatch {n} on shard {shard}");
                    }
                }
            })),
            // Pin tenants so both shards are guaranteed traffic (and so
            // both panics are guaranteed to fire).
            affinity: vec![
                (TenantId(0), 0),
                (TenantId(1), 1),
                (TenantId(2), 0),
                (TenantId(3), 1),
            ],
            ..tiny_cfg()
        })
        .unwrap();
        let now = s.now_ns();
        for t in 0..4 {
            for k in 0..25 {
                s.submit(
                    0,
                    JobSpec::once(TenantId(t), Deadline::At(now + 100_000_000 + k), k),
                )
                .unwrap();
            }
        }
        s.start();
        while s.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let r = s.stop();
        assert_eq!(r.panics, 2, "both shards' panics fired");
        assert_eq!(r.restarts, 2);
        assert_eq!(r.completed, 100, "every admitted job still completed");
        assert_eq!(r.lost, 0);
        for stop in &r.stops {
            match &stop.outcome {
                StopOutcome::Recovered { last_panic, .. } => {
                    assert!(last_panic.contains("injected"), "got {last_panic:?}");
                }
                other => panic!("expected Recovered, got {other:?}"),
            }
        }
        // Telemetry agrees with the report.
        let t = s.telemetry();
        assert_eq!(t.restarts(), 2);
    }

    #[test]
    fn rate_window_publishes_mean_busy_time_per_dispatch() {
        let mut w = RateWindow::default();
        assert_eq!(w.add(Duration::from_nanos(16_000), 16), None);
        // The window closes on the episode that fills it, over all of it.
        assert_eq!(w.add(Duration::from_nanos(32_000), 24), Some(1_200));
        assert_eq!(w.add(Duration::from_nanos(1), 1), None, "and starts afresh");
    }

    /// Files one single-job batch per stamp.
    fn gap_after(stamps: impl IntoIterator<Item = u64>) -> ArrivalGap {
        let mut g = ArrivalGap::default();
        for s in stamps {
            g.observe(s, 1);
        }
        g
    }

    #[test]
    fn arrival_gap_of_a_steady_4_us_stream_does_not_coalesce() {
        let g = gap_after((1..=16).map(|i| i * 4_000));
        assert_eq!(g.gap_ns, Some(4_000));
        assert!(!g.another_due());
        // Two jobs per batch, one batch per 8 µs: the same stream.
        let mut g = ArrivalGap::default();
        for i in 1..=16 {
            g.observe(i * 8_000, 2);
        }
        assert!(!g.another_due());
    }

    #[test]
    fn arrival_gap_of_stamps_300_ns_apart_coalesces() {
        let g = gap_after((1..=16).map(|i| i * 300));
        assert_eq!(g.gap_ns, Some(300));
        assert!(g.another_due());
        // A sparse past is forgotten within a few batches of a burst.
        let mut g = gap_after((1..=16).map(|i| i * 1_000_000));
        assert!(!g.another_due());
        for i in 1..=4 {
            g.observe(16_000_000 + i * 300, 1);
        }
        assert!(g.another_due());
    }

    #[test]
    fn arrival_gap_ignores_stale_and_equal_stamps() {
        let mut g = gap_after((1..=16).map(|i| i * 4_000));
        // Requeued or long-queued jobs carry old stamps; a batch of them,
        // or of the newest stamp again, must not read as a burst.
        for _ in 0..100 {
            g.observe(64_000, 1);
            g.observe(1_000, 16);
        }
        assert_eq!(g.gap_ns, Some(4_000));
        assert_eq!(g.newest_ns, Some(64_000));
        assert!(!g.another_due());
    }

    #[test]
    fn arrival_gap_coalesces_until_it_has_measured_a_gap() {
        let mut g = ArrivalGap::default();
        assert!(g.another_due(), "fresh");
        g.observe(1_000_000, 1);
        assert!(g.another_due(), "one stamp is no gap");
        g.observe(2_000_000, 1);
        assert!(!g.another_due());
    }

    #[test]
    fn an_idle_gap_does_not_inflate_the_published_dispatch_rate() {
        const SERVICE_NS: u64 = 20_000;
        let cfg = || ServerConfig {
            shards: 1,
            service_ns: SERVICE_NS,
            ..tiny_cfg()
        };
        let submit = |s: &Scheduler, jobs: u64| {
            for k in 0..jobs {
                s.submit(
                    0,
                    JobSpec::once(TenantId(0), Deadline::In(1_000_000_000), k),
                )
                .unwrap();
            }
        };
        let drain = |s: &Scheduler| {
            while s.in_flight() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // Busy only: the second window (dispatches 33–64) is paced work.
        let s = Scheduler::new(cfg()).unwrap();
        submit(&s, 64);
        s.start();
        drain(&s);
        // Read after stop(): the join orders it after the last publish.
        s.stop();
        let busy_only = s.core.shards[0].rate_ns.load(Ordering::Relaxed);
        // The same 64 dispatches with 300 ms of nothing after the 48th: the
        // second window now straddles the gap, which would read as ~9 ms per
        // dispatch if any of the dispatcher's waiting were counted.
        let s = Scheduler::new(cfg()).unwrap();
        submit(&s, 48);
        s.start();
        drain(&s);
        std::thread::sleep(Duration::from_millis(300));
        submit(&s, 16);
        drain(&s);
        s.stop();
        let gapped = s.core.shards[0].rate_ns.load(Ordering::Relaxed);
        for rate in [busy_only, gapped] {
            assert!(
                rate >= SERVICE_NS,
                "published rates respect the pacing floor"
            );
            assert!(
                rate < 50 * SERVICE_NS,
                "busy-only {busy_only} ns, with an idle gap {gapped} ns per dispatch"
            );
        }
    }

    #[test]
    fn shed_refuses_unmeetable_deadlines_with_a_hint() {
        // No dispatcher running: a pre-start backlog makes depth (and so
        // the drain-time projection) fully deterministic.
        let s = Scheduler::new(ServerConfig {
            shards: 1,
            service_ns: 1_000,
            overload: OverloadConfig {
                shed: true,
                margin_ns: 0,
            },
            ..tiny_cfg()
        })
        .unwrap();
        for k in 0..100 {
            // Ample slack: admitted despite the growing backlog.
            s.submit(0, JobSpec::once(TenantId(0), Deadline::In(10_000_000), k))
                .unwrap();
        }
        // 100 queued × 1_000 ns each = 100_000 ns of backlog; a 10_000 ns
        // deadline is unmeetable.
        let err = s
            .submit(0, JobSpec::once(TenantId(1), Deadline::In(10_000), 7))
            .unwrap_err();
        match err {
            ServerError::Admit(AdmitError::Retry { after_ns, job }) => {
                assert_eq!(after_ns, 100 * 1_000 - 10_000);
                assert_eq!(job.payload, 7);
            }
            other => panic!("expected Retry, got {other:?}"),
        }
        // Shed jobs consumed no admission slot.
        assert_eq!(s.in_flight(), 100);
        let r = s.stop();
        assert_eq!(r.shed, 1);
        assert_eq!(r.rejected_quota + r.rejected_capacity, 0);
    }
}
