//! The two server workloads — `server_saturated` (closed loop) and
//! `server_open_250k` (open loop) — over one shard of `funnelpq-server`.
//!
//! Both use exactly two busy threads: the calling thread is the client or
//! the generator, the shard's dispatcher is the other. Every slice gets a
//! fresh `Scheduler`, is quiesced, stopped and checked.

use std::time::{Duration, Instant};

use funnelpq::obs::Recorder;
use funnelpq::PqConfig;
use funnelpq_server::{
    AdmitError, Deadline, JobSpec, Scheduler, ServerConfig, ServerError, ServerReport, StopOutcome,
    TenantId,
};
use funnelpq_util::XorShift64Star;

use crate::spans::{probed, NoProbe, OpProbe};
use crate::stats::{stream_seed, Summary};
use crate::{Check, Ctx, E2eOut, Workload};

/// Tenants submitting (uniformly drawn per job).
pub const TENANTS: usize = 8;
/// Deadline bands = queue priorities.
pub const BANDS: usize = 256;
/// Jobs a dispatcher takes per `delete_min_batch`.
pub const DRAIN_BATCH: usize = 16;
/// In-flight capacity on `server_saturated`: small, so the client runs
/// into admission refusals and the number is the server's, not the
/// client's.
pub const SATURATED_CAPACITY: usize = 1024;
/// In-flight capacity on `server_open_250k`: a quarter second of backlog,
/// so a host stall delays jobs instead of failing them.
pub const OPEN_CAPACITY: usize = 65_536;
/// The open loop's fixed schedule, jobs per second.
pub const OPEN_RATE: u64 = 250_000;
/// Schedulers built, started and stopped before each slice purely to time
/// set-up: one `Scheduler::new` + `start` is ~70 µs of thread spawn, too
/// little to compare across runs from one sample per slice.
pub const SETUP_PROBES_PER_SLICE: usize = 4;
/// A generator slice whose mean lateness exceeds this is flagged: its
/// latencies then measure the generator, not the server.
pub const LATE_FLAG_NS: f64 = 5_000.0;

/// Relative deadlines are drawn below 2³¹ ns, spreading jobs over ~110 of
/// the 256 bands within a slice.
const DEADLINE_MASK: u64 = (1 << 31) - 1;

/// The one-shard server both workloads run.
pub fn config(backend: PqConfig, capacity: usize) -> ServerConfig {
    ServerConfig {
        shards: 1,
        tenants: TENANTS,
        clients: 1,
        bands: BANDS,
        backend,
        drain_batch: DRAIN_BATCH,
        global_capacity: capacity,
        // Only the global capacity should bind: eight tenants drawn
        // uniformly would otherwise trip a per-tenant quota at random.
        tenant_quota: capacity,
        service_ns: 1,
        ..ServerConfig::default()
    }
}

fn spec(r: u64, payload: u64) -> JobSpec {
    JobSpec::once(
        TenantId((r % TENANTS as u64) as u32),
        Deadline::In((r >> 16) & DEADLINE_MASK),
        payload,
    )
}

/// What the submitting thread saw in one slice.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientTally {
    /// `submit` calls made (retries included).
    pub submits: u64,
    /// Jobs the server accepted.
    pub accepted: u64,
    /// Admission refusals (retried in the closed loop, failures in the
    /// open one).
    pub refused: u64,
    /// Submits that failed for any other reason.
    pub errors: u64,
    /// Open loop only: summed lateness of the generator against its
    /// schedule.
    pub late_sum_ns: u64,
    /// Open loop only: worst lateness.
    pub late_max_ns: u64,
    /// How long the submitting loop ran.
    pub elapsed_ns: u64,
}

impl ClientTally {
    /// Mean generator lateness (open loop).
    pub fn late_mean_ns(&self) -> f64 {
        self.late_sum_ns as f64 / self.submits.max(1) as f64
    }
}

/// Closed loop: submit as fast as admission allows for `len`, retrying
/// refusals after a `yield_now`.
pub fn saturate<R: Recorder, P: OpProbe>(
    s: &Scheduler<R>,
    seed: u64,
    len: Duration,
    probe: &mut P,
) -> ClientTally {
    let mut rng = XorShift64Star::new(seed);
    let mut t = ClientTally::default();
    let t0 = Instant::now();
    // The clock is read once per 64 jobs, keeping it off the submit path.
    while t.accepted % 64 != 0 || t0.elapsed() < len {
        let job = spec(rng.next_u64(), t.accepted);
        loop {
            t.submits += 1;
            match probed(probe, "submit", || s.submit(0, job)) {
                Ok(_) => {
                    t.accepted += 1;
                    break;
                }
                Err(ServerError::Admit(
                    AdmitError::Capacity { .. } | AdmitError::TenantQuota { .. },
                )) => {
                    t.refused += 1;
                    std::thread::yield_now();
                }
                Err(_) => {
                    t.errors += 1;
                    break;
                }
            }
        }
    }
    t.elapsed_ns = t0.elapsed().as_nanos() as u64;
    t
}

/// Open loop: one job every `1/OPEN_RATE` s for `len`, whatever the server
/// does; lateness is the generator's own delay against that schedule.
pub fn generate<R: Recorder, P: OpProbe>(
    s: &Scheduler<R>,
    seed: u64,
    len: Duration,
    probe: &mut P,
) -> ClientTally {
    let period_ns = 1_000_000_000 / OPEN_RATE;
    let jobs = len.as_nanos() as u64 / period_ns;
    let mut rng = XorShift64Star::new(seed);
    let mut t = ClientTally::default();
    let t0 = Instant::now();
    for i in 0..jobs {
        let due = i * period_ns;
        let mut now = t0.elapsed().as_nanos() as u64;
        while now < due {
            std::hint::spin_loop();
            now = t0.elapsed().as_nanos() as u64;
        }
        t.late_sum_ns += now - due;
        t.late_max_ns = t.late_max_ns.max(now - due);
        t.submits += 1;
        match probed(probe, "submit", || s.submit(0, spec(rng.next_u64(), i))) {
            Ok(_) => t.accepted += 1,
            Err(ServerError::Admit(_)) => t.refused += 1,
            Err(_) => t.errors += 1,
        }
    }
    t.elapsed_ns = t0.elapsed().as_nanos() as u64;
    t
}

/// One finished slice: the client's view, the server's report and the
/// phase timings around it.
pub struct SliceOut {
    /// The submitting thread's tally.
    pub client: ClientTally,
    /// The stopped scheduler's report.
    pub report: ServerReport,
    /// `Scheduler::new` + `start`.
    pub setup_s: f64,
    /// Waiting for `in_flight()` to reach 0 after the last submit.
    pub drain_ms: f64,
    /// `Scheduler::stop`.
    pub stop_ms: f64,
}

impl SliceOut {
    /// Jobs dispatched per second of server run time.
    pub fn jobs_per_s(&self) -> f64 {
        self.report.dispatched as f64 * 1e9 / self.report.run_ns as f64
    }
}

/// Which loop drives the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// `server_saturated`.
    Saturated,
    /// `server_open_250k`.
    Open,
}

impl Load {
    /// The workload this is.
    pub fn workload(self) -> Workload {
        match self {
            Load::Saturated => Workload::ServerSaturated,
            Load::Open => Workload::ServerOpen,
        }
    }

    /// The workload's catalogue name.
    pub fn name(self) -> &'static str {
        self.workload().name()
    }

    /// Length of one slice, seconds. Short on purpose: this host's
    /// interference comes in sub-second bursts and only slows things down,
    /// so a burst spoils a few short slices outright and the summary over
    /// many ignores them; seven 1.7 s slices each absorbed a share of every
    /// burst and their median moved 24 % between runs. The open loop's are
    /// shortest: one 5 ms stall adds 30 µs to a 0.4 s slice's mean latency.
    pub fn slice_s(self) -> f64 {
        match self {
            Load::Saturated => 0.4,
            Load::Open => 0.1,
        }
    }

    /// How the slices are summarised. The open loop can only be slowed by
    /// interference. The closed loop has, besides, a rare *fast* mode
    /// (2.9 vs 1.7 M jobs/s, when the dispatcher happens to sleep through
    /// the client's bursts and the two stop colliding on the queue lock),
    /// so an upper quartile would sometimes land in it: median.
    pub fn summary(self) -> Summary {
        match self {
            Load::Saturated => Summary::Median,
            Load::Open => Summary::GoodQuartile,
        }
    }

    fn capacity(self) -> usize {
        match self {
            Load::Saturated => SATURATED_CAPACITY,
            Load::Open => OPEN_CAPACITY,
        }
    }
}

/// Runs one slice of `load` on a fresh scheduler built by `build`, then
/// quiesces and stops it. `during` runs after the last submit has drained
/// and before `stop` (the traced pass times a telemetry snapshot there).
pub fn run_slice<R: Recorder, P: OpProbe>(
    build: impl FnOnce(ServerConfig) -> Result<Scheduler<R>, ServerError>,
    backend: PqConfig,
    load: Load,
    seed: u64,
    len: Duration,
    probe: &mut P,
    during: impl FnOnce(&Scheduler<R>),
) -> SliceOut {
    let t0 = Instant::now();
    let s = build(config(backend, load.capacity())).expect("benchmark server config is valid");
    s.start();
    let setup_s = t0.elapsed().as_secs_f64();
    let client = match load {
        Load::Saturated => saturate(&s, seed, len, probe),
        Load::Open => generate(&s, seed, len, probe),
    };
    let t1 = Instant::now();
    while s.in_flight() > 0 {
        std::thread::yield_now();
    }
    let drain_ms = t1.elapsed().as_secs_f64() * 1e3;
    during(&s);
    let t2 = Instant::now();
    let report = s.stop();
    SliceOut {
        client,
        report,
        setup_s,
        drain_ms,
        stop_ms: t2.elapsed().as_secs_f64() * 1e3,
    }
}

/// Times one `Scheduler::new` + `start` on the workload's config, then
/// stops the scheduler again.
pub fn setup_probe_s(load: Load) -> f64 {
    let t0 = Instant::now();
    let s = Scheduler::new(config(PqConfig::SingleLock, load.capacity()))
        .expect("benchmark server config is valid");
    s.start();
    let dt = t0.elapsed().as_secs_f64();
    s.stop();
    dt
}

/// Checks one slice's conservation.
pub fn verify(o: &SliceOut, load: Load, what: &str) -> Check {
    let r = &o.report;
    let mut failed = o.client.errors;
    let mut lines = Vec::new();
    if o.client.errors > 0 {
        lines.push(format!("{what}: {} submits errored", o.client.errors));
    }
    if load == Load::Open && o.client.refused > 0 {
        // An open-loop refusal is a request the tenant never got served.
        failed += o.client.refused;
        lines.push(format!("{what}: {} jobs refused", o.client.refused));
    }
    let mut expect = |ok: bool, line: String| {
        if !ok {
            failed += 1;
            lines.push(format!("{what}: {line}"));
        }
    };
    expect(
        r.admitted == o.client.accepted,
        format!(
            "server admitted {} but client saw {} accepted",
            r.admitted, o.client.accepted
        ),
    );
    expect(
        r.admitted == r.completed,
        format!("admitted {} != completed {}", r.admitted, r.completed),
    );
    expect(
        r.dispatched == r.admitted,
        format!("dispatched {} != admitted {}", r.dispatched, r.admitted),
    );
    expect(r.lost == 0, format!("{} jobs lost", r.lost));
    expect(
        r.in_flight_at_stop == 0,
        format!("{} jobs in flight at stop", r.in_flight_at_stop),
    );
    expect(
        r.latency_ns.count() == r.dispatched,
        format!(
            "{} latency samples for {} dispatches",
            r.latency_ns.count(),
            r.dispatched
        ),
    );
    expect(
        r.stops.iter().all(|s| s.outcome == StopOutcome::Clean),
        "a dispatcher did not stop cleanly".to_string(),
    );
    Check {
        attempted: o.client.submits,
        failed,
        violations: lines,
    }
}

/// The slice's latency as whoever waits for the server feels it.
///
/// Closed loop: the client is always inside `submit` or retrying one, so
/// what it waits per job is its loop time ÷ accepted jobs (refusals and
/// yields included) — the same caller's-view rule as the native closed
/// loops. The server's own enqueue→dispatch mean is not used here: under
/// saturation it is the in-flight population ÷ throughput, and the
/// population flips between near-empty and near-full with whichever side
/// is momentarily faster (it moved 40 % between runs).
///
/// Open loop: the server's exact enqueue→dispatch mean plus how late the
/// generator handed jobs over — i.e. timed from when each job was *due*.
pub fn latency_ns(o: &SliceOut, load: Load) -> f64 {
    match load {
        Load::Saturated => o.client.elapsed_ns as f64 / o.client.accepted.max(1) as f64,
        Load::Open => o.report.latency_ns.mean() + o.client.late_mean_ns(),
    }
}

/// The end-to-end pass of one server workload: slices on the default
/// (SingleLock) backend, no probe, no recorder.
pub fn e2e(ctx: &Ctx<'_>, load: Load) -> E2eOut {
    let len = Duration::from_secs_f64(load.slice_s());
    let mut out = E2eOut::new(["SingleLock"].into_iter(), load.summary());
    for round in 0..ctx.rounds(1, load.slice_s()) {
        let what = format!("{} round {round}", load.name());
        let _armed = ctx.watchdog.arm(what.clone(), len);
        out.setup_s
            .extend((0..SETUP_PROBES_PER_SLICE).map(|_| setup_probe_s(load)));
        let o = run_slice(
            Scheduler::new,
            PqConfig::SingleLock,
            load,
            stream_seed(ctx.seed, load.name(), 0, round, 0),
            len,
            &mut NoProbe,
            |_| {},
        );
        out.series[0].push(o.jobs_per_s(), latency_ns(&o, load));
        out.setup_s.push(o.setup_s);
        out.absorb(verify(&o, load, &what));
        if load == Load::Open && o.client.late_mean_ns() > LATE_FLAG_NS {
            out.notes.push(format!(
                "{what}: generator ran {:.0} ns late on average (> {LATE_FLAG_NS} ns): \
                 this slice measures the generator",
                o.client.late_mean_ns()
            ));
        }
    }
    out
}
