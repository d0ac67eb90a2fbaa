//! End-to-end tests for the `funnelpq-server` scheduler: conservation
//! under concurrent seeded load, exact quota enforcement, strict-backend
//! deadline ordering within a shard, relaxed-backend conservation, and
//! affinity routing.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use funnelpq::obs::Recorder;
use funnelpq::{MultiQueueConfig, PqConfig};
use funnelpq_server::{Deadline, JobId, JobSpec, Scheduler, ServerConfig, ServerError, TenantId};
use funnelpq_util::XorShift64Star;

const SHARDS: usize = 4;
const TENANTS: usize = 8;

fn cfg(backend: PqConfig) -> ServerConfig {
    ServerConfig {
        shards: SHARDS,
        tenants: TENANTS,
        clients: 4,
        bands: 512,
        horizon_ns: 2_000_000_000,
        backend,
        drain_batch: 8,
        global_capacity: 2048,
        tenant_quota: 512,
        service_ns: 1, // unpaced: these tests assert accounting, not timing
        record_dispatches: true,
        ..ServerConfig::default()
    }
}

fn drain<R: Recorder>(s: &Scheduler<R>) {
    let mut spins = 0;
    while s.in_flight() > 0 {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
        assert!(spins < 30_000, "scheduler failed to drain");
    }
}

/// Seeded concurrent load: `clients` threads submit one-shot and periodic
/// jobs for 8 tenants while the dispatchers run. Returns the admitted ids
/// and the stopped scheduler's report.
fn run_seeded(backend: PqConfig, seed: u64) -> (HashSet<JobId>, funnelpq_server::ServerReport) {
    let s = Arc::new(Scheduler::new(cfg(backend)).unwrap());
    s.start();
    let base = s.now_ns();
    let handles: Vec<_> = (0..4)
        .map(|client| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut rng = XorShift64Star::new(seed ^ (client as u64) << 32);
                let mut admitted = Vec::new();
                let mut rejected = 0u64;
                for k in 0..500 {
                    let tenant = TenantId(rng.below(TENANTS as u64) as u32);
                    let deadline = Deadline::At(base + 1_000_000 + rng.below(1_000_000_000));
                    let spec = if k % 10 == 0 {
                        // Every tenth job is a small periodic timer.
                        JobSpec::periodic(tenant, deadline, k, 1_000, 3)
                    } else {
                        JobSpec::once(tenant, deadline, k)
                    };
                    match s.submit(client, spec) {
                        Ok(id) => admitted.push(id),
                        Err(ServerError::Admit(e)) => {
                            // Quota/capacity refusal hands the job back.
                            assert_eq!(e.into_job().tenant, tenant);
                            rejected += 1;
                        }
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
                (admitted, rejected)
            })
        })
        .collect();
    let mut admitted_ids = HashSet::new();
    let mut rejected = 0;
    for h in handles {
        let (ids, r) = h.join().unwrap();
        for id in ids {
            assert!(admitted_ids.insert(id), "job ids must be unique");
        }
        rejected += r;
    }
    drain(&s);
    let report = s.stop();
    assert_eq!(report.submitted, 2000);
    assert_eq!(report.admitted as usize, admitted_ids.len());
    assert_eq!(
        report.rejected_quota + report.rejected_capacity,
        rejected,
        "every admission refusal is tallied"
    );
    (admitted_ids, report)
}

/// Checks the conservation contract against the dispatch logs: every
/// admitted job dispatched (once per firing), none invented, all completed.
fn assert_conserved(admitted: &HashSet<JobId>, report: &funnelpq_server::ServerReport) {
    assert_eq!(report.in_flight_at_stop, 0);
    assert_eq!(report.admitted, report.completed);
    let mut seen: HashSet<JobId> = HashSet::new();
    let mut firings = 0u64;
    for shard in &report.shards {
        for rec in &shard.dispatch_log {
            assert!(
                admitted.contains(&rec.job),
                "dispatched job {} was never admitted",
                rec.job
            );
            seen.insert(rec.job);
            firings += 1;
        }
    }
    assert_eq!(
        &seen, admitted,
        "every admitted job must be dispatched at least once"
    );
    assert_eq!(firings, report.dispatched);
    assert_eq!(report.latency_ns.count(), report.dispatched);
}

#[test]
fn strict_backend_conserves_jobs_under_concurrent_load() {
    let (admitted, report) = run_seeded(PqConfig::SingleLock, 0xC0FFEE);
    assert_conserved(&admitted, &report);
}

#[test]
fn funnel_tree_backend_conserves_jobs_under_concurrent_load() {
    let (admitted, report) = run_seeded(
        PqConfig::for_algorithm(funnelpq::Algorithm::FunnelTree).unwrap(),
        0xBEEF,
    );
    assert_conserved(&admitted, &report);
}

#[test]
fn multiqueue_backend_conserves_jobs_under_concurrent_load() {
    // Element conservation is exactly what the relaxed class still
    // guarantees; only ordering is weakened.
    let (admitted, report) = run_seeded(
        PqConfig::MultiQueue(MultiQueueConfig {
            factor: 4,
            ..MultiQueueConfig::default()
        }),
        0x5EED,
    );
    assert_conserved(&admitted, &report);
}

#[test]
fn numa_backend_conserves_jobs_and_surfaces_its_controller() {
    let (admitted, report) = run_seeded(
        PqConfig::NumaPq(funnelpq::NumaConfig {
            nodes: 2,
            ..funnelpq::NumaConfig::default()
        }),
        0xA10C,
    );
    assert_conserved(&admitted, &report);

    // Telemetry surfaces the adaptive controller: mode name in the
    // totals, a per-shard `numa` block in the JSON. A non-NUMA backend
    // has neither.
    let s = Scheduler::new(cfg(PqConfig::NumaPq(funnelpq::NumaConfig {
        nodes: 2,
        ..funnelpq::NumaConfig::default()
    })))
    .unwrap();
    let t = s.telemetry();
    assert_eq!(t.numa_mode(), Some("oblivious"), "fresh controller");
    assert!(t.shards.iter().all(|sh| sh.adaptive.is_some()));
    let json = t.to_json();
    assert!(json.contains("\"numa_mode\": \"oblivious\""));
    assert!(json.contains("\"mode_switches\": 0"));
    assert!(json.contains("\"remote_transfers\""));
    s.stop();

    let plain = Scheduler::new(cfg(PqConfig::SingleLock)).unwrap();
    let t = plain.telemetry();
    assert_eq!(t.numa_mode(), None);
    assert_eq!(t.mode_switches(), 0);
    assert!(!t.to_json().contains("numa_mode"));
    plain.stop();
}

#[test]
fn quota_is_enforced_to_the_job() {
    let mut c = cfg(PqConfig::SingleLock);
    c.tenant_quota = 16;
    c.global_capacity = 64;
    let s = Scheduler::new(c).unwrap();
    let base = s.now_ns() + 1_000_000;

    // One tenant asks for twice its quota before dispatch starts: exactly
    // `quota` jobs get in, every refusal names the quota and carries the
    // job back.
    let mut admitted = 0;
    let mut quota_rejects = 0;
    for k in 0..32u64 {
        match s.submit(0, JobSpec::once(TenantId(3), Deadline::At(base + k), k)) {
            Ok(_) => admitted += 1,
            Err(ServerError::Admit(e)) => {
                let job = match e {
                    funnelpq_server::AdmitError::TenantQuota { quota, job, .. } => {
                        assert_eq!(quota, 16);
                        job
                    }
                    other => panic!("expected TenantQuota, got {other:?}"),
                };
                assert_eq!(job.tenant, TenantId(3));
                assert_eq!(job.payload, k);
                quota_rejects += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(admitted, 16);
    assert_eq!(quota_rejects, 16);
    // Another tenant is unaffected by tenant 3 being at quota.
    s.submit(0, JobSpec::once(TenantId(0), Deadline::At(base), 99))
        .unwrap();

    s.start();
    drain(&s);
    let report = s.stop();
    assert_eq!(report.admitted, 17);
    assert_eq!(report.completed, 17);
    assert_eq!(report.rejected_quota, 16);

    // Global capacity binds across tenants: spread 80 submits over all 8
    // tenants (quota 16 each = 128 headroom) against capacity 64.
    let mut c = cfg(PqConfig::SingleLock);
    c.tenant_quota = 16;
    c.global_capacity = 64;
    let s = Scheduler::new(c).unwrap();
    let base = s.now_ns() + 1_000_000;
    let mut capacity_rejects = 0;
    for k in 0..80u64 {
        let spec = JobSpec::once(TenantId((k % 8) as u32), Deadline::At(base + k), k);
        match s.submit(0, spec) {
            Ok(_) => {}
            Err(ServerError::Admit(funnelpq_server::AdmitError::Capacity { capacity, .. })) => {
                assert_eq!(capacity, 64);
                capacity_rejects += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(capacity_rejects, 16);
    assert_eq!(s.in_flight(), 64);
    s.start();
    drain(&s);
    let report = s.stop();
    assert_eq!(report.rejected_capacity, 16);
    assert_eq!(report.completed, 64);
}

#[test]
fn strict_backend_dispatches_in_deadline_band_order_within_a_shard() {
    // All submissions precede start(), so the queue is quiescent when the
    // dispatcher begins: a strict (non-relaxed) backend must then drain
    // bands in non-decreasing order. One shard, one tenant, scrambled
    // deadlines across the whole horizon.
    let mut c = cfg(PqConfig::SingleLock);
    c.shards = 1;
    c.tenants = 1;
    let s = Scheduler::new(c).unwrap();
    let mut rng = XorShift64Star::new(42);
    for k in 0..400u64 {
        let deadline = Deadline::At(rng.below(1_999_000_000));
        s.submit(0, JobSpec::once(TenantId(0), deadline, k))
            .unwrap();
    }
    s.start();
    drain(&s);
    let report = s.stop();
    let log = &report.shards[0].dispatch_log;
    assert_eq!(log.len(), 400);
    for w in log.windows(2) {
        assert!(
            w[0].band <= w[1].band,
            "strict backend dispatched band {} after band {}",
            w[1].band,
            w[0].band
        );
    }
    // Dispatched in band order and unpaced from a quiescent queue: nothing
    // can miss on the virtual service clock.
    assert_eq!(report.misses, 0);
}

/// A miss is filed once, in the shard's tenant row, and every count of
/// it agrees: the stop report, the telemetry totals, the sum of the tenant
/// rows and the dispatch log. Jobs queued before `start()` with a deadline
/// already behind them have zero slack: on one strict shard the k-th
/// dispatch has waited k slots, so all but the first miss on both clocks.
#[test]
fn deadline_misses_agree_across_report_telemetry_tenant_rows_and_log() {
    let mut c = cfg(PqConfig::SingleLock);
    c.shards = 1;
    c.tenants = 1;
    let s = Scheduler::new(c).unwrap();
    for k in 0..64u64 {
        s.submit(0, JobSpec::once(TenantId(0), Deadline::At(0), k))
            .unwrap();
    }
    s.start();
    drain(&s);
    let report = s.stop();
    let t = s.telemetry();
    assert_eq!(report.dispatched, 64);
    assert_eq!(report.misses, 63);
    assert_eq!(t.misses(), 63);
    assert_eq!(t.tenants.iter().map(|x| x.misses).sum::<u64>(), 63);
    let logged = report.shards[0].dispatch_log.iter().filter(|r| r.missed);
    assert_eq!(logged.count(), 63);
}

#[test]
fn affinity_pins_a_tenant_to_its_shard() {
    let mut c = cfg(PqConfig::SingleLock);
    let hot = TenantId(5);
    c.affinity = vec![(hot, 3)];
    let s = Arc::new(Scheduler::new(c).unwrap());
    assert_eq!(s.route(hot), 3);
    let base = s.now_ns() + 1_000_000;
    for k in 0..64u64 {
        let t = TenantId((k % TENANTS as u64) as u32);
        s.submit(0, JobSpec::once(t, Deadline::At(base + k), k))
            .unwrap();
    }
    s.start();
    drain(&s);
    let report = s.stop();
    let mut hot_dispatches = 0;
    for shard in &report.shards {
        for rec in &shard.dispatch_log {
            if rec.tenant == hot {
                assert_eq!(
                    shard.shard, 3,
                    "pinned tenant dispatched on shard {}",
                    shard.shard
                );
                hot_dispatches += 1;
            }
        }
    }
    assert_eq!(hot_dispatches, 8);
}

/// The telemetry snapshot's totals reconcile with the authoritative stop
/// report: per-tenant dispatch counts sum to the total, latency histogram
/// mass equals the dispatch count, windows partition the dispatches, and
/// the live depth gauge returns to zero once the scheduler drains.
#[test]
fn telemetry_reconciles_with_the_stop_report() {
    let s = Arc::new(Scheduler::new(cfg(PqConfig::SingleLock)).unwrap());
    let base = s.now_ns() + 1_000_000;
    // 12 jobs per tenant, submitted pre-start so admission never refuses.
    for k in 0..96u64 {
        let t = TenantId((k % TENANTS as u64) as u32);
        s.submit(0, JobSpec::once(t, Deadline::At(base + k), k))
            .unwrap();
    }
    s.start();
    drain(&s);
    let t = s.telemetry();
    let report = s.stop();

    assert_eq!(t.dispatched(), report.dispatched);
    assert_eq!(t.misses(), report.misses);
    assert_eq!(t.depth(), 0, "drained scheduler reports zero depth");
    assert_eq!(t.shards.len(), SHARDS);

    assert_eq!(t.tenants.len(), TENANTS, "every tenant saw traffic");
    let per_tenant: u64 = t.tenants.iter().map(|x| x.dispatched).sum();
    assert_eq!(per_tenant, report.dispatched);
    for tenant in &t.tenants {
        assert_eq!(tenant.dispatched, 12, "uniform load, exact per-tenant");
        assert_eq!(tenant.latency_ns.count(), tenant.dispatched);
        assert_eq!(tenant.slack_ns.count(), tenant.dispatched);
    }
    let per_shard: u64 = t.shards.iter().map(|x| x.dispatched).sum();
    assert_eq!(per_shard, report.dispatched);

    assert!(!t.windows.is_empty());
    let per_window: u64 = t.windows.iter().map(|w| w.dispatched).sum();
    assert_eq!(per_window, report.dispatched);

    // Strict backend: any sampled drain batches scored exactly zero
    // displacement (SingleLock drains under one lock hold, sorted).
    assert_eq!(
        t.shards.iter().map(|x| x.rank_error.sum()).sum::<u64>(),
        0,
        "strict backend must show zero rank error"
    );
    assert_eq!(t.rank_error_mean(), 0.0);

    let json = t.to_json();
    assert!(json.starts_with("{\n  \"schema_version\": 4,"));
    assert!(json.contains("\"backend\": \"SingleLock\""));
}

/// Sustained closed-loop load against the shallow-heap MultiQueue geometry
/// (the `pqstat` defaults): the sampled rank-error estimator must observe
/// genuine relaxation — nonzero displacements — while the same load on the
/// strict SingleLock backend scores exactly zero over the same sampler.
#[test]
fn rank_error_sampler_separates_relaxed_from_strict() {
    use std::sync::atomic::{AtomicBool, Ordering};

    fn run(backend: PqConfig) -> (u64, u64) {
        // Shallow per-heap depth: capacity 128 over many heaps forces
        // MultiQueue drains to cross heap boundaries mid-batch.
        let c = ServerConfig {
            shards: 1,
            tenants: 4,
            clients: 2,
            bands: 4096,
            horizon_ns: 60_000_000_000,
            backend,
            drain_batch: 8,
            global_capacity: 128,
            tenant_quota: 64,
            service_ns: 10_000,
            ..ServerConfig::default()
        };
        let s = Arc::new(Scheduler::new(c).unwrap());
        s.start();
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = (0..2)
            .map(|client| {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut rng = XorShift64Star::new(0xA11CE ^ (client as u64) << 32);
                    let mut k = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let t = TenantId(rng.below(4) as u32);
                        let d = Deadline::In(1_000_000 + rng.below(40_000_000));
                        match s.submit(client, JobSpec::once(t, d, k)) {
                            Ok(_) => k += 1,
                            Err(ServerError::Stopped { .. }) => break,
                            // Backlog full: that is the point — yield.
                            Err(_) => std::thread::yield_now(),
                        }
                    }
                })
            })
            .collect();
        // Run until the sampler has scored enough batches to be meaningful.
        let mut spins = 0;
        loop {
            std::thread::sleep(Duration::from_millis(10));
            let t = s.telemetry();
            let samples: u64 = t.shards.iter().map(|x| x.rank_samples).sum();
            if samples >= 20 {
                break;
            }
            spins += 1;
            assert!(spins < 1500, "rank sampler starved of batches");
        }
        stop.store(true, Ordering::Release);
        for h in clients {
            h.join().unwrap();
        }
        drain(&s);
        let t = s.telemetry();
        s.stop();
        let samples: u64 = t.shards.iter().map(|x| x.rank_samples).sum();
        let displacement: u64 = t.shards.iter().map(|x| x.rank_error.sum()).sum();
        (samples, displacement)
    }

    let (samples, displacement) = run(PqConfig::MultiQueue(MultiQueueConfig::default()));
    assert!(samples >= 20);
    assert!(
        displacement > 0,
        "relaxed MultiQueue drains must show nonzero sampled rank error"
    );

    let (samples, displacement) = run(PqConfig::SingleLock);
    assert!(samples >= 20);
    assert_eq!(
        displacement, 0,
        "strict SingleLock drains must score exactly zero"
    );
}

/// Property test for the admission race at capacity: four clients hammer
/// submits into a tiny global cap while paced dispatchers hold the
/// backlog pinned against it. The optimistic fetch-add/check/undo scheme
/// may transiently overshoot the cap by at most one slot per concurrently
/// racing client (the window between the add and the undo), never more —
/// and the books must balance exactly once the dust settles.
#[test]
fn concurrent_submits_at_capacity_never_overshoot_the_race_bound() {
    const CLIENTS: usize = 4;
    const CAPACITY: usize = 32;
    for backend in [
        PqConfig::SingleLock,
        PqConfig::for_algorithm(funnelpq::Algorithm::FunnelTree).unwrap(),
        PqConfig::MultiQueue(MultiQueueConfig {
            factor: 4,
            ..MultiQueueConfig::default()
        }),
    ] {
        let mut c = cfg(backend);
        c.global_capacity = CAPACITY;
        c.tenant_quota = CAPACITY;
        c.service_ns = 5_000; // paced: keeps the backlog pressed at the cap
        c.record_dispatches = false;
        let s = Arc::new(Scheduler::new(c).unwrap());
        s.start();

        let stop_monitor = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // The clients start only once the monitor is sampling: on a busy
        // 2-CPU host they could otherwise finish before it is first run.
        let monitoring = Arc::new(std::sync::Barrier::new(2));
        let monitor = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop_monitor);
            let monitoring = Arc::clone(&monitoring);
            std::thread::spawn(move || {
                let mut peak = 0usize;
                let mut samples = 0u64;
                monitoring.wait();
                loop {
                    peak = peak.max(s.in_flight());
                    samples += 1;
                    if stop.load(std::sync::atomic::Ordering::Acquire) {
                        break;
                    }
                    std::thread::yield_now();
                }
                (peak, samples)
            })
        };
        monitoring.wait();

        let base = s.now_ns();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut admitted = 0u64;
                    let mut rejected = 0u64;
                    for k in 0..300u64 {
                        let tenant = TenantId(((client as u64 * 300 + k) % 8) as u32);
                        let spec = JobSpec::once(tenant, Deadline::At(base + 1_000_000_000 + k), k);
                        match s.submit(client, spec) {
                            Ok(_) => admitted += 1,
                            Err(ServerError::Admit(e)) => {
                                assert_eq!(e.into_job().payload, k, "refusal returns the job");
                                rejected += 1;
                            }
                            Err(other) => panic!("unexpected submit error: {other}"),
                        }
                    }
                    (admitted, rejected)
                })
            })
            .collect();
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        for h in handles {
            let (a, r) = h.join().unwrap();
            admitted += a;
            rejected += r;
        }
        stop_monitor.store(true, std::sync::atomic::Ordering::Release);
        let (peak, samples) = monitor.join().unwrap();
        drain(&s);
        let report = s.stop();

        // The race bound: the raw counter may overshoot by one per racing
        // client mid-undo, but no further — and every admitted job really
        // held a slot.
        assert!(samples > 0);
        assert!(
            peak <= CAPACITY + CLIENTS,
            "in-flight peak {peak} exceeds capacity {CAPACITY} + {CLIENTS} racing clients"
        );
        assert!(
            report.rejected_capacity > 0,
            "the cap must actually have been contended"
        );
        assert_eq!(report.admitted, admitted);
        assert_eq!(
            report.rejected_quota + report.rejected_capacity,
            rejected,
            "every refusal is tallied"
        );
        assert_eq!(report.admitted, report.completed, "no admitted job leaked");
        assert_eq!(report.in_flight_at_stop, 0);
        assert_eq!(report.lost, 0);
    }
}

/// The dispatcher holds the telemetry cell across a drained batch but lets
/// go of it before it waits. Paced at 200 µs a job, a batch of 16 is 3.2 ms
/// of almost nothing but `pace` sleeping: were the guard held across those
/// sleeps, a snapshot taken at a random moment would wait 1.5 ms for it on
/// average. Snapshots are spaced out so that one rarely coincides with this
/// thread losing its CPU — the only other way a call gets slow, and what
/// the tenth allowed is for. The count of dispatches a reader sees never
/// goes backwards.
#[test]
fn a_snapshot_does_not_wait_out_a_paced_batch() {
    const JOBS: u64 = 160;
    let mut c = cfg(PqConfig::SingleLock);
    c.shards = 1;
    c.drain_batch = 16;
    c.service_ns = 200_000;
    c.record_dispatches = false;
    let s = Scheduler::new(c).unwrap();
    let base = s.now_ns() + 1_000_000_000;
    for k in 0..JOBS {
        let t = TenantId((k % TENANTS as u64) as u32);
        s.submit(0, JobSpec::once(t, Deadline::At(base + k), k))
            .unwrap();
    }
    s.start();
    let (mut calls, mut slow, mut worst, mut seen) = (0u64, 0u64, Duration::ZERO, 0u64);
    while s.in_flight() > 0 {
        let t0 = std::time::Instant::now();
        let snap = s.telemetry();
        let took = t0.elapsed();
        calls += 1;
        slow += u64::from(took >= Duration::from_millis(1));
        worst = worst.max(took);
        assert!(snap.dispatched() >= seen, "dispatched went backwards");
        seen = snap.dispatched();
        std::thread::sleep(Duration::from_micros(300));
    }
    assert_eq!(s.stop().completed, JOBS);
    assert!(
        calls >= 20,
        "only {calls} snapshots in 32 ms of dispatching"
    );
    assert!(
        slow * 10 <= calls,
        "{slow} of {calls} snapshots took >= 1 ms (worst {worst:?})"
    );
}

/// Polls `cond` under the same watchdog budget as [`drain`].
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let mut spins = 0;
    while !cond() {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
        assert!(spins < 30_000, "timed out waiting until {what}");
    }
}

/// `stop()` on a helper thread, so a dispatcher that never wakes fails the
/// test instead of hanging it.
fn stop_within(s: &Arc<Scheduler>, limit: Duration) -> funnelpq_server::ServerReport {
    let (tx, rx) = std::sync::mpsc::channel();
    let stopper = {
        let s = Arc::clone(s);
        std::thread::spawn(move || {
            // The receiver only goes away if the limit below already fired.
            let _ = tx.send(s.stop());
        })
    };
    let report = rx
        .recv_timeout(limit)
        .expect("stop() did not return: a dispatcher slept through it");
    stopper.join().unwrap();
    report
}

/// Lost-wake-up stress: four clients submit short bursts separated by
/// random gaps of 0–150 µs, on both sides of the dispatcher's 50 µs
/// poll-window ceiling, so dispatchers keep crossing poll → park → poll
/// while jobs land. A submit that slips between a dispatcher's last depth
/// check and its park, unnoticed, strands its job and trips the watchdog.
#[test]
fn bursts_straddling_the_poll_park_boundary_lose_no_wake_up() {
    for (backend, seed) in [
        (PqConfig::SingleLock, 0xA5A5_u64),
        (PqConfig::MultiQueue(MultiQueueConfig::default()), 0x5A5A),
    ] {
        let mut c = cfg(backend);
        c.shards = 2;
        c.record_dispatches = false;
        let s = Arc::new(Scheduler::new(c).unwrap());
        s.start();
        let clients: Vec<_> = (0..4)
            .map(|client| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut rng = XorShift64Star::new(seed ^ (client as u64) << 32);
                    let mut admitted = 0u64;
                    for _ in 0..300 {
                        for k in 0..1 + rng.below(8) {
                            let tenant = TenantId(rng.below(TENANTS as u64) as u32);
                            match s
                                .submit(client, JobSpec::once(tenant, Deadline::In(1_000_000), k))
                            {
                                Ok(_) => admitted += 1,
                                Err(ServerError::Admit(_)) => {}
                                Err(other) => panic!("unexpected submit error: {other}"),
                            }
                        }
                        let gap = Duration::from_micros(rng.below(150));
                        let t0 = std::time::Instant::now();
                        while t0.elapsed() < gap {
                            std::thread::yield_now();
                        }
                    }
                    admitted
                })
            })
            .collect();
        let admitted: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();
        drain(&s);
        let waits = s.telemetry().waits();
        let report = stop_within(&s, Duration::from_secs(30));
        assert_eq!(report.admitted, admitted);
        assert_eq!(report.completed, admitted);
        assert_eq!(report.lost, 0);
        assert_eq!(waits.drained, admitted, "one-shot jobs: each drained once");
        assert!(waits.parks >= 2, "both dispatchers started out parked");
        assert!(report.stops.iter().all(|x| x.outcome.is_clean()));
    }
}

/// An idle started scheduler blocks: over 100 ms each dispatcher parks
/// once and stays there (the 20 µs sleep-poll it replaces woke ~1400
/// times per shard in the same span).
#[test]
fn an_idle_scheduler_parks_instead_of_polling() {
    let s = Arc::new(Scheduler::new(cfg(PqConfig::SingleLock)).unwrap());
    s.start();
    std::thread::sleep(Duration::from_millis(100));
    let t = s.telemetry();
    for shard in &t.shards {
        assert!(
            (1..=2).contains(&shard.waits.parks),
            "shard {} went to park {} times while idle",
            shard.shard,
            shard.waits.parks
        );
        assert_eq!(shard.waits.poll_hits + shard.waits.poll_misses, 0);
        assert_eq!(shard.waits.drains, 0);
    }
    // Stopping while every dispatcher is parked returns promptly.
    let t0 = std::time::Instant::now();
    let report = stop_within(&s, Duration::from_secs(30));
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "stop() took {:?} to wake parked dispatchers",
        t0.elapsed()
    );
    assert_eq!(report.stops.len(), SHARDS);
    assert!(report.stops.iter().all(|x| x.outcome.is_clean()));
}

/// Sparse arrivals — one job every few milliseconds, far beyond the poll
/// window — cost exactly one wake-up each: the dispatcher parks, is
/// unparked by the submit, drains that one job and parks again, without a
/// single poll in between.
#[test]
fn sparse_arrivals_cost_one_wake_up_each() {
    const JOBS: u64 = 20;
    let mut c = cfg(PqConfig::SingleLock);
    c.shards = 1;
    let s = Arc::new(Scheduler::new(c).unwrap());
    s.start();
    for k in 0..JOBS {
        std::thread::sleep(Duration::from_millis(3));
        s.submit(0, JobSpec::once(TenantId(0), Deadline::In(1_000_000), k))
            .unwrap();
        wait_until("the lone job is dispatched", || s.in_flight() == 0);
    }
    // The dispatcher files its park before blocking; give the last one a
    // moment to be filed.
    wait_until("the dispatcher has parked again", || {
        s.telemetry().waits().parks > JOBS
    });
    let waits = s.telemetry().waits();
    let report = stop_within(&s, Duration::from_secs(30));
    assert_eq!(report.completed, JOBS);
    assert_eq!(waits.drains, JOBS, "one drain per job");
    assert_eq!(waits.mean_batch(), 1.0);
    assert_eq!(waits.parks, JOBS + 1, "the initial park, then one per job");
    assert_eq!(
        waits.poll_hits + waits.poll_misses,
        0,
        "millisecond parks must keep the poll window collapsed"
    );
}

/// A stream of one job per ~20 µs — inside the poll window, ten times the
/// coalescing bound apart — is drained job by job the moment each lands:
/// the dispatcher waits for a batch to fill only while it has not yet
/// measured a gap (its first two drains), never once it knows no company
/// is due. Gaps are counted from the previous submit, so a client that
/// loses its CPU makes them longer, never shorter.
#[test]
fn a_sparse_stream_is_drained_without_coalescing() {
    const JOBS: u64 = 400;
    let mut c = cfg(PqConfig::SingleLock);
    c.shards = 1;
    c.record_dispatches = false;
    let s = Arc::new(Scheduler::new(c).unwrap());
    s.start();
    for k in 0..JOBS {
        let tenant = TenantId((k % TENANTS as u64) as u32);
        s.submit(0, JobSpec::once(tenant, Deadline::In(1_000_000), k))
            .unwrap();
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_micros(20) {
            std::thread::yield_now();
        }
    }
    drain(&s);
    let waits = s.telemetry().waits();
    let report = stop_within(&s, Duration::from_secs(30));
    assert_eq!(report.completed, JOBS);
    assert_eq!(waits.drained, JOBS);
    assert!(
        waits.coalesced <= 2,
        "{} coalesce windows over {} drains of a sparse stream",
        waits.coalesced,
        waits.drains
    );
}

/// A producer submitting flat out keeps the dispatcher coalescing: jobs
/// land far closer together than the bound, so a backlog smaller than a
/// batch is worth the wait, and batches come out larger than one job.
///
/// Every `BURST` jobs the producer waits until the dispatcher has caught
/// up to less than a batch. Without the wait a dispatcher that falls
/// behind (it starts late, and 2 048 slots let the producer run far ahead)
/// drains full batches to the end and never meets the backlog smaller
/// than a batch that the coalesce decision is about. `BURST` is not a
/// multiple of `drain_batch`, so a dispatcher that drains full batches
/// all through a burst still meets a tail smaller than one. The pause is
/// one capped sample in the arrival estimate per ~8 batches, which keeps
/// the estimate under the bound.
#[test]
fn a_flat_out_producer_still_coalesces() {
    const JOBS: u64 = 20_000;
    const BURST: u64 = 61;
    let mut c = cfg(PqConfig::SingleLock);
    c.shards = 1;
    c.record_dispatches = false;
    let drain_batch = c.drain_batch;
    assert_ne!(BURST % drain_batch as u64, 0);
    let s = Arc::new(Scheduler::new(c).unwrap());
    s.start();
    let mut admitted = 0;
    while admitted < JOBS {
        if admitted % BURST == 0 {
            let t0 = std::time::Instant::now();
            while s.in_flight() >= drain_batch {
                assert!(
                    t0.elapsed() < Duration::from_secs(30),
                    "the dispatcher never caught up"
                );
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        let tenant = TenantId((admitted % TENANTS as u64) as u32);
        match s.submit(0, JobSpec::once(tenant, Deadline::In(1_000_000), admitted)) {
            Ok(_) => admitted += 1,
            Err(ServerError::Admit(_)) => std::thread::yield_now(),
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    drain(&s);
    let waits = s.telemetry().waits();
    let report = stop_within(&s, Duration::from_secs(30));
    assert_eq!(report.completed, JOBS);
    assert!(
        waits.coalesced > 0,
        "no coalesce window in {} drains",
        waits.drains
    );
    assert!(
        waits.mean_batch() > 1.0,
        "mean batch {:.2} over {} drains ({} coalesced)",
        waits.mean_batch(),
        waits.drains,
        waits.coalesced
    );
}
