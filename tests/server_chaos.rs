//! Chaos tests for the `funnelpq-server` resilience layer: dispatcher
//! panics and stalls injected through the scheduler's seams, and client
//! admission bursts, driven against live schedulers, with a conservation
//! audit after every run — each admitted job must be dispatched exactly
//! once per firing, shed with the job returned, or explicitly reported
//! lost, and lost must be zero whenever a healthy shard exists.
//!
//! The two sweeps (panics; stalls with an admission burst) run three
//! backends × pinned seeds each, and each run is audited in full. The
//! give-up race test holds a submit at `Seam::SubmitRouted` while its
//! shard gives up.
//!
//! ```text
//! cargo test --release -p funnelpq-server --test server_chaos
//! ```

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use funnelpq::{MultiQueueConfig, PqConfig};
use funnelpq_server::{
    AdmitError, Deadline, JobId, JobSpec, OverloadConfig, Scheduler, Seam, SeamHandler,
    ServerConfig, ServerError, ServerReport, StopOutcome, SuperviseConfig, TenantId,
};
use funnelpq_util::XorShift64Star;

const SHARDS: usize = 2;
const TENANTS: usize = 8;
const CLIENTS: usize = 4;

fn backends() -> Vec<PqConfig> {
    vec![
        PqConfig::SingleLock,
        PqConfig::for_algorithm(funnelpq::Algorithm::FunnelTree).unwrap(),
        PqConfig::MultiQueue(MultiQueueConfig {
            factor: 4,
            ..MultiQueueConfig::default()
        }),
    ]
}

/// One dispatcher fault, fired at `Seam::DispatchJob` by [`faults`].
#[derive(Clone, Copy)]
enum Fault {
    /// Panic shard `shard`'s dispatcher at its dispatch count `at`.
    Panic { shard: usize, at: u64 },
    /// Stall shard `shard`'s dispatcher for `stall_ns` at its dispatch
    /// count `at`.
    Stall {
        shard: usize,
        at: u64,
        stall_ns: u64,
    },
}

/// A seam handler that fires each of `faults` once, at the first
/// `Seam::DispatchJob` of its shard whose count `n` is at least its `at`
/// (so a restarted dispatcher sails past a consumed trigger). The faults
/// are tried in list order: a panic fires at once, and a stall sleeps the
/// longest of the stalls that fired.
fn faults(faults: &[Fault]) -> SeamHandler {
    let armed: Vec<(Fault, AtomicBool)> = faults
        .iter()
        .map(|f| (*f, AtomicBool::new(false)))
        .collect();
    SeamHandler::new(move |seam| {
        let Seam::DispatchJob { shard, n } = seam else {
            return;
        };
        let mut stall_ns = 0;
        for (fault, fired) in &armed {
            match *fault {
                Fault::Panic { shard: s, at }
                    if s == shard && n >= at && !fired.swap(true, Ordering::Relaxed) =>
                {
                    panic!("injected: dispatcher panic at dispatch {n} on shard {shard}");
                }
                Fault::Stall {
                    shard: s,
                    at,
                    stall_ns: ns,
                } if s == shard && n >= at && !fired.swap(true, Ordering::Relaxed) => {
                    stall_ns = stall_ns.max(ns);
                }
                _ => {}
            }
        }
        std::thread::sleep(Duration::from_nanos(stall_ns));
    })
}

fn chaos_cfg(backend: PqConfig, seams: SeamHandler) -> ServerConfig {
    ServerConfig {
        shards: SHARDS,
        tenants: TENANTS,
        clients: CLIENTS,
        bands: 512,
        horizon_ns: 2_000_000_000,
        backend,
        drain_batch: 8,
        global_capacity: 2048,
        tenant_quota: 512,
        service_ns: 1, // unpaced: these tests assert recovery, not timing
        record_dispatches: true,
        // Pin tenants round-robin so both shards are guaranteed traffic
        // (and so per-shard fault triggers are guaranteed to fire).
        affinity: (0..TENANTS as u32)
            .map(|t| (TenantId(t), t as usize % SHARDS))
            .collect(),
        seams: Some(seams),
        ..ServerConfig::default()
    }
}

fn drain(s: &Scheduler) {
    let mut spins = 0;
    while s.in_flight() > 0 {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
        assert!(spins < 30_000, "scheduler failed to drain");
    }
}

/// The submit whose id reaches `BURST_AT` sets off an admission burst: its
/// client at once submits `BURST_JOBS` one-shot jobs, due in
/// `BURST_DEADLINE_NS`, for tenants drawn from the run's own seeded stream
/// (a thundering herd).
const BURST_AT: u64 = 100;
const BURST_JOBS: u32 = 64;
const BURST_DEADLINE_NS: u64 = 1_000_000_000;

/// Four client threads submit 250 jobs each, seeded: a one-shot/periodic
/// mix, or one-shot jobs only, while the dispatchers run (and crash, and
/// recover); with `burst`, one of them also sets off the admission burst.
/// Returns the ids the clients saw admitted, burst jobs included.
fn run_clients(s: &Arc<Scheduler>, seed: u64, one_shot_only: bool, burst: bool) -> HashSet<JobId> {
    let base = s.now_ns();
    let burst_fired = Arc::new(AtomicBool::new(!burst));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let s = Arc::clone(s);
            let burst_fired = Arc::clone(&burst_fired);
            std::thread::spawn(move || {
                let mut rng = XorShift64Star::new(seed ^ (client as u64) << 32);
                let mut admitted = Vec::new();
                let mut submit = |spec| match s.submit(client, spec) {
                    Ok(id) => {
                        admitted.push(id);
                        id
                    }
                    Err(ServerError::Admit(e)) => e.into_job().id,
                    Err(other) => panic!("unexpected submit error: {other}"),
                };
                for k in 0..250 {
                    let tenant = TenantId(rng.below(TENANTS as u64) as u32);
                    let deadline = Deadline::At(base + 1_000_000 + rng.below(1_000_000_000));
                    let spec = if k % 10 == 0 && !one_shot_only {
                        JobSpec::periodic(tenant, deadline, k, 1_000, 3)
                    } else {
                        JobSpec::once(tenant, deadline, k)
                    };
                    // A refused submit consumed an id too.
                    if submit(spec) >= BURST_AT && !burst_fired.swap(true, Ordering::Relaxed) {
                        let mut herd = XorShift64Star::new(seed | 1);
                        for _ in 0..BURST_JOBS {
                            let tenant = TenantId(herd.below(TENANTS as u64) as u32);
                            submit(JobSpec::once(tenant, Deadline::In(BURST_DEADLINE_NS), 0));
                        }
                    }
                }
                admitted
            })
        })
        .collect();
    let mut admitted_ids = HashSet::new();
    for h in handles {
        for id in h.join().unwrap() {
            assert!(admitted_ids.insert(id), "job ids must be unique");
        }
    }
    admitted_ids
}

/// The conservation audit: every admitted job dispatched at least once and
/// exactly once per firing, nothing invented, nothing silently dropped,
/// every panic answered by a restart and every shard stopped clean or
/// recovered. `admitted` holds the ids the clients saw admitted, which
/// are every job the server admitted, so the ids dispatched must be
/// exactly them.
fn assert_conserved(label: &str, admitted: &HashSet<JobId>, report: &ServerReport) {
    assert_eq!(report.in_flight_at_stop, 0, "{label}: slots leaked");
    assert_eq!(
        report.admitted,
        admitted.len() as u64,
        "{label}: the server admitted exactly the jobs the clients saw admitted"
    );
    assert_eq!(
        report.lost, 0,
        "{label}: no job may be lost while a shard is healthy"
    );
    assert_eq!(report.admitted, report.completed, "{label}");
    let mut seen: HashSet<JobId> = HashSet::new();
    let mut firings = 0u64;
    for shard in &report.shards {
        for rec in &shard.dispatch_log {
            seen.insert(rec.job);
            firings += 1;
        }
    }
    assert!(
        seen.is_superset(admitted),
        "{label}: every admitted job must be dispatched at least once"
    );
    assert_eq!(
        seen.len() as u64,
        report.admitted,
        "{label}: a dispatched job was never admitted"
    );
    assert_eq!(firings, report.dispatched, "{label}");
    assert_eq!(report.restarts, report.panics, "{label}");
    for stop in &report.stops {
        assert!(
            matches!(
                stop.outcome,
                StopOutcome::Clean | StopOutcome::Recovered { .. }
            ),
            "{label}: shard {} stopped {:?}",
            stop.shard,
            stop.outcome
        );
    }
}

/// Crash sweep: both dispatchers panic mid-run on every backend × seed
/// combination, with clients submitting the one-shot/periodic mix and
/// one-shot jobs only; the supervisors must recover every job and `stop()`
/// must report the panics instead of re-raising them.
#[test]
fn dispatcher_panics_lose_no_jobs_across_backends_and_seeds() {
    for backend in backends() {
        for (seed, one_shot_only) in [0xC0FFEE_u64, 0xBEEF, 0x5EED]
            .into_iter()
            .flat_map(|seed| [(seed, false), (seed, true)])
        {
            let label = format!(
                "{}/seed {seed:#x}/one-shot only {one_shot_only}",
                backend.algorithm().name()
            );
            let seams = faults(&[
                Fault::Panic { shard: 0, at: 20 },
                Fault::Panic { shard: 1, at: 35 },
            ]);
            let s = Arc::new(Scheduler::new(chaos_cfg(backend.clone(), seams)).unwrap());
            s.start();
            let admitted = run_clients(&s, seed, one_shot_only, false);
            drain(&s);
            let t = s.telemetry();
            let report = s.stop();

            assert_eq!(report.panics, 2, "{label}: both injected panics fired");
            assert_conserved(&label, &admitted, &report);
            for stop in &report.stops {
                match &stop.outcome {
                    StopOutcome::Recovered {
                        restarts,
                        last_panic,
                        ..
                    } => {
                        assert_eq!(*restarts, 1, "{label}");
                        assert!(last_panic.contains("injected"), "got {last_panic:?}");
                    }
                    other => panic!(
                        "{label}: shard {}: expected Recovered, got {other:?}",
                        stop.shard
                    ),
                }
            }
            // Live telemetry reconciles with the authoritative report.
            assert_eq!(t.restarts(), report.restarts, "{label}");
            assert_eq!(t.requeued(), report.requeued, "{label}");
            assert_eq!(t.dispatched(), report.dispatched, "{label}");
            assert_eq!(t.misses(), report.misses, "{label}");
            assert_eq!(t.shed(), report.shed, "{label}");
            assert_eq!(report.latency_ns.count(), report.dispatched, "{label}");
        }
    }
}

/// Stall + admission-burst sweep: dispatchers freeze mid-run while a
/// thundering herd lands at admission. Nothing panics, nothing is lost,
/// and the burst jobs are conserved like any others. Seeds 1–3 stall for
/// 5 ms, the panic sweep's three seeds for 2 ms.
#[test]
fn dispatcher_stalls_and_bursts_conserve_jobs() {
    let runs = [
        (1_u64, 5_000_000),
        (2, 5_000_000),
        (3, 5_000_000),
        (0xC0FFEE, 2_000_000),
        (0xBEEF, 2_000_000),
        (0x5EED, 2_000_000),
    ];
    for backend in backends() {
        for (seed, stall_ns) in runs {
            let label = format!(
                "{}/seed {seed:#x}/stall {stall_ns} ns",
                backend.algorithm().name()
            );
            let seams = faults(&[
                Fault::Stall {
                    shard: 0,
                    at: 10,
                    stall_ns,
                },
                Fault::Stall {
                    shard: 1,
                    at: 10,
                    stall_ns,
                },
            ]);
            let s = Arc::new(Scheduler::new(chaos_cfg(backend.clone(), seams)).unwrap());
            s.start();
            // One-shot only: with no re-arms the audit's counts (dispatched
            // = completed = admitted = distinct ids logged) leave no room for
            // a second dispatch of any id, burst jobs included.
            let admitted = run_clients(&s, seed, true, true);
            drain(&s);
            let report = s.stop();

            assert_eq!(report.panics, 0, "{label}: stalls are not crashes");
            assert!(report.stops.iter().all(|s| s.outcome.is_clean()), "{label}");
            assert!(
                report.submitted > 1_000,
                "{label}: the burst consumed ids beyond the clients' 1000"
            );
            assert_eq!(
                report.dispatched, report.completed,
                "{label}: one-shot only"
            );
            assert_conserved(&label, &admitted, &report);
        }
    }
}

/// A shard with no restart budget fails over: its queue drains into the
/// healthy shard, later submits route around it, and nothing is lost.
#[test]
fn exhausted_restart_budget_fails_over_to_healthy_shards() {
    let seams = faults(&[Fault::Panic { shard: 0, at: 5 }]);
    let mut cfg = chaos_cfg(PqConfig::SingleLock, seams);
    cfg.supervise = SuperviseConfig {
        max_restarts: 0,
        ..SuperviseConfig::default()
    };
    let s = Arc::new(Scheduler::new(cfg).unwrap());
    let base = s.now_ns() + 1_000_000_000;
    // Tenant 0 is pinned to shard 0 (the doomed one), tenant 1 to shard 1.
    for k in 0..100u64 {
        s.submit(0, JobSpec::once(TenantId(0), Deadline::At(base + k), k))
            .unwrap();
    }
    for k in 0..10u64 {
        s.submit(0, JobSpec::once(TenantId(1), Deadline::At(base + k), k))
            .unwrap();
    }
    s.start();
    // Wait for shard 0 to give up...
    let mut spins = 0;
    while s.shard_healthy(0) {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
        assert!(spins < 30_000, "shard 0 never gave up");
    }
    // ...then keep submitting for its pinned tenant: submits must reroute,
    // not bounce, not blackhole.
    for k in 0..20u64 {
        s.submit(
            0,
            JobSpec::once(TenantId(0), Deadline::At(base + k), 1_000 + k),
        )
        .unwrap();
    }
    drain(&s);
    let report = s.stop();

    assert_eq!(report.lost, 0, "the healthy shard absorbed everything");
    assert_eq!(report.admitted, 130);
    assert_eq!(report.completed, 130);
    assert!(report.requeued >= 90, "most of shard 0's queue failed over");
    match &report.stops[0].outcome {
        StopOutcome::GaveUp { restarts, lost, .. } => {
            assert_eq!(*restarts, 0);
            assert_eq!(*lost, 0);
        }
        other => panic!("expected GaveUp on shard 0, got {other:?}"),
    }
    assert!(report.stops[1].outcome.is_clean());
    // Shard 0 got at most its 5 pre-panic dispatches; shard 1 served the
    // rest, including every post-give-up submission.
    assert!(report.shards[0].dispatch_log.len() <= 5);
    assert!(report.shards[1].dispatch_log.len() >= 125);
    let late: Vec<_> = report.shards[1]
        .dispatch_log
        .iter()
        .filter(|r| r.tenant == TenantId(0))
        .collect();
    assert!(late.len() >= 115, "rerouted tenant-0 work ran on shard 1");
}

/// With a single shard there is nowhere to fail over: the give-up path
/// must release every stranded admission slot and report the jobs lost —
/// visible accounting, not a hang and not a leak.
#[test]
fn single_shard_give_up_reports_lost_jobs_and_releases_slots() {
    let cfg = ServerConfig {
        shards: 1,
        tenants: 2,
        clients: 1,
        bands: 64,
        horizon_ns: 1_000_000_000,
        service_ns: 1,
        record_dispatches: true,
        supervise: SuperviseConfig {
            max_restarts: 0,
            ..SuperviseConfig::default()
        },
        seams: Some(faults(&[Fault::Panic { shard: 0, at: 5 }])),
        ..ServerConfig::default()
    };
    let s = Scheduler::new(cfg).unwrap();
    let base = s.now_ns() + 1_000_000_000;
    for k in 0..50u64 {
        s.submit(0, JobSpec::once(TenantId(0), Deadline::At(base + k), k))
            .unwrap();
    }
    s.start();
    drain(&s); // give-up releases the stranded slots, so this terminates
    let report = s.stop();

    assert_eq!(report.admitted, 50);
    assert_eq!(
        report.completed + report.lost,
        report.admitted,
        "every admitted job is either completed or explicitly lost"
    );
    assert!(report.lost > 0, "the stranded queue had nowhere to go");
    assert_eq!(report.in_flight_at_stop, 0, "lost slots were released");
    match &report.stops[0].outcome {
        StopOutcome::GaveUp { lost, .. } => assert_eq!(*lost, report.lost),
        other => panic!("expected GaveUp, got {other:?}"),
    }
    // With every shard dark, further submits are refused with the typed
    // no-healthy-shard error (and the job comes back).
    let err = s
        .submit(0, JobSpec::once(TenantId(1), Deadline::In(1_000), 9))
        .unwrap_err();
    match err {
        ServerError::NoHealthyShard { job } => assert_eq!(job.payload, 9),
        other => panic!("expected NoHealthyShard, got {other:?}"),
    }
}

/// Overload shedding reacts to a stalled dispatcher: backlog piles up
/// behind the freeze, and a tight-deadline job is bounced with the
/// server's drain-time estimate instead of being admitted into a
/// guaranteed miss.
#[test]
fn shedding_reacts_to_a_stalled_dispatcher() {
    let cfg = ServerConfig {
        shards: 1,
        tenants: 2,
        clients: 1,
        bands: 512,
        horizon_ns: 60_000_000_000,
        service_ns: 50_000, // 50 µs per job
        overload: OverloadConfig {
            shed: true,
            margin_ns: 0,
        },
        seams: Some(faults(&[Fault::Stall {
            shard: 0,
            at: 0,
            stall_ns: 400_000_000,
        }])),
        ..ServerConfig::default()
    };
    let s = Scheduler::new(cfg).unwrap();
    // 60 long-deadline jobs: 3 ms of backlog at the pacing rate, far
    // within their 10 s slack — all admitted.
    for k in 0..60u64 {
        s.submit(
            0,
            JobSpec::once(TenantId(0), Deadline::In(10_000_000_000), k),
        )
        .unwrap();
    }
    s.start();
    // Give the dispatcher time to hit the stall (fires before dispatch 0).
    std::thread::sleep(Duration::from_millis(50));
    // A 1 ms deadline cannot clear the stalled backlog: shed with a hint.
    let err = s
        .submit(0, JobSpec::once(TenantId(1), Deadline::In(1_000_000), 7))
        .unwrap_err();
    match err {
        ServerError::Admit(AdmitError::Retry { after_ns, job }) => {
            assert!(after_ns > 0);
            assert_eq!(job.payload, 7);
        }
        other => panic!("expected Retry, got {other:?}"),
    }
    drain(&s);
    let report = s.stop();
    assert_eq!(report.shed, 1);
    assert_eq!(report.admitted, 60);
    assert_eq!(report.completed, 60);
    assert!(report.stops.iter().all(|x| x.outcome.is_clean()));
}

/// A dispatcher that panics on its way out of a park and is restarted
/// keeps its wake protocol: the supervisor's requeue goes through the same
/// enqueue path as a submit, the restarted loop re-registers itself and
/// clears whatever the dead incarnation left of the parked flag, and jobs
/// submitted after it has parked *again* still wake it.
#[test]
fn a_dispatcher_restarted_around_a_park_still_wakes() {
    let seams = faults(&[Fault::Panic { shard: 0, at: 0 }]);
    let mut cfg = chaos_cfg(PqConfig::SingleLock, seams);
    cfg.shards = 1;
    cfg.affinity.clear();
    let s = Scheduler::new(cfg).unwrap();
    s.start();
    let parks = |s: &Scheduler| s.telemetry().waits().parks;
    let base = s.now_ns() + 1_000_000_000;
    let mut parked_before = 0;
    for _round in 0..2 {
        // Only submit once the dispatcher has (re-)parked on the empty queue.
        let mut spins = 0;
        while parks(&s) == parked_before {
            std::thread::sleep(Duration::from_millis(1));
            spins += 1;
            assert!(spins < 30_000, "dispatcher never parked");
        }
        parked_before = parks(&s);
        for k in 0..10u64 {
            s.submit(0, JobSpec::once(TenantId(0), Deadline::At(base + k), k))
                .unwrap();
        }
        drain(&s); // the first round panics on its first dispatch and recovers
    }
    let report = s.stop();
    assert_eq!(report.panics, 1);
    assert_eq!(report.completed, 20);
    assert_eq!(report.lost, 0);
    assert!(matches!(
        report.stops[0].outcome,
        StopOutcome::Recovered { restarts: 1, .. }
    ));
}

/// Give-up failover into a *parked* peer: shard 1 has no traffic of its
/// own and parks at start; shard 0 sits in an injected stall, then
/// exhausts its (zero) restart budget and pours its queue into shard 1
/// through the recovery slot. Those inserts must wake shard 1 — nothing
/// else ever will — or the jobs strand and the drain watchdog trips.
#[test]
fn failover_into_a_parked_peer_wakes_it() {
    let seams = faults(&[
        Fault::Stall {
            shard: 0,
            at: 0,
            stall_ns: 50_000_000,
        },
        Fault::Panic { shard: 0, at: 5 },
    ]);
    let mut cfg = chaos_cfg(PqConfig::SingleLock, seams);
    cfg.supervise = SuperviseConfig {
        max_restarts: 0,
        ..SuperviseConfig::default()
    };
    let s = Scheduler::new(cfg).unwrap();
    let base = s.now_ns() + 1_000_000_000;
    // Tenant 0 is pinned to shard 0; shard 1 gets nothing.
    for k in 0..100u64 {
        s.submit(0, JobSpec::once(TenantId(0), Deadline::At(base + k), k))
            .unwrap();
    }
    s.start();
    drain(&s);
    let t = s.telemetry();
    let report = s.stop();

    assert_eq!(report.lost, 0);
    assert_eq!(report.completed, 100);
    assert!(report.requeued >= 90, "shard 0's queue failed over");
    assert!(t.shards[1].waits.parks >= 1, "shard 1 had parked");
    assert!(report.shards[1].dispatch_log.len() >= 90);
    assert!(matches!(
        report.stops[0].outcome,
        StopOutcome::GaveUp { lost: 0, .. }
    ));
    assert!(report.stops[1].outcome.is_clean());
}

/// Admission slots are freed once per drained batch, so a panic in the
/// middle of one finds jobs that have completed but whose slots are still
/// owed. One shard, 48 one-shot jobs queued before `start` (so every drain
/// takes a full 16), and a panic injected before the k-th job of the
/// second batch: the k − 1 jobs ahead of it have their slots freed by the
/// supervisor before it requeues — read here during its restart backoff —
/// the 17 − k behind it (the job in hand included) are requeued and
/// complete after the restart, and nothing is freed twice: `in_flight`
/// would wrap instead of reaching zero.
#[test]
fn a_panic_mid_batch_frees_the_finished_jobs_slots_exactly_once() {
    const JOBS: u64 = 48;
    const BACKOFF_NS: u64 = 200_000_000;
    for k in [1u64, 8, 16] {
        let seams = faults(&[Fault::Panic {
            shard: 0,
            at: 16 + k - 1,
        }]);
        let mut cfg = chaos_cfg(PqConfig::SingleLock, seams);
        cfg.shards = 1;
        cfg.affinity.clear();
        cfg.drain_batch = 16;
        cfg.supervise.backoff_base_ns = BACKOFF_NS;
        cfg.supervise.backoff_max_ns = BACKOFF_NS;
        let s = Scheduler::new(cfg).unwrap();
        let base = s.now_ns() + 1_000_000_000;
        let admitted: HashSet<JobId> = (0..JOBS)
            .map(|j| {
                let tenant = TenantId((j % TENANTS as u64) as u32);
                s.submit(0, JobSpec::once(tenant, Deadline::At(base + j), j))
                    .unwrap()
            })
            .collect();
        s.start();
        // The restart is filed after the requeue and before the backoff.
        let mut spins = 0;
        while s.telemetry().restarts() == 0 {
            std::thread::sleep(Duration::from_millis(1));
            spins += 1;
            assert!(spins < 30_000, "k = {k}: the dispatcher never restarted");
        }
        assert_eq!(
            s.in_flight() as u64,
            JOBS - (16 + k - 1),
            "k = {k}: slots of the jobs dispatched before the panic are free"
        );
        drain(&s);
        let report = s.stop();

        assert_eq!(report.panics, 1, "k = {k}");
        assert_eq!(report.restarts, 1, "k = {k}");
        assert_eq!(report.requeued, 17 - k, "k = {k}: survivors of the batch");
        assert_eq!(report.completed, JOBS, "k = {k}");
        assert_conserved(&format!("k = {k}"), &admitted, &report);
        let log = &report.shards[0].dispatch_log;
        assert_eq!(log.len() as u64, JOBS, "k = {k}: each job dispatched once");
    }
}

/// The give-up race: a submit that has routed to a shard, and has not yet
/// enqueued, when that shard gives up. Shard 0 has no restart budget and
/// panics at its first dispatch; the second submit routed to it is held
/// at `Seam::SubmitRouted` until shard 0's give-up has drained its queue
/// for the last time. The held job must not land in that queue, which
/// nobody drains any more: it is re-routed, and shard 1 runs it.
#[test]
fn a_submit_racing_a_give_up_is_rerouted_not_stranded() {
    // 0: under way; 1: the submit is held; 2: shard 0 has drained.
    let phase = Arc::new((Mutex::new(0u8), Condvar::new()));
    let advance = |phase: &(Mutex<u8>, Condvar), to: u8| {
        *phase.0.lock().unwrap() = to;
        phase.1.notify_all();
    };
    let reached = |phase: &(Mutex<u8>, Condvar), at: u8| {
        drop(phase.1.wait_while(phase.0.lock().unwrap(), |p| *p < at));
    };
    let seams = {
        let phase = Arc::clone(&phase);
        let (dispatched, routed_to_0) = (AtomicBool::new(false), AtomicUsize::new(0));
        SeamHandler::new(move |seam| match seam {
            Seam::DispatchJob { shard: 0, n } if !dispatched.swap(true, Ordering::Relaxed) => {
                panic!("injected: dispatcher panic at dispatch {n} on shard 0");
            }
            Seam::SubmitRouted { shard: 0 } if routed_to_0.fetch_add(1, Ordering::Relaxed) == 1 => {
                advance(&phase, 1);
                reached(&phase, 2);
            }
            Seam::GiveUpDrained { shard: 0 } => advance(&phase, 2),
            _ => {}
        })
    };
    let mut cfg = chaos_cfg(PqConfig::SingleLock, seams);
    cfg.supervise = SuperviseConfig {
        max_restarts: 0,
        ..SuperviseConfig::default()
    };
    let s = Arc::new(Scheduler::new(cfg).unwrap());
    let base = s.now_ns() + 1_000_000_000;
    // Tenant 0 is pinned to shard 0. The first job is the one whose
    // dispatch panics; the second is held, routed to a healthy shard 0,
    // before the dispatchers start.
    s.submit(0, JobSpec::once(TenantId(0), Deadline::At(base), 0))
        .unwrap();
    let racer = {
        let s = Arc::clone(&s);
        std::thread::spawn(move || s.submit(1, JobSpec::once(TenantId(0), Deadline::At(base), 1)))
    };
    reached(&phase, 1);
    s.start();
    let racer_id = racer.join().unwrap().expect("the held submit is admitted");
    // The give-up files its failover of the first job once it has placed it.
    let mut spins = 0;
    while s.telemetry().requeued() == 0 {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
        assert!(spins < 30_000, "shard 0 never failed over");
    }
    let report = s.stop();

    assert_eq!(report.in_flight_at_stop, 0, "the held job was stranded");
    assert_eq!(report.lost, 0);
    assert_eq!((report.admitted, report.completed), (2, 2));
    assert!(matches!(
        report.stops[0].outcome,
        StopOutcome::GaveUp { lost: 0, .. }
    ));
    assert!(
        report.shards[1]
            .dispatch_log
            .iter()
            .any(|r| r.job == racer_id),
        "shard 1 ran the held job"
    );
}
