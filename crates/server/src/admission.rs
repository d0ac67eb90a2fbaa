//! Admission control: per-tenant quotas plus a global in-flight cap.
//!
//! Counters are optimistic `fetch_add` / check / undo so the admit path is
//! two uncontended RMWs in the common case and never takes a lock. A
//! counter already at its limit is refused on a plain load, so submitters
//! spinning against a full server read the lines the dispatcher's release
//! writes instead of taking them away from it. Each
//! counter sits on its own cache line ([`CachePadded`]) — under hot-tenant
//! skew the hot tenant's counter would otherwise false-share with its
//! neighbours — and so do the tallies only submitters write, away from the
//! limits and the `tenants` header every release reads.
//!
//! The counters guard no data (a job travels through its shard's queue,
//! which synchronizes itself), so the admit side is `Relaxed`: an RMW reads
//! the latest value in its counter's modification order, all add-check-undo
//! needs to never over-admit. Only freeing a slot publishes something —
//! "this job's dispatch is done" — to whoever watches [`Admission::in_flight`]
//! fall: `Release` there, `Acquire` on the load (the admit side's relaxed
//! RMWs continue the release sequence).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use funnelpq_util::CachePadded;

use crate::error::AdmitError;
use crate::job::Job;

/// Takes one of `limit` slots on `counter`, or leaves it as it was.
fn reserve(counter: &AtomicUsize, limit: usize) -> bool {
    // ORDERING: Relaxed load, add and undo; the check that admits is on the
    // RMW's own return value (module docs), the load only skips an RMW that
    // would be undone.
    if counter.load(Ordering::Relaxed) >= limit {
        return false;
    }
    if counter.fetch_add(1, Ordering::Relaxed) >= limit {
        counter.fetch_sub(1, Ordering::Relaxed);
        return false;
    }
    true
}

/// Per-tenant quota + global capacity gate in front of the shard queues.
#[derive(Debug)]
pub(crate) struct Admission {
    capacity: usize,
    quota: usize,
    global: CachePadded<AtomicUsize>,
    tenants: Vec<CachePadded<AtomicUsize>>,
    tallies: CachePadded<Tallies>,
}

/// Written by submitters on every submit, read once at `stop`.
#[derive(Debug, Default)]
struct Tallies {
    admitted: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_capacity: AtomicU64,
}

impl Admission {
    pub(crate) fn new(tenants: usize, quota: usize, capacity: usize) -> Self {
        Admission {
            capacity,
            quota,
            global: CachePadded::new(AtomicUsize::new(0)),
            tenants: (0..tenants)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            tallies: CachePadded::default(),
        }
    }

    /// Tries to reserve one in-flight slot for `job`'s tenant. On refusal
    /// the counters are rolled back and the job rides home in the error.
    /// A reserved slot is not yet an admitted job ([`Self::count_admitted`]).
    pub(crate) fn try_admit(&self, job: Job) -> Result<(), AdmitError> {
        let t = job.tenant.0 as usize;
        let Some(per_tenant) = self.tenants.get(t) else {
            return Err(AdmitError::TenantOutOfRange {
                tenant: job.tenant,
                tenants: self.tenants.len(),
                job,
            });
        };
        if !reserve(per_tenant, self.quota) {
            // ORDERING: Relaxed, a statistic (as are the other two tallies).
            self.tallies.rejected_quota.fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::TenantQuota {
                tenant: job.tenant,
                quota: self.quota,
                job,
            });
        }
        if !reserve(&self.global, self.capacity) {
            // ORDERING: Relaxed, the undo of the tenant's reservation.
            per_tenant.fetch_sub(1, Ordering::Relaxed);
            self.tallies
                .rejected_capacity
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::Capacity {
                capacity: self.capacity,
                job,
            });
        }
        Ok(())
    }

    /// Counts one admitted job, once its shard has taken it: a job refused
    /// after admission gives its slot back through [`Self::release`] and is
    /// never counted, so `admitted == completed + lost` at quiesce.
    pub(crate) fn count_admitted(&self) {
        // ORDERING: Relaxed, a statistic.
        self.tallies.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Releases the slots reserved by successful [`Self::try_admit`]s, one
    /// per entry of `tenants`, and empties it: one `fetch_sub` per distinct
    /// tenant and one on the global count, however many jobs. A dispatcher
    /// calls this once per drained batch with the tenants of the jobs that
    /// finished in it (periodic jobs hold their slot across re-arms: a
    /// timer that re-files itself never left the system).
    pub(crate) fn release(&self, tenants: &mut Vec<usize>) {
        if tenants.is_empty() {
            return;
        }
        tenants.sort_unstable();
        // ORDERING: Release, both counters; partner is the Acquire load in
        // `in_flight` / `tenant_in_flight` (module docs).
        for run in tenants.chunk_by(|a, b| a == b) {
            self.tenants[run[0]].fetch_sub(run.len(), Ordering::Release);
        }
        self.global.fetch_sub(tenants.len(), Ordering::Release);
        tenants.clear();
    }

    pub(crate) fn in_flight(&self) -> usize {
        // ORDERING: Acquire; partner is the Release `fetch_sub` in `release`.
        self.global.load(Ordering::Acquire)
    }

    #[cfg(test)]
    pub(crate) fn tenant_in_flight(&self, tenant: usize) -> usize {
        // ORDERING: Acquire, as `in_flight`.
        self.tenants[tenant].load(Ordering::Acquire)
    }

    // ORDERING: Relaxed, statistics; `stop` reads them once clients quiesced.
    pub(crate) fn admitted(&self) -> u64 {
        self.tallies.admitted.load(Ordering::Relaxed)
    }

    pub(crate) fn rejected_quota(&self) -> u64 {
        self.tallies.rejected_quota.load(Ordering::Relaxed)
    }

    pub(crate) fn rejected_capacity(&self) -> u64 {
        self.tallies.rejected_capacity.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TenantId;

    fn job(tenant: u32) -> Job {
        Job {
            id: 0,
            tenant: TenantId(tenant),
            deadline_ns: 0,
            payload: 0,
            period_ns: 0,
            repeats_left: 0,
            enqueued_ns: 0,
            enqueued_slot: 0,
        }
    }

    #[test]
    fn quota_is_enforced_per_tenant() {
        let a = Admission::new(2, 2, 100);
        assert!(a.try_admit(job(0)).is_ok());
        assert!(a.try_admit(job(0)).is_ok());
        assert!(matches!(
            a.try_admit(job(0)),
            Err(AdmitError::TenantQuota { quota: 2, .. })
        ));
        // A different tenant is unaffected.
        assert!(a.try_admit(job(1)).is_ok());
        assert_eq!(a.admitted(), 0, "a reserved slot is not yet counted");
        for _ in 0..3 {
            a.count_admitted();
        }
        assert_eq!(a.admitted(), 3);
        assert_eq!(a.rejected_quota(), 1);
        // Releasing frees the slot again.
        a.release(&mut vec![0]);
        assert!(a.try_admit(job(0)).is_ok());
    }

    #[test]
    fn global_capacity_caps_the_sum() {
        let a = Admission::new(4, 10, 3);
        for t in 0..3 {
            assert!(a.try_admit(job(t)).is_ok());
        }
        assert!(matches!(
            a.try_admit(job(3)),
            Err(AdmitError::Capacity { capacity: 3, .. })
        ));
        assert_eq!(a.in_flight(), 3);
        assert_eq!(a.rejected_capacity(), 1);
        // The failed admit must have rolled back tenant 3's counter too.
        assert_eq!(a.tenant_in_flight(3), 0);
    }

    #[test]
    fn unknown_tenant_is_refused_with_the_job() {
        let a = Admission::new(2, 2, 2);
        let e = a.try_admit(job(7)).unwrap_err();
        assert!(matches!(e, AdmitError::TenantOutOfRange { tenants: 2, .. }));
        assert_eq!(e.into_job().tenant, TenantId(7));
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn concurrent_admits_never_exceed_capacity() {
        let a = std::sync::Arc::new(Admission::new(8, 64, 100));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let a = std::sync::Arc::clone(&a);
                let peak = std::sync::Arc::clone(&peak);
                std::thread::spawn(move || {
                    let mut admitted = 0u64;
                    for _ in 0..500 {
                        if a.try_admit(job(t)).is_ok() {
                            peak.fetch_max(a.in_flight(), Ordering::Relaxed);
                            a.count_admitted();
                            admitted += 1;
                            a.release(&mut vec![t as usize]);
                        }
                    }
                    admitted
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(a.admitted(), total);
        assert_eq!(a.in_flight(), 0, "every admit was released");
        // fetch_add-then-check admits at most capacity concurrently; the
        // observed peak can legitimately reach it but never exceed it.
        assert!(peak.load(Ordering::Relaxed) <= 100);
    }

    /// Deferred release (the dispatcher frees slots a drained batch at a
    /// time) may only under-admit: eight threads admit — two per tenant, so
    /// both limits are contended — while one frees what they were granted
    /// sixteen at a time. The shadow counts go up after an admit succeeded
    /// and down before the release, so they never read above the real
    /// population, and the real population must never pass a limit.
    #[test]
    fn batched_release_under_concurrent_admits_never_over_admits() {
        use std::sync::{mpsc, Arc, Barrier};
        const ADMITTERS: usize = 8;
        const TENANTS: usize = 4;
        const QUOTA: usize = 12;
        const CAPACITY: usize = 40;
        const EACH: usize = 2_000;
        const BATCH: usize = 16;
        let a = Arc::new(Admission::new(TENANTS, QUOTA, CAPACITY));
        let held: Arc<Vec<AtomicUsize>> =
            Arc::new((0..=TENANTS).map(|_| AtomicUsize::new(0)).collect());
        let start = Arc::new(Barrier::new(ADMITTERS + 1));
        let (granted, grants) = mpsc::channel::<usize>();
        let admitters: Vec<_> = (0..ADMITTERS)
            .map(|i| {
                let (a, held, start) = (Arc::clone(&a), Arc::clone(&held), Arc::clone(&start));
                let granted = granted.clone();
                let t = i % TENANTS;
                std::thread::spawn(move || {
                    start.wait();
                    let mut admitted = 0;
                    while admitted < EACH {
                        if a.try_admit(job(t as u32)).is_err() {
                            std::thread::yield_now();
                            continue;
                        }
                        a.count_admitted();
                        admitted += 1;
                        let mine = held[t].fetch_add(1, Ordering::SeqCst) + 1;
                        let all = held[TENANTS].fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(mine <= QUOTA, "tenant {t} holds {mine} > quota {QUOTA}");
                        assert!(all <= CAPACITY, "{all} slots held > capacity {CAPACITY}");
                        // The raw counters may overshoot by one per admitter
                        // caught between its add and its undo, never more.
                        assert!(a.in_flight() < CAPACITY + ADMITTERS);
                        assert!(a.tenant_in_flight(t) < QUOTA + ADMITTERS / TENANTS);
                        granted.send(t).unwrap();
                    }
                })
            })
            .collect();
        drop(granted);
        start.wait();
        let mut batch = Vec::with_capacity(BATCH);
        let mut released = 0;
        loop {
            // Block for one grant, then take what else is there, up to a batch.
            batch.extend(grants.recv().ok());
            while batch.len() < BATCH {
                match grants.try_recv() {
                    Ok(t) => batch.push(t),
                    Err(_) => break,
                }
            }
            if batch.is_empty() {
                break; // every admitter is done and its grants are freed
            }
            for &t in &batch {
                held[t].fetch_sub(1, Ordering::SeqCst);
                held[TENANTS].fetch_sub(1, Ordering::SeqCst);
            }
            released += batch.len();
            a.release(&mut batch);
        }
        for h in admitters {
            h.join().unwrap();
        }
        assert_eq!(released, ADMITTERS * EACH);
        assert_eq!(a.admitted(), released as u64);
        assert_eq!(a.in_flight(), 0, "every slot came back exactly once");
        for t in 0..TENANTS {
            assert_eq!(a.tenant_in_flight(t), 0);
        }
        assert!(
            a.rejected_quota() + a.rejected_capacity() > 0,
            "the limits must actually have been contended"
        );
    }

    #[test]
    fn release_frees_each_tenant_once_per_run_of_the_batch() {
        let a = Admission::new(3, 8, 16);
        for t in [0, 2, 0, 1, 2, 0] {
            a.try_admit(job(t)).unwrap();
        }
        a.release(&mut vec![2, 0, 0]);
        assert_eq!(a.in_flight(), 3);
        assert_eq!(
            [0, 1, 2].map(|t| a.tenant_in_flight(t)),
            [1, 1, 1],
            "two of tenant 0's three and one of tenant 2's two"
        );
        a.release(&mut vec![]);
        a.release(&mut vec![1, 2, 0]);
        assert_eq!(a.in_flight(), 0);
        assert_eq!([0, 1, 2].map(|t| a.tenant_in_flight(t)), [0, 0, 0]);
    }

    /// The tallies only submitters write must not share a 128-byte line
    /// with anything a dispatcher's release touches, nor `global` with the
    /// read-only limits.
    #[test]
    fn client_written_tallies_and_the_global_count_own_their_lines() {
        use crate::shard::{assert_owns_its_lines, span};
        let a = Admission::new(1, 1, 1);
        assert_eq!(std::mem::align_of::<Admission>(), 128);
        let fields = [
            span!(a, Admission, capacity),
            span!(a, Admission, quota),
            span!(a, Admission, global),
            span!(a, Admission, tenants),
            span!(a, Admission, tallies),
        ];
        assert_owns_its_lines(&fields, &["global", "tallies"]);
    }
}
