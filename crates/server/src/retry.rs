//! Client-side retry policy for refused submissions.
//!
//! Admission refusals are part of the server's contract — quota, capacity,
//! and (new in the resilience layer) deadline shedding all hand the job
//! back by value with a typed reason. A well-behaved client backs off
//! before retrying; a fleet of them must not resynchronise into a
//! thundering herd. [`RetryPolicy`] packages the house policy used by the
//! `pqstat` example: jittered exponential backoff, seeded per client so
//! runs replay, that honours the server's own [`AdmitError::Retry`] hint
//! when one is given.
//!
//! [`AdmitError::Retry`]: crate::AdmitError::Retry

use std::time::Duration;

use funnelpq_util::XorShift64Star;

use crate::error::{AdmitError, ServerError};

/// Jittered exponential backoff for resubmitting refused jobs.
///
/// `next_delay` classifies the error: transient refusals (quota, capacity,
/// a backend at its item capacity) get an exponentially growing delay; a shed job's
/// [`AdmitError::Retry`] carries the server's own estimate of when the
/// backlog will have drained, which overrides the exponential schedule;
/// permanent errors (bad tenant, stopped scheduler, config, a backend that
/// could not be built) return `None`
/// — retrying cannot help. Call [`RetryPolicy::note_ok`] after a
/// successful submit to reset the schedule.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    base_ns: u64,
    max_ns: u64,
    attempt: u32,
    rng: XorShift64Star,
}

impl RetryPolicy {
    /// Policy starting at `base_ns` and capping at `max_ns`, with jitter
    /// drawn from a stream seeded by `seed` (give each client thread its
    /// own seed).
    pub fn new(base_ns: u64, max_ns: u64, seed: u64) -> Self {
        RetryPolicy {
            base_ns: base_ns.max(1),
            max_ns: max_ns.max(base_ns.max(1)),
            attempt: 0,
            rng: XorShift64Star::new(seed | 1),
        }
    }

    /// Resets the exponential schedule after a successful submit.
    pub fn note_ok(&mut self) {
        self.attempt = 0;
    }

    /// How long to wait before resubmitting after `err`, or `None` when
    /// the error is permanent and a retry cannot succeed.
    pub fn next_delay(&mut self, err: &ServerError) -> Option<Duration> {
        let target_ns = match err {
            ServerError::Admit(AdmitError::Retry { after_ns, .. }) => {
                // The server already estimated the drain time; trust it
                // (still jittered so shed clients do not return in step).
                self.attempt = self.attempt.saturating_add(1);
                (*after_ns).clamp(self.base_ns, self.max_ns)
            }
            ServerError::Admit(AdmitError::TenantQuota { .. })
            | ServerError::Admit(AdmitError::Capacity { .. })
            | ServerError::Queue(_) => {
                let shift = self.attempt.min(20);
                self.attempt = self.attempt.saturating_add(1);
                self.base_ns.saturating_mul(1u64 << shift).min(self.max_ns)
            }
            _ => return None,
        };
        // Jitter in [target/2, target]: half the wait is deterministic,
        // half is spread so a synchronised burst decorrelates.
        let half = (target_ns / 2).max(1);
        let jittered = half + self.rng.below(half + 1);
        Some(Duration::from_nanos(jittered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, TenantId};

    fn job() -> Job {
        Job {
            id: 0,
            tenant: TenantId(0),
            payload: 0,
            deadline_ns: 1_000,
            period_ns: 0,
            repeats_left: 0,
            enqueued_ns: 0,
            enqueued_slot: 0,
        }
    }

    #[test]
    fn transient_errors_back_off_exponentially_with_jitter() {
        let mut p = RetryPolicy::new(1_000, 1_000_000, 42);
        let err = ServerError::Admit(AdmitError::Capacity {
            capacity: 8,
            job: job(),
        });
        let mut last_max = 0u64;
        for i in 0..6 {
            let d = p
                .next_delay(&err)
                .expect("capacity is transient")
                .as_nanos() as u64;
            let target = 1_000u64 << i;
            assert!(
                d >= target / 2 && d <= target,
                "attempt {i}: delay {d} outside [{}, {target}]",
                target / 2
            );
            assert!(d >= last_max / 4, "schedule must grow");
            last_max = d;
        }
        p.note_ok();
        let d = p.next_delay(&err).unwrap().as_nanos() as u64;
        assert!(d <= 1_000, "note_ok resets to base");
    }

    #[test]
    fn shed_hint_overrides_schedule_and_is_clamped() {
        let mut p = RetryPolicy::new(1_000, 1_000_000, 7);
        let hinted = ServerError::Admit(AdmitError::Retry {
            after_ns: 50_000,
            job: job(),
        });
        let d = p.next_delay(&hinted).unwrap().as_nanos() as u64;
        assert!(
            (25_000..=50_000).contains(&d),
            "half-to-full of the hint, got {d}"
        );

        let huge = ServerError::Admit(AdmitError::Retry {
            after_ns: u64::MAX,
            job: job(),
        });
        let d = p.next_delay(&huge).unwrap().as_nanos() as u64;
        assert!(d <= 1_000_000, "hint clamps to max_ns");
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let mut p = RetryPolicy::new(1_000, 1_000_000, 9);
        assert!(p
            .next_delay(&ServerError::Admit(AdmitError::TenantOutOfRange {
                tenant: TenantId(99),
                tenants: 4,
                job: job()
            }))
            .is_none());
        assert!(p.next_delay(&ServerError::Stopped { job: job() }).is_none());
        assert!(p.next_delay(&ServerError::Config { reason: "x" }).is_none());
        let unbuildable = ServerError::Build(funnelpq::BuildError::ZeroPriorities);
        assert!(p.next_delay(&unbuildable).is_none());
        // A backend's insert refusal is transient: the heap drains.
        let full = ServerError::Queue(funnelpq::PqError::CapacityExhausted { item: job() });
        assert!(p.next_delay(&full).is_some());
    }

    #[test]
    fn caps_never_overflow() {
        let mut p = RetryPolicy::new(u64::MAX / 2, u64::MAX, 3);
        let err = ServerError::Admit(AdmitError::Capacity {
            capacity: 8,
            job: job(),
        });
        for _ in 0..40 {
            let _ = p.next_delay(&err).unwrap();
        }
    }
}
