//! Typed server errors: admission rejections and everything beneath them.
//!
//! The server never panics on load: every refusal carries the rejected
//! [`Job`] back to the caller (same ownership contract as
//! [`funnelpq::PqError::into_item`]). The queue layer can fail in two
//! places only: a shard's backend cannot be built (a
//! [`funnelpq::BuildError`] from [`crate::Scheduler::new`]), or it refuses
//! an insert (a [`funnelpq::PqError`] carrying the job).

use crate::job::{Job, TenantId};

/// Why admission control refused a job. Carries the job back so the caller
/// can retry, shed, or requeue it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The tenant already has `quota` jobs in flight.
    TenantQuota {
        /// The tenant whose quota is exhausted.
        tenant: TenantId,
        /// The per-tenant in-flight quota.
        quota: usize,
        /// The rejected job.
        job: Job,
    },
    /// The scheduler as a whole already has `capacity` jobs in flight.
    Capacity {
        /// The global in-flight capacity.
        capacity: usize,
        /// The rejected job.
        job: Job,
    },
    /// `tenant` is outside the configured dense range
    /// (`0..ServerConfig::tenants`).
    TenantOutOfRange {
        /// The offending tenant.
        tenant: TenantId,
        /// The configured tenant count.
        tenants: usize,
        /// The rejected job.
        job: Job,
    },
    /// Overload control shed the job: its deadline is unmeetable given the
    /// target shard's backlog and measured dispatch rate, so admitting it
    /// would only burn a slot on a guaranteed miss. The server's own
    /// drain-time estimate rides along as a backpressure hint
    /// ([`crate::RetryPolicy`] honours it).
    Retry {
        /// The server's estimate of when the backlog will have drained
        /// enough for the job to be worth resubmitting, in nanoseconds
        /// from now.
        after_ns: u64,
        /// The shed job.
        job: Job,
    },
}

impl AdmitError {
    /// Recovers the rejected job.
    pub fn into_job(self) -> Job {
        match self {
            AdmitError::TenantQuota { job, .. }
            | AdmitError::Capacity { job, .. }
            | AdmitError::TenantOutOfRange { job, .. }
            | AdmitError::Retry { job, .. } => job,
        }
    }
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::TenantQuota { tenant, quota, .. } => {
                write!(f, "{tenant} at quota ({quota} jobs in flight)")
            }
            AdmitError::Capacity { capacity, .. } => {
                write!(f, "scheduler at capacity ({capacity} jobs in flight)")
            }
            AdmitError::TenantOutOfRange {
                tenant, tenants, ..
            } => write!(f, "{tenant} out of range (tenants {tenants})"),
            AdmitError::Retry { after_ns, .. } => {
                write!(f, "shed: deadline unmeetable, retry in {after_ns}ns")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// Any error the scheduler can hand a caller.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// Admission control refused the job (quota, capacity, unknown
    /// tenant); the job rides inside.
    Admit(AdmitError),
    /// A shard's backend queue could not be built.
    Build(funnelpq::BuildError),
    /// A shard's backend queue refused the insert (a HuntEtAl heap at
    /// capacity); the job rides inside and its admission slot is freed.
    Queue(funnelpq::PqError<Job>),
    /// The scheduler is stopping; the job was not accepted.
    Stopped {
        /// The rejected job.
        job: Job,
    },
    /// The [`crate::ServerConfig`] itself is unusable.
    Config {
        /// What was wrong.
        reason: &'static str,
    },
    /// Every shard that could serve the job has gone dark (its dispatcher
    /// exhausted the restart budget); the job was not accepted.
    NoHealthyShard {
        /// The rejected job.
        job: Job,
    },
}

impl ServerError {
    /// Recovers the rejected job, when this error carries one (build
    /// and config errors do not).
    pub fn into_job(self) -> Option<Job> {
        match self {
            ServerError::Admit(e) => Some(e.into_job()),
            ServerError::Queue(e) => Some(e.into_item()),
            ServerError::Stopped { job } | ServerError::NoHealthyShard { job } => Some(job),
            ServerError::Build(_) | ServerError::Config { .. } => None,
        }
    }
}

impl From<AdmitError> for ServerError {
    fn from(e: AdmitError) -> Self {
        ServerError::Admit(e)
    }
}

impl From<funnelpq::BuildError> for ServerError {
    fn from(e: funnelpq::BuildError) -> Self {
        ServerError::Build(e)
    }
}

impl From<funnelpq::PqError<Job>> for ServerError {
    fn from(e: funnelpq::PqError<Job>) -> Self {
        ServerError::Queue(e)
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Admit(e) => write!(f, "admission: {e}"),
            ServerError::Build(e) => write!(f, "build: {e}"),
            ServerError::Queue(e) => write!(f, "queue: {e}"),
            ServerError::Stopped { .. } => write!(f, "scheduler is stopping"),
            ServerError::Config { reason } => write!(f, "config: {reason}"),
            ServerError::NoHealthyShard { .. } => write!(f, "no healthy shard available"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Admit(e) => Some(e),
            ServerError::Build(e) => Some(e),
            ServerError::Queue(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64) -> Job {
        Job {
            id,
            tenant: TenantId(1),
            deadline_ns: 100,
            payload: 7,
            period_ns: 0,
            repeats_left: 0,
            enqueued_ns: 0,
            enqueued_slot: 0,
        }
    }

    #[test]
    fn admit_errors_carry_the_job_back() {
        let e = AdmitError::TenantQuota {
            tenant: TenantId(1),
            quota: 4,
            job: job(9),
        };
        assert!(e.to_string().contains("tenant1 at quota (4"));
        assert_eq!(e.into_job().id, 9);
    }

    #[test]
    fn server_error_recovers_jobs_through_every_layer() {
        let e: ServerError = AdmitError::Capacity {
            capacity: 10,
            job: job(1),
        }
        .into();
        assert_eq!(e.into_job().map(|j| j.id), Some(1));

        // A backend's insert refusal hands the job back too.
        let e: ServerError = funnelpq::PqError::CapacityExhausted { item: job(2) }.into();
        assert_eq!(e.clone().into_job().map(|j| j.id), Some(2));
        assert!(e.to_string().starts_with("queue: "));

        let e: ServerError = funnelpq::BuildError::ZeroPriorities.into();
        assert_eq!(e.into_job(), None);

        let e = ServerError::Stopped { job: job(3) };
        assert_eq!(e.into_job().map(|j| j.id), Some(3));
    }

    #[test]
    fn resilience_errors_are_typed() {
        let e = AdmitError::Retry {
            after_ns: 5_000,
            job: job(4),
        };
        assert!(e.to_string().contains("retry in 5000ns"));
        assert_eq!(e.into_job().id, 4);

        let e = ServerError::NoHealthyShard { job: job(5) };
        assert_eq!(e.to_string(), "no healthy shard available");
        assert_eq!(e.into_job().map(|j| j.id), Some(5));
    }
}
