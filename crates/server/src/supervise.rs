//! Dispatcher supervision: restart policy and the typed per-shard stop
//! outcome.
//!
//! Every shard's dispatcher loop runs under a supervisor (one
//! `catch_unwind` ring around each dispatch episode). When the loop
//! panics — a test's [`crate::SeamHandler`] panicking at
//! [`crate::Seam::DispatchJob`], a genuine bug in production — the
//! supervisor:
//!
//! 1. collects the *survivors*: jobs the episode had drained from the
//!    queue but not yet dispatched (they would otherwise be lost with the
//!    unwound stack);
//! 2. requeues them — back into the shard's own queue when a restart is
//!    coming, or through the [`crate::Router`] into a healthy shard when
//!    this shard is giving up;
//! 3. restarts the loop after a bounded exponential backoff, up to
//!    [`SuperviseConfig::max_restarts`] times.
//!
//! A shard that exhausts its restart budget marks itself unhealthy (the
//! scheduler routes around it, and an enqueue that raced the mark is
//! either turned back or waited out), drains its entire queue into
//! healthy shards, and exits with [`StopOutcome::GaveUp`]. Either way
//! [`crate::Scheduler::stop`] *returns* — it never re-raises a dispatcher
//! panic — and reports one [`StopReport`] per shard.
//!
//! Restarts and requeued jobs are filed once, in the shard's telemetry
//! cell: the live snapshot reads them there, and so does the final
//! [`crate::ServerReport`].

/// Restart policy for a shard's supervised dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// How many times a shard's dispatcher may be restarted after a panic
    /// before the shard gives up and fails over. `0` means any panic is
    /// terminal for the shard (its jobs still fail over to healthy
    /// shards — nothing is silently lost).
    pub max_restarts: u32,
    /// Backoff before the first restart, in nanoseconds. Each further
    /// restart doubles it.
    pub backoff_base_ns: u64,
    /// Ceiling on the restart backoff, in nanoseconds.
    pub backoff_max_ns: u64,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            max_restarts: 8,
            backoff_base_ns: 100_000,    // 100 µs
            backoff_max_ns: 100_000_000, // 100 ms
        }
    }
}

impl SuperviseConfig {
    /// The backoff before restart number `restart` (1-based): bounded
    /// exponential, `base << (restart - 1)` capped at `backoff_max_ns`.
    pub(crate) fn backoff_ns(&self, restart: u64) -> u64 {
        let shift = restart.saturating_sub(1).min(20);
        self.backoff_base_ns
            .saturating_mul(1u64 << shift)
            .min(self.backoff_max_ns)
    }
}

/// How one shard's dispatcher ended, as reported by [`crate::Scheduler::stop`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopOutcome {
    /// The dispatcher ran to completion without a single panic.
    Clean,
    /// The dispatcher panicked at least once but its supervisor recovered
    /// it within the restart budget; the shard finished its work.
    Recovered {
        /// How many times the dispatcher was restarted.
        restarts: u32,
        /// Jobs requeued after panics (all back into this shard).
        requeued: u64,
        /// The last panic's message.
        last_panic: String,
    },
    /// The dispatcher exhausted [`SuperviseConfig::max_restarts`]; the
    /// shard drained its queue into healthy shards and went dark.
    GaveUp {
        /// Restarts performed before giving up.
        restarts: u32,
        /// Jobs handed to healthy shards (plus any requeued on earlier
        /// restarts).
        requeued: u64,
        /// Jobs that could not be placed anywhere (no healthy shard
        /// left). Their admission slots were released and they are
        /// reported lost — the chaos harness asserts this is zero
        /// whenever a healthy shard exists.
        lost: u64,
        /// The last panic's message.
        last_panic: String,
    },
    /// The supervisor thread itself was lost (its `join` failed) — the
    /// shard's report is gone. This indicates a bug in the supervisor,
    /// not in a dispatched job; it is reported, never re-raised.
    SupervisorLost {
        /// The join error's panic message.
        message: String,
    },
}

impl StopOutcome {
    /// `true` for [`StopOutcome::Clean`].
    pub fn is_clean(&self) -> bool {
        matches!(self, StopOutcome::Clean)
    }

    /// Jobs reported lost by this shard (nonzero only for
    /// [`StopOutcome::GaveUp`] with no healthy shard left).
    pub fn lost(&self) -> u64 {
        match self {
            StopOutcome::GaveUp { lost, .. } => *lost,
            _ => 0,
        }
    }
}

/// One shard's typed stop entry: [`crate::Scheduler::stop`] returns one
/// per shard instead of propagating dispatcher panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StopReport {
    /// Which shard.
    pub shard: usize,
    /// How its dispatcher ended.
    pub outcome: StopOutcome,
}

/// Renders a caught panic payload as a message (the common `&str` /
/// `String` payloads verbatim, anything else a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_exponential() {
        let s = SuperviseConfig {
            max_restarts: 10,
            backoff_base_ns: 100,
            backoff_max_ns: 1_000,
        };
        assert_eq!(s.backoff_ns(1), 100);
        assert_eq!(s.backoff_ns(2), 200);
        assert_eq!(s.backoff_ns(3), 400);
        assert_eq!(s.backoff_ns(4), 800);
        assert_eq!(s.backoff_ns(5), 1_000, "capped");
        assert_eq!(s.backoff_ns(60), 1_000, "shift saturates, no overflow");
    }

    #[test]
    fn outcome_classifies_lost_jobs() {
        assert!(StopOutcome::Clean.is_clean());
        assert_eq!(StopOutcome::Clean.lost(), 0);
        let gave_up = StopOutcome::GaveUp {
            restarts: 2,
            requeued: 5,
            lost: 3,
            last_panic: "boom".into(),
        };
        assert!(!gave_up.is_clean());
        assert_eq!(gave_up.lost(), 3);
        let rec = StopOutcome::Recovered {
            restarts: 1,
            requeued: 4,
            last_panic: "boom".into(),
        };
        assert_eq!(rec.lost(), 0);
    }

    #[test]
    fn panic_messages_round_trip() {
        let b: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(b.as_ref()), "static str");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(b.as_ref()), "owned");
        let b: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(b.as_ref()), "non-string panic payload");
    }
}
