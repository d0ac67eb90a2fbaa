//! Bounded exponential backoff, replacing `crossbeam_utils::Backoff`.

use std::cell::Cell;

const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;

/// Exponential backoff for contended retry loops: short spins first, then
/// progressively longer spins, then OS-level yields.
///
/// # Examples
///
/// ```
/// use funnelpq_util::Backoff;
/// let backoff = Backoff::new();
/// for _ in 0..4 {
///     backoff.snooze();
/// }
/// ```
#[derive(Debug, Default)]
pub struct Backoff {
    step: Cell<u32>,
}

impl Backoff {
    /// Creates a backoff at the shortest delay.
    pub fn new() -> Self {
        Backoff::default()
    }

    /// Resets to the shortest delay.
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Spins `2^step` times (capped), for lock-free retries where the
    /// awaited condition changes quickly.
    pub fn spin(&self) {
        let step = self.step.get().min(SPIN_LIMIT);
        for _ in 0..1u32 << step {
            std::hint::spin_loop();
        }
        if self.step.get() <= SPIN_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Backs off while blocked on another thread: spins while cheap, then
    /// yields the processor so the partner can run. For waits of unknown
    /// length on a *shared* word; a queue-lock waiter spinning on its own
    /// flag should poll it every iteration instead (see `McsLock`).
    pub fn snooze(&self) {
        let step = self.step.get();
        if step <= SPIN_LIMIT {
            for _ in 0..1u32 << step {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if step <= YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// True once backoff has escalated to yielding; callers with a parking
    /// primitive should switch to it at this point.
    pub fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_completion() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..=YIELD_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
        b.spin();
    }
}
