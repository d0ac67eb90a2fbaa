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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_completion() {
        let b = Backoff::new();
        for _ in 0..=YIELD_LIMIT {
            assert!(b.step.get() <= YIELD_LIMIT);
            b.snooze();
        }
        // Escalated to yielding, and it stays there.
        assert_eq!(b.step.get(), YIELD_LIMIT + 1);
        b.snooze();
        assert_eq!(b.step.get(), YIELD_LIMIT + 1);
    }
}
