//! Process-wide monotonic nanosecond clock.
//!
//! Span timestamps and telemetry windows need timestamps that are cheap,
//! monotonic, and comparable *across threads* — `Instant` alone is
//! opaque (no numeric value), so everything here is measured against one
//! lazily-pinned process epoch. The first call pins the epoch; every
//! later call is a single `Instant::now()` plus a subtraction.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process epoch (pinned on first use).
/// Monotonic and shared by every thread, so values from different
/// threads order correctly on one timeline.
pub fn mono_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_cross_thread_comparable() {
        let a = mono_ns();
        let b = mono_ns();
        assert!(b >= a);
        let t = std::thread::spawn(mono_ns).join().unwrap();
        let c = mono_ns();
        assert!(t <= c + 1_000_000_000, "thread reading far in the future");
        assert!(c >= a);
    }
}
