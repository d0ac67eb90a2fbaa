//! Test-and-test-and-set spin lock with exponential backoff.
//!
//! The classic centralized spin lock: cheap when uncontended, a hot spot
//! when many processors want it. With a handful of cores it hands a short
//! section over faster than [`crate::McsLock`]'s FIFO queue, so every
//! native queue lock sits on it: SingleLock's heap, the heap-array slots
//! of MultiQueue and NumaPq, the bins, the locked counters, the funnel
//! stack's central lock, HuntEtAl and SkipList.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

use funnelpq_util::Backoff;

use crate::probe::{CounterEvent, SinkRef};

/// A test-and-test-and-set spin lock protecting a value.
///
/// The flag sits inline beside the data, as in `std::sync::Mutex`, so a
/// `TtasMutex<()>` is one byte and a lock costs its data no cache line of
/// its own. A holder of a contended singleton lock that needs the flag
/// isolated pads the whole lock (`CachePadded<TtasMutex<_>>`); one whose
/// holder writes its data many times per hold pads the data instead
/// (`TtasMutex<CachePadded<_>>`), which puts flag and data on lines of
/// their own, so a waiter's polls do not pull the data's line away from
/// the holder mid-hold.
///
/// # Examples
///
/// ```
/// use funnelpq_sync::TtasMutex;
/// let m = TtasMutex::new(0u32);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 1);
/// ```
pub struct TtasMutex<T> {
    flag: AtomicBool,
    data: UnsafeCell<T>,
}

impl<T> TtasMutex<T> {
    /// Wraps `data` in a new unlocked spin lock.
    pub fn new(data: T) -> Self {
        TtasMutex {
            flag: AtomicBool::new(false),
            data: UnsafeCell::new(data),
        }
    }

    /// Spins (reading locally, backing off exponentially) until acquired.
    pub fn lock(&self) -> TtasGuard<'_, T> {
        let backoff = Backoff::new();
        loop {
            // Test before test-and-set: spin on a cached read.
            // ORDERING: Relaxed; only a hint that the CAS below may succeed.
            // Acquisition is ordered by the CAS, not by this load.
            while self.flag.load(Ordering::Relaxed) {
                backoff.snooze();
            }
            // ORDERING: Acquire on success; partner is the Release store in
            // `TtasGuard::drop`, so the previous holder's writes to `data`
            // happen before ours. Relaxed on failure: nothing is acquired.
            if self
                .flag
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return TtasGuard { lock: self };
            }
        }
    }

    /// `f(&mut self.lock())`, reporting the acquisition to `sink` as one
    /// [`CounterEvent::LockAcquire`]. The lock's holder keeps the sink, so
    /// the flag stays one byte. A sink costs one out-of-line call and no
    /// clock read.
    #[inline]
    pub fn lock_noting<R>(&self, sink: Option<&SinkRef>, f: impl FnOnce(&mut T) -> R) -> R {
        match sink {
            None => f(&mut self.lock()),
            Some(sink) => {
                std::hint::cold_path();
                self.lock_noted(sink, f)
            }
        }
    }

    // Out of line, so the sink-absent path pays only a not-taken branch and
    // a sinked one a single call: callers inline `lock_noting` as they would
    // a bare `lock`. Not cold, so a counted section compiles as an uncounted
    // one does; the count is taken before the wait, so the sink call never
    // extends the critical section.
    #[inline(never)]
    fn lock_noted<R>(&self, sink: &SinkRef, f: impl FnOnce(&mut T) -> R) -> R {
        sink.event(CounterEvent::LockAcquire);
        f(&mut self.lock())
    }

    /// Single acquisition attempt.
    pub fn try_lock(&self) -> Option<TtasGuard<'_, T>> {
        // ORDERING: as in `lock`.
        if self
            .flag
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(TtasGuard { lock: self })
        } else {
            None
        }
    }

    /// Whether the lock is currently held (racy; heuristics only).
    pub fn is_locked(&self) -> bool {
        // ORDERING: Relaxed; a racy hint that guards no data.
        self.flag.load(Ordering::Relaxed)
    }

    /// Returns a mutable reference without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

// SAFETY: standard mutex reasoning — the guard provides exclusive access.
unsafe impl<T: Send> Send for TtasMutex<T> {}
unsafe impl<T: Send> Sync for TtasMutex<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for TtasMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TtasMutex")
            .field("locked", &self.is_locked())
            .finish_non_exhaustive()
    }
}

/// RAII guard for [`TtasMutex`].
pub struct TtasGuard<'a, T> {
    lock: &'a TtasMutex<T>,
}

impl<T> Drop for TtasGuard<'_, T> {
    fn drop(&mut self) {
        // ORDERING: Release; partner is the acquiring CAS in `lock` /
        // `try_lock`: our writes to `data` happen before the next holder's.
        self.lock.flag.store(false, Ordering::Release);
    }
}

impl<T> std::ops::Deref for TtasGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: guard holds the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for TtasGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: guard holds the lock.
        unsafe { &mut *self.lock.data.get() }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn basic() {
        let m = TtasMutex::new(1);
        assert!(!m.is_locked());
        {
            let mut g = m.lock();
            *g = 2;
            assert!(m.is_locked());
            assert!(m.try_lock().is_none());
        }
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn the_flag_is_inline() {
        assert_eq!(std::mem::size_of::<TtasMutex<()>>(), 1);
        assert_eq!(std::mem::size_of::<TtasMutex<u64>>(), 16);
    }

    /// Counts acquisitions.
    #[derive(Default)]
    pub(crate) struct LockSink {
        pub(crate) acquires: std::sync::atomic::AtomicU64,
    }

    impl LockSink {
        pub(crate) fn acquires(&self) -> u64 {
            self.acquires.load(Ordering::Relaxed)
        }
    }

    impl crate::probe::EventSink for LockSink {
        fn event_n(&self, event: CounterEvent, n: u64) {
            assert_eq!(event, CounterEvent::LockAcquire);
            self.acquires.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_counting_sink_is_never_timed() {
        let sink = Arc::new(LockSink::default());
        let s: SinkRef = sink.clone();
        let m = TtasMutex::new(0u32);
        for _ in 0..3 {
            m.lock_noting(Some(&s), |v| *v += 1);
        }
        m.lock_noting(None, |v| *v += 1);
        assert_eq!(sink.acquires(), 3, "one count per sinked acquisition");
        assert_eq!(m.into_inner(), 4);
    }

    #[test]
    fn counter_stress() {
        const T: usize = 8;
        const N: usize = 2_000;
        let m = Arc::new(TtasMutex::new(0u64));
        let handles: Vec<_> = (0..T)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..N {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), (T * N) as u64);
    }
}
