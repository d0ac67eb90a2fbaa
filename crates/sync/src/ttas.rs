//! Test-and-test-and-set spin lock with exponential backoff.
//!
//! The classic centralized spin lock: cheap when uncontended, a textbook
//! hot spot when not. Used as a baseline and for rarely contended internals.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

use funnelpq_util::Backoff;

/// A test-and-test-and-set spin lock protecting a value.
///
/// The flag sits inline beside the data, as in `std::sync::Mutex`, so a
/// `TtasMutex<()>` is one byte and a lock costs its data no cache line of
/// its own. A holder of a contended singleton lock that needs the flag
/// isolated pads the whole lock (`CachePadded<TtasMutex<_>>`).
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
mod tests {
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
