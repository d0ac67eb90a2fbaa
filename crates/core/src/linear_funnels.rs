//! `LinearFunnels` (paper §3.2): `SimpleLinear` with combining-funnel
//! stacks in place of lock-based bins.

use std::sync::Arc;

use funnelpq_sync::{FunnelConfig, FunnelStack};

use crate::bin_pq::{BinPq, Linear};
use crate::obs::{NoopRecorder, Recorder};

/// One combining-funnel stack per priority; `delete_min` scans stacks
/// smallest-first, popping from the first non-empty one.
///
/// Emptiness is a single read of each stack's head pointer, so the scan
/// stays cheap; the funnels parallelize the per-bin traffic and eliminate
/// concurrent insert/delete pairs of equal priority. Quiescently
/// consistent. The paper's method of choice at 256 processors when the
/// priority range is very small (≤4).
///
/// The linear layout of [`crate::SimpleLinearPq`] over `FunnelStack`s
/// instead of `LockBin`s, behind the same front end.
///
/// # Examples
///
/// ```
/// use funnelpq::{BoundedPq, LinearFunnelsPq};
/// let q = LinearFunnelsPq::new(4, 8);
/// q.insert(0, 2, 'x');
/// assert_eq!(q.delete_min(1), Some((2, 'x')));
/// ```
pub type LinearFunnelsPq<T, R = NoopRecorder> = BinPq<T, Linear<FunnelStack<T>>, R>;

impl<T: Send> LinearFunnelsPq<T> {
    /// Creates a queue with default funnel parameters for `max_threads`.
    pub fn new(num_priorities: usize, max_threads: usize) -> Self {
        Self::with_config(num_priorities, FunnelConfig::for_threads(max_threads))
    }

    /// Creates a queue with explicit funnel parameters.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` is zero or the config is invalid.
    pub fn with_config(num_priorities: usize, cfg: FunnelConfig) -> Self {
        Self::with_recorder(num_priorities, cfg, Arc::new(NoopRecorder))
    }
}

impl<T: Send, R: Recorder> LinearFunnelsPq<T, R> {
    /// Like [`LinearFunnelsPq::with_config`], reporting metrics to
    /// `recorder` (funnel collisions, eliminations, adaptions and central
    /// locks flow into the recorder's substrate sink).
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` is zero or the config is invalid.
    pub fn with_recorder(num_priorities: usize, cfg: FunnelConfig, recorder: Arc<R>) -> Self {
        let max_threads = cfg.max_threads;
        let sink = recorder.sink();
        let stacks = Linear::new(num_priorities, || {
            FunnelStack::with_sink(cfg.clone(), sink.clone())
        });
        BinPq::from_layout(stacks, max_threads, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::BoundedPq;
    use std::thread;

    #[test]
    fn sequential_order() {
        let q = LinearFunnelsPq::new(6, 1);
        q.insert(0, 5, 500);
        q.insert(0, 0, 0);
        q.insert(0, 3, 300);
        assert_eq!(q.delete_min(0), Some((0, 0)));
        assert_eq!(q.delete_min(0), Some((3, 300)));
        assert_eq!(q.delete_min(0), Some((5, 500)));
        assert_eq!(q.delete_min(0), None);
    }

    #[test]
    fn concurrent_conservation() {
        const T: usize = 8;
        const N: usize = 300;
        let q = Arc::new(LinearFunnelsPq::new(4, T));
        let taken = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..T {
            let q = Arc::clone(&q);
            let taken = Arc::clone(&taken);
            handles.push(thread::spawn(move || {
                for i in 0..N {
                    q.insert(t, (t + i) % 4, t * N + i);
                    if i % 2 == 0 {
                        if let Some((_, x)) = q.delete_min(t) {
                            taken.lock().unwrap().push(x);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Drain the remainder.
        let mut all = taken.lock().unwrap().clone();
        while let Some((_, x)) = q.delete_min(0) {
            all.push(x);
        }
        all.sort_unstable();
        assert_eq!(all, (0..T * N).collect::<Vec<_>>());
    }
}
