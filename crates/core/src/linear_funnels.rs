//! `LinearFunnels` (paper §3.2): `SimpleLinear` with combining-funnel
//! stacks in place of lock-based bins.

use std::sync::Arc;

use funnelpq_sync::{FunnelConfig, FunnelStack};

use crate::algorithm::Algorithm;
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::traits::{check_batch, check_insert, for_each_run, BoundedPq, PqBatchError, PqError};

/// One combining-funnel stack per priority; `delete_min` scans stacks
/// smallest-first, popping from the first non-empty one.
///
/// Emptiness is a single read of each stack's head pointer, so the scan
/// stays cheap; the funnels parallelize the per-bin traffic and eliminate
/// concurrent insert/delete pairs of equal priority. Quiescently
/// consistent. The paper's method of choice at 256 processors when the
/// priority range is very small (≤4).
///
/// # Examples
///
/// ```
/// use funnelpq::{BoundedPq, LinearFunnelsPq};
/// let q = LinearFunnelsPq::new(4, 8);
/// q.insert(0, 2, 'x');
/// assert_eq!(q.delete_min(1), Some((2, 'x')));
/// ```
#[derive(Debug)]
pub struct LinearFunnelsPq<T, R: Recorder = NoopRecorder> {
    stacks: Vec<FunnelStack<T>>,
    max_threads: usize,
    recorder: Arc<R>,
}

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
        assert!(num_priorities > 0, "need at least one priority");
        let max_threads = cfg.max_threads;
        let sink = recorder.sink();
        LinearFunnelsPq {
            stacks: (0..num_priorities)
                .map(|_| FunnelStack::with_sink(cfg.clone(), sink.clone()))
                .collect(),
            max_threads,
            recorder,
        }
    }
}

impl<T: Send, R: Recorder> BoundedPq<T> for LinearFunnelsPq<T, R> {
    fn algorithm(&self) -> Algorithm {
        Algorithm::LinearFunnels
    }

    fn num_priorities(&self) -> usize {
        self.stacks.len()
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }

    // `#[inline]` lets the panicking `insert` wrapper's monomorphization
    // absorb this body, keeping the old direct-insert code shape (no extra
    // call or by-stack `Result` on the hot path).
    #[inline]
    fn try_insert(&self, tid: usize, pri: usize, item: T) -> Result<(), PqError<T>> {
        let item = check_insert(tid, pri, self.max_threads, self.stacks.len(), item)?;
        obs::timed(&*self.recorder, OpKind::Insert, || {
            self.stacks[pri].push(tid, item)
        });
        Ok(())
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            for (pri, stack) in self.stacks.iter().enumerate() {
                if !stack.is_empty() {
                    if let Some(item) = stack.pop(tid) {
                        return Some((pri, item));
                    }
                }
            }
            None
        });
        if R::ENABLED && out.is_none() {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // A run of equal priority reaches its stack as one pre-linked chain:
    // the push tree a funnel would have combined, arriving combined.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) -> Result<(), PqBatchError<T>> {
        if batch.is_empty() {
            return Ok(());
        }
        let batch = check_batch(tid, batch, self.max_threads, self.stacks.len())?;
        let n = batch.len() as u64;
        obs::timed(&*self.recorder, OpKind::InsertBatch, || {
            for_each_run(batch, |pri, run| {
                self.stacks[pri].push_many(tid, run.map(|(_, item)| item))
            })
        });
        obs::record_batch_op(&*self.recorder, n);
        Ok(())
    }

    // One scan, detaching from each non-empty stack everything the batch
    // still wants in one central section.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if k == 0 {
            return 0;
        }
        let taken = obs::timed(&*self.recorder, OpKind::DeleteMinBatch, || {
            let mut taken = 0;
            for (pri, stack) in self.stacks.iter().enumerate() {
                taken += stack.pop_many(tid, k - taken, |item| out.push((pri, item)));
                if taken == k {
                    break;
                }
            }
            taken
        });
        obs::record_batch_op(&*self.recorder, taken as u64);
        if R::ENABLED && taken == 0 {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        taken
    }

    fn is_empty(&self) -> bool {
        self.stacks.iter().all(|s| s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
