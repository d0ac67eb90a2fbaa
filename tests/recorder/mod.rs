//! Test-only operation recorder for the native queues: each thread logs
//! its calls as audit `OpRecord`s into its own `Log`, and the merged
//! history goes through `funnelpq_util::audit::audit_history`, the checker
//! the simulated runs use.
//!
//! Stamps come from one global counter: `start` is drawn before the queue
//! call and `end` after it returns, both as SeqCst read-modify-writes.
//! When one operation's `end` is below another's `start`, the first
//! returned before the second was called, and the second's RMW reads from
//! the first's release sequence, so the first's effects are visible to
//! it: a gap in the stamps is a real quiescent point.

// Each test binary that includes this module uses a different subset.
#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, Ordering};

use funnelpq::{BoundedPq, Consistency};
use funnelpq_util::audit::{
    audit_history, AuditReport, AuditScope, OpKind, OpRecord, Order, Phase,
};

/// Shared by every test in a binary: another history's stamps only leave
/// gaps in this one's, and no check reads the gaps.
static CLOCK: AtomicU64 = AtomicU64::new(0);

fn stamp() -> u64 {
    CLOCK.fetch_add(1, Ordering::SeqCst)
}

/// One thread's operation log; the queue calls go out under its `tid`.
pub struct Log {
    tid: usize,
    phase: Phase,
    ops: Vec<OpRecord>,
}

impl Log {
    /// An empty log for thread `tid`.
    pub fn new(tid: usize) -> Self {
        Log {
            tid,
            phase: Phase::Main,
            ops: Vec::new(),
        }
    }

    /// `q.insert`, recorded.
    pub fn insert<Q: BoundedPq<u64> + ?Sized>(&mut self, q: &Q, pri: usize, item: u64) {
        let start = stamp();
        q.insert(self.tid, pri, item);
        self.record(OpKind::Insert, start, &[(pri, item)], false);
    }

    /// `q.delete_min`, recorded (an empty return as an empty delete).
    pub fn delete_min<Q: BoundedPq<u64> + ?Sized>(&mut self, q: &Q) -> Option<(usize, u64)> {
        let start = stamp();
        let got = q.delete_min(self.tid);
        self.record(OpKind::DeleteMin, start, got.as_slice(), false);
        got
    }

    /// `q.insert_batch`, which must accept the whole batch, recorded as
    /// one insert per item over the call's interval.
    pub fn insert_batch<Q: BoundedPq<u64> + ?Sized>(&mut self, q: &Q, batch: Vec<(usize, u64)>) {
        let filed = batch.clone();
        let start = stamp();
        q.insert_batch(self.tid, batch).expect("the batch fits");
        self.record(OpKind::Insert, start, &filed, true);
    }

    /// `q.delete_min_batch`, recorded as one delete per item taken.
    pub fn delete_min_batch<Q: BoundedPq<u64> + ?Sized>(
        &mut self,
        q: &Q,
        k: usize,
        out: &mut Vec<(usize, u64)>,
    ) -> usize {
        let (from, start) = (out.len(), stamp());
        let n = q.delete_min_batch(self.tid, k, out);
        self.record(OpKind::DeleteMin, start, &out[from..], true);
        n
    }

    fn record(&mut self, kind: OpKind, start: u64, entries: &[(usize, u64)], batched: bool) {
        let (end, proc, phase) = (stamp(), self.tid, self.phase);
        let op = |&(pri, item): &(usize, u64), empty| OpRecord {
            proc,
            kind,
            phase,
            pri: pri as u64,
            item,
            start,
            end,
            completed: true,
            empty,
            batched,
        };
        if entries.is_empty() && !batched {
            self.ops.push(op(&(0, 0), true));
        }
        self.ops.extend(entries.iter().map(|e| op(e, false)));
    }
}

/// Drains `q` from thread 0 once the `logs`' threads are done, checks it
/// ends empty, and audits the whole history against `q`'s declared
/// consistency (`rank_bound` items for a relaxed queue). Panics with the
/// audit's verdict, which names only the offending operation or window.
pub fn drain_and_audit<Q: BoundedPq<u64> + ?Sized>(
    q: &Q,
    logs: Vec<Log>,
    rank_bound: Option<u64>,
) -> AuditReport {
    let name = q.algorithm().name();
    let mut drain = Log::new(0);
    drain.phase = Phase::Drain;
    while drain.delete_min(q).is_some() {}
    assert!(q.is_empty(), "{name}: queue should be empty after drain");
    let ops: Vec<OpRecord> = logs
        .into_iter()
        .chain([drain])
        .flat_map(|l| l.ops)
        .collect();
    let scope = AuditScope {
        num_priorities: q.num_priorities() as u64,
        order: match q.consistency() {
            Consistency::Linearizable => Order::Linearizable,
            Consistency::QuiescentlyConsistent => Order::Quiescent,
            Consistency::Relaxed => Order::Relaxed { rank_bound },
        },
        ..AuditScope::default()
    };
    audit_history(&ops, &scope).unwrap_or_else(|e| panic!("{name}: {e}"))
}
