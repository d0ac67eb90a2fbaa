//! Post-run invariant auditing of a priority-queue operation history. A
//! driver records every operation as an [`OpRecord`] with `[start, end]`
//! stamps taken around the queue call — simulated cycles ([`History`]), or
//! a global sequence native threads draw — and [`audit_history`] checks:
//!
//! * **conservation** — every successful delete matches exactly one
//!   recorded insert of the same unique item with the same priority, no
//!   item is deleted twice, and nothing is lost except operations that
//!   were in flight on crash-stopped processors;
//! * **ordering** — for a linearizable queue ([`Order::Linearizable`]), no
//!   delete returns a priority while a strictly smaller item was
//!   demonstrably present for the delete's whole duration;
//! * **causality** — a delete never returns an item whose insert had not
//!   yet started when the delete finished;
//! * **quality** — every drain delete gets a *rank error*: the number of
//!   later drain deletes returning strictly smaller priorities. Strict
//!   means rank bound 0 (a sorted drain); a relaxed queue
//!   ([`Order::Relaxed`]) is held to its own bound, or only measured;
//! * **Appendix B** — between two quiescent points (stamps no closed
//!   interval covers), a window that opens holding the multiset `E` and
//!   makes `k ≤ |E|` successful deletes may return no priority with more
//!   than `k − 1 + b` items of `E` below it, `b` the rank bound. A strict
//!   window without inserts must return exactly the `k` smallest of `E`,
//!   and may find the queue empty only if `k = |E|`. Skipped on crashed or
//!   wedged runs.
//!
//! The checks are interval-based, so they only flag behaviour impossible
//! for *any* queue of the claimed class, crash-stopped processors included.
//! Structural checks live with the queues (`SimPq::validate`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::Acc;

/// Which queue operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `insert(pri, item)`.
    Insert,
    /// `delete_min()`.
    DeleteMin,
}

/// Which phase of the run issued the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The concurrent measured workload.
    Main,
    /// The sequential post-quiescence drain.
    Drain,
}

/// One recorded queue operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Simulated processor or native thread that issued the operation.
    pub proc: usize,
    /// Operation kind.
    pub kind: OpKind,
    /// Phase of the run.
    pub phase: Phase,
    /// Priority: the argument of an insert, or the priority a delete
    /// returned (unspecified for incomplete or empty deletes).
    pub pri: u64,
    /// Item: the argument of an insert, or the item a delete returned
    /// (unspecified for incomplete or empty deletes).
    pub item: u64,
    /// Stamp taken before the operation started.
    pub start: u64,
    /// Stamp taken after it returned (unspecified while `completed` is
    /// false).
    pub end: u64,
    /// False for operations still in flight when the run ended — only
    /// legitimate on crash-stopped processors.
    pub completed: bool,
    /// True for a completed delete that found the queue empty.
    pub empty: bool,
    /// True when the operation was issued as part of a batched call
    /// (`insert_batch` / `delete_min_batch`); the audit attributes rank
    /// error separately for batched drain deletes
    /// ([`AuditReport::rank_error_batched`]).
    pub batched: bool,
}

/// Handle to an operation opened with [`History::begin_insert`] /
/// [`History::begin_delete`]; pass it back to the matching `complete_*`
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpToken(usize);

/// Shared operation recorder for single-threaded (simulated) drivers.
/// Clones share one buffer (an `Rc<RefCell>` handle), so the driver keeps
/// one handle per simulated processor plus one to audit at the end.
#[derive(Debug, Clone, Default)]
pub struct History {
    ops: Rc<RefCell<Vec<OpRecord>>>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Opens an insert record; complete it with [`History::complete`].
    pub fn begin_insert(&self, proc: usize, pri: u64, item: u64, now: u64) -> OpToken {
        self.begin(OpKind::Insert, proc, pri, item, now)
    }

    /// Opens a delete record; complete it with
    /// [`History::complete_delete`].
    pub fn begin_delete(&self, proc: usize, now: u64) -> OpToken {
        self.begin(OpKind::DeleteMin, proc, 0, 0, now)
    }

    fn begin(&self, kind: OpKind, proc: usize, pri: u64, item: u64, now: u64) -> OpToken {
        let mut ops = self.ops.borrow_mut();
        ops.push(OpRecord {
            proc,
            kind,
            phase: Phase::Main,
            pri,
            item,
            start: now,
            end: now,
            completed: false,
            empty: false,
            batched: false,
        });
        OpToken(ops.len() - 1)
    }

    /// Marks the operation complete at time `now` (inserts).
    pub fn complete(&self, token: OpToken, now: u64) {
        let mut ops = self.ops.borrow_mut();
        let rec = &mut ops[token.0];
        rec.end = now;
        rec.completed = true;
    }

    /// Marks a delete complete: `found` is the `(priority, item)` it
    /// returned, or `None` if the queue was empty.
    pub fn complete_delete(&self, token: OpToken, found: Option<(u64, u64)>, now: u64) {
        self.complete(token, now);
        let rec = &mut self.ops.borrow_mut()[token.0];
        match found {
            Some((pri, item)) => {
                rec.pri = pri;
                rec.item = item;
            }
            None => rec.empty = true,
        }
    }

    /// Reclassifies the operation into the post-run drain phase.
    pub fn mark_drain(&self, token: OpToken) {
        self.ops.borrow_mut()[token.0].phase = Phase::Drain;
    }

    /// Marks the operation as issued by a batched call (`insert_batch` /
    /// `delete_min_batch`). Drivers record one `OpRecord` per *item* of a
    /// batch — all the per-item invariants apply unchanged — and this flag
    /// lets the audit attribute drain rank error to the batched deletes
    /// ([`AuditReport::rank_error_batched`]).
    pub fn mark_batched(&self, token: OpToken) {
        self.ops.borrow_mut()[token.0].batched = true;
    }

    /// Copies the records out for auditing or dumping.
    pub fn snapshot(&self) -> Vec<OpRecord> {
        self.ops.borrow().clone()
    }
}

/// The ordering the queue under test promises.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Order {
    /// Rank bound 0, and on crash-free runs the interval-ordering check.
    Linearizable,
    /// Rank bound 0: the funnel and tree queues, the skip list, and the
    /// Hunt et al. heap (whose sift-down can transiently park a large value
    /// at the root above a smaller settled item).
    #[default]
    Quiescent,
    /// Near-minimal deletes (a MultiQueue). `None` only measures the drain
    /// rank error and skips the window pass.
    Relaxed {
        /// Largest tolerated rank error, in items.
        rank_bound: Option<u64>,
    },
}

/// What the run looked like, for interpreting the history.
#[derive(Debug, Clone, Default)]
pub struct AuditScope {
    /// The queue's priority range `0..num_priorities`.
    pub num_priorities: u64,
    /// Processors crash-stopped by the fault plan. In-flight operations
    /// are tolerated on exactly these processors, and each one widens the
    /// conservation allowance by one item.
    pub crashed: Vec<usize>,
    /// Items counted still physically present in the structure after the
    /// drain (e.g. stranded behind counter damage from a crashed
    /// operation). Stranded items are unreachable, not lost, so each one
    /// widens the conservation allowance.
    pub stranded: u64,
    /// True when the run ended without quiescing (a fault wedged the
    /// machine). Live processors then legitimately hold in-flight
    /// operations and the queue still holds items, so the
    /// in-flight-on-live-processor and conservation checks are skipped;
    /// the per-delete matching checks still apply.
    pub wedged: bool,
    /// The ordering the queue promises.
    pub order: Order,
}

/// Aggregate counts from a successful audit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Completed inserts.
    pub inserts: u64,
    /// Completed deletes that returned an item.
    pub deletes: u64,
    /// Completed deletes that found the queue empty.
    pub empty_deletes: u64,
    /// Operations still in flight on crashed processors.
    pub in_flight: u64,
    /// Completed inserts never matched by a delete (all attributable to
    /// crash-lost operations, or the audit would have failed).
    pub leaked: u64,
    /// Per-delete rank error over the sequential drain: for each drain
    /// delete, the number of later drain deletes with strictly smaller
    /// priority. Exactly zero for every sample iff the drain was sorted,
    /// so strict queues contribute an all-zero distribution.
    pub rank_error: Acc,
    /// The subset of [`rank_error`](Self::rank_error) samples whose delete
    /// was issued by a batched call ([`History::mark_batched`]): a batched
    /// drain serves the tail of each grab without re-probing, so comparing
    /// this distribution against the full one shows what batching costs in
    /// ordering quality. Empty when the drain used single deletes only.
    pub rank_error_batched: Acc,
    /// Appendix-B windows whose deletes were checked (0 when the pass was
    /// skipped).
    pub windows_checked: u64,
}

/// An invariant violation found by [`audit_history`]. Every variant names
/// the processor and stamp involved, or the window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// An operation never completed on a processor that did not crash.
    InFlightOnLiveProc {
        /// The processor.
        proc: usize,
        /// When the operation started.
        start: u64,
    },
    /// A priority outside `0..num_priorities` appeared.
    PriorityOutOfRange {
        /// The processor.
        proc: usize,
        /// Operation end time.
        time: u64,
        /// The offending priority.
        pri: u64,
        /// The queue's priority range.
        num_priorities: u64,
    },
    /// The driver inserted the same item twice (a harness bug, not a
    /// queue bug — items must be unique for the audit to match them).
    DuplicateInsert {
        /// The processor of the second insert.
        proc: usize,
        /// Its start time.
        time: u64,
        /// The duplicated item.
        item: u64,
    },
    /// A delete returned an item no insert ever put in.
    GhostItem {
        /// The deleting processor.
        proc: usize,
        /// Delete end time.
        time: u64,
        /// The returned item.
        item: u64,
        /// The returned priority.
        pri: u64,
    },
    /// A delete returned an item under a different priority than it was
    /// inserted with.
    PriorityMismatch {
        /// The deleting processor.
        proc: usize,
        /// Delete end time.
        time: u64,
        /// The item.
        item: u64,
        /// Priority the insert used.
        inserted: u64,
        /// Priority the delete returned.
        returned: u64,
    },
    /// Two deletes returned the same item.
    DoubleDelete {
        /// The second deleting processor.
        proc: usize,
        /// Second delete's end time.
        time: u64,
        /// The item.
        item: u64,
    },
    /// A delete finished before the matching insert started.
    Causality {
        /// The deleting processor.
        proc: usize,
        /// Delete end time.
        time: u64,
        /// The item.
        item: u64,
        /// When the insert started.
        insert_start: u64,
    },
    /// A delete returned priority `returned` although item `witness` with
    /// strictly smaller priority `present` was in the queue for the
    /// delete's entire duration.
    OrderingViolation {
        /// The deleting processor.
        proc: usize,
        /// Delete end time.
        time: u64,
        /// Priority the delete returned.
        returned: u64,
        /// The smaller priority that was available.
        present: u64,
        /// The witness item holding that priority.
        witness: u64,
    },
    /// A drain delete's rank error exceeded the scope's rank bound (0 for
    /// strict queues, i.e. an unsorted drain).
    RankErrorExceeded {
        /// The draining processor.
        proc: usize,
        /// Delete end time.
        time: u64,
        /// Priority the delete returned.
        pri: u64,
        /// Items with strictly smaller priority still in the queue.
        rank: u64,
        /// The tolerated maximum.
        bound: u64,
    },
    /// An Appendix-B window (see the module docs) broke its bound.
    WindowViolation {
        /// The window's first start and last end stamp.
        stamps: (u64, u64),
        /// Items in the queue when it opened (`|E|`).
        held: u64,
        /// Deletes in the window that found the queue empty.
        misses: u64,
        /// The tolerated rank error.
        bound: u64,
        /// Priorities its successful deletes returned, ascending.
        returned: Vec<u64>,
        /// The `returned.len()` smallest priorities of `E`, ascending.
        min_k: Vec<u64>,
    },
    /// More completed inserts were never deleted than crash-lost
    /// operations can explain.
    ConservationViolation {
        /// Items leaked.
        leaked: u64,
        /// Leaks explainable by crash-lost operations plus items counted
        /// still present in the structure ([`AuditScope::stranded`]).
        allowance: u64,
        /// A sample of leaked items `(pri, item)`.
        sample: Vec<(u64, u64)>,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::InFlightOnLiveProc { proc, start } => write!(
                f,
                "audit: proc {proc}: operation started at {start} never completed, \
                 but the processor did not crash"
            ),
            AuditError::PriorityOutOfRange {
                proc,
                time,
                pri,
                num_priorities,
            } => write!(
                f,
                "audit: proc {proc} at {time}: priority {pri} outside 0..{num_priorities}"
            ),
            AuditError::DuplicateInsert { proc, time, item } => write!(
                f,
                "audit: proc {proc} at {time}: item {item} inserted more than once \
                 (harness bug: items must be unique)"
            ),
            AuditError::GhostItem {
                proc,
                time,
                item,
                pri,
            } => write!(
                f,
                "audit: proc {proc} at {time}: delete returned item {item} (pri {pri}) \
                 that no insert produced"
            ),
            AuditError::PriorityMismatch {
                proc,
                time,
                item,
                inserted,
                returned,
            } => write!(
                f,
                "audit: proc {proc} at {time}: item {item} inserted at pri {inserted} \
                 but deleted at pri {returned}"
            ),
            AuditError::DoubleDelete { proc, time, item } => {
                write!(f, "audit: proc {proc} at {time}: item {item} deleted twice")
            }
            AuditError::Causality {
                proc,
                time,
                item,
                insert_start,
            } => write!(
                f,
                "audit: proc {proc} at {time}: delete of item {item} finished before \
                 its insert started (at {insert_start})"
            ),
            AuditError::OrderingViolation {
                proc,
                time,
                returned,
                present,
                witness,
            } => write!(
                f,
                "audit: proc {proc} at {time}: delete returned pri {returned} while \
                 item {witness} at smaller pri {present} was present throughout"
            ),
            AuditError::RankErrorExceeded {
                proc,
                time,
                pri,
                rank,
                bound,
            } => write!(
                f,
                "audit: proc {proc} at {time}: drain returned pri {pri} while {rank} \
                 smaller items remained (bound {bound})"
            ),
            AuditError::WindowViolation {
                stamps: (start, end),
                held,
                misses,
                bound,
                returned,
                min_k,
            } => write!(
                f,
                "audit: window [{start}, {end}] opened with {held} items; its deletes \
                 returned {returned:?} and {misses} found it empty, but the smallest \
                 held were {min_k:?} (rank bound {bound})"
            ),
            AuditError::ConservationViolation {
                leaked,
                allowance,
                sample,
            } => write!(
                f,
                "audit: {leaked} inserted items never deleted, but crash-lost \
                 operations explain at most {allowance}; e.g. {sample:?}"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Checks a recorded history against the bounded-priority-queue
/// invariants (see the module docs for the exact checks). Returns the
/// aggregate counts, or the first violation found.
pub fn audit_history(ops: &[OpRecord], scope: &AuditScope) -> Result<AuditReport, AuditError> {
    let mut report = AuditReport::default();

    // In-flight operations are legitimate only on crashed processors —
    // unless the run wedged, in which case every live processor may have
    // been cut off mid-operation.
    for op in ops {
        if !op.completed && !scope.wedged && !scope.crashed.contains(&op.proc) {
            return Err(AuditError::InFlightOnLiveProc {
                proc: op.proc,
                start: op.start,
            });
        }
        if !op.completed {
            report.in_flight += 1;
        }
        let has_pri = op.kind == OpKind::Insert || op.completed && !op.empty;
        if has_pri && op.pri >= scope.num_priorities {
            return Err(AuditError::PriorityOutOfRange {
                proc: op.proc,
                time: op.end,
                pri: op.pri,
                num_priorities: scope.num_priorities,
            });
        }
    }

    // Index inserts by item (items are unique by construction). In-flight
    // inserts participate: a dead processor's half-inserted item can
    // legitimately be observed by a later delete.
    let mut inserts: HashMap<u64, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if op.kind != OpKind::Insert {
            continue;
        }
        if inserts.insert(op.item, i).is_some() {
            return Err(AuditError::DuplicateInsert {
                proc: op.proc,
                time: op.start,
                item: op.item,
            });
        }
        if op.completed {
            report.inserts += 1;
        }
    }

    // Match every successful delete to its insert.
    let mut deleted_by: HashMap<u64, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if op.kind != OpKind::DeleteMin || !op.completed {
            continue;
        }
        if op.empty {
            report.empty_deletes += 1;
            continue;
        }
        report.deletes += 1;
        let Some(&ins) = inserts.get(&op.item) else {
            return Err(AuditError::GhostItem {
                proc: op.proc,
                time: op.end,
                item: op.item,
                pri: op.pri,
            });
        };
        let insert = &ops[ins];
        if insert.pri != op.pri {
            return Err(AuditError::PriorityMismatch {
                proc: op.proc,
                time: op.end,
                item: op.item,
                inserted: insert.pri,
                returned: op.pri,
            });
        }
        if op.end < insert.start {
            return Err(AuditError::Causality {
                proc: op.proc,
                time: op.end,
                item: op.item,
                insert_start: insert.start,
            });
        }
        if deleted_by.insert(op.item, i).is_some() {
            return Err(AuditError::DoubleDelete {
                proc: op.proc,
                time: op.end,
                item: op.item,
            });
        }
    }

    // Ordering: delete D returning pri p is wrong if some item x with
    // smaller pri was *demonstrably* in the queue for D's whole duration:
    // x's insert completed strictly before D started, and x's removal is
    // provably after D ended — removed by a recorded delete that started
    // after D ended, or never removed at all. Only linearizable queues
    // promise this, and the witness argument is only conclusive on
    // crash-free histories: any crash-lost operation can silently strand
    // a completed item (a half-inserted element absorbs the counter
    // reservation meant for it), making it unavailable without a record.
    if scope.order == Order::Linearizable && report.in_flight == 0 {
        // (pri, insert end, removal start or never, item), by priority.
        let mut lives: Vec<(u64, u64, u64, u64)> = inserts
            .iter()
            .map(|(&item, &i)| {
                let removed = deleted_by.get(&item).map_or(u64::MAX, |&d| ops[d].start);
                (ops[i].pri, ops[i].end, removed, item)
            })
            .collect();
        lives.sort_unstable();
        for op in ops {
            if op.kind != OpKind::DeleteMin || !op.completed || op.empty {
                continue;
            }
            let smaller = &lives[..lives.partition_point(|l| l.0 < op.pri)];
            if let Some(&(present, _, _, witness)) =
                smaller.iter().find(|l| l.1 < op.start && l.2 > op.end)
            {
                return Err(AuditError::OrderingViolation {
                    proc: op.proc,
                    time: op.end,
                    returned: op.pri,
                    present,
                    witness,
                });
            }
        }
    }

    // Both rank passes count items per priority over one compression of
    // the inserted priorities; every returned priority matched one above.
    let mut pris: Vec<u64> = inserts.values().map(|&i| ops[i].pri).collect();
    pris.sort_unstable();
    pris.dedup();
    let bound = match scope.order {
        Order::Relaxed { rank_bound } => rank_bound,
        Order::Linearizable | Order::Quiescent => Some(0),
    };

    // Rank error of drain delete i: later drain deletes with strictly
    // smaller priority — the items that were still queued and should have
    // come out first. Counted back-to-front.
    let mut later = Counts::new(&pris);
    for op in ops.iter().rev() {
        if op.phase != Phase::Drain || op.kind != OpKind::DeleteMin || !op.completed || op.empty {
            continue;
        }
        let rank = later.below(op.pri) as u64;
        report.rank_error.record(rank);
        if op.batched {
            report.rank_error_batched.record(rank);
        }
        if let Some(bound) = bound.filter(|&b| rank > b) {
            return Err(AuditError::RankErrorExceeded {
                proc: op.proc,
                time: op.end,
                pri: op.pri,
                rank,
                bound,
            });
        }
        later.add(op.pri, 1);
    }

    if let Some(bound) = bound.filter(|_| scope.crashed.is_empty() && !scope.wedged) {
        report.windows_checked = check_windows(ops, bound, &pris)?;
    }

    // Conservation: every completed insert must eventually be deleted,
    // except items absorbed by crash-lost operations or counted still
    // physically present in the structure. A crash-lost *delete* may have
    // removed an item without recording it; a crash-lost *insert* may have
    // placed an item that absorbed someone else's delete, stranding a
    // completed one. Either way each in-flight operation explains at most
    // one leak. A wedged run never drained, so the check is meaningless
    // there.
    let mut leaked: Vec<(u64, u64)> = inserts
        .iter()
        .filter(|&(item, &i)| ops[i].completed && !deleted_by.contains_key(item))
        .map(|(&item, &i)| (ops[i].pri, item))
        .collect();
    report.leaked = leaked.len() as u64;
    let allowance = report.in_flight + scope.stranded;
    if !scope.wedged && report.leaked > allowance {
        leaked.sort_unstable();
        leaked.truncate(4);
        return Err(AuditError::ConservationViolation {
            leaked: report.leaked,
            allowance,
            sample: leaked,
        });
    }

    Ok(report)
}

/// The Appendix-B pass (see the module docs): one sort by start stamp cuts
/// the history into windows at the quiescent points, and `held` carries
/// `E` from window to window. Returns how many windows had deletes to
/// check.
fn check_windows(ops: &[OpRecord], bound: u64, pris: &[u64]) -> Result<u64, AuditError> {
    let mut sorted: Vec<&OpRecord> = ops.iter().collect();
    sorted.sort_unstable_by_key(|op| op.start);
    let (mut held, mut checked, mut rest) = (Counts::new(pris), 0, &sorted[..]);
    while let Some(first) = rest.first() {
        // Closed intervals: the window grows while the next operation
        // starts no later than the latest end so far.
        let (mut len, mut end) = (0, first.end);
        while let Some(op) = rest.get(len).filter(|op| op.start <= end) {
            end = end.max(op.end);
            len += 1;
        }
        let (window, tail) = rest.split_at(len);
        rest = tail;
        let (mut returned, mut inserts, mut misses) = (Vec::new(), 0, 0);
        for op in window {
            match (op.kind, op.empty) {
                (OpKind::Insert, _) => inserts += 1,
                (OpKind::DeleteMin, true) => misses += 1,
                (OpKind::DeleteMin, false) => returned.push(op.pri),
            }
        }
        returned.sort_unstable();
        let (k, e, top) = (returned.len() as i64, held.below(u64::MAX), returned.last());
        // Items of E strictly below the largest priority returned.
        let below = top.map_or(0, |&p| held.below(p));
        let exact = bound == 0 && inserts == 0;
        let ok = if exact {
            // Min_k(E) exactly: the items of E below the largest return
            // all came out too, and a miss means E ran dry.
            below == returned.iter().filter(|&p| Some(p) < top).count() as i64
                && (misses == 0 || k == e)
        } else {
            k == 0 || k > e || below as u64 <= (k as u64 - 1).saturating_add(bound)
        };
        if !ok {
            let counts = pris.iter().map(|&p| (p, held.below(p + 1) - held.below(p)));
            return Err(AuditError::WindowViolation {
                stamps: (first.start, end),
                held: e as u64,
                misses,
                bound,
                min_k: counts
                    .flat_map(|(p, n)| std::iter::repeat_n(p, n as usize))
                    .take(returned.len())
                    .collect(),
                returned,
            });
        }
        checked += u64::from(k > 0 && k <= e || exact && misses > 0);
        for op in window.iter().filter(|op| !op.empty) {
            held.add(op.pri, if op.kind == OpKind::Insert { 1 } else { -1 });
        }
    }
    Ok(checked)
}

/// Item counts per priority with prefix sums: a Fenwick tree over the
/// coordinate-compressed priorities, so wide ranges cost nothing extra.
struct Counts<'a> {
    pris: &'a [u64],
    tree: Vec<i64>,
}

impl<'a> Counts<'a> {
    fn new(pris: &'a [u64]) -> Self {
        Counts {
            pris,
            tree: vec![0; pris.len() + 1],
        }
    }

    fn add(&mut self, pri: u64, d: i64) {
        let mut i = self.pris.partition_point(|&p| p < pri) + 1;
        while i < self.tree.len() {
            self.tree[i] += d;
            i += i & i.wrapping_neg();
        }
    }

    /// Items with priority strictly below `pri`.
    fn below(&self, pri: u64) -> i64 {
        let (mut i, mut n) = (self.pris.partition_point(|&p| p < pri), 0);
        while i > 0 {
            n += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(h: &History, proc: usize, pri: u64, item: u64, t0: u64, t1: u64) {
        let tok = h.begin_insert(proc, pri, item, t0);
        h.complete(tok, t1);
    }

    fn del(h: &History, proc: usize, found: Option<(u64, u64)>, t0: u64, t1: u64) -> OpToken {
        let tok = h.begin_delete(proc, t0);
        h.complete_delete(tok, found, t1);
        tok
    }

    fn scope(n: u64) -> AuditScope {
        AuditScope {
            num_priorities: n,
            order: Order::Linearizable,
            ..AuditScope::default()
        }
    }

    fn quiescent(n: u64) -> AuditScope {
        AuditScope {
            num_priorities: n,
            ..AuditScope::default()
        }
    }

    fn relaxed(n: u64, rank_bound: Option<u64>) -> AuditScope {
        AuditScope {
            num_priorities: n,
            order: Order::Relaxed { rank_bound },
            ..AuditScope::default()
        }
    }

    #[test]
    fn clean_history_passes() {
        let h = History::new();
        rec(&h, 0, 3, 100, 0, 10);
        rec(&h, 1, 1, 101, 0, 12);
        del(&h, 0, Some((1, 101)), 20, 30);
        del(&h, 1, Some((3, 100)), 32, 40);
        del(&h, 0, None, 50, 55);
        let r = audit_history(&h.snapshot(), &scope(8)).unwrap();
        assert_eq!((r.inserts, r.deletes, r.empty_deletes), (2, 2, 1));
        assert_eq!(r.leaked, 0);
        assert_eq!(r.windows_checked, 3);
    }

    #[test]
    fn detects_double_delete_and_ghost() {
        let h = History::new();
        rec(&h, 0, 2, 7, 0, 10);
        del(&h, 1, Some((2, 7)), 11, 20);
        del(&h, 2, Some((2, 7)), 21, 30);
        assert!(matches!(
            audit_history(&h.snapshot(), &scope(8)).unwrap_err(),
            AuditError::DoubleDelete { item: 7, .. }
        ));

        let h = History::new();
        del(&h, 1, Some((2, 99)), 11, 20);
        assert!(matches!(
            audit_history(&h.snapshot(), &scope(8)).unwrap_err(),
            AuditError::GhostItem { item: 99, .. }
        ));
    }

    #[test]
    fn detects_ordering_violation() {
        let h = History::new();
        rec(&h, 0, 1, 100, 0, 10); // small item, in since t=10
        rec(&h, 1, 5, 101, 0, 10);
        // Delete at [20, 30] returns pri 5 while item 100 (pri 1) sits
        // untouched until a delete starting at 40: violation.
        del(&h, 2, Some((5, 101)), 20, 30);
        del(&h, 2, Some((1, 100)), 40, 50);
        assert!(matches!(
            audit_history(&h.snapshot(), &scope(8)).unwrap_err(),
            AuditError::OrderingViolation {
                returned: 5,
                present: 1,
                ..
            }
        ));

        // Same shape but the small item's delete overlaps: legal.
        let h = History::new();
        rec(&h, 0, 1, 100, 0, 10);
        rec(&h, 1, 5, 101, 0, 10);
        del(&h, 2, Some((5, 101)), 20, 30);
        del(&h, 3, Some((1, 100)), 25, 50);
        assert!(audit_history(&h.snapshot(), &scope(8)).is_ok());
    }

    #[test]
    fn ordering_check_only_applies_to_linearizable_queues() {
        // The small item's delete starts after the pri-5 delete ended, but
        // an insert overlapping both ties them into one quiescent window:
        // not linearizable, yet quiescently consistent.
        let h = History::new();
        rec(&h, 0, 1, 100, 0, 10);
        rec(&h, 1, 5, 101, 0, 10);
        del(&h, 2, Some((5, 101)), 20, 30);
        rec(&h, 3, 7, 102, 28, 45);
        del(&h, 2, Some((1, 100)), 40, 50);
        del(&h, 2, Some((7, 102)), 60, 70);
        assert!(matches!(
            audit_history(&h.snapshot(), &scope(8)).unwrap_err(),
            AuditError::OrderingViolation { returned: 5, .. }
        ));
        let r = audit_history(&h.snapshot(), &quiescent(8)).unwrap();
        assert_eq!(r.windows_checked, 2);
    }

    #[test]
    fn conservation_tolerates_crash_lost_ops_only() {
        // A completed insert never deleted, with no crashes: violation.
        let h = History::new();
        rec(&h, 0, 2, 7, 0, 10);
        assert!(matches!(
            audit_history(&h.snapshot(), &scope(8)).unwrap_err(),
            AuditError::ConservationViolation { leaked: 1, .. }
        ));

        // Same, but proc 1 crashed mid-delete: that delete may have taken
        // the item silently, so the leak is explained.
        let h = History::new();
        rec(&h, 0, 2, 7, 0, 10);
        h.begin_delete(1, 12); // never completed
        let sc = AuditScope {
            crashed: vec![1],
            ..quiescent(8)
        };
        let r = audit_history(&h.snapshot(), &sc).unwrap();
        assert_eq!((r.leaked, r.in_flight), (1, 1));
    }

    #[test]
    fn in_flight_on_live_proc_is_a_harness_error() {
        let h = History::new();
        h.begin_insert(0, 1, 5, 3);
        assert!(matches!(
            audit_history(&h.snapshot(), &scope(8)).unwrap_err(),
            AuditError::InFlightOnLiveProc { proc: 0, start: 3 }
        ));
    }

    #[test]
    fn crashed_procs_half_insert_can_absorb_a_delete() {
        // Proc 0 crashes mid-insert of item 7; proc 1's delete observes it
        // anyway (LIFO bin). Legal: the delete matches the in-flight
        // insert, and the completed item 8 it displaced counts against the
        // crash allowance.
        let h = History::new();
        h.begin_insert(0, 2, 7, 0); // never completed
        rec(&h, 1, 2, 8, 0, 10);
        del(&h, 1, Some((2, 7)), 12, 20);
        let sc = AuditScope {
            crashed: vec![0],
            ..quiescent(8)
        };
        let r = audit_history(&h.snapshot(), &sc).unwrap();
        assert_eq!((r.leaked, r.in_flight), (1, 1));
    }

    #[test]
    fn wedged_scope_tolerates_cut_off_live_procs() {
        // A stall wedged the machine: proc 0's insert completed but was
        // never drained, proc 1's delete never finished. Strict audit
        // rejects both; the wedged scope accepts them while still
        // matching the deletes that did complete.
        let h = History::new();
        rec(&h, 0, 2, 7, 0, 10);
        h.begin_delete(1, 12); // cut off by the wedge
        assert!(matches!(
            audit_history(&h.snapshot(), &scope(8)).unwrap_err(),
            AuditError::InFlightOnLiveProc { proc: 1, .. }
        ));
        let sc = AuditScope {
            wedged: true,
            ..quiescent(8)
        };
        let r = audit_history(&h.snapshot(), &sc).unwrap();
        assert_eq!((r.leaked, r.in_flight), (1, 1));
    }

    #[test]
    fn stranded_items_widen_the_conservation_allowance() {
        // Two completed inserts never drained, no crashes — but the
        // harness counted both still physically present in the structure,
        // so nothing was actually lost.
        let h = History::new();
        rec(&h, 0, 2, 7, 0, 10);
        rec(&h, 0, 3, 8, 10, 20);
        assert!(matches!(
            audit_history(&h.snapshot(), &scope(8)).unwrap_err(),
            AuditError::ConservationViolation { leaked: 2, .. }
        ));
        let sc = AuditScope {
            stranded: 2,
            ..quiescent(8)
        };
        let r = audit_history(&h.snapshot(), &sc).unwrap();
        assert_eq!(r.leaked, 2);
    }

    #[test]
    fn strict_sorted_drain_has_zero_rank_error() {
        let h = History::new();
        rec(&h, 0, 1, 100, 0, 10);
        rec(&h, 0, 4, 101, 0, 12);
        rec(&h, 0, 4, 102, 0, 14);
        for (i, (p, x)) in [(1u64, 100u64), (4, 101), (4, 102)].iter().enumerate() {
            let t = del(
                &h,
                0,
                Some((*p, *x)),
                20 + 10 * i as u64,
                25 + 10 * i as u64,
            );
            h.mark_drain(t);
        }
        let r = audit_history(&h.snapshot(), &scope(8)).unwrap();
        assert_eq!(r.rank_error.count(), 3);
        assert_eq!(r.rank_error.max(), 0);
        assert_eq!(r.rank_error.sum(), 0);
    }

    /// Inserts `pris` (items 100, 101, …) at [0, 10], then deletes them in
    /// that order, one delete per 10 stamps, marking the deletes drain
    /// when `drain` is set.
    fn inserted_then_deleted(pris: &[u64], drain: bool) -> Vec<OpRecord> {
        let h = History::new();
        for (x, &p) in (100u64..).zip(pris) {
            rec(&h, 0, p, x, 0, 10);
        }
        for (i, (x, &p)) in (0u64..).zip((100u64..).zip(pris)) {
            let t = del(&h, 0, Some((p, x)), 20 + 10 * i, 25 + 10 * i);
            if drain {
                h.mark_drain(t);
            }
        }
        h.snapshot()
    }

    #[test]
    fn relaxed_drain_gets_exact_rank_errors_instead_of_sortedness() {
        // Drain priorities 5, 2, 2, 7: the 5 came out while two smaller
        // items (the 2s) were still queued — rank 2; equal priorities do
        // not count against each other, so everything else is rank 0.
        let drain = inserted_then_deleted(&[5, 2, 2, 7], true);

        // Strict scope (quiescently consistent, so the interval-ordering
        // check stays out of the way): rank bound 0, so rejected as an
        // unsorted drain.
        assert!(matches!(
            audit_history(&drain, &quiescent(8)).unwrap_err(),
            AuditError::RankErrorExceeded {
                pri: 5,
                rank: 2,
                bound: 0,
                ..
            }
        ));

        // Relaxed scope: accepted, with the exact distribution.
        let r = audit_history(&drain, &relaxed(8, None)).unwrap();
        assert_eq!(r.rank_error.count(), 4);
        assert_eq!(r.rank_error.max(), 2);
        assert_eq!(r.rank_error.sum(), 2);

        // A bound below the max trips, naming the offending delete.
        assert!(matches!(
            audit_history(&drain, &relaxed(8, Some(1))).unwrap_err(),
            AuditError::RankErrorExceeded {
                pri: 5,
                rank: 2,
                bound: 1,
                ..
            }
        ));

        // A bound at the max passes.
        assert!(audit_history(&drain, &relaxed(8, Some(2))).is_ok());
    }

    #[test]
    fn batched_deletes_get_their_own_rank_error_slice() {
        // Drain 5, 2, 2, 7 where only the pri-5 delete was batched: the
        // full distribution sees {2, 0, 0, 0}; the batched slice sees just
        // the 2.
        let mut ops = inserted_then_deleted(&[5, 2, 2, 7], true);
        ops[4].batched = true;
        let r = audit_history(&ops, &relaxed(8, None)).unwrap();
        assert_eq!(r.rank_error.count(), 4);
        assert_eq!(r.rank_error.sum(), 2);
        assert_eq!(r.rank_error_batched.count(), 1);
        assert_eq!(r.rank_error_batched.max(), 2);
        assert_eq!(r.rank_error_batched.sum(), 2);
    }

    #[test]
    fn drain_must_be_sorted() {
        let h = History::new();
        rec(&h, 0, 5, 100, 0, 10);
        // Overlaps the first drain delete, so only the drain rank pass
        // (not the interval ordering check) can flag this history.
        rec(&h, 0, 2, 101, 0, 22);
        let t = del(&h, 0, Some((5, 100)), 20, 25);
        h.mark_drain(t);
        let t = del(&h, 0, Some((2, 101)), 26, 30);
        h.mark_drain(t);
        assert!(matches!(
            audit_history(&h.snapshot(), &scope(8)).unwrap_err(),
            AuditError::RankErrorExceeded {
                pri: 5,
                rank: 1,
                bound: 0,
                ..
            }
        ));
    }

    #[test]
    fn a_window_without_inserts_must_return_exactly_the_k_smallest() {
        // E = {1, 2, 2}; two overlapping deletes return {2, 2}. Each is
        // ≤ the 2nd smallest of E, so "≤ k-th smallest" lets this
        // through, but no order of two deletes from E leaves the 1 behind.
        let h = History::new();
        rec(&h, 0, 1, 100, 0, 10);
        rec(&h, 0, 2, 101, 0, 10);
        rec(&h, 0, 2, 102, 0, 10);
        del(&h, 1, Some((2, 101)), 20, 30);
        del(&h, 2, Some((2, 102)), 25, 35);
        del(&h, 1, Some((1, 100)), 40, 50);
        let err = audit_history(&h.snapshot(), &quiescent(8)).unwrap_err();
        assert_eq!(
            err,
            AuditError::WindowViolation {
                stamps: (20, 35),
                held: 3,
                misses: 0,
                bound: 0,
                returned: vec![2, 2],
                min_k: vec![1, 2],
            }
        );
        assert!(err.to_string().contains("window [20, 35]"), "{err}");

        // A miss while E still holds an item the window never took.
        let h = History::new();
        rec(&h, 0, 1, 100, 0, 10);
        del(&h, 1, None, 20, 30);
        del(&h, 1, Some((1, 100)), 40, 50);
        assert!(matches!(
            audit_history(&h.snapshot(), &quiescent(8)).unwrap_err(),
            AuditError::WindowViolation {
                held: 1,
                misses: 1,
                ..
            }
        ));
    }

    #[test]
    fn a_window_with_inserts_is_held_to_the_kth_smallest() {
        // E = {1, 2, 3}; a window inserting pri 0 and deleting once may
        // return 1 (or the 0), never the 2.
        let run = |got: (u64, u64)| {
            let h = History::new();
            for (p, x) in [(1, 100), (2, 101), (3, 102)] {
                rec(&h, 0, p, x, 0, 10);
            }
            rec(&h, 1, 0, 103, 20, 40);
            del(&h, 2, Some(got), 25, 30);
            let rest = [(0, 103), (1, 100), (2, 101), (3, 102)];
            for (i, &(p, x)) in (0u64..).zip(rest.iter().filter(|&&e| e != got)) {
                del(&h, 2, Some((p, x)), 50 + 10 * i, 55 + 10 * i);
            }
            audit_history(&h.snapshot(), &quiescent(8))
        };
        assert!(run((1, 100)).is_ok());
        assert!(matches!(
            run((2, 101)).unwrap_err(),
            AuditError::WindowViolation {
                held: 3,
                returned,
                ..
            } if returned == [2]
        ));
    }

    #[test]
    fn a_window_taking_more_than_it_held_is_skipped() {
        // E = {5}; the window inserts 1 and 9 and its two deletes return 9
        // and 1. With k > |E| no bound on E exists, so only the later
        // drain window counts as checked.
        let h = History::new();
        rec(&h, 0, 5, 100, 0, 10);
        rec(&h, 1, 1, 101, 20, 30);
        rec(&h, 1, 9, 102, 20, 30);
        del(&h, 2, Some((9, 102)), 22, 32);
        del(&h, 3, Some((1, 101)), 24, 34);
        del(&h, 2, Some((5, 100)), 40, 50);
        let r = audit_history(&h.snapshot(), &quiescent(16)).unwrap();
        assert_eq!(r.windows_checked, 1);
    }

    #[test]
    fn equal_stamps_touch_and_share_a_window() {
        // Simulated stamps are cycles, so a delete can start on the cycle
        // an insert returned. Closed intervals put them in one window (E
        // empty, nothing to check); one cycle later the delete opens its
        // own window over E = {1, 5} and must return the 1.
        let run = |t0: u64| {
            let h = History::new();
            rec(&h, 0, 1, 100, 0, 10);
            rec(&h, 0, 5, 101, 0, 10);
            del(&h, 1, Some((5, 101)), t0, 20);
            del(&h, 1, Some((1, 100)), 30, 40);
            audit_history(&h.snapshot(), &quiescent(8))
        };
        assert_eq!(run(10).unwrap().windows_checked, 1);
        assert!(matches!(
            run(11).unwrap_err(),
            AuditError::WindowViolation {
                stamps: (11, 20),
                ..
            }
        ));
    }

    #[test]
    fn relaxed_window_bound_passes_at_the_observed_maximum_and_fails_one_below() {
        // E = {1, 2, 3, 4}; the first delete returns the 4 with three
        // smaller items held: window rank 3 (outside the drain).
        let ops = inserted_then_deleted(&[4, 1, 2, 3], false);
        let r = audit_history(&ops, &relaxed(8, Some(3))).unwrap();
        assert_eq!(r.windows_checked, 4);
        assert!(matches!(
            audit_history(&ops, &relaxed(8, Some(2))).unwrap_err(),
            AuditError::WindowViolation {
                bound: 2,
                returned,
                ..
            } if returned == [4]
        ));
        // Unbounded, the window pass does not run.
        assert_eq!(
            audit_history(&ops, &relaxed(8, None))
                .unwrap()
                .windows_checked,
            0
        );
    }

    #[test]
    fn crashed_and_wedged_scopes_skip_the_window_pass() {
        // The pri-5 delete runs alone while the 1 is held: a window
        // violation on a clean run. With proc 1 crashed mid-delete, or
        // the run wedged, the held multiset is unknown and nothing is
        // checked.
        let h = History::new();
        rec(&h, 0, 1, 100, 0, 10);
        rec(&h, 0, 5, 101, 0, 10);
        del(&h, 2, Some((5, 101)), 20, 30);
        let mut clean = h.snapshot();
        h.begin_delete(1, 40); // never completed
        let cut = h.snapshot();
        del(&h, 2, Some((1, 100)), 40, 50);
        clean.push(h.snapshot()[4]);
        assert!(matches!(
            audit_history(&clean, &quiescent(8)).unwrap_err(),
            AuditError::WindowViolation { held: 2, .. }
        ));
        for sc in [
            AuditScope {
                crashed: vec![1],
                ..quiescent(8)
            },
            AuditScope {
                wedged: true,
                ..quiescent(8)
            },
        ] {
            assert_eq!(audit_history(&cut, &sc).unwrap().windows_checked, 0);
        }
    }
}
