//! The simulated machine: memory, event queue, and task executor.
//!
//! # Fast-path design
//!
//! Every simulated memory transaction runs through [`SimState::transact`],
//! so that path is built exclusively from flat, index-addressed structures:
//!
//! * the scheduler is an indexed timer wheel ([`crate::wheel`]) — O(1)
//!   push/pop for the short wake deltas that dominate a run;
//! * memory words, the waiter lists' heads and tails, and one record per
//!   cache line (`{free, accesses, delay}`) live in [`Paged`] arrays:
//!   a read is two loads with no test for whether the page exists, and a
//!   page of host memory is created only when a run first writes into it. A structure reserves
//!   for its worst case and a run touches a few percent of that, so a
//!   machine costs what its run touches, and `alloc` only extends page
//!   tables;
//! * tasks blocked on a word live in per-address intrusive FIFO lists
//!   ([`WaiterTable`]) backed by one node slab — the per-transaction check
//!   "does this address have waiters?" is one paged read;
//! * task futures live in a slab ([`TaskSlab`]) that boxes each future once
//!   at spawn and never moves it again.
//!
//! Reports ([`Machine::stats`], [`Machine::hotspots`], the deadlock and
//! livelock diagnostics) walk only the pages that exist.
//!
//! The schedule is a pure function of event `(time, seq)` order, so the
//! optimized machine is checked bit-for-bit against a naive reference
//! ([`Machine::new_reference`]) by the differential tests in
//! `tests/memory_props.rs`, which also hold the paged memory to a dense
//! model.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Waker};

use crate::config::MachineConfig;
use crate::ctx::ProcCtx;
use crate::fault::{FaultGate, FaultPlan, FaultPlanError, FaultState, FaultSummary, SpanPoint};
use crate::paged::Paged;
use crate::stats::Stats;
use crate::trace::{RegionMap, TraceEvent, Tracer, TxnKind};
use crate::wheel::{EventQueue, EventWheel, LinearEventList};

/// A word of simulated shared memory.
pub type Word = u64;
/// An address (word index) in simulated shared memory.
pub type Addr = usize;
/// Identifier of a simulated processor (also its task id).
pub type ProcId = usize;

const NO_NODE: u32 = u32::MAX;

/// Per-address FIFO lists of blocked tasks, stored as intrusive linked
/// lists in a single node slab. `head`/`tail` are indexed by address and
/// grown alongside simulated memory, so registering, checking, and waking
/// waiters never touches a search structure.
struct WaiterTable {
    /// First/last slab node per address, or [`NO_NODE`].
    head: Paged<u32>,
    tail: Paged<u32>,
    /// `(task, next)` nodes; freed nodes are chained through `next`.
    nodes: Vec<(u32, u32)>,
    free: u32,
    waiting: usize,
}

impl WaiterTable {
    fn new() -> Self {
        WaiterTable {
            head: Paged::new(NO_NODE),
            tail: Paged::new(NO_NODE),
            nodes: Vec::new(),
            free: NO_NODE,
            waiting: 0,
        }
    }

    fn grow(&mut self, words: usize) {
        self.head.grow(words);
        self.tail.grow(words);
    }

    fn register(&mut self, addr: Addr, task: ProcId) {
        let task = u32::try_from(task).expect("more than u32::MAX tasks");
        let node = if self.free != NO_NODE {
            let n = self.free;
            self.free = self.nodes[n as usize].1;
            self.nodes[n as usize] = (task, NO_NODE);
            n
        } else {
            self.nodes.push((task, NO_NODE));
            (self.nodes.len() - 1) as u32
        };
        if self.head[addr] == NO_NODE {
            self.head[addr] = node;
        } else {
            self.nodes[self.tail[addr] as usize].1 = node;
        }
        self.tail[addr] = node;
        self.waiting += 1;
    }

    /// Detaches and returns the list head for `addr` (walk it with
    /// [`WaiterTable::free_node`]).
    fn take_list(&mut self, addr: Addr) -> u32 {
        let n = self.head[addr];
        if n != NO_NODE {
            self.head[addr] = NO_NODE;
            self.tail[addr] = NO_NODE;
        }
        n
    }

    /// Frees one detached node, returning its `(task, next)` payload.
    fn free_node(&mut self, n: u32) -> (ProcId, u32) {
        let (task, next) = self.nodes[n as usize];
        self.nodes[n as usize].1 = self.free;
        self.free = n;
        self.waiting -= 1;
        (task as ProcId, next)
    }

    /// All blocked tasks, in address order then registration order —
    /// the deadlock report.
    fn blocked(&self) -> Vec<ProcId> {
        self.blocked_with_addrs()
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    /// All blocked tasks with the address each is waiting on — the
    /// livelock diagnostic.
    fn blocked_with_addrs(&self) -> Vec<(ProcId, Addr)> {
        let mut out = Vec::with_capacity(self.waiting);
        for (first, heads) in self.head.pages() {
            for (i, &h) in heads.iter().enumerate() {
                let mut n = h;
                while n != NO_NODE {
                    let (task, next) = self.nodes[n as usize];
                    out.push((task as ProcId, first + i));
                    n = next;
                }
            }
        }
        out
    }
}

/// What the machine keeps per cache line.
#[derive(Clone, Copy, Default)]
struct Line {
    /// Time at which the line becomes free.
    free: u64,
    /// Transactions the line served.
    accesses: u64,
    /// Cycles those transactions queued behind busy lines.
    delay: u64,
}

pub(crate) struct SimState {
    pub(crate) cfg: MachineConfig,
    pub(crate) now: u64,
    seq: u64,
    events: EventQueue,
    /// Shared memory, paged: words no run has written read as 0.
    pub(crate) mem: Paged<Word>,
    /// Per-line service state and contention counts, paged like `mem`.
    lines: Paged<Line>,
    /// Per-line home node, grown alongside `lines` on a multi-node
    /// machine. A 1-node machine keeps it empty: every line is homed on
    /// node 0 and the remote branch in `transact` is never taken.
    line_home: Vec<u32>,
    /// Home node to assign to lines allocated next (see
    /// [`Machine::alloc_on_node`]); `None` stripes lines across nodes.
    alloc_node: Option<u32>,
    /// Tasks suspended until the given address is mutated.
    waiters: WaiterTable,
    pub(crate) stats: Stats,
    /// Spawned tasks that have not yet run to completion.
    pub(crate) live_tasks: usize,
    /// Attached trace sink, if any. Tracing is purely observational: it
    /// never schedules events or advances time, so attaching a tracer
    /// leaves the simulated schedule bit-identical.
    tracer: Option<Box<dyn Tracer>>,
    /// Attached fault injector, if any. Follows the tracer's cold split:
    /// the fast paths pay one presence test, and a present-but-empty plan
    /// injects nothing, so the schedule stays bit-identical.
    faults: Option<Box<FaultState>>,
    /// Livelock watchdog window in cycles; 0 = disabled.
    watchdog_window: u64,
    /// Time by which the next progress report must arrive; `u64::MAX`
    /// while the watchdog is disabled.
    watchdog_deadline: u64,
}

impl SimState {
    fn schedule(&mut self, time: u64, task: ProcId) {
        self.seq += 1;
        self.events.push((time, self.seq, task));
    }

    /// True while a tracer is attached. This single pointer-presence test
    /// is all the transaction fast path pays when tracing is off — the
    /// event construction lives in the `#[cold]` emit helpers below (the
    /// trait-object analogue of `funnelpq::obs`'s `Recorder::ENABLED`
    /// cold split).
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Delivers one event to the attached tracer. Kept out of line so the
    /// untraced fast path stays small.
    #[cold]
    #[inline(never)]
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.event(&ev);
        }
    }

    /// True while a fault plan is attached — the span fast path's single
    /// presence test, mirroring [`SimState::tracing`].
    #[inline]
    pub(crate) fn faulting(&self) -> bool {
        self.faults.is_some()
    }

    /// Feeds one span open/close to the span-triggered stall rules. Cold:
    /// only reached while a plan is attached.
    #[cold]
    #[inline(never)]
    pub(crate) fn fault_span(&mut self, proc: ProcId, name: &'static str, point: SpanPoint) {
        let now = self.now;
        if let Some(f) = self.faults.as_mut() {
            f.on_span(proc, name, point, now);
        }
    }

    /// Extra `(net_per_leg, service)` latency the attached plan adds to a
    /// transaction on `addr` issued now. Cold: only reached while a plan
    /// is attached.
    #[cold]
    #[inline(never)]
    fn fault_latency(&mut self, addr: Addr) -> (u64, u64) {
        let now = self.now;
        match self.faults.as_mut() {
            Some(f) => f.latency_extras(addr, now),
            None => (0, 0),
        }
    }

    /// Decides the fate of a popped event while a fault plan is attached.
    /// Cold: the healthy fast path never reaches it.
    #[cold]
    #[inline(never)]
    fn fault_step(&mut self, t: u64, tid: ProcId) -> Step {
        let gate = match self.faults.as_mut() {
            Some(f) => f.gate(t, tid),
            None => FaultGate::Deliver,
        };
        match gate {
            FaultGate::Deliver => {
                self.now = self.now.max(t);
                Step::Poll(tid)
            }
            FaultGate::Delay(until) => {
                self.schedule(until, tid);
                Step::Skip
            }
            FaultGate::Kill => Step::Kill(tid),
            FaultGate::Swallow => Step::Skip,
        }
    }

    /// Records a latency sample and feeds the livelock watchdog: each
    /// recorded sample counts as machine-wide progress, pushing the
    /// deadline out by one window.
    pub(crate) fn record_progress(&mut self, key: &'static str, v: u64) {
        self.stats.record(key, v);
        if self.watchdog_window != 0 {
            self.watchdog_deadline = self.now.saturating_add(self.watchdog_window);
        }
    }

    /// Performs one shared-memory transaction, applying its mutation in
    /// line-service order (which equals arrival order under a constant
    /// network latency). Returns `(previous value, completion time)`.
    pub(crate) fn transact(&mut self, task: ProcId, addr: Addr, op: MemOpKind) -> (Word, u64) {
        let (extra_net, extra_service) = if self.faults.is_some() {
            self.fault_latency(addr)
        } else {
            (0, 0)
        };
        let shift = self.cfg.line_shift();
        let line = addr >> shift;
        // A transaction crossing node boundaries pays the remote ratio on
        // each interconnect leg. With `nodes == 1` every line is homed on
        // node 0 and every processor lives there, so the flat machine's
        // schedule is untouched.
        let remote = self.cfg.nodes > 1 && self.line_home[line] as usize != task % self.cfg.nodes;
        let net = if remote {
            self.cfg.net_latency * self.cfg.remote_ratio
        } else {
            self.cfg.net_latency
        };
        let arrival = self.now + net + extra_net;
        let state = &mut self.lines[line];
        let free = state.free.max(arrival);
        let effect = free + self.cfg.service + extra_service;
        state.free = effect;
        state.accesses += 1;
        state.delay += free - arrival;
        let completion = effect + net + extra_net;

        self.stats.mem_accesses += 1;
        self.stats.remote_accesses += u64::from(remote);
        self.stats.queue_delay_cycles += free - arrival;

        let old = self.mem[addr];
        let new = match op {
            MemOpKind::Read => old,
            MemOpKind::Write(v) | MemOpKind::Swap(v) => v,
            MemOpKind::Cas { expected, new } if old == expected => new,
            MemOpKind::Cas { .. } => old,
            MemOpKind::Faa(delta) => old.wrapping_add_signed(delta),
        };
        // Storing the value a word already holds is no write at all, so it
        // creates no page either.
        let mutated = new != old;
        if mutated {
            self.mem[addr] = new;
        }
        if self.tracing() {
            self.emit(TraceEvent::Txn {
                proc: task,
                addr,
                line,
                kind: TxnKind::from(op),
                issue: self.now,
                arrival,
                start: free,
                release: effect,
                complete: completion,
                mutated,
            });
        }
        if mutated {
            // Invalidation: every spinner re-fetches after the write lands,
            // paying its own transaction when it resumes.
            let wake = effect + self.cfg.net_latency;
            let mut n = self.waiters.take_list(addr);
            while n != NO_NODE {
                let (task, next) = self.waiters.free_node(n);
                self.schedule(wake, task);
                if self.tracing() {
                    self.emit(TraceEvent::TaskResume {
                        proc: task,
                        addr,
                        time: wake,
                    });
                }
                n = next;
            }
        }
        self.schedule(completion, task);
        (old, completion)
    }

    pub(crate) fn register_waiter(&mut self, addr: Addr, task: ProcId) {
        self.waiters.register(addr, task);
        if self.tracing() {
            let now = self.now;
            self.emit(TraceEvent::TaskBlock {
                proc: task,
                addr,
                time: now,
            });
        }
    }

    pub(crate) fn schedule_wake(&mut self, time: u64, task: ProcId) {
        self.schedule(time, task);
    }
}

/// The memory operations a simulated processor can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemOpKind {
    Read,
    Write(Word),
    Swap(Word),
    Cas { expected: Word, new: Word },
    Faa(i64),
}

impl From<MemOpKind> for TxnKind {
    fn from(op: MemOpKind) -> TxnKind {
        match op {
            MemOpKind::Read => TxnKind::Read,
            MemOpKind::Write(_) => TxnKind::Write,
            MemOpKind::Swap(_) => TxnKind::Swap,
            MemOpKind::Cas { .. } => TxnKind::Cas,
            MemOpKind::Faa(_) => TxnKind::Faa,
        }
    }
}

type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Spawned task futures, boxed once at spawn. Completed slots are emptied
/// in place (task ids are dense and never reused, so this is a
/// monotonically filled slab rather than a free-list one).
#[derive(Default)]
struct TaskSlab {
    entries: Vec<Option<TaskFuture>>,
}

impl TaskSlab {
    fn insert(&mut self, fut: TaskFuture) -> ProcId {
        self.entries.push(Some(fut));
        self.entries.len() - 1
    }

    fn get_mut(&mut self, id: ProcId) -> Option<&mut TaskFuture> {
        self.entries.get_mut(id).and_then(|e| e.as_mut())
    }

    fn remove(&mut self, id: ProcId) {
        self.entries[id] = None;
    }

    fn contains(&self, id: ProcId) -> bool {
        self.entries.get(id).is_some_and(|e| e.is_some())
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// What one popped event turned into (computed inside the state borrow,
/// acted on outside it).
enum Step {
    /// Deliver: poll the task.
    Poll(ProcId),
    /// Event swallowed or deferred by the fault layer.
    Skip,
    /// Crash-stop the task.
    Kill(ProcId),
    /// `run_for`'s cycle limit passed.
    Limit,
    /// The livelock watchdog's deadline passed.
    Livelock,
    /// The event queue is empty.
    Drained,
}

/// Why [`Machine::run`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every spawned task ran to completion.
    Quiescent,
    /// The event queue drained while tasks were still alive: they are all
    /// blocked waiting for memory writes that will never come.
    Deadlock {
        /// Ids of the blocked tasks.
        blocked: Vec<ProcId>,
    },
    /// The cycle limit passed to [`Machine::run_for`] was reached.
    CycleLimit,
    /// The watchdog armed with [`Machine::set_watchdog`] saw no
    /// machine-wide progress for a full window.
    Livelock {
        /// Who was doing what when progress stopped.
        diag: LivelockDiag,
    },
}

impl RunOutcome {
    /// True when the run completed all tasks.
    pub fn is_quiescent(&self) -> bool {
        matches!(self, RunOutcome::Quiescent)
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Quiescent => write!(f, "quiescent"),
            RunOutcome::Deadlock { blocked } => {
                write!(f, "deadlock ({} tasks blocked)", blocked.len())
            }
            RunOutcome::CycleLimit => write!(f, "cycle limit reached"),
            RunOutcome::Livelock { diag } => write!(f, "{diag}"),
        }
    }
}

/// What each simulated processor was doing when the livelock watchdog
/// fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Scheduled normally (has a pending event, not stalled or blocked).
    Running,
    /// Suspended until the given word changes.
    BlockedOn(Addr),
    /// Held inside a fault-injected stall window.
    Stalled {
        /// When the stall window ends.
        until: u64,
    },
    /// Crash-stopped by the fault plan.
    Crashed,
    /// Ran to completion before progress stopped.
    Done,
}

/// One processor's row in a [`LivelockDiag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcDiag {
    /// The processor.
    pub proc: ProcId,
    /// What it was doing.
    pub state: ProcState,
}

/// Diagnostic dump produced when the livelock watchdog fires: per-proc
/// state, the hottest memory regions, and how deep the blocked set is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivelockDiag {
    /// Simulated time when the watchdog fired.
    pub now: u64,
    /// The configured progress window, in cycles.
    pub window: u64,
    /// Time of the last recorded progress sample.
    pub last_progress: u64,
    /// Per-processor state, indexed by processor id.
    pub procs: Vec<ProcDiag>,
    /// Hottest labelled regions as `(label, queue-delay cycles)`.
    pub hot: Vec<(String, u64)>,
    /// Number of tasks suspended on memory words.
    pub blocked_depth: usize,
}

impl fmt::Display for LivelockDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "livelock: no progress for {} cycles (last progress at {}, now {})",
            self.window, self.last_progress, self.now
        )?;
        writeln!(f, "  {} tasks blocked on memory words", self.blocked_depth)?;
        for p in &self.procs {
            match p.state {
                ProcState::Running => writeln!(f, "  proc {} runnable", p.proc)?,
                ProcState::BlockedOn(addr) => {
                    writeln!(f, "  proc {} blocked on word {}", p.proc, addr)?
                }
                ProcState::Stalled { until } => {
                    writeln!(f, "  proc {} stalled until {}", p.proc, until)?
                }
                ProcState::Crashed => writeln!(f, "  proc {} crashed", p.proc)?,
                ProcState::Done => {}
            }
        }
        write!(f, "  hottest regions:")?;
        for (label, delay) in &self.hot {
            write!(f, " {label} ({delay} delay cycles)")?;
        }
        Ok(())
    }
}

/// A simulated ccNUMA multiprocessor.
///
/// Allocate shared memory with [`Machine::alloc`], spawn one task per
/// simulated processor with [`Machine::spawn`], then [`Machine::run`] the
/// event loop to quiescence. The run is fully deterministic for a given
/// configuration, seed and spawn order.
///
/// # Examples
///
/// ```
/// use funnelpq_sim::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::test_tiny(), 42);
/// let counter = m.alloc(1);
/// for _ in 0..4 {
///     let ctx = m.ctx();
///     m.spawn(async move {
///         for _ in 0..10 {
///             ctx.faa(counter, 1).await;
///         }
///     });
/// }
/// let outcome = m.run();
/// assert!(outcome.is_quiescent());
/// assert_eq!(m.peek(counter), 40);
/// ```
pub struct Machine {
    st: Rc<RefCell<SimState>>,
    tasks: TaskSlab,
    next_pid: ProcId,
    pending_ctxs: usize,
    seed: u64,
    /// Labelled address ranges `(start, end, name)` for hot-spot reports.
    labels: Vec<(Addr, Addr, String)>,
    /// Sorted, non-overlapping `(start, end, index into labels or NONE)`
    /// intervals derived from `labels`; rebuilt lazily after `label()`.
    label_index: RefCell<Option<Vec<(Addr, Addr, usize)>>>,
}

impl Machine {
    fn with_events(cfg: MachineConfig, seed: u64, events: EventQueue) -> Self {
        assert!(
            cfg.line_words.is_power_of_two(),
            "line_words must be a power of two"
        );
        assert!(cfg.net_latency > 0, "net_latency must be positive");
        assert!(cfg.service > 0, "service must be positive");
        assert!(cfg.nodes >= 1, "nodes must be at least 1");
        assert!(cfg.remote_ratio >= 1, "remote_ratio must be at least 1");
        let st = SimState {
            cfg,
            now: 0,
            seq: 0,
            events,
            mem: Paged::new(0),
            lines: Paged::new(Line::default()),
            line_home: Vec::new(),
            alloc_node: None,
            waiters: WaiterTable::new(),
            stats: Stats::new(),
            live_tasks: 0,
            tracer: None,
            faults: None,
            watchdog_window: 0,
            watchdog_deadline: u64::MAX,
        };
        Machine {
            st: Rc::new(RefCell::new(st)),
            tasks: TaskSlab::default(),
            next_pid: 0,
            pending_ctxs: 0,
            seed,
            labels: Vec::new(),
            label_index: RefCell::new(None),
        }
    }

    /// Creates a machine with the given configuration and RNG seed.
    pub fn new(cfg: MachineConfig, seed: u64) -> Self {
        Machine::with_events(cfg, seed, EventQueue::Wheel(EventWheel::new()))
    }

    /// Creates a machine whose scheduler uses the naive linear-scan event
    /// list instead of the timer wheel. The schedule — and therefore every
    /// simulated result — is identical to [`Machine::new`]; this exists as
    /// the slow, obviously correct oracle for differential tests and
    /// benchmark baselines.
    pub fn new_reference(cfg: MachineConfig, seed: u64) -> Self {
        Machine::with_events(cfg, seed, EventQueue::Linear(LinearEventList::new()))
    }

    /// Allocates `words` words of zeroed shared memory, rounded up so the
    /// allocation starts on a fresh cache line (avoids accidental false
    /// sharing between independently allocated objects). Host memory is
    /// spent only on the pages a run goes on to write.
    ///
    /// On a multi-node machine the new lines are striped across nodes
    /// (`line % nodes`), so structures built without node awareness spread
    /// their traffic evenly; use [`Machine::alloc_on_node`] to home an
    /// allocation on one node.
    pub fn alloc(&mut self, words: usize) -> Addr {
        let mut st = self.st.borrow_mut();
        let line_words = st.cfg.line_words;
        let start = st.mem.len().next_multiple_of(line_words);
        let end = start + words.max(1);
        st.mem.grow(end);
        st.waiters.grow(end);
        let lines = end.div_ceil(line_words);
        st.lines.grow(lines);
        if st.cfg.nodes > 1 {
            let nodes = st.cfg.nodes as u32;
            let forced = st.alloc_node;
            while st.line_home.len() < lines {
                let home = forced.unwrap_or(st.line_home.len() as u32 % nodes);
                st.line_home.push(home);
            }
        }
        start
    }

    /// Allocates `words` words of zeroed shared memory whose cache lines
    /// are all homed on `node` — accesses from processors of other nodes
    /// pay the configured `remote_ratio`. This is how node-local structures
    /// (per-node heap partitions, delegation mailboxes) are placed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the configured topology.
    pub fn alloc_on_node(&mut self, words: usize, node: usize) -> Addr {
        {
            let mut st = self.st.borrow_mut();
            assert!(
                node < st.cfg.nodes,
                "node {node} out of range for a {}-node machine",
                st.cfg.nodes
            );
            st.alloc_node = Some(node as u32);
        }
        let addr = self.alloc(words);
        self.st.borrow_mut().alloc_node = None;
        addr
    }

    /// Number of NUMA nodes in this machine's configuration.
    pub fn nodes(&self) -> usize {
        self.st.borrow().cfg.nodes
    }

    /// The node a processor belongs to (`pid % nodes`).
    pub fn node_of_proc(&self, pid: ProcId) -> usize {
        pid % self.st.borrow().cfg.nodes
    }

    /// Home node of the cache line containing `addr`.
    pub fn node_of_addr(&self, addr: Addr) -> usize {
        let st = self.st.borrow();
        if st.cfg.nodes == 1 {
            return 0;
        }
        st.line_home[addr >> st.cfg.line_shift()] as usize
    }

    /// Maximal contiguous word ranges `(start, words)` whose cache lines
    /// are homed on `node`, in address order. This is the glue between the
    /// topology and the fault layer: feed a range to
    /// [`crate::fault::FaultPlan::region_delay`] to spike the latency of
    /// exactly one node's memory.
    pub fn node_regions(&self, node: usize) -> Vec<(Addr, usize)> {
        let st = self.st.borrow();
        let line_words = st.cfg.line_words;
        let mem_words = st.mem.len();
        if st.cfg.nodes == 1 {
            return if node == 0 && mem_words > 0 {
                vec![(0, mem_words)]
            } else {
                Vec::new()
            };
        }
        let mut out: Vec<(Addr, usize)> = Vec::new();
        for (line, &home) in st.line_home.iter().enumerate() {
            if home as usize != node {
                continue;
            }
            let start = line * line_words;
            let end = ((line + 1) * line_words).min(mem_words);
            if end <= start {
                continue;
            }
            match out.last_mut() {
                Some(last) if last.0 + last.1 == start => last.1 += end - start,
                _ => out.push((start, end - start)),
            }
        }
        out
    }

    /// Allocates `words` words, each on its own cache line; returns the
    /// address of word `i` as `base + i * line_words`.
    pub fn alloc_padded(&mut self, words: usize) -> Addr {
        let line_words = self.st.borrow().cfg.line_words;
        self.alloc(words.max(1) * line_words)
    }

    /// Number of words per cache line in this machine's configuration.
    pub fn line_words(&self) -> usize {
        self.st.borrow().cfg.line_words
    }

    /// This machine's configuration.
    pub fn config(&self) -> MachineConfig {
        self.st.borrow().cfg
    }

    /// Creates the context for the *next* processor to be spawned.
    ///
    /// Call `ctx()` then `spawn()` in pairs; the context's processor id is
    /// fixed at creation.
    pub fn ctx(&mut self) -> ProcCtx {
        let pid = self.next_pid + self.pending_ctxs;
        self.pending_ctxs += 1;
        ProcCtx::new(Rc::clone(&self.st), pid, self.seed)
    }

    /// Spawns a task for the processor whose context was most recently
    /// created with [`Machine::ctx`].
    ///
    /// # Panics
    ///
    /// Panics if called without a prior matching `ctx()` call.
    pub fn spawn<F>(&mut self, fut: F) -> ProcId
    where
        F: Future<Output = ()> + 'static,
    {
        assert!(
            self.pending_ctxs > 0,
            "spawn() must be preceded by a ctx() call for the new processor"
        );
        self.pending_ctxs -= 1;
        let pid = self.next_pid;
        self.next_pid += 1;
        debug_assert_eq!(pid, self.tasks.len());
        let slab_pid = self.tasks.insert(Box::pin(fut));
        debug_assert_eq!(slab_pid, pid);
        let mut st = self.st.borrow_mut();
        st.live_tasks += 1;
        st.schedule_wake(0, pid);
        if st.tracing() {
            let now = st.now;
            st.emit(TraceEvent::TaskSpawn {
                proc: pid,
                time: now,
            });
        }
        pid
    }

    /// Runs the event loop until every task completes or no progress is
    /// possible.
    pub fn run(&mut self) -> RunOutcome {
        self.run_for(u64::MAX)
    }

    /// Runs the event loop, stopping once the clock passes `max_cycles`.
    pub fn run_for(&mut self, max_cycles: u64) -> RunOutcome {
        let waker = Waker::noop();
        loop {
            let step = {
                let mut st = self.st.borrow_mut();
                match st.events.pop() {
                    Some((t, _, tid)) => {
                        if t > max_cycles {
                            // Put it back so a later run_for can resume.
                            st.schedule_wake(t, tid);
                            Step::Limit
                        } else if t > st.watchdog_deadline {
                            st.schedule_wake(t, tid);
                            Step::Livelock
                        } else if st.faults.is_some() {
                            st.fault_step(t, tid)
                        } else {
                            st.now = st.now.max(t);
                            Step::Poll(tid)
                        }
                    }
                    None => Step::Drained,
                }
            };
            let tid = match step {
                Step::Poll(tid) => tid,
                Step::Skip => continue,
                Step::Kill(tid) => {
                    if self.tasks.get_mut(tid).is_some() {
                        self.tasks.remove(tid);
                        self.st.borrow_mut().live_tasks -= 1;
                    }
                    continue;
                }
                Step::Limit => return RunOutcome::CycleLimit,
                Step::Livelock => {
                    return RunOutcome::Livelock {
                        diag: self.livelock_diag(),
                    }
                }
                Step::Drained => {
                    let st = self.st.borrow();
                    if st.live_tasks == 0 {
                        return RunOutcome::Quiescent;
                    }
                    return RunOutcome::Deadlock {
                        blocked: st.waiters.blocked(),
                    };
                }
            };
            let Some(task) = self.tasks.get_mut(tid) else {
                continue;
            };
            let mut cx = Context::from_waker(waker);
            if task.as_mut().poll(&mut cx).is_ready() {
                self.tasks.remove(tid);
                let mut st = self.st.borrow_mut();
                st.live_tasks -= 1;
                if st.tracing() {
                    let now = st.now;
                    st.emit(TraceEvent::TaskComplete {
                        proc: tid,
                        time: now,
                    });
                }
            }
        }
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.st.borrow().now
    }

    /// Reads a word of simulated memory directly, without charging any
    /// simulated time. For assertions and result extraction only.
    pub fn peek(&self, addr: Addr) -> Word {
        self.st.borrow().mem[addr]
    }

    /// Writes a word of simulated memory directly, without charging any
    /// simulated time. For test setup only; does not wake waiters.
    pub fn poke(&mut self, addr: Addr, v: Word) {
        self.st.borrow_mut().mem[addr] = v;
    }

    /// Snapshot of the statistics gathered so far.
    pub fn stats(&self) -> Stats {
        let st = self.st.borrow();
        let mut stats = st.stats.clone();
        stats.per_line = touched_lines(&st.lines)
            .map(|(line, l)| (line, l.accesses, l.delay))
            .collect();
        stats
    }

    /// Snapshot of simulated memory (for differential testing).
    pub fn memory_snapshot(&self) -> Vec<Word> {
        self.st.borrow().mem.to_vec()
    }

    /// Number of spawned tasks that have not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.st.borrow().live_tasks
    }

    /// Attaches a trace sink: every subsequent memory transaction,
    /// scheduler action and user span is delivered to it as a
    /// [`TraceEvent`]. The usual sink is a [`crate::trace::TraceLog`]
    /// handle. Tracing never perturbs the simulation — a traced run's
    /// schedule and [`Stats`] are bit-identical to an untraced one.
    pub fn attach_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.st.borrow_mut().tracer = Some(tracer);
    }

    /// Detaches and returns the current tracer, if any. Subsequent events
    /// are no longer recorded.
    pub fn detach_tracer(&mut self) -> Option<Box<dyn Tracer>> {
        self.st.borrow_mut().tracer.take()
    }

    /// Attaches a fault plan: subsequent runs inject its stalls, latency
    /// spikes and crashes. Attach *after* allocating the memory a
    /// [`crate::fault::Fault::RegionDelay`] targets, so ranges can be
    /// checked. An empty plan is observationally free — the run stays
    /// bit-identical to one with no plan attached (verified differentially
    /// by `tests/chaos_conformance.rs`).
    ///
    /// Shape and memory-range problems are reported here; processor ids
    /// are not known to the machine until spawn time, so validate them
    /// against the run with [`FaultPlan::check`].
    pub fn attach_faults(&mut self, plan: &FaultPlan) -> Result<(), FaultPlanError> {
        plan.check_shape()?;
        plan.check_mem(self.st.borrow().mem.len())?;
        self.st.borrow_mut().faults = Some(Box::new(FaultState::from_plan(plan)));
        Ok(())
    }

    /// Arms the global-progress livelock watchdog: if no progress sample
    /// is recorded (via [`ProcCtx::record`]) for `window` consecutive
    /// cycles, [`Machine::run`] stops with [`RunOutcome::Livelock`] and a
    /// diagnostic dump. `window` 0 disarms. Size the window well above the
    /// workload's worst healthy inter-op gap.
    pub fn set_watchdog(&mut self, window: u64) {
        let mut st = self.st.borrow_mut();
        st.watchdog_window = window;
        st.watchdog_deadline = if window == 0 {
            u64::MAX
        } else {
            st.now.saturating_add(window)
        };
    }

    /// Processors crash-stopped by the attached fault plan so far, in kill
    /// order.
    pub fn crashed(&self) -> Vec<ProcId> {
        self.st
            .borrow()
            .faults
            .as_ref()
            .map(|f| f.crashed().to_vec())
            .unwrap_or_default()
    }

    /// What the attached fault plan actually injected so far, or `None`
    /// when no plan is attached.
    pub fn fault_summary(&self) -> Option<FaultSummary> {
        self.st.borrow().faults.as_ref().map(|f| f.summary())
    }

    /// Builds the livelock diagnostic dump (who was doing what, hottest
    /// regions, blocked depth) at the moment the watchdog fired.
    fn livelock_diag(&self) -> LivelockDiag {
        let hot = self
            .hotspots(4)
            .into_iter()
            .map(|h| (h.label, h.queue_delay_cycles))
            .collect();
        let st = self.st.borrow();
        let now = st.now;
        let window = st.watchdog_window;
        let last_progress = st.watchdog_deadline.saturating_sub(window);
        let blocked = st.waiters.blocked_with_addrs();
        let mut procs = Vec::with_capacity(self.next_pid);
        for pid in 0..self.next_pid {
            let state = if st
                .faults
                .as_ref()
                .is_some_and(|f| f.crashed().contains(&pid))
            {
                ProcState::Crashed
            } else if let Some(until) = st.faults.as_ref().and_then(|f| f.stalled_until(pid, now)) {
                ProcState::Stalled { until }
            } else if let Some(&(_, addr)) = blocked.iter().find(|&&(t, _)| t == pid) {
                ProcState::BlockedOn(addr)
            } else if self.tasks.contains(pid) {
                ProcState::Running
            } else {
                ProcState::Done
            };
            procs.push(ProcDiag { proc: pid, state });
        }
        LivelockDiag {
            now,
            window,
            last_progress,
            procs,
            hot,
            blocked_depth: blocked.len(),
        }
    }

    /// Resolves every allocated cache line to a labelled region (merging
    /// distinct ranges that share a display name, exactly like
    /// [`Machine::hotspots`]), for use by the trace exporters. Build it
    /// *after* the structures under test are allocated and labelled; lines
    /// allocated later fall in `"<unlabelled>"`.
    pub fn region_map(&self) -> RegionMap {
        let mut cache = self.label_index.borrow_mut();
        let index = cache.get_or_insert_with(|| self.build_label_index());
        let st = self.st.borrow();
        let shift = st.cfg.line_shift();
        let line_words = st.cfg.line_words;
        let n_lines = st.lines.len();
        let mut names: Vec<String> = Vec::new();
        // Region index per label, resolved on first sighting so identical
        // display names merge into one region.
        let mut region_of_label: Vec<Option<u32>> = vec![None; self.labels.len()];
        // A line belongs to the label over its first word, so a labelled
        // segment `[s, e)` owns lines `ceil(s / lw)..ceil(e / lw)`. Runs
        // are `(end line, region)`; gaps are unlabelled (`u32::MAX` until
        // that region's index is known).
        let mut runs: Vec<(usize, u32)> = Vec::new();
        let mut covered = 0;
        for &(s, e, li) in index.iter() {
            let first = s.div_ceil(line_words);
            let end = e.div_ceil(line_words).min(n_lines);
            if li == usize::MAX || first >= end {
                continue;
            }
            let region = *region_of_label[li].get_or_insert_with(|| {
                let name = self.labels[li].2.as_str();
                match names.iter().position(|n| n == name) {
                    Some(pos) => pos as u32,
                    None => {
                        names.push(name.to_string());
                        (names.len() - 1) as u32
                    }
                }
            });
            if first > covered {
                runs.push((first, u32::MAX));
            }
            runs.push((end, region));
            covered = end;
        }
        if covered < n_lines {
            runs.push((n_lines, u32::MAX));
        }
        let unlabelled = names.len() as u32;
        names.push("<unlabelled>".to_string());
        for r in &mut runs {
            if r.1 == u32::MAX {
                r.1 = unlabelled;
            }
        }
        RegionMap::new(names, runs, st.line_home.clone(), shift)
    }

    /// Attaches a human-readable label to the address range
    /// `addr..addr + words` for hot-spot reporting. Later labels win where
    /// ranges overlap.
    pub fn label(&mut self, addr: Addr, words: usize, name: impl Into<String>) {
        self.labels.push((addr, addr + words.max(1), name.into()));
        *self.label_index.borrow_mut() = None;
    }

    /// Builds the sorted interval list: non-overlapping `[start, end)`
    /// segments, each mapped to the *last* label covering it (or
    /// `usize::MAX` for none).
    fn build_label_index(&self) -> Vec<(Addr, Addr, usize)> {
        let mut bounds: Vec<Addr> = self.labels.iter().flat_map(|&(s, e, _)| [s, e]).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut out: Vec<(Addr, Addr, usize)> = Vec::new();
        for w in bounds.windows(2) {
            let (s, e) = (w[0], w[1]);
            let owner = self
                .labels
                .iter()
                .rposition(|&(ls, le, _)| s >= ls && s < le)
                .unwrap_or(usize::MAX);
            match out.last_mut() {
                // Merge adjacent segments with the same owner.
                Some(last) if last.2 == owner && last.1 == s => last.1 = e,
                _ => out.push((s, e, owner)),
            }
        }
        out
    }

    /// Label covering `addr`, resolved by binary search over the
    /// precomputed interval list.
    fn label_of(&self, index: &[(Addr, Addr, usize)], addr: Addr) -> Option<usize> {
        let i = index.partition_point(|&(_, end, _)| end <= addr);
        match index.get(i) {
            Some(&(s, _, owner)) if addr >= s && owner != usize::MAX => Some(owner),
            _ => None,
        }
    }

    /// Aggregates per-cache-line contention by label and returns the
    /// regions with the most queueing delay, descending. Lines outside any
    /// labelled range are pooled under `"<unlabelled>"`.
    ///
    /// This is the paper's hot-spot story made observable: run a workload
    /// and see which structure's cache lines serialized the machine.
    pub fn hotspots(&self, top_k: usize) -> Vec<crate::stats::HotSpot> {
        let mut cache = self.label_index.borrow_mut();
        let index = cache.get_or_insert_with(|| self.build_label_index());
        let st = self.st.borrow();
        let shift = st.cfg.line_shift();
        // Accumulator per label, plus one slot for "<unlabelled>".
        let mut by_label: Vec<(u64, u64)> = vec![(0, 0); self.labels.len() + 1];
        for (line, l) in touched_lines(&st.lines) {
            let addr = line << shift;
            let slot = self.label_of(index, addr).unwrap_or(self.labels.len());
            by_label[slot].0 += l.accesses;
            by_label[slot].1 += l.delay;
        }
        // Distinct labelled regions may share a display name (one label per
        // bin, per lock, per tree level); merge those for the report.
        let mut out: Vec<crate::stats::HotSpot> = Vec::new();
        for (i, (accesses, queue_delay_cycles)) in by_label.into_iter().enumerate() {
            if accesses == 0 {
                continue;
            }
            let name = self
                .labels
                .get(i)
                .map(|(_, _, name)| name.as_str())
                .unwrap_or("<unlabelled>");
            match out.iter_mut().find(|h| h.label == name) {
                Some(h) => {
                    h.accesses += accesses;
                    h.queue_delay_cycles += queue_delay_cycles;
                }
                None => out.push(crate::stats::HotSpot {
                    label: name.to_string(),
                    accesses,
                    queue_delay_cycles,
                }),
            }
        }
        out.sort_by_key(|h| std::cmp::Reverse(h.queue_delay_cycles));
        out.truncate(top_k);
        out
    }
}

/// Every line a transaction touched, in line order, with its record.
fn touched_lines(lines: &Paged<Line>) -> impl Iterator<Item = (usize, &Line)> + '_ {
    lines.pages().flat_map(|(first, page)| {
        page.iter()
            .enumerate()
            .filter(|(_, l)| l.accesses > 0)
            .map(move |(i, l)| (first + i, l))
    })
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.st.borrow();
        f.debug_struct("Machine")
            .field("now", &st.now)
            .field("mem_words", &st.mem.len())
            .field("live_tasks", &st.live_tasks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Host pages behind the machine's memory, line and waiter tables.
    fn pages(m: &Machine) -> usize {
        let st = m.st.borrow();
        st.mem.page_count()
            + st.lines.page_count()
            + st.waiters.head.page_count()
            + st.waiters.tail.page_count()
    }

    #[test]
    fn a_large_allocation_creates_no_page_and_reads_zero() {
        let mut m = Machine::new(MachineConfig::alewife_like(), 1);
        let a = m.alloc(1 << 24);
        assert_eq!(pages(&m), 0);
        assert_eq!(m.peek(a), 0);
        assert_eq!(m.peek(a + (1 << 24) - 1), 0);
        assert_eq!(m.stats().per_line().count(), 0);
        assert_eq!(m.hotspots(4), Vec::new());

        // One transaction writes one memory page and one line page.
        let ctx = m.ctx();
        m.spawn(async move {
            ctx.write(a + 5_000_000, 3).await;
        });
        assert!(m.run().is_quiescent());
        assert_eq!(pages(&m), 2);
        assert_eq!(m.peek(a + 5_000_000), 3);
        let line = (a + 5_000_000) / m.line_words();
        assert_eq!(m.stats().per_line().collect::<Vec<_>>(), vec![(line, 1, 0)]);
    }

    #[test]
    fn a_one_node_machine_has_one_region_covering_all_memory() {
        let mut m = Machine::new(MachineConfig::alewife_like(), 1);
        assert_eq!(m.node_regions(0), Vec::new());
        m.alloc(3);
        let b = m.alloc(5000);
        let words = b + 5000;
        assert_eq!(m.node_regions(0), vec![(0, words)]);
        assert_eq!(m.node_regions(1), Vec::new());
        assert_eq!(m.node_of_addr(b + 4999), 0);
        assert!(m.st.borrow().line_home.is_empty());
    }
}
