//! Property-style tests of the simulated memory system, driven by the
//! in-repo deterministic PRNG instead of an external property-testing
//! framework: arbitrary single-processor transaction sequences must behave
//! exactly like local arithmetic, multi-processor interleavings must respect
//! per-word atomicity, the paged memory must agree with a dense model across
//! page edges and untouched pages, and — the load-bearing property for the
//! event-wheel scheduler — the optimized machine must be *bit-identical* to
//! the naive linear-scan reference machine on every observable output.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use funnelpq_sim::trace::{TraceEvent, TraceLog, TxnKind};
use funnelpq_sim::{Addr, Machine, MachineConfig, ProcCtx};
use funnelpq_util::XorShift64Star;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemAct {
    Read,
    Write(u64),
    Swap(u64),
    Cas { exp: u64, new: u64 },
    Faa(i64),
}

impl MemAct {
    /// Issues the act on `ctx`, resolving to the word's previous value.
    async fn issue(self, ctx: &ProcCtx, a: Addr) -> u64 {
        match self {
            MemAct::Read => ctx.read(a).await,
            MemAct::Write(v) => ctx.write(a, v).await,
            MemAct::Swap(v) => ctx.swap(a, v).await,
            MemAct::Cas { exp, new } => ctx.cas(a, exp, new).await,
            MemAct::Faa(d) => ctx.faa(a, d).await,
        }
    }

    /// The word's value after the act, given its value `v` before.
    fn apply(self, v: u64) -> u64 {
        match self {
            MemAct::Read => v,
            MemAct::Write(x) | MemAct::Swap(x) => x,
            MemAct::Cas { exp, new } if v == exp => new,
            MemAct::Cas { .. } => v,
            MemAct::Faa(d) => v.wrapping_add_signed(d),
        }
    }

    fn kind(self) -> TxnKind {
        match self {
            MemAct::Read => TxnKind::Read,
            MemAct::Write(_) => TxnKind::Write,
            MemAct::Swap(_) => TxnKind::Swap,
            MemAct::Cas { .. } => TxnKind::Cas,
            MemAct::Faa(_) => TxnKind::Faa,
        }
    }
}

fn random_acts(rng: &mut XorShift64Star, max_len: u64) -> Vec<MemAct> {
    let len = 1 + rng.below(max_len) as usize;
    (0..len)
        .map(|_| match rng.below(4) {
            0 => MemAct::Write(rng.below(8)),
            1 => MemAct::Swap(rng.below(8)),
            2 => MemAct::Cas {
                exp: rng.below(8),
                new: rng.below(8),
            },
            _ => MemAct::Faa(rng.below(7) as i64 - 3),
        })
        .collect()
}

#[test]
fn single_proc_transactions_match_model() {
    for seed in 0..64u64 {
        let mut rng = XorShift64Star::new(seed.wrapping_mul(0x9E37_79B9));
        let ops = random_acts(&mut rng, 60);
        let mut m = Machine::new(MachineConfig::alewife_like(), seed);
        let a = m.alloc(1);
        let results = Rc::new(RefCell::new(Vec::new()));
        let r2 = Rc::clone(&results);
        let ctx = m.ctx();
        let ops2 = ops.clone();
        m.spawn(async move {
            for op in ops2 {
                let got = op.issue(&ctx, a).await;
                r2.borrow_mut().push(got);
            }
        });
        assert!(m.run().is_quiescent());
        // Replay against a plain variable.
        let mut v = 0u64;
        for (op, got) in ops.iter().zip(results.borrow().iter()) {
            assert_eq!(*got, v, "previous value mismatch for {op:?}");
            v = op.apply(v);
        }
        assert_eq!(m.peek(a), v, "seed {seed}");
    }
}

#[test]
fn concurrent_faa_conserves() {
    for seed in 0..24u64 {
        let mut rng = XorShift64Star::new(seed ^ 0xFAA);
        let counts: Vec<usize> = (0..2 + rng.below(8))
            .map(|_| 1 + rng.below(19) as usize)
            .collect();
        let mut m = Machine::new(MachineConfig::test_tiny(), 7);
        let a = m.alloc(1);
        let total: usize = counts.iter().sum();
        for &n in &counts {
            let ctx = m.ctx();
            m.spawn(async move {
                for _ in 0..n {
                    ctx.faa(a, 1).await;
                }
            });
        }
        assert!(m.run().is_quiescent());
        assert_eq!(m.peek(a), total as u64, "seed {seed}");
    }
}

#[test]
fn latency_is_monotone_in_contention() {
    // P processors reading one line take at least as long as P-1.
    fn finish_time(p: usize) -> u64 {
        let mut m = Machine::new(MachineConfig::alewife_like(), 1);
        let a = m.alloc(1);
        for _ in 0..p {
            let ctx = m.ctx();
            m.spawn(async move {
                ctx.read(a).await;
            });
        }
        assert!(m.run().is_quiescent());
        m.now()
    }
    let times: Vec<u64> = (1..24).map(finish_time).collect();
    for w in times.windows(2) {
        assert!(w[1] >= w[0], "latency not monotone: {times:?}");
    }
}

/// Drives one randomized multi-processor workload on a machine. The workload
/// deliberately exercises every scheduler path that distinguishes the event
/// wheel from a naive queue: same-cycle ties (many procs woken together),
/// `work` delays far beyond the wheel horizon (overflow + migration),
/// `wait_change` blocking (waiter wake-ups re-entering the queue), and
/// `random_*` calls (so the per-proc PRNG streams must also line up).
fn run_workload(
    mut m: Machine,
    seed: u64,
    procs: usize,
) -> (u64, Vec<u64>, Vec<(usize, u64, u64)>) {
    let shared = m.alloc(4);
    let flags = m.alloc(procs);
    for p in 0..procs {
        let ctx = m.ctx();
        let mut rng = XorShift64Star::new(seed ^ (p as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        m.spawn(async move {
            for round in 0..12u64 {
                match rng.below(6) {
                    0 => {
                        ctx.faa(shared + (rng.below(4) as usize), 1).await;
                    }
                    1 => {
                        let a = shared + (rng.below(4) as usize);
                        let old = ctx.read(a).await;
                        ctx.cas(a, old, old.wrapping_add(round)).await;
                    }
                    2 => {
                        // Far beyond the 1024-cycle wheel horizon: lands in
                        // the overflow heap and must migrate back in order.
                        ctx.work(1500 + rng.below(6000)).await;
                    }
                    3 => {
                        ctx.work(rng.below(40)).await;
                    }
                    4 => {
                        // Ping the ring successor's flag, then wait on our
                        // own. Proc 0 never waits, so the ring cannot
                        // deadlock: proc 0 always finishes and lands the
                        // guaranteed final +100 on proc 1's flag, proc 1
                        // then finishes, and so on around the ring. Waiting
                        // only while `seen < 100` ensures the predecessor's
                        // final increment is still ahead of us.
                        let me = flags + (ctx.pid() % procs);
                        let next = flags + ((ctx.pid() + 1) % procs);
                        ctx.faa(next, 1).await;
                        let seen = ctx.read(me).await;
                        if !ctx.pid().is_multiple_of(procs) && seen < 100 {
                            let _ = ctx.wait_change(me, seen).await;
                        }
                    }
                    _ => {
                        let v = ctx.swap(shared, ctx.random_below(64)).await;
                        if ctx.random_bool(0.3) {
                            ctx.write(shared + 1, v).await;
                        }
                    }
                }
            }
            // Final wake so no neighbour is left blocked on its flag.
            let next = flags + ((ctx.pid() + 1) % procs);
            ctx.faa(next, 100).await;
        });
    }
    // Split the run across run_for windows (the limit is an absolute clock
    // value) to cover stop/resume re-entry of the scheduler.
    let mut limit = 10_000;
    while !m.run_for(limit).is_quiescent() {
        limit += 10_000;
    }
    let stats = m.stats();
    (m.now(), m.memory_snapshot(), stats.per_line().collect())
}

/// The tentpole equivalence property: the wheel-scheduled machine and the
/// linear-scan reference machine must produce identical clocks, memories,
/// and per-line contention counts for identical workloads.
#[test]
fn wheel_machine_matches_reference_machine() {
    for seed in 0..12u64 {
        for &procs in &[1usize, 3, 8, 17] {
            let cfg = MachineConfig::alewife_like();
            let fast = run_workload(Machine::new(cfg, seed), seed, procs);
            let slow = run_workload(Machine::new_reference(cfg, seed), seed, procs);
            assert_eq!(fast.0, slow.0, "clock diverged: seed {seed} procs {procs}");
            assert_eq!(fast.1, slow.1, "memory diverged: seed {seed} procs {procs}");
            assert_eq!(
                fast.2, slow.2,
                "per-line stats diverged: seed {seed} procs {procs}"
            );
        }
    }
}

/// Aggregate stats must agree too (accesses, queueing delay, series).
#[test]
fn wheel_machine_stats_match_reference() {
    let seed = 99;
    let run = |mut m: Machine| {
        let a = m.alloc(1);
        for _ in 0..16 {
            let ctx = m.ctx();
            m.spawn(async move {
                for i in 0..25u64 {
                    ctx.faa(a, 1).await;
                    ctx.work(if i % 5 == 0 { 2048 } else { 3 }).await;
                }
            });
        }
        assert!(m.run().is_quiescent());
        let s = m.stats();
        (m.now(), m.peek(a), s.mem_accesses, s.queue_delay_cycles)
    };
    let fast = run(Machine::new(MachineConfig::alewife_like(), seed));
    let slow = run(Machine::new_reference(MachineConfig::alewife_like(), seed));
    assert_eq!(fast, slow);
    assert_eq!(fast.1, 16 * 25);
}

/// Hot words sit on both sides of page edges (1024-entry pages: words 1024
/// and 2048, and line 1024 when a line holds two words), then comes a gap
/// of pages nothing touches, then two mailbox words alone in their pages.
fn paged_layout(m: &mut Machine) -> (Vec<Addr>, [Addr; 2]) {
    let a = m.alloc(3000);
    m.alloc(10_000);
    let b = m.alloc(2100);
    let hot = [1022, 1023, 1024, 1025, 2046, 2047, 2048, 2049]
        .iter()
        .map(|&w| a + w)
        .collect();
    (hot, [b + 400, b + 2099])
}

/// Holds the paged machine to a dense model kept here: memory is a plain
/// `Vec<u64>`, line state a dense `(free, accesses, delay)` per line, and
/// waiters a FIFO per word. The model replays the machine's trace in
/// emission order and must agree on every previous value, every line's
/// service start, every wake-up (who, in what order, when), the final
/// memory and the per-line counts. Processors 1.. block on a mailbox word
/// that no one has read or written, without reading it first; processor 0
/// fills both mailboxes after its random acts, so every waiter wakes.
fn check_against_dense_model(cfg: MachineConfig, seed: u64, procs: usize) {
    let mut m = Machine::new(cfg, seed);
    let (hot, mail) = paged_layout(&mut m);
    let words = mail[1] + 1;
    let log = TraceLog::new();
    m.attach_tracer(log.handle());
    // Per processor, every act in issue order: `(addr, act, previous value)`.
    let acts = Rc::new(RefCell::new(vec![Vec::<(Addr, MemAct, u64)>::new(); procs]));
    for p in 0..procs {
        let ctx = m.ctx();
        let hot = hot.clone();
        let acts = Rc::clone(&acts);
        let mut rng = XorShift64Star::new(seed ^ (p as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        m.spawn(async move {
            let act = |a: Addr, op: MemAct| {
                let (ctx, acts) = (&ctx, &acts);
                async move {
                    let got = op.issue(ctx, a).await;
                    acts.borrow_mut()[ctx.pid()].push((a, op, got));
                }
            };
            let wait_at = 1 + rng.below(6);
            for round in 0..10 {
                if p > 0 && round == wait_at {
                    ctx.wait_change(mail[p % 2], 0).await;
                }
                let a = hot[rng.below(hot.len() as u64) as usize];
                let op = match rng.below(5) {
                    0 => MemAct::Read,
                    1 => MemAct::Write(rng.below(4)),
                    2 => MemAct::Swap(rng.below(4)),
                    3 => MemAct::Cas {
                        exp: rng.below(4),
                        new: rng.below(4),
                    },
                    _ => MemAct::Faa(rng.below(3) as i64 - 1),
                };
                act(a, op).await;
                ctx.work(rng.below(30)).await;
            }
            if p == 0 {
                ctx.work(400).await;
                for &a in &mail {
                    act(a, MemAct::Write(1)).await;
                }
            }
        });
    }
    assert!(m.run().is_quiescent(), "seed {seed}");

    let lw = cfg.line_words;
    let mut mem = vec![0u64; words];
    let mut lines = vec![(0u64, 0u64, 0u64); words.div_ceil(lw)];
    let mut waiters: Vec<VecDeque<usize>> = vec![VecDeque::new(); words];
    let mut due: VecDeque<(usize, Addr, u64)> = VecDeque::new();
    let mut next = vec![0usize; procs];
    let mut resumed = 0;
    let acts = acts.borrow();
    for ev in log.events() {
        match ev {
            TraceEvent::Txn {
                proc,
                addr,
                line,
                kind,
                arrival,
                start,
                release,
                mutated,
                ..
            } => {
                assert!(due.is_empty(), "seed {seed}: a wake-up went missing");
                let (a, op, got) = acts[proc][next[proc]];
                next[proc] += 1;
                assert_eq!((addr, kind), (a, op.kind()), "seed {seed}");
                assert_eq!(got, mem[addr], "seed {seed}: previous value of {op:?}");
                let new = op.apply(mem[addr]);
                assert_eq!(mutated, new != mem[addr], "seed {seed}");
                mem[addr] = new;
                assert_eq!(line, addr / lw);
                let l = &mut lines[line];
                assert_eq!(start, l.0.max(arrival), "seed {seed}: line {line}");
                assert_eq!(release, start + cfg.service);
                *l = (release, l.1 + 1, l.2 + start - arrival);
                if mutated {
                    let wake = release + cfg.net_latency;
                    due.extend(waiters[addr].drain(..).map(|p| (p, addr, wake)));
                }
            }
            TraceEvent::TaskBlock { proc, addr, .. } => waiters[addr].push_back(proc),
            TraceEvent::TaskResume { proc, addr, time } => {
                assert_eq!(due.pop_front(), Some((proc, addr, time)), "seed {seed}");
                resumed += 1;
            }
            _ => {}
        }
    }
    assert!(due.is_empty() && waiters.iter().all(VecDeque::is_empty));
    assert!(resumed > 1, "seed {seed}: no mailbox held two waiters");
    assert_eq!(next, acts.iter().map(Vec::len).collect::<Vec<_>>());
    assert_eq!(m.memory_snapshot()[..words], mem[..], "seed {seed}");
    let dense: Vec<(usize, u64, u64)> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.1 > 0)
        .map(|(i, l)| (i, l.1, l.2))
        .collect();
    assert_eq!(
        m.stats().per_line().collect::<Vec<_>>(),
        dense,
        "seed {seed}"
    );
}

#[test]
fn paged_memory_matches_a_dense_model() {
    for seed in 0..16u64 {
        check_against_dense_model(MachineConfig::alewife_like(), seed, 6);
        check_against_dense_model(MachineConfig::test_tiny(), seed, 6);
    }
}
