//! Semantic tests for the tracing hook: event timing must match the
//! machine's contention model exactly, spans must bracket correctly, and
//! attaching a tracer must never perturb the simulation.

use funnelpq_sim::trace::{TraceEvent, TraceLog, TxnKind};
use funnelpq_sim::{Addr, Machine, MachineConfig};

fn tiny() -> MachineConfig {
    // net_latency = 1, service = 1, one word per line.
    MachineConfig::test_tiny()
}

/// Filters a log down to transaction events only.
fn txns(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Txn { .. }))
        .copied()
        .collect()
}

#[test]
fn txn_event_carries_the_latency_decomposition() {
    let mut m = Machine::new(tiny(), 0);
    let a = m.alloc(1);
    let log = TraceLog::new();
    m.attach_tracer(log.handle());
    let ctx = m.ctx();
    m.spawn(async move {
        ctx.read(a).await;
    });
    assert!(m.run().is_quiescent());
    // Issue at 0, reach memory at 1, line free so start at 1, occupy one
    // service cycle until 2, reply lands at 3.
    assert_eq!(
        txns(&log.events()),
        vec![TraceEvent::Txn {
            proc: 0,
            addr: a,
            line: a, // one word per line
            kind: TxnKind::Read,
            issue: 0,
            arrival: 1,
            start: 1,
            release: 2,
            complete: 3,
            mutated: false,
        }]
    );
}

#[test]
fn contended_txns_expose_queueing_in_start_times() {
    let mut m = Machine::new(tiny(), 0);
    let a = m.alloc(1);
    let log = TraceLog::new();
    m.attach_tracer(log.handle());
    for v in 1..=3u64 {
        let ctx = m.ctx();
        m.spawn(async move {
            ctx.write(a, v).await;
        });
    }
    assert!(m.run().is_quiescent());
    let txns = txns(&log.events());
    assert_eq!(txns.len(), 3);
    for (k, ev) in txns.iter().enumerate() {
        let TraceEvent::Txn {
            arrival,
            start,
            release,
            complete,
            mutated,
            ..
        } = *ev
        else {
            unreachable!()
        };
        // All arrive at cycle 1; the k-th in line starts k service cycles
        // later and its queueing delay is exactly `start - arrival`.
        assert_eq!(arrival, 1);
        assert_eq!(start, 1 + k as u64);
        assert_eq!(release, start + 1);
        assert_eq!(complete, release + 1);
        assert!(mutated);
    }
}

#[test]
fn spans_bracket_and_nest() {
    let mut m = Machine::new(tiny(), 0);
    let a = m.alloc(1);
    let log = TraceLog::new();
    m.attach_tracer(log.handle());
    let ctx = m.ctx();
    m.spawn(async move {
        let outer = ctx.span("outer");
        {
            let _inner = ctx.span("inner");
            ctx.read(a).await;
        }
        outer.end();
    });
    assert!(m.run().is_quiescent());
    let spans: Vec<(bool, &str, u64)> = log
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::SpanBegin { name, time, .. } => Some((true, name, time)),
            TraceEvent::SpanEnd { name, time, .. } => Some((false, name, time)),
            _ => None,
        })
        .collect();
    assert_eq!(
        spans,
        vec![
            (true, "outer", 0),
            (true, "inner", 0),
            (false, "inner", 3), // closes when the awaited read completes
            (false, "outer", 3),
        ]
    );
}

#[test]
fn spawn_block_resume_complete_events_appear_in_order() {
    let mut m = Machine::new(tiny(), 0);
    let a = m.alloc(1);
    let log = TraceLog::new();
    m.attach_tracer(log.handle());
    // Proc 0 spins on `a` until it changes; proc 1 eventually writes it.
    let ctx = m.ctx();
    m.spawn(async move {
        ctx.wait_change(a, 0).await;
    });
    let ctx = m.ctx();
    m.spawn(async move {
        ctx.work(10).await;
        ctx.write(a, 7).await;
    });
    assert!(m.run().is_quiescent());
    let kinds: Vec<&str> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TaskSpawn { proc: 0, .. } => Some("spawn"),
            TraceEvent::TaskBlock { proc: 0, .. } => Some("block"),
            TraceEvent::TaskResume { proc: 0, .. } => Some("resume"),
            TraceEvent::TaskComplete { proc: 0, .. } => Some("complete"),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, vec!["spawn", "block", "resume", "complete"]);
    // The block names the watched word; the resume names the mutated one.
    let block_addr = log.events().iter().find_map(|e| match *e {
        TraceEvent::TaskBlock { addr, .. } => Some(addr),
        _ => None,
    });
    let resume_addr = log.events().iter().find_map(|e| match *e {
        TraceEvent::TaskResume { addr, .. } => Some(addr),
        _ => None,
    });
    assert_eq!(block_addr, Some(a));
    assert_eq!(resume_addr, Some(a));
}

/// A little workload with contention, spins, and randomness — the thing
/// the differential below runs traced and untraced.
fn stir(m: &mut Machine, procs: usize) -> Addr {
    let a = m.alloc(1);
    for _ in 0..procs {
        let ctx = m.ctx();
        m.spawn(async move {
            for _ in 0..8 {
                ctx.work(ctx.random_below(16)).await;
                let v = ctx.faa(a, 1).await;
                if v % 3 == 0 {
                    ctx.cas(a, v + 1, v).await;
                }
                ctx.record("ops", 1);
            }
        });
    }
    a
}

#[test]
fn tracing_leaves_the_simulation_bit_identical() {
    let run = |traced: bool| {
        let mut m = Machine::new(MachineConfig::alewife_like(), 0xBEEF);
        if traced {
            m.attach_tracer(TraceLog::new().handle());
        }
        stir(&mut m, 12);
        assert!(m.run().is_quiescent());
        (
            m.now(),
            m.stats().mem_accesses,
            m.stats().queue_delay_cycles,
            m.stats().per_line().collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn detach_tracer_stops_emission_and_returns_the_tracer() {
    let mut m = Machine::new(tiny(), 0);
    let a = m.alloc(1);
    let log = TraceLog::new();
    m.attach_tracer(log.handle());
    let ctx = m.ctx();
    m.spawn(async move {
        ctx.read(a).await;
    });
    assert!(m.run().is_quiescent());
    let traced_len = log.len();
    assert!(traced_len > 0);

    assert!(m.detach_tracer().is_some());
    assert!(m.detach_tracer().is_none(), "second detach finds nothing");
    let ctx = m.ctx();
    m.spawn(async move {
        ctx.read(a).await;
    });
    assert!(m.run().is_quiescent());
    assert_eq!(log.len(), traced_len, "no events after detach");
}

#[test]
fn region_map_resolves_lines_and_merges_shared_names() {
    let mut m = Machine::new(tiny(), 0);
    let a = m.alloc(2); // two one-word lines
    let b = m.alloc(2);
    let c = m.alloc(1); // stays unlabelled
    m.label(a, 2, "bins");
    m.label(b, 2, "bins"); // distinct range, same display name: merges
    let regions = m.region_map();
    assert_eq!(
        regions.names().last().map(String::as_str),
        Some("<unlabelled>")
    );
    assert_eq!(regions.region_of_line(a), regions.region_of_line(b + 1));
    assert_eq!(regions.name_of_line(a), "bins");
    assert_eq!(regions.region_of_line(c), regions.unlabelled());
    // Lines past the mapped range (allocated after the map was built)
    // resolve to "<unlabelled>" instead of panicking.
    assert_eq!(regions.region_of_line(1 << 20), regions.unlabelled());
    assert_eq!(regions.find("bins"), Some(regions.region_of_line(a)));
    assert_eq!(regions.find("nope"), None);
}

#[test]
fn region_map_gives_a_line_the_label_over_its_first_word() {
    let mut m = Machine::new(MachineConfig::alewife_like(), 0); // two-word lines
    let a = m.alloc(8); // lines 0..4
    m.label(a + 1, 2, "mid"); // words 1..3: covers the first word of line 1 only
    m.label(a + 4, 4, "tail"); // lines 2 and 3
    m.label(a + 5, 1, "inner"); // inside line 2, not its first word: owns no line
    let r = m.region_map();
    assert_eq!(r.names(), ["mid", "tail", "<unlabelled>"]);
    assert_eq!(r.region_of_line(0), r.unlabelled());
    assert_eq!(r.name_of_line(1), "mid");
    assert_eq!(r.name_of_line(2), "tail");
    assert_eq!(r.name_of_line(3), "tail");
    assert_eq!(r.region_of_line(4), r.unlabelled());
}
