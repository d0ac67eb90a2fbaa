//! Batched-operation conformance for every native queue: random sequences
//! of `insert_batch` / `delete_min_batch` / `replace_min`, executed
//! single-threaded, must conserve items exactly, and each batched delete
//! must return the current minima — rank error exactly 0 — for every
//! strict queue. The relaxed queues (MultiQueue, NumaPq) are instead held
//! to their structural bound: every returned priority is outranked by at
//! most the number of items resident when it was taken, and conservation
//! is exact. The two tree-of-counters queues are also checked, after every
//! call, for what no drain can show: every counter equal to the number of
//! items below its left branch. Sequences come from the in-repo
//! deterministic PRNG, so every run covers the same cases.

use std::collections::BTreeMap;

use std::sync::Arc;

use funnelpq::obs::NoopRecorder;
use funnelpq::{Algorithm, BinOrder, BoundedPq, FunnelConfig, FunnelTreePq, HuntConfig};
use funnelpq::{PqBuilder, PqConfig, SimpleTreePq, DEFAULT_FUNNEL_LEVELS};
use funnelpq_util::XorShift64Star;

const NUM_PRIS: usize = 16;

/// The two tree queues, built directly (one thread) so `validate` can see
/// their counters.
fn simple_tree(num_priorities: usize) -> SimpleTreePq<u64> {
    SimpleTreePq::with_recorder(num_priorities, 1, BinOrder::Lifo, Arc::new(NoopRecorder))
}

fn funnel_tree(num_priorities: usize) -> FunnelTreePq<u64> {
    let (cfg, levels) = (FunnelConfig::for_threads(1), DEFAULT_FUNNEL_LEVELS);
    FunnelTreePq::with_recorder(num_priorities, cfg, levels, Arc::new(NoopRecorder))
}

/// Default typed config for `a`, except HuntEtAl gets an explicit
/// capacity — the migrated form of the old `hunt_capacity` sweep knob.
fn configured(a: Algorithm, hunt_capacity: usize) -> PqConfig {
    match PqConfig::for_algorithm(a).expect("natively buildable") {
        PqConfig::HuntEtAl(_) => PqConfig::HuntEtAl(HuntConfig {
            capacity: hunt_capacity,
        }),
        cfg => cfg,
    }
}

/// Reference multiset of (priority, item) pairs.
#[derive(Default)]
struct Model {
    by_pri: BTreeMap<usize, Vec<u64>>,
    resident: usize,
}

impl Model {
    fn insert(&mut self, pri: usize, item: u64) {
        self.by_pri.entry(pri).or_default().push(item);
        self.resident += 1;
    }

    /// Number of resident entries strictly more urgent than `pri`.
    fn rank_of(&self, pri: usize) -> usize {
        self.by_pri.range(..pri).map(|(_, items)| items.len()).sum()
    }

    /// Removes one resident entry matching the queue's answer exactly.
    fn remove(&mut self, pri: usize, item: u64) {
        let items = self
            .by_pri
            .get_mut(&pri)
            .unwrap_or_else(|| panic!("delete returned pri {pri} not resident"));
        let at = items
            .iter()
            .position(|&x| x == item)
            .unwrap_or_else(|| panic!("delete returned item {item} not resident at {pri}"));
        items.swap_remove(at);
        if items.is_empty() {
            self.by_pri.remove(&pri);
        }
        self.resident -= 1;
    }
}

/// `validate` runs after every call, at quiescence: a structural check the
/// queue's type offers beyond the trait, or nothing.
fn run_case(q: &dyn BoundedPq<u64>, strict: bool, rng: &mut XorShift64Star, validate: &dyn Fn()) {
    let mut model = Model::default();
    let mut next_item = 0u64;
    let rounds = 40 + rng.below(40);
    for _ in 0..rounds {
        validate();
        match rng.below(5) {
            // Insert a batch of random size (empty batches allowed).
            0 | 1 => {
                let k = rng.below(20) as usize;
                let batch: Vec<(usize, u64)> = (0..k)
                    .map(|_| {
                        let pri = rng.below(NUM_PRIS as u64) as usize;
                        let item = next_item;
                        next_item += 1;
                        model.insert(pri, item);
                        (pri, item)
                    })
                    .collect();
                q.insert_batch(0, batch).expect("in-range batch must file");
            }
            // Grab a batch, possibly larger than what's resident.
            2 | 3 => {
                let k = rng.below(24) as usize;
                let mut out = Vec::new();
                let n = q.delete_min_batch(0, k, &mut out);
                assert_eq!(n, out.len(), "return value must match appended count");
                assert_eq!(
                    n,
                    k.min(model.resident),
                    "sequential grab must take min(k, resident)"
                );
                for &(pri, item) in &out {
                    if strict {
                        assert_eq!(model.rank_of(pri), 0, "strict queue returned a non-minimum");
                    } else {
                        assert!(
                            model.rank_of(pri) < model.resident,
                            "relaxed rank error exceeds residency"
                        );
                    }
                    model.remove(pri, item);
                }
            }
            // Fused replace_min.
            _ => {
                let pri = rng.below(NUM_PRIS as u64) as usize;
                let item = next_item;
                next_item += 1;
                let got = q.replace_min(0, pri, item);
                match got {
                    Some((p, x)) => {
                        if strict {
                            assert_eq!(model.rank_of(p), 0, "replace_min skipped a minimum");
                        }
                        model.remove(p, x);
                    }
                    None => assert_eq!(model.resident, 0, "replace_min missed resident items"),
                }
                model.insert(pri, item);
            }
        }
    }
    // Conservation: the full drain returns exactly the un-deleted inserts.
    let mut out = Vec::new();
    q.delete_min_batch(0, usize::MAX, &mut out);
    assert_eq!(out.len(), model.resident, "drain count mismatch");
    for (pri, item) in out {
        model.remove(pri, item);
    }
    assert_eq!(model.resident, 0);
    assert!(q.is_empty());
    validate();
}

#[test]
fn batched_ops_conserve_items_and_strict_queues_stay_sorted() {
    for a in Algorithm::EVERY {
        if a == Algorithm::HardwareTree {
            continue;
        }
        let strict = !a.is_relaxed();
        for case in 0..24u64 {
            let mut rng = XorShift64Star::new(case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xBA7C4);
            match a {
                Algorithm::SimpleTree => {
                    let q = simple_tree(NUM_PRIS);
                    run_case(&q, strict, &mut rng, &|| q.validate());
                }
                Algorithm::FunnelTree => {
                    let q = funnel_tree(NUM_PRIS);
                    run_case(&q, strict, &mut rng, &|| q.validate());
                }
                _ => {
                    let q = PqBuilder::from_config(configured(a, 4096), NUM_PRIS, 1).build::<u64>();
                    run_case(q.as_ref(), strict, &mut rng, &|| ());
                }
            }
        }
    }
}

/// `delete_min_batch(usize::MAX)` is how callers drain, and a claim count
/// travels down the tree as a negated `i64`: negated unclamped it is `+1`,
/// which *raises* every counter on the way while the drain still returns
/// everything. Only the counters show it, so look at them — after the
/// drain, after a refill, and after draining that.
#[test]
fn draining_with_an_unbounded_k_leaves_the_tree_counters_exact() {
    fn cycle(q: &dyn BoundedPq<u64>, validate: &dyn Fn()) {
        // 13 priorities: a range that leaves padding leaves on the right.
        let fill = |base: u64| (0..40).map(|i| ((i * 5 % 13) as usize, base + i)).collect();
        let mut out = Vec::new();
        assert_eq!(q.delete_min_batch(0, usize::MAX, &mut out), 0, "empty");
        validate();
        q.insert_batch(0, fill(0)).unwrap();
        validate();
        assert_eq!(q.delete_min_batch(0, usize::MAX, &mut out), 40);
        validate();
        q.insert_batch(0, fill(100)).unwrap();
        validate();
        for want in [7, 1, 32] {
            assert_eq!(q.delete_min_batch(0, want, &mut out), want);
            validate();
        }
        assert_eq!(q.delete_min(0), None);
        assert!(out
            .chunks(40)
            .all(|c| c.windows(2).all(|w| w[0].0 <= w[1].0)));
    }
    let q = simple_tree(13);
    cycle(&q, &|| q.validate());
    let q = funnel_tree(13);
    cycle(&q, &|| q.validate());
}
