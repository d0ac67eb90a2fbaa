//! The funnels' local adaption (paper §3.1): every thread decides for
//! itself, per funnel, how much of each layer's width to use, how many
//! layers to traverse before going to the central object, and how long to
//! linger after a collision attempt — so a quiet funnel costs about one
//! access to the central object and a busy one combines.
//!
//! One rule, shared by [`crate::FunnelCounter`] and [`crate::FunnelStack`]:
//! an operation collects [`Signals`] while it runs and hands them to
//! [`Adaption::update`] when it ends.

use std::sync::atomic::{AtomicU32, Ordering};

use funnelpq_util::AtomicRng;

use crate::probe::{CounterEvent, SinkRef};

/// Most combining layers a funnel may have, which is also the most
/// children one operation can capture (one per layer it advances through).
pub(crate) const MAX_LAYERS: usize = 8;

/// Longest wait after a collision attempt, in `spin_loop` hints, at the
/// outermost and at every deeper layer: the fixed waits of the
/// pre-adaptive funnel, so no wait is ever longer than it used to be.
const WAIT_CAP: [u32; 2] = [64, 128];
/// Fractions are in 1/256ths.
const FULL: u32 = 256;
/// Narrowest slice of a layer a thread confines itself to.
const WIDTH_FLOOR: u32 = 16;
/// Smallest wait budget. Budgets double and halve, so floor → cap is
/// `log2(FULL / WAIT_FLOOR)` = 6 steps.
const WAIT_FLOOR: u32 = 4;
/// A layer is entered only when its wait is at least this many spin hints,
/// about two coherence misses: what a partner needs to read this thread's
/// id out of the slot and CAS its `location`. With a shorter wait a
/// collision attempt — itself two misses, one of them on the partner's
/// line — cannot be answered in time.
const MIN_WAIT: u32 = 16;

/// What one operation observed, for [`Adaption::update`].
#[derive(Debug, Default)]
pub(crate) struct Signals {
    /// Collision attempts made (slot swaps).
    pub(crate) attempts: u32,
    /// Collisions won (a partner captured).
    pub(crate) collisions_won: u32,
    /// Waits that ran their whole budget with no partner arriving.
    pub(crate) waits_expired: u32,
    /// Failed central CAS / `try_lock` attempts.
    pub(crate) central_fails: u32,
    /// Some partner captured this operation.
    pub(crate) captured: bool,
}

/// One thread's adaption state for one funnel. Every word is read and
/// written by the owning thread only.
#[derive(Debug)]
pub(crate) struct Adaption {
    /// Fraction of each layer's width to pick slots from.
    width_frac: AtomicU32,
    /// Layers to traverse before going central (0 = straight there).
    depth_pref: AtomicU32,
    /// Fraction of [`WAIT_CAP`] to wait after a collision attempt.
    wait_frac: AtomicU32,
    /// xorshift64* slot-selection stream, seeded from the dense thread id
    /// (no TLS lookup per collision attempt).
    rng: AtomicRng,
}

impl Adaption {
    /// Starts at the quiet end of every range: a funnel nobody contends
    /// for (a single-threaded prefill, say) never waits at all.
    pub(crate) fn new(tid: usize) -> Self {
        Adaption {
            width_frac: AtomicU32::new(WIDTH_FLOOR),
            depth_pref: AtomicU32::new(0),
            wait_frac: AtomicU32::new(WAIT_FLOOR),
            rng: AtomicRng::new(tid as u64),
        }
    }

    /// Layers this operation is willing to traverse, of `levels`.
    pub(crate) fn depth(&self, levels: usize) -> usize {
        // ORDERING: owner-only word; Relaxed, nobody else reads it.
        (self.depth_pref.load(Ordering::Relaxed) as usize).min(levels)
    }

    /// Spin hints to wait after a collision attempt at layer `d`; 0 when
    /// the budget is too short for the layer to be worth entering.
    pub(crate) fn wait(&self, d: usize) -> u32 {
        // ORDERING: owner-only word; Relaxed, nobody else reads it.
        let frac = self.wait_frac.load(Ordering::Relaxed);
        let wait = WAIT_CAP[d.min(WAIT_CAP.len() - 1)] * frac / FULL;
        if wait >= MIN_WAIT {
            wait
        } else {
            0
        }
    }

    /// A random slot in the slice of a `width`-slot layer this thread uses.
    pub(crate) fn slot(&self, width: usize) -> usize {
        // ORDERING: owner-only word; Relaxed, nobody else reads it.
        let frac = self.width_frac.load(Ordering::Relaxed) as usize;
        self.rng
            .below((width * frac / FULL as usize).clamp(1, width) as u64) as usize
    }

    /// Folds one operation's observations into the three quantities and
    /// returns how many of them grew and shrank.
    ///
    /// *Width* doubles when at least half the attempts collided and halves
    /// when none did. *Depth* and *wait* follow the signs of company — a
    /// capture, each collision won, each failed central CAS / `try_lock`:
    /// an operation that met any goes one layer deeper next time, one that
    /// met none goes one shallower. The wait doubles per sign and halves
    /// per wait that expired unanswered, and once more for an operation
    /// that met nobody at all, so it settles where about half the waits
    /// are answered and decays while the funnel is quiet.
    pub(crate) fn update(&self, levels: usize, s: &Signals) -> (u64, u64) {
        let company = s.collisions_won + u32::from(s.captured) + s.central_fails;
        let unanswered = s.waits_expired + u32::from(company == 0);
        let mut moved = (0, 0);
        if s.collisions_won * 2 >= s.attempts.max(1) {
            step(&self.width_frac, |w| (w * 2).min(FULL), &mut moved);
        } else if s.attempts > 0 && s.collisions_won == 0 {
            step(&self.width_frac, |w| (w / 2).max(WIDTH_FLOOR), &mut moved);
        }
        if company > 0 {
            step(&self.depth_pref, |d| (d + 1).min(levels as u32), &mut moved);
        } else {
            step(&self.depth_pref, |d| d.saturating_sub(1), &mut moved);
        }
        // Shifts are capped at the six steps the whole range spans.
        if company > unanswered {
            let up = (company - unanswered).min(6);
            step(&self.wait_frac, |w| (w << up).min(FULL), &mut moved);
        } else {
            let down = (unanswered - company).min(6);
            step(&self.wait_frac, |w| (w >> down).max(WAIT_FLOOR), &mut moved);
        }
        moved
    }
}

/// Moves one owner-only word and notes in `moved` whether it grew or shrank.
fn step(word: &AtomicU32, f: impl FnOnce(u32) -> u32, moved: &mut (u64, u64)) {
    // ORDERING: owner-only word; Relaxed, nobody else reads it.
    let old = word.load(Ordering::Relaxed);
    let new = f(old);
    if new != old {
        // ORDERING: as the load.
        word.store(new, Ordering::Relaxed);
        moved.0 += u64::from(new > old);
        moved.1 += u64::from(new < old);
    }
}

/// Reports one operation's batched counts; out of line so the sink-absent
/// path pays only a not-taken branch.
#[cold]
#[inline(never)]
pub(crate) fn report(sink: &SinkRef, counts: [(CounterEvent, u64); 6]) {
    for (event, n) in counts {
        if n > 0 {
            sink.event_n(event, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq_util::XorShift64Star;

    impl Adaption {
        /// Puts all three quantities at the busy end of their ranges (`true`)
        /// or the quiet end, for tests that must not depend on what this host's
        /// scheduling makes the adaption want.
        pub(crate) fn pin(&self, levels: usize, busy: bool) {
            let (width, depth, wait) = if busy {
                (FULL, levels as u32, FULL)
            } else {
                (WIDTH_FLOOR, 0, WAIT_FLOOR)
            };
            self.width_frac.store(width, Ordering::Relaxed);
            self.depth_pref.store(depth, Ordering::Relaxed);
            self.wait_frac.store(wait, Ordering::Relaxed);
        }
    }

    const LEVELS: usize = 2;

    fn in_range(a: &Adaption) {
        let wait = a.wait_frac.load(Ordering::Relaxed);
        assert!((WAIT_FLOOR..=FULL).contains(&wait), "wait_frac {wait}");
        let width = a.width_frac.load(Ordering::Relaxed);
        assert!((WIDTH_FLOOR..=FULL).contains(&width), "width_frac {width}");
        assert!(a.depth(usize::MAX) <= LEVELS);
        for (d, &cap) in WAIT_CAP.iter().enumerate() {
            let w = a.wait(d);
            assert!(w == 0 || (MIN_WAIT..=cap).contains(&w), "wait({d}) = {w}");
        }
    }

    #[test]
    fn starts_quiet_and_a_solo_thread_stays_there() {
        let a = Adaption::new(0);
        assert_eq!((a.depth(LEVELS), a.wait(0), a.wait(1)), (0, 0, 0));
        for _ in 0..100 {
            assert_eq!(a.update(LEVELS, &Signals::default()), (0, 0));
        }
        assert_eq!((a.depth(LEVELS), a.wait(0)), (0, 0));
    }

    #[test]
    fn each_sign_of_company_takes_the_wait_from_floor_to_cap_within_8_ops() {
        let signs = [
            Signals {
                captured: true,
                attempts: 1,
                ..Signals::default()
            },
            Signals {
                collisions_won: 1,
                attempts: 1,
                ..Signals::default()
            },
            Signals {
                central_fails: 1,
                ..Signals::default()
            },
        ];
        for sign in signs {
            let a = Adaption::new(0);
            let ops = (1..=8)
                .find(|_| {
                    a.update(LEVELS, &sign);
                    in_range(&a);
                    (a.wait(0), a.wait(1)) == (WAIT_CAP[0], WAIT_CAP[1])
                })
                .expect("at the cap within 8 operations");
            assert!(ops >= 2, "one contended operation is not a trend");
            assert_eq!(a.depth(LEVELS), LEVELS);
            // Saturated: more of the same moves nothing.
            assert_eq!(a.update(LEVELS, &sign).0, 0);
            in_range(&a);
        }
    }

    #[test]
    fn unanswered_waits_take_the_wait_from_cap_to_floor_within_8_ops() {
        let a = Adaption::new(0);
        a.pin(LEVELS, true);
        let unanswered = Signals {
            attempts: 3,
            waits_expired: 3,
            ..Signals::default()
        };
        let ops = (1..=8)
            .find(|_| {
                a.update(LEVELS, &unanswered);
                in_range(&a);
                a.wait_frac.load(Ordering::Relaxed) == WAIT_FLOOR
                    && a.width_frac.load(Ordering::Relaxed) == WIDTH_FLOOR
                    && a.depth(LEVELS) == 0
            })
            .expect("at the floor within 8 operations");
        assert!(ops >= 2);
        assert_eq!((a.wait(0), a.wait(1)), (0, 0), "no layer is worth entering");
        assert_eq!(a.update(LEVELS, &unanswered).1, 0, "floored");
    }

    #[test]
    fn the_budget_closes_the_layers_before_depth_does() {
        // One answered wait in three is not enough company: the wait
        // budget falls below the entry gate although every operation
        // "engaged" and depth_pref sits at its maximum.
        let a = Adaption::new(0);
        a.pin(LEVELS, true);
        let mostly_alone = Signals {
            attempts: 3,
            waits_expired: 3,
            collisions_won: 1,
            ..Signals::default()
        };
        for _ in 0..4 {
            a.update(LEVELS, &mostly_alone);
        }
        assert_eq!(a.depth(LEVELS), LEVELS);
        assert_eq!(a.wait(0), 0);
    }

    #[test]
    fn no_signal_sequence_leaves_the_ranges() {
        let mut rng = XorShift64Star::new(0xADA9);
        let a = Adaption::new(3);
        for _ in 0..10_000 {
            let attempts = rng.below(7) as u32;
            let s = Signals {
                attempts,
                collisions_won: rng.below(u64::from(attempts) + 1) as u32,
                waits_expired: rng.below(u64::from(attempts) + 1) as u32,
                central_fails: rng.below(40) as u32 / 10 * rng.below(20) as u32,
                captured: rng.bool_with(0.2),
            };
            a.update(LEVELS, &s);
            in_range(&a);
            assert!(a.slot(4) < 4);
        }
    }
}
