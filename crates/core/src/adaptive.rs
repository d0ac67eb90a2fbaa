//! The NUMA mode controller: flips [`crate::NumaPq`] between its
//! NUMA-oblivious and delegation modes from live contention signals.
//!
//! SmartPQ's observation (arXiv 2406.06900) is that neither mode wins
//! everywhere: under low contention a delegation layer only adds a
//! request/response round trip to operations a thread could have done
//! itself, while under high contention — or a high remote-access cost —
//! serving delete-min from threads co-located with the hot lines beats
//! every thread pulling those lines across the interconnect. So the mode
//! must follow the workload at run time.
//!
//! The controller is epoch-based: every [`NumaConfig::epoch_ops`]-th
//! completed operation closes an epoch, and the closing thread scores the
//! window with a *mode-independent* pressure signal measured in
//! nanoseconds-per-operation:
//!
//! ```text
//! pressure = remote_win_rate · 3·remote_ns  +  cas_retry_rate · 150ns
//! ```
//!
//! `remote_win_rate` is the fraction of delete-side two-choice draws whose
//! winner was homed on a remote node — both modes draw globally, so the
//! signal reads the same in either mode and the loop cannot self-oscillate
//! (a mode-dependent signal like *charged* remote time would collapse the
//! moment delegation engages, and the controller would thrash). The CAS
//! term folds in try-lock contention at an assumed retry cost.
//!
//! Hysteresis is double: an enter/exit threshold gap (600 vs 150 ns/op)
//! plus a two-epoch streak requirement, so one noisy epoch never flips the
//! mode. While delegation is in effect the score additionally carries a
//! structural floor of `3·remote_ns·(nodes-1)/nodes` — see
//! [`AdaptiveCtl::close_epoch`]'s comment — so remote traffic *avoided* by
//! delegation is not mistaken for remote traffic being cheap.
//!
//! The counting itself must not become what the paper warns about, a word
//! every operation writes. So each thread counts into its own [`Tally`]
//! and moves it into the shared counters once per
//! `max(1, epoch_ops / max_threads)` of its own operations: a few shared
//! writes per epoch instead of one to three per operation.
//!
//! [`NumaConfig::epoch_ops`]: crate::NumaConfig::epoch_ops

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

use funnelpq_util::CachePadded;

use crate::topology::Topology;

/// Which serving discipline [`crate::NumaPq`] is currently using.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumaMode {
    /// NUMA-oblivious: every thread operates on any slot directly, exactly
    /// like the plain MultiQueue. Best when remote accesses are cheap.
    Oblivious,
    /// Delegation: inserts stay node-local, and a delete-min whose
    /// two-choice winner is remote is served by a thread co-located with
    /// that slot (the requester publishes a request and spins locally).
    Delegation,
}

impl NumaMode {
    /// Stable snake_case name, used in JSON telemetry.
    pub fn name(self) -> &'static str {
        match self {
            NumaMode::Oblivious => "oblivious",
            NumaMode::Delegation => "delegation",
        }
    }
}

impl std::fmt::Display for NumaMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How [`crate::NumaPq`] picks its mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NumaPolicy {
    /// Let the controller flip modes per epoch (the default).
    #[default]
    Adaptive,
    /// Pin one mode forever — the static baselines a sweep compares the
    /// adaptive controller against.
    Pinned(NumaMode),
}

/// A snapshot of the controller, exposed through
/// [`crate::BoundedPq::adaptive_stats`] so the serving layer can observe
/// hot-swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Mode in effect when the snapshot was taken.
    pub mode: NumaMode,
    /// Mode switches since construction.
    pub switches: u64,
    /// Closed epochs since construction.
    pub epochs: u64,
    /// Delete-mins served remotely through the delegation protocol.
    pub delegated: u64,
    /// Delegation requests that timed out and were self-served.
    pub self_served: u64,
    /// Emulated remote cache-line transfers charged so far.
    pub remote_transfers: u64,
}

/// Pressure (ns/op) above which an epoch votes for delegation.
const ENTER_NS: u64 = 600;
/// Pressure (ns/op) below which an epoch votes for oblivious. The gap to
/// [`ENTER_NS`] is the hysteresis dead band: epochs landing between the
/// two vote for whatever mode is already in effect.
const EXIT_NS: u64 = 150;
/// Assumed cost of one failed try-lock CAS, folding lock contention into
/// the pressure score.
const CAS_RETRY_NS: u64 = 150;
/// Consecutive epochs that must vote against the current mode to flip it.
const STREAK: u32 = 2;

/// One thread's controller counts since its last flush. It lives in the
/// thread's padded context and only its owner writes it — a Relaxed load
/// and store per update, never a read-modify-write — so an operation
/// touches no shared line until its thread's flush is due
/// ([`AdaptiveCtl::note_op`]).
#[derive(Debug, Default)]
pub(crate) struct Tally {
    ops: AtomicU64,
    remote_wins: AtomicU64,
    cas_retries: AtomicU64,
    remote_transfers: AtomicU64,
}

impl Tally {
    /// Adds `n` to the owner-only `word` and returns the sum.
    #[inline]
    fn add(word: &AtomicU64, n: u64) -> u64 {
        // ORDERING: owner-only word, hence a Relaxed load and store in
        // place of an RMW; it publishes nothing. `AdaptiveCtl::stats`
        // reads it from other threads as a residue, exact at quiescence.
        let sum = word.load(Ordering::Relaxed) + n;
        word.store(sum, Ordering::Relaxed);
        sum
    }

    /// Empties the owner-only `word` and returns what it held.
    #[inline]
    fn take(word: &AtomicU64) -> u64 {
        // ORDERING: as in `add`.
        let n = word.load(Ordering::Relaxed);
        word.store(0, Ordering::Relaxed);
        n
    }

    /// Counts one failed try-lock.
    #[inline]
    pub(crate) fn note_cas_retry(&self) {
        Self::add(&self.cas_retries, 1);
    }

    /// Counts `n` charged remote cache-line transfers.
    #[inline]
    pub(crate) fn note_transfers(&self, n: u64) {
        Self::add(&self.remote_transfers, n);
    }
}

/// The counters every thread writes: the flushed tallies, the epoch's
/// bookkeeping and the statistics, on one padded line of their own, away
/// from the `mode` word every operation reads.
// ORDERING: every access is Relaxed. These are counts and publish no other
// memory; an epoch boundary is claimed by one CAS on `ops`, and a window
// torn by a concurrent flush perturbs one vote, which the streak
// requirement absorbs.
#[derive(Debug, Default)]
struct Shared {
    /// Operations flushed into the current epoch.
    ops: AtomicU64,
    /// Delete-side two-choice draws whose winner was remote, this epoch.
    remote_wins: AtomicU64,
    /// Failed try-lock acquisitions, this epoch.
    cas_retries: AtomicU64,
    /// Consecutive closed epochs voting against the current mode.
    streak: AtomicU32,
    switches: AtomicU64,
    epochs: AtomicU64,
    delegated: AtomicU64,
    self_served: AtomicU64,
    /// Flushed transfers; [`AdaptiveCtl::stats`] adds the unflushed ones.
    remote_transfers: AtomicU64,
}

/// The controller state shared by all threads of one queue.
#[derive(Debug)]
pub(crate) struct AdaptiveCtl {
    /// The mode in effect: read by every operation, written only by the
    /// epoch close that flips it.
    mode: AtomicU8,
    pinned: bool,
    epoch_ops: u64,
    /// A thread's own operations per flush of its tally,
    /// `max(1, epoch_ops / max_threads)`: threads that take turns complete
    /// an epoch at the very operation a per-operation count would.
    flush_every: u64,
    shared: CachePadded<Shared>,
}

impl AdaptiveCtl {
    pub(crate) fn new(policy: NumaPolicy, epoch_ops: u32, max_threads: usize) -> Self {
        let (mode, pinned) = match policy {
            NumaPolicy::Adaptive => (NumaMode::Oblivious, false),
            NumaPolicy::Pinned(m) => (m, true),
        };
        let epoch_ops = u64::from(epoch_ops.max(1));
        AdaptiveCtl {
            mode: AtomicU8::new(mode as u8),
            pinned,
            epoch_ops,
            flush_every: (epoch_ops / max_threads.max(1) as u64).max(1),
            shared: CachePadded::default(),
        }
    }

    #[inline]
    pub(crate) fn mode(&self) -> NumaMode {
        // ORDERING: Relaxed — the mode publishes no data. An operation that
        // reads a stale mode runs one episode of the other discipline,
        // which is correct in either: both reach every slot, and a
        // published delegation request is served whatever the mode.
        if self.mode.load(Ordering::Relaxed) == NumaMode::Delegation as u8 {
            NumaMode::Delegation
        } else {
            NumaMode::Oblivious
        }
    }

    /// Counts one delete-min served through the delegation mailbox.
    pub(crate) fn note_delegated(&self) {
        // ORDERING: Relaxed; see `Shared`.
        self.shared.delegated.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one remote delete-min its thread served itself instead of
    /// through the mailbox.
    pub(crate) fn note_self_served(&self) {
        // ORDERING: Relaxed; see `Shared`.
        self.shared.self_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Closes the bookkeeping for one completed operation of the thread
    /// that owns `tally`; `remote_win` is `Some(true)` when a delete-side
    /// two-choice draw picked a remote winner. Returns `true` when this
    /// call closed an epoch *and* flipped the mode, so the caller can
    /// record the switch event.
    #[inline]
    pub(crate) fn note_op(&self, tally: &Tally, remote_win: Option<bool>, topo: &Topology) -> bool {
        if remote_win == Some(true) {
            Tally::add(&tally.remote_wins, 1);
        }
        if Tally::add(&tally.ops, 1) < self.flush_every {
            return false;
        }
        self.flush(tally, topo)
    }

    /// Moves `tally` into the shared counters, closing the epoch if that
    /// completes it.
    fn flush(&self, tally: &Tally, topo: &Topology) -> bool {
        let s = &*self.shared;
        // The vote's inputs land before the operations that may close the
        // epoch, so a closing flush scores its own.
        for (mine, all) in [
            (&tally.remote_wins, &s.remote_wins),
            (&tally.cas_retries, &s.cas_retries),
            (&tally.remote_transfers, &s.remote_transfers),
        ] {
            let n = Tally::take(mine);
            if n > 0 {
                // ORDERING: Relaxed; see `Shared`.
                all.fetch_add(n, Ordering::Relaxed);
            }
        }
        let ops = Tally::take(&tally.ops);
        // ORDERING: Relaxed; see `Shared`.
        let n = s.ops.fetch_add(ops, Ordering::Relaxed) + ops;
        if n < self.epoch_ops {
            return false;
        }
        // One thread claims the epoch boundary; operations past it, and
        // the losers' flushes, count into the next window.
        // ORDERING: Relaxed; see `Shared` — the claim only has to be
        // unique.
        if s.ops
            .compare_exchange(n, n - self.epoch_ops, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.close_epoch(topo)
    }

    #[cold]
    fn close_epoch(&self, topo: &Topology) -> bool {
        let s = &*self.shared;
        // ORDERING: Relaxed; see `Shared`.
        let wins = s.remote_wins.swap(0, Ordering::Relaxed);
        let retries = s.cas_retries.swap(0, Ordering::Relaxed);
        s.epochs.fetch_add(1, Ordering::Relaxed);
        if self.pinned {
            return false;
        }
        // An oblivious remote lock episode moves ~3 lines; that is what
        // delegation avoids, so it is what remote wins are worth.
        let mut pressure = (wins * 3 * topo.remote_ns() + retries * CAS_RETRY_NS) / self.epoch_ops;
        let current = self.mode();
        if current == NumaMode::Delegation {
            // While delegating, inserts are node-local, remote partitions
            // drain, and the measured remote-win rate collapses — it
            // undercounts what *oblivious* mode would pay, because an
            // oblivious insert files into a uniformly random slot and hits
            // a remote one at the structural rate (nodes-1)/nodes no
            // matter the occupancy. Folding that floor into the exit
            // decision keeps the loop from oscillating: delegation is only
            // left when remote transfers are genuinely cheap, not merely
            // avoided.
            let nodes = topo.nodes() as u64;
            pressure += 3 * topo.remote_ns() * (nodes - 1) / nodes;
        }
        let want = if pressure >= ENTER_NS {
            NumaMode::Delegation
        } else if pressure <= EXIT_NS {
            NumaMode::Oblivious
        } else {
            current
        };
        if want == current {
            // ORDERING: Relaxed; see `Shared`.
            s.streak.store(0, Ordering::Relaxed);
            return false;
        }
        // ORDERING: Relaxed; see `Shared`.
        let streak = s.streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak < STREAK {
            return false;
        }
        // ORDERING: Relaxed; see `Shared` and `mode`.
        s.streak.store(0, Ordering::Relaxed);
        self.mode.store(want as u8, Ordering::Relaxed);
        s.switches.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// A snapshot of the controller, counting the transfers still
    /// unflushed in `tallies` (every thread's): exact at quiescence.
    pub(crate) fn stats<'a>(&self, tallies: impl Iterator<Item = &'a Tally>) -> AdaptiveStats {
        let s = &*self.shared;
        // ORDERING: Relaxed throughout; see `Shared` and `Tally::add`. A
        // flush running meanwhile may be counted twice or not at all.
        let unflushed: u64 = tallies
            .map(|t| t.remote_transfers.load(Ordering::Relaxed))
            .sum();
        AdaptiveStats {
            mode: self.mode(),
            switches: s.switches.load(Ordering::Relaxed),
            epochs: s.epochs.load(Ordering::Relaxed),
            delegated: s.delegated.load(Ordering::Relaxed),
            self_served: s.self_served.load(Ordering::Relaxed),
            remote_transfers: s.remote_transfers.load(Ordering::Relaxed) + unflushed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq_util::XorShift64Star;

    fn run_epochs(ctl: &AdaptiveCtl, topo: &Topology, epochs: usize, remote_wins: bool) -> u64 {
        let tally = Tally::default();
        let mut switched = 0;
        for _ in 0..epochs as u64 * ctl.epoch_ops {
            if ctl.note_op(&tally, Some(remote_wins), topo) {
                switched += 1;
            }
        }
        switched
    }

    #[test]
    fn switches_under_remote_pressure_with_streak_hysteresis() {
        let topo = Topology::new(2, 4, 2000);
        let ctl = AdaptiveCtl::new(NumaPolicy::Adaptive, 64, 1);
        assert_eq!(ctl.mode(), NumaMode::Oblivious);
        // Every delete wins remote at 2µs/transfer: pressure 6000 ns/op.
        // One epoch is not enough (streak), two are.
        assert_eq!(run_epochs(&ctl, &topo, 1, true), 0);
        assert_eq!(ctl.mode(), NumaMode::Oblivious);
        assert_eq!(run_epochs(&ctl, &topo, 1, true), 1);
        assert_eq!(ctl.mode(), NumaMode::Delegation);
        // Pressure collapses: two quiet epochs swing it back.
        topo.set_remote_ns(0);
        assert_eq!(run_epochs(&ctl, &topo, 2, true), 1);
        assert_eq!(ctl.mode(), NumaMode::Oblivious);
        let s = ctl.stats(std::iter::empty());
        assert_eq!(s.switches, 2);
        assert_eq!(s.epochs, 4);
    }

    #[test]
    fn dead_band_keeps_the_current_mode() {
        // remote_ns such that pressure lands between EXIT and ENTER:
        // wins = epoch/2, pressure = 3 * remote_ns / 2 = 300 ns/op.
        let topo = Topology::new(2, 4, 200);
        let ctl = AdaptiveCtl::new(NumaPolicy::Adaptive, 64, 1);
        let tally = Tally::default();
        // Alternate remote wins: half the ops win remote.
        for i in 0..(64 * 8u64) {
            assert!(
                !ctl.note_op(&tally, Some(i % 2 == 0), &topo),
                "dead band flipped"
            );
        }
        assert_eq!(ctl.mode(), NumaMode::Oblivious);
        assert_eq!(ctl.stats(std::iter::empty()).switches, 0);
    }

    #[test]
    fn pinned_policies_never_move() {
        let topo = Topology::new(2, 4, 50_000);
        let ctl = AdaptiveCtl::new(NumaPolicy::Pinned(NumaMode::Oblivious), 32, 1);
        assert_eq!(run_epochs(&ctl, &topo, 8, true), 0);
        assert_eq!(ctl.mode(), NumaMode::Oblivious);
        let ctl = AdaptiveCtl::new(NumaPolicy::Pinned(NumaMode::Delegation), 32, 1);
        topo.set_remote_ns(0);
        assert_eq!(run_epochs(&ctl, &topo, 8, false), 0);
        assert_eq!(ctl.mode(), NumaMode::Delegation);
        let s = ctl.stats(std::iter::empty());
        assert_eq!(s.switches, 0);
        assert_eq!(s.epochs, 8);
    }

    #[test]
    fn cas_retries_alone_can_push_into_delegation() {
        let topo = Topology::new(2, 4, 0);
        let ctl = AdaptiveCtl::new(NumaPolicy::Adaptive, 16, 1);
        let tally = Tally::default();
        for _ in 0..2 {
            for _ in 0..16 {
                // >4 retries per op at 150ns each clears ENTER_NS.
                for _ in 0..5 {
                    tally.note_cas_retry();
                }
                ctl.note_op(&tally, Some(false), &topo);
            }
        }
        assert_eq!(ctl.mode(), NumaMode::Delegation);
    }

    #[test]
    fn threads_taking_turns_close_epochs_where_a_per_op_count_would() {
        // Four tids rotating on one OS thread, as the seeded native tapes
        // drive a queue, against a controller that flushes every operation
        // (its `max_threads` is the epoch length): the same operations
        // close the same epochs with the same votes, through switches both
        // ways, and the snapshots agree after every operation.
        const TIDS: usize = 4;
        let topo = Topology::new(2, TIDS, 0);
        let ctl = AdaptiveCtl::new(NumaPolicy::Adaptive, 16, TIDS);
        let per_op = AdaptiveCtl::new(NumaPolicy::Adaptive, 16, 16);
        assert_eq!((ctl.flush_every, per_op.flush_every), (4, 1));
        let mine: Vec<Tally> = (0..TIDS).map(|_| Tally::default()).collect();
        let theirs: Vec<Tally> = (0..TIDS).map(|_| Tally::default()).collect();
        let mut rng = XorShift64Star::new(0x3105);
        for step in 0..4_000usize {
            // Remote transfers dear for 400 operations, free for the next.
            topo.set_remote_ns(if (step / 400) % 2 == 0 { 2_000 } else { 0 });
            let tid = step % TIDS;
            let win = match rng.below(3) {
                0 => None,
                1 => Some(false),
                _ => Some(true),
            };
            for _ in 0..rng.below(2) {
                mine[tid].note_cas_retry();
                theirs[tid].note_cas_retry();
            }
            let transfers = rng.below(4);
            mine[tid].note_transfers(transfers);
            theirs[tid].note_transfers(transfers);
            assert_eq!(
                ctl.note_op(&mine[tid], win, &topo),
                per_op.note_op(&theirs[tid], win, &topo),
                "step {step}"
            );
            assert_eq!(
                ctl.stats(mine.iter()),
                per_op.stats(theirs.iter()),
                "step {step}"
            );
        }
        let s = ctl.stats(mine.iter());
        assert_eq!(s.epochs, 4_000 / 16);
        assert!(s.switches >= 4, "the tape must switch both ways: {s:?}");
    }

    #[test]
    fn four_threads_tally_exactly_at_quiescence() {
        const THREADS: usize = 4;
        const EPOCH: u32 = 256;
        let topo = Topology::new(2, THREADS, 0);
        let ctl = AdaptiveCtl::new(NumaPolicy::Adaptive, EPOCH, THREADS);
        let tallies: Vec<Tally> = (0..THREADS).map(|_| Tally::default()).collect();
        // Uneven counts, so every thread ends with an unflushed residue.
        let ops = |tid: usize| 20_000 + 777 * tid as u64;
        std::thread::scope(|s| {
            for (tid, tally) in tallies.iter().enumerate() {
                let (ctl, topo) = (&ctl, &topo);
                s.spawn(move || {
                    for i in 0..ops(tid) {
                        tally.note_transfers(tid as u64 + 1);
                        ctl.note_op(tally, Some(i % 2 == 0), topo);
                    }
                });
            }
        });
        let s = ctl.stats(tallies.iter());
        let charged: u64 = (0..THREADS).map(|t| ops(t) * (t as u64 + 1)).sum();
        assert_eq!(s.remote_transfers, charged);
        let total: u64 = (0..THREADS).map(ops).sum();
        let want = total / u64::from(EPOCH);
        assert!(
            s.epochs.abs_diff(want) * 10 <= want,
            "{} epochs for {total} operations of {EPOCH} per epoch",
            s.epochs
        );
    }
}
