//! Lock-free seqlock ring buffer for fixed-width trace records.
//!
//! Writers never block and never wait for readers: a global cursor hands
//! out positions (`fetch_add`), each position maps onto a power-of-two
//! slot array, and a per-slot sequence word lets a concurrent reader
//! detect records that are mid-write or already overwritten and drop
//! them instead of observing a torn mix. The newest `capacity` records
//! win; history beyond that is overwritten — exactly the flight-recorder
//! semantics a low-overhead tracer wants.
//!
//! Slot protocol, for position `pos` on slot `pos % capacity`:
//!
//! 1. claim: CAS the slot's sequence from its current quiescent (even,
//!    older) value to the odd in-progress value `2·pos+1`. An odd value,
//!    a newer even value, or a lost CAS means another writer owns or has
//!    lapped the slot — the record is dropped (counted) rather than
//!    raced, so at most one writer is ever inside a slot;
//! 2. `fence(Release)`, then the record words as relaxed atomic stores;
//! 3. publish: store `2·pos+2` with `Release`.
//!
//! A reader expecting `pos` loads the sequence with `Acquire` (must equal
//! `2·pos+2`), reads the words relaxed, issues `fence(Acquire)`, and
//! re-reads the sequence: any concurrent writer's claim lands between the
//! fences (release/acquire fence synchronization through the data words),
//! so a torn read always shows a changed sequence and is rejected.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::CachePadded;

struct Slot<const N: usize> {
    seq: AtomicU64,
    words: [AtomicU64; N],
}

/// Multi-writer, snapshot-reader ring of `[u64; N]` records. See the
/// module docs for the slot protocol.
pub struct SeqRing<const N: usize> {
    slots: Box<[Slot<N>]>,
    mask: u64,
    /// Total positions ever claimed (monotonic record id).
    head: CachePadded<AtomicU64>,
    /// Records abandoned because a stalled writer still owned the slot.
    dropped: CachePadded<AtomicU64>,
}

impl<const N: usize> SeqRing<N> {
    /// Ring holding the most recent `capacity` records (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        Self {
            slots,
            mask: cap as u64 - 1,
            head: CachePadded::new(AtomicU64::new(0)),
            dropped: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Slot count (power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever claimed (including later-overwritten ones).
    pub fn pushed(&self) -> u64 {
        // ORDERING: Relaxed, a statistic.
        self.head.load(Ordering::Relaxed)
    }

    /// Records dropped at the claim CAS (a previous-lap writer stalled
    /// inside the slot). Zero in any single-writer-per-ring deployment.
    pub fn dropped(&self) -> u64 {
        // ORDERING: Relaxed, a statistic.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends a record; never blocks. Overwrites the record `capacity`
    /// positions back; drops this record only if that old slot is still
    /// owned by a stalled writer.
    pub fn push(&self, record: [u64; N]) {
        // ORDERING: Relaxed; a position need only be unique, which the
        // cursor's modification order gives every RMW. The record itself is
        // published by the slot's sequence word, not by the cursor.
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos & self.mask) as usize];
        let claim = 2 * pos + 1;
        // Claim only a quiescent slot holding something older than this
        // record: an odd value is a writer mid-record, a newer even value
        // is a lapping writer that already published past this position.
        // Either way the colliding record is dropped, never raced.
        // ORDERING: Relaxed; a pre-check only. The CAS below re-validates
        // `cur` atomically, and nothing is read on the strength of it.
        let cur = slot.seq.load(Ordering::Relaxed);
        if cur % 2 == 1
            || cur > claim
            // ORDERING: Relaxed on both arms. The odd claim value publishes
            // nothing; the Release fence below orders it before the record
            // words, and a lost CAS only drops the record.
            || slot
                .seq
                .compare_exchange(cur, claim, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            // ORDERING: Relaxed, a statistic.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // ORDERING: Release; partner is the Acquire fence in `drain`. A
        // reader whose word load sees any store below then sees this claim
        // (or a later one) in its second sequence load, so a torn read is
        // always rejected.
        fence(Ordering::Release);
        for (w, &v) in slot.words.iter().zip(record.iter()) {
            // ORDERING: Relaxed; after the claim by the fence above, before
            // the publish by the Release store below.
            w.store(v, Ordering::Relaxed);
        }
        // ORDERING: Release; partner is the first (Acquire) sequence load in
        // `drain`: a reader that sees `2·pos+2` sees every word of this
        // record.
        slot.seq.store(2 * pos + 2, Ordering::Release);
    }

    /// Snapshots the currently-readable window, oldest first. Records
    /// mid-write or overwritten during the scan are skipped; the result
    /// is a consistent sample, not an exact log.
    pub fn drain(&self) -> Vec<[u64; N]> {
        // ORDERING: Acquire, though it pairs with nothing: the cursor is
        // bumped by a Relaxed RMW and publishes no record (each slot is
        // validated by its own sequence word). Stronger than it needs.
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for pos in start..head {
            let slot = &self.slots[(pos & self.mask) as usize];
            let want = 2 * pos + 2;
            // ORDERING: Acquire; partner is the publishing Release store in
            // `push`: seeing `want` makes the record's words visible below.
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let mut rec = [0u64; N];
            for (v, w) in rec.iter_mut().zip(slot.words.iter()) {
                // ORDERING: Relaxed; made visible by the Acquire load above.
                // An overwrite racing this loop is caught by the re-check.
                *v = w.load(Ordering::Relaxed);
            }
            // ORDERING: Acquire; partner is the Release fence in `push`. If
            // a load above read a later writer's word, that writer's claim
            // is visible to the re-check below.
            fence(Ordering::Acquire);
            // ORDERING: Relaxed; kept after the word loads by the fence
            // above. `want` again means no later claim touched the words.
            if slot.seq.load(Ordering::Relaxed) == want {
                out.push(rec);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn keeps_newest_records_in_order() {
        let ring: SeqRing<2> = SeqRing::new(4);
        for i in 0..10u64 {
            ring.push([i, i * 100]);
        }
        let recs = ring.drain();
        assert_eq!(recs, vec![[6, 600], [7, 700], [8, 800], [9, 900]]);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn partial_fill_returns_everything() {
        let ring: SeqRing<4> = SeqRing::new(8);
        ring.push([1, 2, 3, 4]);
        ring.push([5, 6, 7, 8]);
        assert_eq!(ring.drain(), vec![[1, 2, 3, 4], [5, 6, 7, 8]]);
        assert!(SeqRing::<4>::new(0).drain().is_empty());
    }

    #[test]
    fn concurrent_writers_never_tear() {
        // Each record carries (writer_tag | i, writer_tag | i): a torn
        // record would mix tags or indices across its two words.
        const WRITERS: u64 = 4;
        const PER: u64 = 20_000;
        let ring: Arc<SeqRing<2>> = Arc::new(SeqRing::new(256));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                // ORDERING: Acquire; partner is the Release store below. It
                // publishes no data: records are checked through the ring.
                while !stop.load(Ordering::Acquire) {
                    for rec in ring.drain() {
                        assert_eq!(rec[0], rec[1], "torn record {rec:?}");
                        seen += 1;
                    }
                }
                seen
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        let v = (w << 56) | i;
                        ring.push([v, v]);
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        // ORDERING: Release; partner is the Acquire load in the reader.
        stop.store(true, Ordering::Release);
        let seen = reader.join().unwrap();
        assert_eq!(ring.pushed(), WRITERS * PER);
        // The final drain is quiescent: exactly the last `capacity`
        // positions, minus any claim-dropped slots. `dropped()` counts
        // drops over the whole run, not this window, so it can exceed the
        // capacity and only bounds the window's losses from above.
        let recs = ring.drain();
        assert!(recs.len() <= ring.capacity());
        assert!(recs.len() as u64 >= (ring.capacity() as u64).saturating_sub(ring.dropped()));
        for rec in &recs {
            assert_eq!(rec[0], rec[1]);
        }
        // The racing reader may lose the scheduling lottery and observe
        // nothing before the writers finish; the quiescent drain then
        // holds the resident window, so something was always checked.
        assert!(seen + recs.len() as u64 > 0, "no record was ever observed");
    }
}
