//! Small-sample statistics, the slice schedule and the seed tree.
//!
//! Everything a reported number passes through on its way out lives here,
//! so the unit tests below pin the exact picking rules (which element is
//! "the median" of an even sample, which rank is "p99") that later
//! parent-vs-change comparisons rely on.

use funnelpq_util::splitmix64;

/// Median of `xs`; the mean of the two middle elements for an even count.
///
/// # Panics
///
/// Panics on an empty sample: every caller takes the median of slices it
/// has just run, so an empty one is a harness bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quantile `p` (`0.0..=1.0`) of `xs` with linear interpolation between
/// the two nearest order statistics; `quantile(xs, 0.5)` is [`median`].
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = (v.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// How a subject's slices are summarised into one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// The median. For the contended native queues, where interference
    /// cuts both ways: a descheduled worker leaves the other one
    /// uncontended and *faster* (SkipList 8.4 vs 2.3 Mops), so neither
    /// tail is trustworthy.
    Median,
    /// The quartile on the good side — upper for a rate, lower for a time.
    /// For a single busy thread or a two-stage pipeline, interference can
    /// only slow a slice down, and on this host it spoils a varying 20–60 %
    /// of them: across six runs the median of `sim_p256` moved 5.9 %
    /// (IQR), its upper quartile 1.8 %; the median of `server_open_250k`
    /// latency 11.3 %, its lower tail 2–7 %.
    GoodQuartile,
}

impl Summary {
    /// Summarises per-slice rates (higher is better).
    pub fn rate(self, xs: &[f64]) -> f64 {
        match self {
            Summary::Median => median(xs),
            Summary::GoodQuartile => quantile(xs, 0.75),
        }
    }

    /// Summarises per-slice times (lower is better).
    pub fn time(self, xs: &[f64]) -> f64 {
        match self {
            Summary::Median => median(xs),
            Summary::GoodQuartile => quantile(xs, 0.25),
        }
    }
}

/// Geometric mean of strictly positive values — the roster summary: a
/// 10 % change in any one member moves it by the same factor whichever
/// member it is, which an arithmetic mean over 1.5 and 12 Mops would not.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Nearest-rank percentile (`p` in `0.0..=100.0`) of an ascending-sorted
/// sample: the smallest element with at least `p` % of the sample at or
/// below it. `p = 100` is the maximum, `p = 0` the minimum.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Fewest samples at which a p99 has ten samples beyond it; below this the
/// tail percentile is printed but flagged.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Mean of a `u64` sample as `f64` (0.0 for an empty one).
pub fn mean_u64(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64
    }
}

/// The slice schedule: `rounds` passes over `subjects`, round-robin
/// (A,B,…,A,B,…), as `(round, subject)` pairs in execution order. Slow
/// drift of the host (thermal, a noisy neighbour) then lands on every
/// subject alike instead of on whichever ran last.
pub fn interleave(subjects: usize, rounds: usize) -> Vec<(usize, usize)> {
    (0..rounds)
        .flat_map(|r| (0..subjects).map(move |s| (r, s)))
        .collect()
}

/// Derives the RNG seed of one stream from the run seed and the stream's
/// coordinates. Every generator in the benchmark is seeded through this,
/// so one `--seed` fixes every input and two streams never share state.
pub fn stream_seed(seed: u64, workload: &str, subject: usize, round: usize, thread: usize) -> u64 {
    let mut s = seed;
    for b in workload.bytes() {
        s = splitmix64(&mut s) ^ u64::from(b);
    }
    for coord in [subject, round, thread] {
        s = splitmix64(&mut s) ^ coord as u64;
    }
    splitmix64(&mut s)
}

/// Relative gap `|a − b| / min(|a|, |b|)` between two measurements of the
/// same quantity; 0 when both are 0.
pub fn rel_gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_middle_or_mean_of_middles() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // The bimodal SingleLock shape the median exists to absorb.
        assert_eq!(median(&[0.36, 1.37, 1.52, 1.49, 1.50]), 1.49);
    }

    #[test]
    fn quantile_interpolates_and_summary_faces_the_good_side() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&xs, 0.5), median(&xs));
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
        assert_eq!(Summary::Median.rate(&xs), 3.0);
        assert_eq!(Summary::Median.time(&xs), 3.0);
        assert_eq!(Summary::GoodQuartile.rate(&xs), 4.0);
        assert_eq!(Summary::GoodQuartile.time(&xs), 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        // 1000 samples: p99 is the 990th, leaving exactly ten beyond it.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(v.len() - 990, 10);
        assert_eq!(P99_MIN_SAMPLES, 1000);
    }

    #[test]
    fn geomean_is_scale_symmetric() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        let base = geomean(&[1.5, 12.0, 3.0]);
        let slow_small = geomean(&[1.5 * 0.9, 12.0, 3.0]);
        let slow_big = geomean(&[1.5, 12.0 * 0.9, 3.0]);
        assert!((slow_small / base - slow_big / base).abs() < 1e-12);
    }

    #[test]
    fn interleave_is_round_robin() {
        assert_eq!(
            interleave(3, 2),
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        );
        assert!(interleave(0, 5).is_empty());
        assert_eq!(interleave(9, 5).len(), 45);
    }

    #[test]
    fn stream_seeds_are_deterministic_and_distinct() {
        let a = stream_seed(0xF00D, "native_mixed", 3, 2, 1);
        assert_eq!(a, stream_seed(0xF00D, "native_mixed", 3, 2, 1));
        let mut seen = std::collections::BTreeSet::new();
        for wl in ["native_mixed", "native_batch"] {
            for subject in 0..9 {
                for round in 0..5 {
                    for thread in 0..2 {
                        assert!(seen.insert(stream_seed(0xF00D, wl, subject, round, thread)));
                    }
                }
            }
        }
        assert_ne!(a, stream_seed(0xF00E, "native_mixed", 3, 2, 1));
    }

    #[test]
    fn rel_gap_uses_the_smaller_base() {
        assert_eq!(rel_gap(100.0, 110.0), 0.1);
        assert_eq!(rel_gap(110.0, 100.0), 0.1);
        assert_eq!(rel_gap(0.0, 0.0), 0.0);
        assert!(rel_gap(0.0, 1.0).is_infinite());
    }
}
