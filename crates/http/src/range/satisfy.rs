//! Set-level operations on resolved ranges: coalescing, span accounting,
//! and the [`RangeSet`] view used by mitigation policies.

use super::ResolvedRange;

/// Merges overlapping or adjacent ranges into a minimal sorted set.
///
/// This is the transformation RFC 7233 §6.1 suggests servers apply to
/// egregious multi-range requests ("coalesce") and is what the mitigated
/// BCDN profiles do instead of emitting an n-part overlapping response.
///
/// # Example
///
/// ```
/// use rangeamp_http::range::{coalesce, ResolvedRange};
///
/// let merged = coalesce(&[
///     ResolvedRange { first: 0, last: 999 },
///     ResolvedRange { first: 0, last: 999 },
///     ResolvedRange { first: 500, last: 1500 },
/// ]);
/// assert_eq!(merged, vec![ResolvedRange { first: 0, last: 1500 }]);
/// ```
pub fn coalesce(ranges: &[ResolvedRange]) -> Vec<ResolvedRange> {
    // Consecutive duplicates (the OBR shape `0-,0-,...`) would merge
    // anyway; dropping them first sorts one range per run.
    let runs = ranges.chunk_by(|a, b| a == b);
    let mut sorted: Vec<ResolvedRange> = Vec::with_capacity(runs.clone().count());
    sorted.extend(runs.map(|run| run[0]));
    merge(sorted)
}

/// [`coalesce`] over `(range, times)` runs, such as
/// [`RangeHeader::resolve_runs`](super::RangeHeader::resolve_runs)
/// yields: repeats never change the merged set, so each run counts once
/// and the cost follows the number of runs.
pub fn coalesce_runs(runs: impl IntoIterator<Item = (ResolvedRange, usize)>) -> Vec<ResolvedRange> {
    merge(runs.into_iter().map(|(range, _)| range).collect())
}

/// Sorts `ranges` and merges overlapping or adjacent neighbours in place.
fn merge(mut ranges: Vec<ResolvedRange>) -> Vec<ResolvedRange> {
    ranges.sort_unstable();
    ranges.dedup_by(|next, kept| {
        let touches = kept.touches(next);
        if touches {
            kept.last = kept.last.max(next.last);
        }
        touches
    });
    ranges
}

/// Whether any two of the ranges share a byte. Sorts a copy by `first`
/// and sweeps once, so it is O(n log n) where a pairwise check is O(n²).
///
/// # Example
///
/// ```
/// use rangeamp_http::range::{has_overlap, ResolvedRange};
///
/// let a = ResolvedRange { first: 0, last: 9 };
/// let b = ResolvedRange { first: 10, last: 19 };
/// assert!(!has_overlap(&[b, a]));
/// assert!(has_overlap(&[b, a, ResolvedRange { first: 9, last: 9 }]));
/// ```
pub fn has_overlap(ranges: &[ResolvedRange]) -> bool {
    overlapping_pairs(ranges.iter().map(|&range| (range, 1)), 1) > 0
}

/// Number of pairs of ranges that share a byte, counted up to `cap`, over
/// `(range, times)` runs: the sweep stops as soon as the count reaches
/// `cap`.
///
/// In `first` order, a range overlaps exactly those earlier ranges whose
/// `last` is not before its `first`. The sweep keeps the `last` of every
/// earlier run, with its weight, in a min-heap and pops the ones that end
/// before the current `first` (they end before every later `first` too);
/// the weights that stay count the earlier ranges each copy of the
/// current run overlaps, and the run's `times` copies overlap each other
/// in `times (times - 1) / 2` pairs. Sorting and the heap make it
/// O(r log r) in the number r of runs, whatever the number of pairs.
pub(crate) fn overlapping_pairs(
    runs: impl IntoIterator<Item = (ResolvedRange, usize)>,
    cap: usize,
) -> usize {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut runs = runs.into_iter();
    // One run (the OBR shape) needs no sweep.
    let Some(first) = runs.next() else {
        return 0;
    };
    let Some(second) = runs.next() else {
        return pairs_within(first.1).min(cap);
    };
    let mut sorted: Vec<(ResolvedRange, usize)> = [first, second].into_iter().chain(runs).collect();
    sorted.sort_unstable();
    let mut open: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(sorted.len());
    // The summed weight of the runs in `open`.
    let mut open_ranges = 0usize;
    let mut pairs = 0usize;
    for (range, times) in sorted {
        while let Some(&Reverse((last, weight))) = open.peek() {
            if last >= range.first {
                break;
            }
            open.pop();
            open_ranges -= weight;
        }
        pairs = pairs
            .saturating_add(open_ranges.saturating_mul(times))
            .saturating_add(pairs_within(times));
        if pairs >= cap {
            return cap;
        }
        open.push(Reverse((range.last, times)));
        open_ranges += times;
    }
    pairs
}

/// `times (times - 1) / 2`, the pairs among `times` equal ranges,
/// saturating at `usize::MAX`.
fn pairs_within(times: usize) -> usize {
    if times % 2 == 0 {
        (times / 2).saturating_mul(times.saturating_sub(1))
    } else {
        times.saturating_mul((times - 1) / 2)
    }
}

/// Total number of bytes the ranges cover, counting overlapping bytes once
/// per range (i.e. what a server that does *not* check overlaps transmits).
pub fn total_span(ranges: &[ResolvedRange]) -> u64 {
    ranges.iter().map(ResolvedRange::len).sum()
}

/// An analyzed set of resolved ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSet {
    ranges: Vec<ResolvedRange>,
    complete_length: u64,
}

impl RangeSet {
    /// Analyzes `ranges` against a representation length.
    pub fn new(ranges: Vec<ResolvedRange>, complete_length: u64) -> RangeSet {
        RangeSet {
            ranges,
            complete_length,
        }
    }

    /// The ranges in request order.
    pub fn ranges(&self) -> &[ResolvedRange] {
        &self.ranges
    }

    /// Complete length of the representation the set was resolved against.
    pub fn complete_length(&self) -> u64 {
        self.complete_length
    }

    /// Whether the set is empty (all specs were unsatisfiable → 416).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Bytes transmitted by a server replying part-per-range without
    /// overlap checking — the quantity the OBR attack inflates.
    pub fn naive_payload(&self) -> u64 {
        total_span(&self.ranges)
    }

    /// Bytes transmitted after coalescing — what a mitigated server sends.
    pub fn coalesced_payload(&self) -> u64 {
        total_span(&coalesce(&self.ranges))
    }

    /// Ratio between the naive and coalesced payloads; this is the
    /// body-level amplification an OBR BCDN hands the attacker.
    pub fn overlap_amplification(&self) -> f64 {
        let coalesced = self.coalesced_payload();
        if coalesced == 0 {
            return 0.0;
        }
        self.naive_payload() as f64 / coalesced as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Each range as a run of one.
    fn ones(ranges: &[ResolvedRange]) -> impl Iterator<Item = (ResolvedRange, usize)> + '_ {
        ranges.iter().map(|&range| (range, 1))
    }

    /// The pairwise count the sweep replaces, kept as its reference.
    fn quadratic_pairs(ranges: &[ResolvedRange]) -> usize {
        let mut pairs = 0;
        for i in 0..ranges.len() {
            for j in (i + 1)..ranges.len() {
                if ranges[i].overlaps(&ranges[j]) {
                    pairs += 1;
                }
            }
        }
        pairs
    }

    proptest! {
        #[test]
        fn sweep_counts_the_same_pairs_as_the_pairwise_check(
            raw in proptest::collection::vec((0u64..64, 0u64..16), 0..40),
            cap in 0usize..12,
        ) {
            let ranges: Vec<ResolvedRange> = raw
                .iter()
                .map(|&(first, len)| ResolvedRange { first, last: first + len })
                .collect();
            let exact = quadratic_pairs(&ranges);
            prop_assert_eq!(overlapping_pairs(ones(&ranges), usize::MAX), exact);
            prop_assert_eq!(overlapping_pairs(ones(&ranges), cap), exact.min(cap));
            prop_assert_eq!(has_overlap(&ranges), exact > 0);
        }

        #[test]
        fn weighted_sweep_counts_the_pairs_of_the_expanded_ranges(
            raw in proptest::collection::vec((0u64..64, 0u64..16, 1usize..5), 0..20),
            cap in 0usize..40,
        ) {
            let runs: Vec<(ResolvedRange, usize)> = raw
                .iter()
                .map(|&(first, len, times)| (ResolvedRange { first, last: first + len }, times))
                .collect();
            let expanded: Vec<ResolvedRange> = runs
                .iter()
                .flat_map(|&(range, times)| std::iter::repeat_n(range, times))
                .collect();
            let exact = quadratic_pairs(&expanded);
            prop_assert_eq!(overlapping_pairs(runs.iter().copied(), usize::MAX), exact);
            prop_assert_eq!(overlapping_pairs(runs.iter().copied(), cap), exact.min(cap));
            prop_assert_eq!(coalesce_runs(runs.iter().copied()), coalesce(&expanded));
        }
    }

    #[test]
    fn sweep_handles_extreme_positions() {
        let top = ResolvedRange {
            first: u64::MAX,
            last: u64::MAX,
        };
        let all = ResolvedRange {
            first: 0,
            last: u64::MAX,
        };
        assert_eq!(overlapping_pairs(ones(&[top, all, top]), usize::MAX), 3);
        assert_eq!(overlapping_pairs([(top, 2), (all, 1)], usize::MAX), 3);
        assert_eq!(overlapping_pairs([(all, 5)], usize::MAX), 10);
        assert_eq!(overlapping_pairs([(all, 5)], 3), 3);
        assert_eq!(overlapping_pairs([], 3), 0);
        let huge = usize::MAX / 2;
        assert_eq!(overlapping_pairs([(all, huge)], usize::MAX), usize::MAX);
        assert!(!has_overlap(&[top, r(0, 0)]));
    }

    fn r(first: u64, last: u64) -> ResolvedRange {
        ResolvedRange { first, last }
    }

    #[test]
    fn coalesce_merges_overlaps_and_adjacency() {
        let merged = coalesce(&[r(0, 10), r(5, 20), r(21, 30), r(40, 50)]);
        assert_eq!(merged, vec![r(0, 30), r(40, 50)]);
    }

    #[test]
    fn coalesce_is_idempotent() {
        let once = coalesce(&[r(0, 10), r(2, 3), r(30, 40)]);
        let twice = coalesce(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn coalesce_handles_unsorted_input() {
        let merged = coalesce(&[r(40, 50), r(0, 10), r(5, 20)]);
        assert_eq!(merged, vec![r(0, 20), r(40, 50)]);
    }

    #[test]
    fn coalesce_empty_is_empty() {
        assert!(coalesce(&[]).is_empty());
    }

    #[test]
    fn total_span_counts_duplicates() {
        assert_eq!(total_span(&[r(0, 999), r(0, 999)]), 2000);
    }

    #[test]
    fn obr_amplification_is_n() {
        // n identical full-file ranges amplify the body n times.
        let n = 64;
        let ranges = vec![r(0, 1023); n];
        let set = RangeSet::new(ranges, 1024);
        assert_eq!(set.naive_payload(), 1024 * n as u64);
        assert_eq!(set.coalesced_payload(), 1024);
        assert!((set.overlap_amplification() - n as f64).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_set_has_zero_amplification() {
        let set = RangeSet::new(vec![], 1024);
        assert!(set.is_empty());
        assert_eq!(set.overlap_amplification(), 0.0);
    }
}
