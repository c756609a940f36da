//! RFC 7233 byte-range grammar, resolution, and analysis.
//!
//! Everything RangeAmp exploits lives here: the `Range` request header
//! ([`RangeHeader`]), its resolution against a representation
//! ([`ByteRangeSpec::resolve`]), the `Content-Range` response header
//! ([`ContentRange`]), overlap analysis ([`RangeHeader::has_overlap`],
//! [`coalesce`]) and the RFC 7233 security heuristics that well-behaved
//! servers are supposed to apply to multi-range requests (and some CDNs
//! don't — paper §III-B).

mod gen;
mod parse;
mod satisfy;

pub use gen::{
    ParseExpectation, RangeCaseKind, RangeRequestCase, RangeRequestGenerator, RawRangeCase,
    RawRangeFamily,
};
pub use satisfy::{coalesce, coalesce_runs};

use std::fmt;

use crate::{decimal, Error, HeaderValue, Result};

/// One element of a `Range: bytes=...` header, before resolution against a
/// concrete representation length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteRangeSpec {
    /// `first-last`, both inclusive (`bytes=0-0`).
    FromTo {
        /// First byte position.
        first: u64,
        /// Last byte position (inclusive).
        last: u64,
    },
    /// `first-`, open-ended (`bytes=0-`) — the OBR attack's workhorse.
    From {
        /// First byte position.
        first: u64,
    },
    /// `-suffix`, the final `suffix` bytes (`bytes=-1`).
    Suffix {
        /// Number of trailing bytes requested.
        len: u64,
    },
}

impl ByteRangeSpec {
    /// Resolves this spec against a representation of `complete_length`
    /// bytes per RFC 7233 §2.1.
    ///
    /// Returns `None` when the spec is syntactically valid but not
    /// satisfiable for this representation (contributes toward a 416).
    pub fn resolve(&self, complete_length: u64) -> Option<ResolvedRange> {
        match *self {
            ByteRangeSpec::FromTo { first, last } => {
                if first > last || first >= complete_length {
                    return None;
                }
                Some(ResolvedRange {
                    first,
                    last: last.min(complete_length - 1),
                })
            }
            ByteRangeSpec::From { first } => {
                if first >= complete_length {
                    return None;
                }
                Some(ResolvedRange {
                    first,
                    last: complete_length - 1,
                })
            }
            ByteRangeSpec::Suffix { len } => {
                if len == 0 || complete_length == 0 {
                    return None;
                }
                Some(ResolvedRange {
                    first: complete_length.saturating_sub(len),
                    last: complete_length - 1,
                })
            }
        }
    }

    /// Whether the spec is syntactically valid regardless of
    /// representation (a `first-last` with `last < first` is invalid per
    /// the ABNF's semantics and voids the whole header).
    pub fn is_syntactically_valid(&self) -> bool {
        match *self {
            ByteRangeSpec::FromTo { first, last } => first <= last,
            _ => true,
        }
    }

    /// Length of the spec's text (`first-last`, `first-` or `-len`).
    fn text_len(&self) -> usize {
        match *self {
            ByteRangeSpec::FromTo { first, last } => {
                decimal::digits(first) + 1 + decimal::digits(last)
            }
            ByteRangeSpec::From { first } => decimal::digits(first) + 1,
            ByteRangeSpec::Suffix { len } => 1 + decimal::digits(len),
        }
    }

    /// Writes the spec's text to `out`.
    fn write_text(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match *self {
            ByteRangeSpec::FromTo { first, last } => {
                decimal::write(out, first)?;
                out.write_str("-")?;
                decimal::write(out, last)
            }
            ByteRangeSpec::From { first } => {
                decimal::write(out, first)?;
                out.write_str("-")
            }
            ByteRangeSpec::Suffix { len } => {
                out.write_str("-")?;
                decimal::write(out, len)
            }
        }
    }
}

impl fmt::Display for ByteRangeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f)
    }
}

/// A byte range resolved to concrete inclusive positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResolvedRange {
    /// First byte position.
    pub first: u64,
    /// Last byte position (inclusive, `< complete_length`).
    pub last: u64,
}

impl ResolvedRange {
    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.last - self.first + 1
    }

    /// Resolved ranges are never empty; provided for clippy-idiomatic
    /// pairing with [`ResolvedRange::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether two resolved ranges share at least one byte.
    pub fn overlaps(&self, other: &ResolvedRange) -> bool {
        self.first <= other.last && other.first <= self.last
    }

    /// Whether two ranges overlap or are directly adjacent.
    pub fn touches(&self, other: &ResolvedRange) -> bool {
        self.overlaps(other) || self.last + 1 == other.first || other.last + 1 == self.first
    }
}

/// A parsed `Range` header: the `bytes` unit plus one or more specs.
///
/// The specs are stored as runs: `(spec, times)` pairs in which
/// consecutive equal specs are merged, so the OBR header
/// `bytes=0-,0-,...,0-` with n ranges is one run of n and costs O(1) to
/// hold, compare and resolve however large n is.
///
/// # Examples
///
/// ```
/// use rangeamp_http::range::{RangeHeader, ByteRangeSpec};
///
/// # fn main() -> Result<(), rangeamp_http::Error> {
/// let header = RangeHeader::parse("bytes=1-1,-2")?;
/// assert_eq!(header.specs().len(), 2);
/// assert_eq!(header.first_spec(), ByteRangeSpec::FromTo { first: 1, last: 1 });
/// assert_eq!(header.to_string(), "bytes=1-1,-2");
/// # Ok(())
/// # }
/// ```
///
/// Repeated specs form one run, however they were written:
///
/// ```
/// use rangeamp_http::range::{RangeHeader, ByteRangeSpec, ResolvedRange};
///
/// # fn main() -> Result<(), rangeamp_http::Error> {
/// let obr = RangeHeader::parse("bytes=-1024,0-,0-,0-")?;
/// let zero = ByteRangeSpec::From { first: 0 };
/// assert_eq!(obr.runs(), &[(ByteRangeSpec::Suffix { len: 1024 }, 1), (zero, 3)]);
/// assert_eq!(obr.specs().len(), 4);
/// assert_eq!(obr, RangeHeader::from_runs([(ByteRangeSpec::Suffix { len: 1024 }, 1), (zero, 3)])?);
///
/// // Against a 1 KB representation all four specs cover the whole of it.
/// let whole = ResolvedRange { first: 0, last: 1023 };
/// assert_eq!(obr.resolve_runs(1024).collect::<Vec<_>>(), vec![(whole, 4)]);
/// assert_eq!(obr.overlapping_pairs(1024), 6);
/// # Ok(())
/// # }
/// ```
///
/// Two headers are equal when their specs are.
#[derive(Clone)]
pub struct RangeHeader {
    specs: Runs,
    /// The value this header was parsed from, kept when it is exactly
    /// the canonical text, so forwarding the header shares it.
    text: Option<HeaderValue>,
}

/// Consecutive equal specs merged into `(spec, times)` runs: every
/// `times` is at least 1 and no two neighbouring runs hold the same spec,
/// so two `Runs` are equal exactly when their specs are.
#[derive(Debug, Clone, Default)]
struct Runs {
    runs: RunList,
    /// Number of specs: the sum of every run's `times`.
    len: usize,
}

/// The runs themselves: one run is kept inline, so parsing a
/// single-range header (or an OBR header of one repeated spec) allocates
/// nothing, and a `Vec` holds them from the second run on.
#[derive(Debug, Clone)]
enum RunList {
    /// Exactly one run.
    One([(ByteRangeSpec, usize); 1]),
    /// No run (an empty `Vec` does not allocate), or two and more.
    Many(Vec<(ByteRangeSpec, usize)>),
}

impl Default for RunList {
    fn default() -> RunList {
        RunList::Many(Vec::new())
    }
}

impl Runs {
    /// The runs in header order.
    fn as_slice(&self) -> &[(ByteRangeSpec, usize)] {
        match &self.runs {
            RunList::One(run) => run,
            RunList::Many(runs) => runs,
        }
    }

    /// Appends `times` copies of `spec`, extending the last run when it
    /// holds the same spec.
    fn push(&mut self, spec: ByteRangeSpec, times: usize) {
        if times == 0 {
            return;
        }
        self.len += times;
        match &mut self.runs {
            RunList::One([(last, count)]) if *last == spec => *count += times,
            RunList::One([first]) => {
                let mut runs = Vec::with_capacity(4);
                runs.extend([*first, (spec, times)]);
                self.runs = RunList::Many(runs);
            }
            RunList::Many(runs) => match runs.last_mut() {
                Some((last, count)) if *last == spec => *count += times,
                Some(_) => runs.push((spec, times)),
                None => self.runs = RunList::One([(spec, times)]),
            },
        }
    }
}

impl PartialEq for Runs {
    fn eq(&self, other: &Runs) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Runs {}

impl PartialEq for RangeHeader {
    fn eq(&self, other: &RangeHeader) -> bool {
        self.specs == other.specs
    }
}

impl Eq for RangeHeader {}

impl fmt::Debug for RangeHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangeHeader")
            .field("runs", &self.specs.as_slice())
            .finish()
    }
}

impl RangeHeader {
    /// Builds a header from specs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRange`] if `specs` is empty or any spec has
    /// `last < first`.
    pub fn new(specs: Vec<ByteRangeSpec>) -> Result<RangeHeader> {
        RangeHeader::from_runs(specs.into_iter().map(|spec| (spec, 1)))
    }

    /// Builds a header from `(spec, times)` runs, `times` copies of each
    /// spec in order. Runs of zero are skipped and neighbouring runs of
    /// the same spec merge, so no spec is ever materialised per copy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRange`] if the runs hold no spec or any spec
    /// has `last < first`.
    pub fn from_runs(
        runs: impl IntoIterator<Item = (ByteRangeSpec, usize)>,
    ) -> Result<RangeHeader> {
        let mut merged = Runs::default();
        for (spec, times) in runs {
            if !spec.is_syntactically_valid() {
                return Err(Error::InvalidRange(format!("last < first in {spec}")));
            }
            merged.push(spec, times);
        }
        if merged.len == 0 {
            return Err(Error::InvalidRange("empty byte-range-set".to_string()));
        }
        Ok(RangeHeader::of(merged))
    }

    /// A header of runs already known to be valid.
    fn of(specs: Runs) -> RangeHeader {
        RangeHeader { specs, text: None }
    }

    /// A header of `times` (at least one) copies of one valid spec.
    fn repeated(spec: ByteRangeSpec, times: usize) -> RangeHeader {
        RangeHeader::of(Runs {
            runs: RunList::One([(spec, times)]),
            len: times,
        })
    }

    /// Parses a `Range` header value such as `bytes=0-0,-1`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRange`] when the value does not match the
    /// RFC 7233 ABNF.
    pub fn parse(value: &str) -> Result<RangeHeader> {
        let (runs, _) = parse::parse_range_header(value)?;
        Ok(RangeHeader::of(runs))
    }

    /// Parses a `Range` header field value, as [`RangeHeader::parse`]
    /// does. When the value is exactly the canonical text,
    /// [`RangeHeader::header_value`] returns it, shared, instead of
    /// writing the text again.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRange`] when the value does not match the
    /// RFC 7233 ABNF.
    pub fn parse_value(value: &HeaderValue) -> Result<RangeHeader> {
        let (runs, canonical) = parse::parse_range_header(value.as_str())?;
        Ok(RangeHeader {
            specs: runs,
            text: canonical.then(|| value.clone()),
        })
    }

    /// Convenience constructor for the single-range `bytes=first-last`.
    pub fn from_to(first: u64, last: u64) -> RangeHeader {
        let spec = ByteRangeSpec::FromTo {
            first: first.min(last),
            last: last.max(first),
        };
        RangeHeader::repeated(spec, 1)
    }

    /// Convenience constructor for the single-range `bytes=first-`.
    pub fn from_first(first: u64) -> RangeHeader {
        RangeHeader::repeated(ByteRangeSpec::From { first }, 1)
    }

    /// Convenience constructor for the single-range `bytes=-len`.
    pub fn suffix(len: u64) -> RangeHeader {
        RangeHeader::repeated(ByteRangeSpec::Suffix { len }, 1)
    }

    /// Builds the header that requests exactly `ranges`, resolved against
    /// a representation of `complete_length` bytes: a range ending at the
    /// last byte becomes `first-`, any other `first-last`. Returns `None`
    /// for an empty set or when a range is not a resolved range of that
    /// representation (`first <= last < complete_length` fails). This is
    /// how an edge forwards a coalesced set.
    pub fn from_resolved(ranges: &[ResolvedRange], complete_length: u64) -> Option<RangeHeader> {
        if ranges
            .iter()
            .any(|r| r.first > r.last || r.last >= complete_length)
        {
            return None;
        }
        let spec_of = |r: &ResolvedRange| {
            if r.last + 1 == complete_length {
                ByteRangeSpec::From { first: r.first }
            } else {
                ByteRangeSpec::FromTo {
                    first: r.first,
                    last: r.last,
                }
            }
        };
        RangeHeader::from_runs(ranges.iter().map(|r| (spec_of(r), 1))).ok()
    }

    /// Builds the OBR attack header `bytes=0-,0-,...,0-` with `n` specs,
    /// as one run.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn overlapping(n: usize) -> RangeHeader {
        assert!(n > 0, "need at least one range");
        RangeHeader::repeated(ByteRangeSpec::From { first: 0 }, n)
    }

    /// The specs in header order, each repeated spec once per copy.
    /// `specs().len()` is the spec count, in O(1).
    pub fn specs(&self) -> Specs<'_> {
        Specs {
            runs: self.specs.as_slice().iter(),
            spec: None,
            left: 0,
            remaining: self.specs.len,
        }
    }

    /// The first spec.
    pub fn first_spec(&self) -> ByteRangeSpec {
        self.specs.as_slice()[0].0
    }

    /// The specs as `(spec, times)` runs in header order: every `times`
    /// is at least 1 and neighbouring runs hold different specs.
    pub fn runs(&self) -> &[(ByteRangeSpec, usize)] {
        self.specs.as_slice()
    }

    /// Whether the header contains more than one spec.
    pub fn is_multi(&self) -> bool {
        self.specs.len > 1
    }

    /// Resolves every spec against `complete_length`, dropping
    /// unsatisfiable ones, as runs: the run-length encoding of
    /// [`RangeHeader::resolve`], one `(range, times)` per stretch of
    /// equal resolved ranges. Allocation-free, O(runs).
    pub fn resolve_runs(&self, complete_length: u64) -> ResolvedRuns<'_> {
        ResolvedRuns {
            runs: self.specs.as_slice().iter(),
            complete_length,
        }
    }

    /// Resolves every spec against `complete_length`, dropping
    /// unsatisfiable ones: one range per satisfiable spec. One
    /// allocation, sized for every spec; [`RangeHeader::resolve_runs`]
    /// gives the same ranges without it.
    pub fn resolve(&self, complete_length: u64) -> Vec<ResolvedRange> {
        let mut resolved = Vec::with_capacity(self.specs.len);
        for (range, times) in self.resolve_runs(complete_length) {
            resolved.extend(std::iter::repeat_n(range, times));
        }
        resolved
    }

    /// Number of pairs of specs that would overlap for a representation of
    /// `complete_length` bytes. O(r log r) in the number r of runs.
    pub fn overlapping_pairs(&self, complete_length: u64) -> usize {
        satisfy::overlapping_pairs(self.resolve_runs(complete_length), usize::MAX)
    }

    /// Whether any two specs would overlap for a representation of
    /// `complete_length` bytes. O(r log r) in the number r of runs.
    ///
    /// # Example
    ///
    /// ```
    /// use rangeamp_http::range::RangeHeader;
    ///
    /// let disjoint: RangeHeader = "bytes=10-19,0-9".parse().unwrap();
    /// assert!(!disjoint.has_overlap(100));
    /// let touching: RangeHeader = "bytes=10-19,0-9,9-9".parse().unwrap();
    /// assert!(touching.has_overlap(100));
    /// ```
    pub fn has_overlap(&self, complete_length: u64) -> bool {
        satisfy::overlapping_pairs(self.resolve_runs(complete_length), 1) > 0
    }

    /// RFC 7233 §6.1 heuristic: a server "ought to ignore, coalesce, or
    /// reject egregious range requests, such as requests for more than two
    /// overlapping ranges or for many small ranges in a single set".
    ///
    /// Returns `true` when the header trips that heuristic. The mitigated
    /// CDN profiles consult this; the vulnerable ones don't.
    pub fn is_egregious(&self, complete_length: u64) -> bool {
        const MANY_SMALL_RANGES: usize = 32;
        const SMALL_RANGE_BYTES: u64 = 64;
        let resolved = self.resolve_runs(complete_length);
        if satisfy::overlapping_pairs(resolved.clone(), 3) > 2 {
            return true;
        }
        let small: usize = resolved
            .filter(|(range, _)| range.len() <= SMALL_RANGE_BYTES)
            .map(|(_, times)| times)
            .sum();
        small >= MANY_SMALL_RANGES
    }

    /// Serialized length in bytes of the header *value* (`bytes=...`),
    /// which is what single-header size limits meter (paper §V-C).
    pub fn value_len(&self) -> u64 {
        let text: u64 = self
            .runs()
            .iter()
            .map(|&(spec, times)| spec.text_len() as u64 * times as u64)
            .sum();
        6 + text + self.specs.len as u64 - 1
    }

    /// The header value (`bytes=...`), the same text as the `Display`
    /// form: the parsed value itself when [`RangeHeader::parse_value`]
    /// kept it, else written once into a pre-sized buffer.
    pub fn header_value(&self) -> HeaderValue {
        if let Some(text) = &self.text {
            return text.clone();
        }
        let mut out = String::with_capacity(self.value_len() as usize);
        self.write_value(&mut out)
            .expect("writing to a String cannot fail");
        HeaderValue::from_written(&out)
    }

    /// Writes the header value to `out`, which is either a pre-sized
    /// `String` or the `Display` formatter: each run's spec once, then
    /// its repeats in blocks.
    fn write_value(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str("bytes=")?;
        for (i, &(spec, times)) in self.runs().iter().enumerate() {
            if i > 0 {
                out.write_str(",")?;
            }
            spec.write_text(out)?;
            write_repeats(out, &spec, times - 1)?;
        }
        Ok(())
    }
}

/// Writes `times` copies of `,spec` to `out`, a block of copies per
/// `write_str` call.
fn write_repeats(out: &mut impl fmt::Write, spec: &ByteRangeSpec, times: usize) -> fmt::Result {
    /// A `,spec` unit takes at most 42 bytes (two 20-digit numbers).
    const BLOCK: usize = 512;
    struct Block {
        bytes: [u8; BLOCK],
        len: usize,
    }
    impl fmt::Write for Block {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.bytes[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
            self.len += s.len();
            Ok(())
        }
    }
    if times == 0 {
        return Ok(());
    }
    let mut block = Block {
        bytes: [0; BLOCK],
        len: 0,
    };
    fmt::Write::write_str(&mut block, ",")?;
    spec.write_text(&mut block)?;
    let unit = block.len;
    let per_block = times.min(BLOCK / unit);
    for copy in 1..per_block {
        block.bytes.copy_within(0..unit, copy * unit);
    }
    let text = std::str::from_utf8(&block.bytes[..per_block * unit]).expect("ASCII spec text");
    for _ in 0..times / per_block {
        out.write_str(text)?;
    }
    out.write_str(&text[..times % per_block * unit])
}

/// The specs of a [`RangeHeader`] in header order, each copy of a
/// repeated spec yielded in turn. Built by [`RangeHeader::specs`].
#[derive(Debug, Clone)]
pub struct Specs<'a> {
    runs: std::slice::Iter<'a, (ByteRangeSpec, usize)>,
    /// The run being yielded and the copies of it still to yield.
    spec: Option<&'a ByteRangeSpec>,
    left: usize,
    /// Specs still to yield, over every run.
    remaining: usize,
}

impl<'a> Iterator for Specs<'a> {
    type Item = &'a ByteRangeSpec;

    fn next(&mut self) -> Option<&'a ByteRangeSpec> {
        while self.left == 0 {
            let (spec, times) = self.runs.next()?;
            self.spec = Some(spec);
            self.left = *times;
        }
        self.left -= 1;
        self.remaining -= 1;
        self.spec
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Specs<'_> {}

impl std::iter::FusedIterator for Specs<'_> {}

/// The resolved ranges of a [`RangeHeader`] as `(range, times)` runs, in
/// header order: unsatisfiable specs are dropped and neighbouring specs
/// that resolve to the same range share a run. Built by
/// [`RangeHeader::resolve_runs`].
#[derive(Debug, Clone)]
pub struct ResolvedRuns<'a> {
    runs: std::slice::Iter<'a, (ByteRangeSpec, usize)>,
    complete_length: u64,
}

impl Iterator for ResolvedRuns<'_> {
    type Item = (ResolvedRange, usize);

    fn next(&mut self) -> Option<(ResolvedRange, usize)> {
        let complete_length = self.complete_length;
        let (range, mut times) = self
            .runs
            .by_ref()
            .find_map(|&(spec, times)| Some((spec.resolve(complete_length)?, times)))?;
        // Later specs that resolve to the same range, or to none, extend
        // the run.
        while let Some(&(spec, more)) = self.runs.as_slice().first() {
            match spec.resolve(complete_length) {
                Some(next) if next != range => break,
                Some(_) => times += more,
                None => {}
            }
            self.runs.next();
        }
        Some((range, times))
    }
}

impl std::iter::FusedIterator for ResolvedRuns<'_> {}

impl fmt::Display for RangeHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.text {
            Some(text) => f.write_str(text.as_str()),
            None => self.write_value(f),
        }
    }
}

impl std::str::FromStr for RangeHeader {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        RangeHeader::parse(s)
    }
}

/// A `Content-Range` response header (RFC 7233 §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentRange {
    /// `bytes first-last/complete` on a 206.
    Satisfied {
        /// The delivered range.
        range: ResolvedRange,
        /// Complete length of the representation.
        complete_length: u64,
    },
    /// `bytes */complete` on a 416.
    Unsatisfied {
        /// Complete length of the representation.
        complete_length: u64,
    },
}

impl ContentRange {
    /// Parses a `Content-Range` header value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidContentRange`] on anything that does not
    /// match `bytes first-last/complete` or `bytes */complete`.
    pub fn parse(value: &str) -> Result<ContentRange> {
        parse::parse_content_range(value)
    }
}

impl fmt::Display for ContentRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ContentRange::Satisfied {
                range,
                complete_length,
            } => {
                write!(
                    f,
                    "bytes {}-{}/{}",
                    range.first, range.last, complete_length
                )
            }
            ContentRange::Unsatisfied { complete_length } => {
                write!(f, "bytes */{complete_length}")
            }
        }
    }
}

/// The spec-by-spec computations the run-wise ones replaced, kept as the
/// reference they are checked against.
#[cfg(test)]
mod model {
    use super::*;

    pub(super) fn resolve(specs: &[ByteRangeSpec], complete_length: u64) -> Vec<ResolvedRange> {
        specs
            .iter()
            .filter_map(|s| s.resolve(complete_length))
            .collect()
    }

    pub(super) fn overlapping_pairs(specs: &[ByteRangeSpec], complete_length: u64) -> usize {
        let resolved = resolve(specs, complete_length);
        let mut pairs = 0;
        for (i, a) in resolved.iter().enumerate() {
            pairs += resolved[i + 1..].iter().filter(|b| a.overlaps(b)).count();
        }
        pairs
    }

    pub(super) fn is_egregious(specs: &[ByteRangeSpec], complete_length: u64) -> bool {
        let small = resolve(specs, complete_length)
            .iter()
            .filter(|r| r.len() <= 64)
            .count();
        overlapping_pairs(specs, complete_length) > 2 || small >= 32
    }

    pub(super) fn text(specs: &[ByteRangeSpec]) -> String {
        let specs: Vec<String> = specs.iter().map(ToString::to_string).collect();
        format!("bytes={}", specs.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec_strategy() -> impl Strategy<Value = ByteRangeSpec> {
        prop_oneof![
            (0u64..48, 0u64..24).prop_map(|(first, len)| ByteRangeSpec::FromTo {
                first,
                last: first + len
            }),
            (0u64..48).prop_map(|first| ByteRangeSpec::From { first }),
            (0u64..48).prop_map(|len| ByteRangeSpec::Suffix { len }),
            Just(ByteRangeSpec::From { first: 0 }),
            Just(ByteRangeSpec::FromTo {
                first: 0,
                last: u64::MAX
            }),
        ]
    }

    proptest! {
        #[test]
        fn run_wise_queries_match_the_expanded_models(
            runs in proptest::collection::vec((spec_strategy(), 0usize..40), 1..8),
            complete_length in prop_oneof![0u64..80, Just(u64::MAX)],
        ) {
            let expanded: Vec<ByteRangeSpec> = runs
                .iter()
                .flat_map(|&(spec, times)| std::iter::repeat_n(spec, times))
                .collect();
            let Ok(header) = RangeHeader::from_runs(runs.iter().copied()) else {
                prop_assert!(expanded.is_empty());
                return Ok(());
            };
            prop_assert_eq!(header.specs().len(), expanded.len());
            prop_assert_eq!(header.specs().copied().collect::<Vec<_>>(), expanded.clone());
            prop_assert_eq!(header.first_spec(), expanded[0]);
            prop_assert_eq!(header.is_multi(), expanded.len() > 1);
            prop_assert_eq!(&header, &RangeHeader::new(expanded.clone()).unwrap());
            prop_assert!(header.runs().iter().all(|&(_, times)| times > 0));
            prop_assert!(header.runs().windows(2).all(|w| w[0].0 != w[1].0));

            let resolved = model::resolve(&expanded, complete_length);
            prop_assert_eq!(header.resolve(complete_length), resolved.clone());
            let runs: Vec<(ResolvedRange, usize)> = header.resolve_runs(complete_length).collect();
            let rle: Vec<(ResolvedRange, usize)> = resolved
                .chunk_by(|a, b| a == b)
                .map(|group| (group[0], group.len()))
                .collect();
            prop_assert_eq!(runs, rle);

            let pairs = model::overlapping_pairs(&expanded, complete_length);
            prop_assert_eq!(header.overlapping_pairs(complete_length), pairs);
            prop_assert_eq!(header.has_overlap(complete_length), pairs > 0);
            prop_assert_eq!(
                header.is_egregious(complete_length),
                model::is_egregious(&expanded, complete_length)
            );

            let text = model::text(&expanded);
            prop_assert_eq!(header.value_len(), text.len() as u64);
            prop_assert_eq!(header.to_string(), text.clone());
            prop_assert_eq!(header.header_value(), HeaderValue::new(text.clone()).unwrap());
            prop_assert_eq!(RangeHeader::parse(&text), Ok(header));
        }
    }

    #[test]
    fn long_runs_write_their_text_in_blocks() {
        // Runs of every length around the block size (512 / 3 copies of
        // `,0-` per block) and of the longest spec text.
        let widest = ByteRangeSpec::FromTo {
            first: u64::MAX - 1,
            last: u64::MAX,
        };
        for spec in [ByteRangeSpec::From { first: 0 }, widest] {
            for n in [1, 2, 12, 13, 170, 171, 172, 341, 342, 343, 1_000] {
                let header = RangeHeader::from_runs([(spec, n)]).unwrap();
                let text = model::text(&vec![spec; n]);
                assert_eq!(header.to_string(), text, "{spec} x {n}");
                assert_eq!(header.header_value().as_str(), text);
                assert_eq!(header.value_len(), text.len() as u64);
            }
        }
    }

    #[test]
    fn parsed_runs_keep_the_canonical_text() {
        let value = HeaderValue::new(RangeHeader::overlapping(5_000).to_string()).unwrap();
        let header = RangeHeader::parse_value(&value).unwrap();
        assert_eq!(header.runs(), &[(ByteRangeSpec::From { first: 0 }, 5_000)]);
        assert!(std::ptr::eq(header.header_value().as_str(), value.as_str()));
        assert_eq!(header.to_string(), value.as_str());
    }

    #[test]
    fn resolve_from_to_clamps_last() {
        let spec = ByteRangeSpec::FromTo {
            first: 998,
            last: 5000,
        };
        assert_eq!(
            spec.resolve(1000),
            Some(ResolvedRange {
                first: 998,
                last: 999
            })
        );
    }

    #[test]
    fn resolve_rejects_first_past_end() {
        let spec = ByteRangeSpec::FromTo {
            first: 1000,
            last: 1000,
        };
        assert_eq!(spec.resolve(1000), None);
        assert_eq!(ByteRangeSpec::From { first: 1000 }.resolve(1000), None);
    }

    #[test]
    fn resolve_suffix() {
        let spec = ByteRangeSpec::Suffix { len: 2 };
        assert_eq!(
            spec.resolve(1000),
            Some(ResolvedRange {
                first: 998,
                last: 999
            })
        );
        // Suffix longer than the representation covers everything.
        assert_eq!(
            ByteRangeSpec::Suffix { len: 5000 }.resolve(1000),
            Some(ResolvedRange {
                first: 0,
                last: 999
            })
        );
        assert_eq!(ByteRangeSpec::Suffix { len: 0 }.resolve(1000), None);
        assert_eq!(ByteRangeSpec::Suffix { len: 5 }.resolve(0), None);
    }

    #[test]
    fn overlap_detection() {
        let a = ResolvedRange { first: 0, last: 10 };
        let b = ResolvedRange {
            first: 10,
            last: 20,
        };
        let c = ResolvedRange {
            first: 11,
            last: 20,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.touches(&c));
    }

    #[test]
    fn obr_header_shape() {
        let header = RangeHeader::overlapping(3);
        assert_eq!(header.to_string(), "bytes=0-,0-,0-");
        assert_eq!(header.overlapping_pairs(1024), 3);
        assert!(header.is_egregious(1024));
    }

    #[test]
    fn egregious_thresholds() {
        // Two overlapping ranges (one pair) is fine per the RFC wording.
        let two = RangeHeader::new(vec![
            ByteRangeSpec::From { first: 0 },
            ByteRangeSpec::From { first: 0 },
        ])
        .unwrap();
        assert_eq!(two.overlapping_pairs(1024), 1);
        assert!(!two.is_egregious(1024));

        // Many disjoint small ranges trips the heuristic.
        let specs: Vec<_> = (0..40)
            .map(|i| ByteRangeSpec::FromTo {
                first: i * 100,
                last: i * 100,
            })
            .collect();
        let many = RangeHeader::new(specs).unwrap();
        assert!(many.is_egregious(100_000));
    }

    #[test]
    fn display_round_trips_through_parse() {
        for text in [
            "bytes=0-0",
            "bytes=-1",
            "bytes=0-",
            "bytes=1-1,-2",
            "bytes=0-,0-,0-",
        ] {
            let header = RangeHeader::parse(text).unwrap();
            assert_eq!(header.to_string(), text);
        }
    }

    #[test]
    fn content_range_display() {
        let satisfied = ContentRange::Satisfied {
            range: ResolvedRange { first: 0, last: 0 },
            complete_length: 1000,
        };
        assert_eq!(satisfied.to_string(), "bytes 0-0/1000");
        let unsatisfied = ContentRange::Unsatisfied {
            complete_length: 1000,
        };
        assert_eq!(unsatisfied.to_string(), "bytes */1000");
    }

    #[test]
    fn new_rejects_inverted_and_empty() {
        assert!(RangeHeader::new(vec![]).is_err());
        assert!(RangeHeader::new(vec![ByteRangeSpec::FromTo { first: 5, last: 2 }]).is_err());
    }
}
