//! RFC 7233 byte-range grammar, resolution, and analysis.
//!
//! Everything RangeAmp exploits lives here: the `Range` request header
//! ([`RangeHeader`]), its resolution against a representation
//! ([`ByteRangeSpec::resolve`]), the `Content-Range` response header
//! ([`ContentRange`]), overlap analysis ([`RangeSet`]) and the RFC 7233
//! security heuristics that well-behaved servers are supposed to apply to
//! multi-range requests (and some CDNs don't — paper §III-B).

mod gen;
mod parse;
mod satisfy;

pub use gen::{
    ParseExpectation, RangeCaseKind, RangeRequestCase, RangeRequestGenerator, RawRangeCase,
    RawRangeFamily,
};
pub use satisfy::{coalesce, has_overlap, total_span, RangeSet};

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
/// # Example
///
/// ```
/// use rangeamp_http::range::{RangeHeader, ByteRangeSpec};
///
/// # fn main() -> Result<(), rangeamp_http::Error> {
/// let header = RangeHeader::parse("bytes=1-1,-2")?;
/// assert_eq!(header.specs().len(), 2);
/// assert_eq!(header.specs()[0], ByteRangeSpec::FromTo { first: 1, last: 1 });
/// assert_eq!(header.to_string(), "bytes=1-1,-2");
/// # Ok(())
/// # }
/// ```
///
/// Two headers are equal when their specs are.
#[derive(Clone)]
pub struct RangeHeader {
    specs: Vec<ByteRangeSpec>,
    /// The value this header was parsed from, kept when it is exactly
    /// the canonical text, so forwarding the header shares it.
    text: Option<HeaderValue>,
}

impl PartialEq for RangeHeader {
    fn eq(&self, other: &RangeHeader) -> bool {
        self.specs == other.specs
    }
}

impl Eq for RangeHeader {}

impl fmt::Debug for RangeHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangeHeader")
            .field("specs", &self.specs)
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
        if specs.is_empty() {
            return Err(Error::InvalidRange("empty byte-range-set".to_string()));
        }
        if let Some(bad) = specs.iter().find(|s| !s.is_syntactically_valid()) {
            return Err(Error::InvalidRange(format!("last < first in {bad}")));
        }
        Ok(RangeHeader::of(specs))
    }

    /// A header of specs already known to be valid.
    fn of(specs: Vec<ByteRangeSpec>) -> RangeHeader {
        RangeHeader { specs, text: None }
    }

    /// Parses a `Range` header value such as `bytes=0-0,-1`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRange`] when the value does not match the
    /// RFC 7233 ABNF.
    pub fn parse(value: &str) -> Result<RangeHeader> {
        let (specs, _) = parse::parse_range_header(value)?;
        Ok(RangeHeader::of(specs))
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
        let (specs, canonical) = parse::parse_range_header(value.as_str())?;
        Ok(RangeHeader {
            specs,
            text: canonical.then(|| value.clone()),
        })
    }

    /// Convenience constructor for the single-range `bytes=first-last`.
    pub fn from_to(first: u64, last: u64) -> RangeHeader {
        RangeHeader::of(vec![ByteRangeSpec::FromTo {
            first: first.min(last),
            last: last.max(first),
        }])
    }

    /// Convenience constructor for the single-range `bytes=first-`.
    pub fn from_first(first: u64) -> RangeHeader {
        RangeHeader::of(vec![ByteRangeSpec::From { first }])
    }

    /// Convenience constructor for the single-range `bytes=-len`.
    pub fn suffix(len: u64) -> RangeHeader {
        RangeHeader::of(vec![ByteRangeSpec::Suffix { len }])
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
        let specs = ranges
            .iter()
            .map(|r| {
                if r.last + 1 == complete_length {
                    ByteRangeSpec::From { first: r.first }
                } else {
                    ByteRangeSpec::FromTo {
                        first: r.first,
                        last: r.last,
                    }
                }
            })
            .collect();
        RangeHeader::new(specs).ok()
    }

    /// Builds the OBR attack header `bytes=0-,0-,...,0-` with `n` specs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn overlapping(n: usize) -> RangeHeader {
        assert!(n > 0, "need at least one range");
        RangeHeader::of(vec![ByteRangeSpec::From { first: 0 }; n])
    }

    /// The specs in header order.
    pub fn specs(&self) -> &[ByteRangeSpec] {
        &self.specs
    }

    /// Whether the header contains more than one spec.
    pub fn is_multi(&self) -> bool {
        self.specs.len() > 1
    }

    /// Resolves every spec against `complete_length`, dropping
    /// unsatisfiable ones. One allocation, sized for every spec.
    pub fn resolve(&self, complete_length: u64) -> Vec<ResolvedRange> {
        let mut resolved = Vec::with_capacity(self.specs.len());
        resolved.extend(self.specs.iter().filter_map(|s| s.resolve(complete_length)));
        resolved
    }

    /// Number of pairs of specs that would overlap for a representation of
    /// `complete_length` bytes. O(n log n) in the number of specs.
    pub fn overlapping_pairs(&self, complete_length: u64) -> usize {
        satisfy::overlapping_pairs(&self.resolve(complete_length), usize::MAX)
    }

    /// Whether any two specs would overlap for a representation of
    /// `complete_length` bytes. O(n log n) in the number of specs.
    pub fn has_overlap(&self, complete_length: u64) -> bool {
        has_overlap(&self.resolve(complete_length))
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
        let resolved = self.resolve(complete_length);
        if satisfy::overlapping_pairs(&resolved, 3) > 2 {
            return true;
        }
        let small = resolved
            .iter()
            .filter(|r| r.len() <= SMALL_RANGE_BYTES)
            .count();
        small >= MANY_SMALL_RANGES
    }

    /// Serialized length in bytes of the header *value* (`bytes=...`),
    /// which is what single-header size limits meter (paper §V-C).
    pub fn value_len(&self) -> u64 {
        let specs: usize = self.specs.iter().map(ByteRangeSpec::text_len).sum();
        (6 + specs + self.specs.len().saturating_sub(1)) as u64
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
    /// `String` or the `Display` formatter.
    fn write_value(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str("bytes=")?;
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                out.write_str(",")?;
            }
            spec.write_text(out)?;
        }
        Ok(())
    }
}

impl fmt::Display for RangeHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_value(f)
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

#[cfg(test)]
mod tests {
    use super::*;

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
