//! ABNF-driven random generation of valid range requests.
//!
//! The paper's first experiment feeds each CDN "a large number of valid
//! range requests automatically generated based on the ABNF rules described
//! in the RFCs" (§V-A) and differentially compares what the origin receives.
//! [`RangeRequestGenerator`] is that workload generator: every emitted
//! header is valid per RFC 7233, and the case mix deliberately covers the
//! shapes the vulnerability tables distinguish (small first-last, suffix,
//! open-ended, multi-range, overlapping multi-range).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{ByteRangeSpec, RangeHeader};
use crate::error::{Error, Result};

/// The structural family a generated case belongs to, so the scanner can
/// attribute observed behaviour to a range format (Table I column 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeCaseKind {
    /// `bytes=first-last` with a tiny span.
    SmallFromTo,
    /// `bytes=first-last` with an arbitrary span.
    FromTo,
    /// `bytes=first-` open-ended.
    OpenEnded,
    /// `bytes=-suffix`.
    Suffix,
    /// Multiple disjoint ranges.
    MultiDisjoint,
    /// Multiple overlapping ranges (the OBR shape).
    MultiOverlapping,
}

impl RangeCaseKind {
    /// All kinds, in the order the scanner probes them.
    pub const ALL: [RangeCaseKind; 6] = [
        RangeCaseKind::SmallFromTo,
        RangeCaseKind::FromTo,
        RangeCaseKind::OpenEnded,
        RangeCaseKind::Suffix,
        RangeCaseKind::MultiDisjoint,
        RangeCaseKind::MultiOverlapping,
    ];
}

/// A generated range-request case: the header plus its family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeRequestCase {
    /// Which structural family the case exercises.
    pub kind: RangeCaseKind,
    /// The generated header.
    pub header: RangeHeader,
}

/// Seeded generator of valid `Range` headers.
///
/// # Example
///
/// ```
/// use rangeamp_http::range::RangeRequestGenerator;
///
/// let mut gen = RangeRequestGenerator::new(7, 1024 * 1024);
/// let case = gen.next_case();
/// // Every generated header re-parses under the strict ABNF parser.
/// let reparsed = rangeamp_http::range::RangeHeader::parse(&case.header.to_string());
/// assert!(reparsed.is_ok());
/// ```
#[derive(Debug)]
pub struct RangeRequestGenerator {
    rng: StdRng,
    file_size: u64,
}

impl RangeRequestGenerator {
    /// Creates a generator for a representation of `file_size` bytes.
    pub fn new(seed: u64, file_size: u64) -> RangeRequestGenerator {
        RangeRequestGenerator {
            rng: StdRng::seed_from_u64(seed),
            file_size: file_size.max(1),
        }
    }

    /// Generates the next case, cycling uniformly over the kinds.
    pub fn next_case(&mut self) -> RangeRequestCase {
        let kind = RangeCaseKind::ALL[self.rng.gen_range(0..RangeCaseKind::ALL.len())];
        self.case_of_kind(kind)
    }

    /// Fallible [`next_case`](RangeRequestGenerator::next_case): an
    /// [`Error::InvalidRange`] marks a generator/parser disagreement the
    /// fuzzer records as a finding instead of aborting the run.
    pub fn try_next_case(&mut self) -> Result<RangeRequestCase> {
        let kind = RangeCaseKind::ALL[self.rng.gen_range(0..RangeCaseKind::ALL.len())];
        self.try_case_of_kind(kind)
    }

    /// Generates a case of a specific kind.
    ///
    /// # Panics
    ///
    /// Panics if the generated header does not survive the strict-parser
    /// roundtrip — use
    /// [`try_case_of_kind`](RangeRequestGenerator::try_case_of_kind) to
    /// handle that as an error instead.
    pub fn case_of_kind(&mut self, kind: RangeCaseKind) -> RangeRequestCase {
        self.try_case_of_kind(kind)
            .expect("generated header must survive the parser roundtrip")
    }

    /// Fallible [`case_of_kind`](RangeRequestGenerator::case_of_kind):
    /// every constructed header is checked against the strict ABNF parser
    /// (display → parse → compare), and a disagreement comes back as
    /// [`Error::InvalidRange`] rather than a panic.
    pub fn try_case_of_kind(&mut self, kind: RangeCaseKind) -> Result<RangeRequestCase> {
        let header = self.build_header(kind)?;
        let text = header.to_string();
        let reparsed = RangeHeader::parse(&text).map_err(|e| {
            Error::InvalidRange(format!(
                "generated {kind:?} header {text:?} rejected by the parser: {e}"
            ))
        })?;
        if reparsed != header {
            return Err(Error::InvalidRange(format!(
                "generator/parser disagreement on {text:?}: reparsed as {reparsed}"
            )));
        }
        Ok(RangeRequestCase { kind, header })
    }

    fn build_header(&mut self, kind: RangeCaseKind) -> Result<RangeHeader> {
        let header = match kind {
            RangeCaseKind::SmallFromTo => {
                let first = self.rng.gen_range(0..self.file_size);
                let span = self.rng.gen_range(0..4.min(self.file_size - first));
                RangeHeader::from_to(first, first + span)
            }
            RangeCaseKind::FromTo => {
                let first = self.rng.gen_range(0..self.file_size);
                let last = self.rng.gen_range(first..self.file_size);
                RangeHeader::from_to(first, last)
            }
            RangeCaseKind::OpenEnded => {
                RangeHeader::from_first(self.rng.gen_range(0..self.file_size))
            }
            RangeCaseKind::Suffix => RangeHeader::suffix(self.rng.gen_range(1..=self.file_size)),
            RangeCaseKind::MultiDisjoint => {
                let count = self.rng.gen_range(2..=5u64);
                let stride = (self.file_size / (count * 2)).max(2);
                let specs = (0..count)
                    .map(|i| {
                        let first = i * 2 * stride;
                        ByteRangeSpec::FromTo {
                            first,
                            last: first + stride - 1,
                        }
                    })
                    .collect();
                RangeHeader::new(specs)?
            }
            RangeCaseKind::MultiOverlapping => {
                let count = self.rng.gen_range(3..=16usize);
                RangeHeader::overlapping(count)
            }
        };
        Ok(header)
    }

    /// Generates `count` cases.
    pub fn cases(&mut self, count: usize) -> Vec<RangeRequestCase> {
        (0..count).map(|_| self.next_case()).collect()
    }

    /// Generates one case per kind, deterministically ordered — the
    /// scanner's minimal probe set.
    pub fn probe_set(&mut self) -> Vec<RangeRequestCase> {
        RangeCaseKind::ALL
            .iter()
            .map(|&kind| self.case_of_kind(kind))
            .collect()
    }

    /// Generates the next raw-header case, cycling uniformly over
    /// [`RawRangeFamily::ALL`].
    pub fn next_raw_case(&mut self) -> RawRangeCase {
        let family = RawRangeFamily::ALL[self.rng.gen_range(0..RawRangeFamily::ALL.len())];
        self.raw_case_of_family(family)
    }

    /// Generates a raw-header case of a specific family.
    pub fn raw_case_of_family(&mut self, family: RawRangeFamily) -> RawRangeCase {
        use RawRangeFamily::*;
        let fs = self.file_size;
        let value = match family {
            Canonical => self
                .try_next_case()
                .map(|case| case.header.to_string())
                .unwrap_or_else(|_| "bytes=0-0".to_string()),
            SuffixTail => format!("bytes=-{}", self.rng.gen_range(0..=fs.saturating_mul(2))),
            HugeLast => match self.rng.gen_range(0..3u8) {
                0 => "bytes=0-18446744073709551615".to_string(),
                1 => format!("bytes={}-18446744073709551615", self.rng.gen_range(0..fs)),
                _ => "bytes=18446744073709551614-18446744073709551615".to_string(),
            },
            WhitespaceList => {
                let specs: Vec<String> = (0..self.rng.gen_range(2..=4u64))
                    .map(|i| format!("{}-{}", i * 10, i * 10 + self.rng.gen_range(0..5u64)))
                    .collect();
                let sep = [", ", " , ", ",\t", ",,", ", , "][self.rng.gen_range(0..5usize)];
                let unit = ["bytes=", "bytes ="][self.rng.gen_range(0..2usize)];
                format!("{unit}{}", specs.join(sep))
            }
            DescendingSet => {
                let hi = self.rng.gen_range(fs / 2..fs).max(1);
                let lo_last = self.rng.gen_range(0..hi);
                format!("bytes={hi}-{},0-{lo_last}", hi.saturating_add(9))
            }
            ManySmall => {
                let count = self.rng.gen_range(32..=100u64);
                let specs: Vec<String> = (0..count).map(|i| format!("{0}-{0}", i * 2)).collect();
                format!("bytes={}", specs.join(","))
            }
            CaseUnit => {
                let unit = ["Bytes", "BYTES", "bYtEs"][self.rng.gen_range(0..3usize)];
                format!("{unit}=0-{}", self.rng.gen_range(0..fs))
            }
            UnknownUnit => {
                ["bits=0-1", "octets=0-100", "chars=-5"][self.rng.gen_range(0..3usize)].to_string()
            }
            ReversedBounds => {
                let lo = self.rng.gen_range(0..fs);
                format!("bytes={}-{lo}", lo.saturating_add(self.rng.gen_range(1..9)))
            }
            OverflowOffset => [
                "bytes=0-18446744073709551616",
                "bytes=99999999999999999999-",
                "bytes=-18446744073709551616",
            ][self.rng.gen_range(0..3usize)]
            .to_string(),
            BareSuffix => "bytes=-".to_string(),
            EmptySet => ["bytes=", "bytes", "bytes=,", "bytes=, ,"][self.rng.gen_range(0..4usize)]
                .to_string(),
            MissingEquals => format!("bytes 0-{}", self.rng.gen_range(0..fs)),
            PlusSign => "bytes=+1-2".to_string(),
            InnerSpace => ["bytes=1 -2", "bytes=1- 2", "bytes=0 - 0"]
                [self.rng.gen_range(0..3usize)]
            .to_string(),
            DoubleDash => ["bytes=--5", "bytes=0--5"][self.rng.gen_range(0..2usize)].to_string(),
            Garbage => {
                const ALPHABET: &[u8] = b"abz019-,;=~ ";
                let len = self.rng.gen_range(1..=20usize);
                let junk: String = (0..len)
                    .map(|_| ALPHABET[self.rng.gen_range(0..ALPHABET.len())] as char)
                    .collect();
                format!("x-{junk}")
            }
            RepeatedRun => {
                let element = match self.rng.gen_range(0..4u8) {
                    0 => "0-".to_string(),
                    1 => format!("{}-", self.rng.gen_range(0..fs)),
                    2 => format!("-{}", self.rng.gen_range(1..=fs)),
                    _ => {
                        let first = self.rng.gen_range(0..fs);
                        format!("{first}-{}", first + self.rng.gen_range(0..8u64))
                    }
                };
                let count = self.rng.gen_range(16..=128usize);
                let mut elements = vec![element; count];
                let at = self.rng.gen_range(0..count);
                match self.rng.gen_range(0..6u8) {
                    // A different element, the last one included.
                    0 => elements[at] = format!("-{}", self.rng.gen_range(1..=1024u64)),
                    // Whitespace before one copy.
                    1 => elements[at].insert(0, ' '),
                    // An empty element.
                    2 => elements.insert(at, String::new()),
                    // A leading zero in one copy.
                    3 => {
                        let digits_at = usize::from(elements[at].starts_with('-'));
                        elements[at].insert(digits_at, '0');
                    }
                    // A trailing comma.
                    4 => elements.push(String::new()),
                    // A 22-digit (zero-padded) position.
                    _ => elements[at] = format!("{:0>22}-", self.rng.gen_range(0..fs)),
                }
                format!("bytes={}", elements.join(","))
            }
        };
        RawRangeCase {
            family,
            expectation: family.expectation(),
            value,
        }
    }
}

/// The structural family of a raw (possibly malformed) `Range` header
/// value produced for the conformance fuzzer — boundary shapes, syntax
/// torture, and outright garbage, alongside the canonical valid cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RawRangeFamily {
    /// A canonical valid header from the ABNF generator.
    Canonical,
    /// `bytes=-N` suffixes, including the degenerate `bytes=-0`.
    SuffixTail,
    /// Last-byte offsets at the top of the u64 space.
    HugeLast,
    /// Valid sets with RFC 7230 list extensions: optional whitespace and
    /// empty elements around commas, and a space before `=`.
    WhitespaceList,
    /// Valid sets listed in descending byte order.
    DescendingSet,
    /// 32–100 tiny disjoint ranges (the origin's egregious-set shape).
    ManySmall,
    /// `Bytes=`/`BYTES=` unit-case variants (rejected by the strict
    /// parser, so the pipeline must treat the header as absent).
    CaseUnit,
    /// Unknown range units (`bits=`, `octets=`…).
    UnknownUnit,
    /// `bytes=9-2` reversed bounds.
    ReversedBounds,
    /// Offsets that overflow u64.
    OverflowOffset,
    /// The bare `bytes=-`.
    BareSuffix,
    /// Empty or all-empty range sets.
    EmptySet,
    /// Missing `=` after the unit.
    MissingEquals,
    /// Signed decimals (`+1`), invalid per `1*DIGIT`.
    PlusSign,
    /// Whitespace inside a range spec.
    InnerSpace,
    /// Doubled dashes.
    DoubleDash,
    /// Unstructured junk that must never parse.
    Garbage,
    /// One element repeated 16–128 times with one perturbation: a
    /// different element, whitespace or a leading zero in one copy, an
    /// empty element, a trailing comma or a 22-digit position. Every
    /// value is valid; it drives the parser's repeated-element matching.
    RepeatedRun,
}

impl RawRangeFamily {
    /// All families, in generation order.
    pub const ALL: [RawRangeFamily; 18] = [
        RawRangeFamily::Canonical,
        RawRangeFamily::SuffixTail,
        RawRangeFamily::HugeLast,
        RawRangeFamily::WhitespaceList,
        RawRangeFamily::DescendingSet,
        RawRangeFamily::ManySmall,
        RawRangeFamily::CaseUnit,
        RawRangeFamily::UnknownUnit,
        RawRangeFamily::ReversedBounds,
        RawRangeFamily::OverflowOffset,
        RawRangeFamily::BareSuffix,
        RawRangeFamily::EmptySet,
        RawRangeFamily::MissingEquals,
        RawRangeFamily::PlusSign,
        RawRangeFamily::InnerSpace,
        RawRangeFamily::DoubleDash,
        RawRangeFamily::Garbage,
        RawRangeFamily::RepeatedRun,
    ];

    /// What the strict parser must do with values of this family.
    pub fn expectation(self) -> ParseExpectation {
        use RawRangeFamily::*;
        match self {
            Canonical | SuffixTail | HugeLast | WhitespaceList | DescendingSet | ManySmall
            | RepeatedRun => ParseExpectation::Parses,
            _ => ParseExpectation::Rejected,
        }
    }
}

/// The grammar oracle's verdict a [`RawRangeFamily`] is generated under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParseExpectation {
    /// [`RangeHeader::parse`] must accept the value.
    Parses,
    /// [`RangeHeader::parse`] must reject the value (and the pipeline
    /// must then ignore the header per RFC 7233 §3.1).
    Rejected,
}

/// A raw `Range` header value plus the family it was drawn from and the
/// parse outcome the grammar demands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRangeCase {
    /// The generation family.
    pub family: RawRangeFamily,
    /// What the parser must do with it.
    pub expectation: ParseExpectation,
    /// The raw header value.
    pub value: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generated_cases_reparse() {
        // The roundtrip check lives inside try_case_of_kind now: a
        // generator/parser disagreement is an Err (a recordable fuzzer
        // finding), never a panic.
        let mut gen = RangeRequestGenerator::new(42, 10 * 1024 * 1024);
        for _ in 0..500 {
            let case = gen
                .try_next_case()
                .expect("generator and parser agree on every seed-42 case");
            assert_eq!(
                RangeHeader::parse(&case.header.to_string()).as_ref(),
                Ok(&case.header)
            );
        }
    }

    #[test]
    fn fallible_and_panicking_paths_agree() {
        let mut a = RangeRequestGenerator::new(11, 1 << 20);
        let mut b = RangeRequestGenerator::new(11, 1 << 20);
        for kind in RangeCaseKind::ALL {
            assert_eq!(a.case_of_kind(kind), b.try_case_of_kind(kind).unwrap());
        }
    }

    #[test]
    fn raw_families_meet_their_parse_expectation() {
        let mut gen = RangeRequestGenerator::new(42, 1 << 20);
        for _ in 0..500 {
            let case = gen.next_raw_case();
            let parsed = RangeHeader::parse(&case.value);
            match case.expectation {
                ParseExpectation::Parses => {
                    let header = parsed.unwrap_or_else(|e| {
                        panic!("{:?} value {:?} must parse: {e}", case.family, case.value)
                    });
                    // Canonical display is parse-stable.
                    assert_eq!(RangeHeader::parse(&header.to_string()), Ok(header));
                }
                ParseExpectation::Rejected => assert!(
                    parsed.is_err(),
                    "{:?} value {:?} must be rejected, parsed as {:?}",
                    case.family,
                    case.value,
                    parsed
                ),
            }
        }
    }

    #[test]
    fn raw_cases_deterministic_for_same_seed() {
        let mut a = RangeRequestGenerator::new(5, 4096);
        let mut b = RangeRequestGenerator::new(5, 4096);
        for _ in 0..200 {
            assert_eq!(a.next_raw_case(), b.next_raw_case());
        }
    }

    #[test]
    fn every_raw_family_is_reachable() {
        let mut gen = RangeRequestGenerator::new(1, 4096);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(gen.next_raw_case().family);
        }
        assert_eq!(seen.len(), RawRangeFamily::ALL.len());
    }

    #[test]
    fn all_generated_cases_satisfiable() {
        let size = 4096;
        let mut gen = RangeRequestGenerator::new(7, size);
        for case in gen.cases(500) {
            assert!(
                !case.header.resolve(size).is_empty(),
                "case {} should be satisfiable for {size}",
                case.header
            );
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: Vec<_> = RangeRequestGenerator::new(1, 1024).cases(50);
        let b: Vec<_> = RangeRequestGenerator::new(1, 1024).cases(50);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = RangeRequestGenerator::new(1, 1024).cases(50);
        let b: Vec<_> = RangeRequestGenerator::new(2, 1024).cases(50);
        assert_ne!(a, b);
    }

    #[test]
    fn probe_set_covers_every_kind_once() {
        let mut gen = RangeRequestGenerator::new(3, 1 << 20);
        let probes = gen.probe_set();
        assert_eq!(probes.len(), RangeCaseKind::ALL.len());
        for (case, kind) in probes.iter().zip(RangeCaseKind::ALL) {
            assert_eq!(case.kind, kind);
        }
    }

    #[test]
    fn overlapping_cases_really_overlap() {
        let mut gen = RangeRequestGenerator::new(5, 1 << 16);
        let case = gen.case_of_kind(RangeCaseKind::MultiOverlapping);
        assert!(case.header.overlapping_pairs(1 << 16) > 0);
    }

    #[test]
    fn tiny_file_does_not_panic() {
        let mut gen = RangeRequestGenerator::new(9, 1);
        for case in gen.cases(100) {
            assert!(!case.header.resolve(1).is_empty() || case.header.is_multi());
        }
    }
}
