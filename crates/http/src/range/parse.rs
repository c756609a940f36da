//! Hand-written parser for the RFC 7233 `Range` and `Content-Range` ABNF.
//!
//! ```text
//! Range             = byte-ranges-specifier / other-ranges-specifier
//! byte-ranges-specifier = bytes-unit "=" byte-range-set
//! byte-range-set    = 1#( byte-range-spec / suffix-byte-range-spec )
//! byte-range-spec   = first-byte-pos "-" [ last-byte-pos ]
//! suffix-byte-range-spec = "-" suffix-length
//! ```
//!
//! Per RFC 7230 §7 the `1#rule` list form tolerates optional whitespace
//! around commas and empty list elements; real CDN parsers accept those, so
//! this parser does too (the generator exercises them).

use super::{ByteRangeSpec, ContentRange, ResolvedRange, Runs};
use crate::{Error, Result};

/// Parses a `Range` header value in one pass over its bytes into runs of
/// equal specs, and reports whether the value is exactly the canonical
/// text of the parsed header: no space before `=`, no whitespace or empty
/// list elements, no leading zeros. Equivalent to the `split(',')` parser
/// kept as `model` below.
///
/// An element followed by exact copies of its own text, comma included,
/// is parsed once: the copies are counted by [`repeats`] in O(log n)
/// block comparisons, so `bytes=0-,0-,...,0-` costs O(log n) `memcmp`s
/// on top of its first element.
pub(super) fn parse_range_header(value: &str) -> Result<(Runs, bool)> {
    Scanner::new(value.as_bytes())
        .byte_range_set()
        .ok_or_else(|| Error::InvalidRange(value.to_string()))
}

/// Cursor over a `Range` value, tracking whether everything consumed so
/// far is canonical.
struct Scanner<'a> {
    rest: &'a [u8],
    canonical: bool,
}

impl<'a> Scanner<'a> {
    fn new(bytes: &'a [u8]) -> Scanner<'a> {
        Scanner {
            rest: bytes,
            canonical: true,
        }
    }

    fn byte_range_set(mut self) -> Option<(Runs, bool)> {
        self.rest = self.rest.strip_prefix(b"bytes")?;
        while let [b' ', rest @ ..] = self.rest {
            self.rest = rest;
            self.canonical = false;
        }
        self.rest = self.rest.strip_prefix(b"=")?;
        let mut runs = Runs::default();
        loop {
            let element = self.rest;
            self.skip_ows();
            let spec = match self.rest {
                // The set is empty or ends in an empty element.
                [] => {
                    self.canonical = false;
                    break;
                }
                // Empty list elements are tolerated by the list extension.
                [b',', rest @ ..] => {
                    self.rest = rest;
                    self.canonical = false;
                    continue;
                }
                _ => self.spec()?,
            };
            self.skip_ows();
            match self.rest {
                [] => {
                    runs.push(spec, 1);
                    break;
                }
                [b',', rest @ ..] => self.rest = rest,
                _ => return None,
            }
            // Every byte the element's parse looked at lies before its
            // comma, so a copy of its text parses to the same spec and
            // leaves the canonical flag as the element did.
            let unit = &element[..element.len() - self.rest.len()];
            let copies = repeats(unit, self.rest);
            self.rest = &self.rest[copies * unit.len()..];
            runs.push(spec, 1 + copies);
        }
        if runs.len == 0 {
            return None;
        }
        Some((runs, self.canonical))
    }

    /// Optional whitespace around a list element (RFC 7230 §7).
    fn skip_ows(&mut self) {
        while let [b' ' | b'\t', rest @ ..] = self.rest {
            self.rest = rest;
            self.canonical = false;
        }
    }

    fn spec(&mut self) -> Option<ByteRangeSpec> {
        if let [b'-', rest @ ..] = self.rest {
            // suffix-byte-range-spec
            self.rest = rest;
            return Some(ByteRangeSpec::Suffix {
                len: self.number()?,
            });
        }
        let first = self.number()?;
        self.rest = self.rest.strip_prefix(b"-")?;
        if !self.rest.first().is_some_and(u8::is_ascii_digit) {
            return Some(ByteRangeSpec::From { first });
        }
        let last = self.number()?;
        (last >= first).then_some(ByteRangeSpec::FromTo { first, last })
    }

    /// Strict `1*DIGIT` that fits a `u64`.
    fn number(&mut self) -> Option<u64> {
        let len = self
            .rest
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(self.rest.len());
        let (digits, rest) = self.rest.split_at(len);
        self.rest = rest;
        if let [b'0', _, ..] = digits {
            self.canonical = false;
        }
        if digits.is_empty() {
            return None;
        }
        digits.iter().try_fold(0u64, |n, d| {
            n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        })
    }
}

/// How many copies of `unit` (not empty) `rest` starts with. The matched
/// prefix doubles while the bytes after it repeat it, then blocks of half
/// its size, a quarter and so on down to one `unit` are tried in turn:
/// 2 log2(n) + 1 comparisons for n copies.
fn repeats(unit: &[u8], rest: &[u8]) -> usize {
    if !rest.starts_with(unit) {
        return 0;
    }
    // `rest[..matched]` is `matched / unit.len()` copies, a power of two.
    let mut matched = unit.len();
    while rest[matched..].starts_with(&rest[..matched]) {
        matched *= 2;
    }
    let mut block = matched / 2;
    while block >= unit.len() {
        if rest[matched..].starts_with(&rest[..block]) {
            matched += block;
        }
        block /= 2;
    }
    matched / unit.len()
}

/// Strict `1*DIGIT` — no signs, no whitespace, no empty string.
fn parse_decimal(digits: &str) -> Option<u64> {
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

pub(super) fn parse_content_range(value: &str) -> Result<ContentRange> {
    let err = || Error::InvalidContentRange(value.to_string());

    let rest = value.strip_prefix("bytes ").ok_or_else(err)?;
    let (range_part, complete_part) = rest.split_once('/').ok_or_else(err)?;
    let complete_length = if complete_part == "*" {
        // `bytes x-y/*` is legal but useless to the testbed; reject so
        // callers notice an origin emitting unknown lengths.
        return Err(err());
    } else {
        parse_decimal(complete_part).ok_or_else(err)?
    };

    if range_part == "*" {
        return Ok(ContentRange::Unsatisfied { complete_length });
    }
    let (first, last) = range_part.split_once('-').ok_or_else(err)?;
    let first = parse_decimal(first).ok_or_else(err)?;
    let last = parse_decimal(last).ok_or_else(err)?;
    if last < first || last >= complete_length {
        return Err(err());
    }
    Ok(ContentRange::Satisfied {
        range: ResolvedRange { first, last },
        complete_length,
    })
}

/// The `split(',')` parser the scanner replaced, kept as the reference
/// it is checked against.
#[cfg(test)]
mod model {
    use super::*;

    pub(super) fn parse_range_header(value: &str) -> Result<Vec<ByteRangeSpec>> {
        let err = || Error::InvalidRange(value.to_string());

        let rest = value.strip_prefix("bytes").ok_or_else(err)?;
        let rest = rest.trim_start_matches(' ');
        let set = rest.strip_prefix('=').ok_or_else(err)?;

        let mut specs = Vec::new();
        for element in set.split(',') {
            let element = element.trim_matches(|c| c == ' ' || c == '\t');
            if element.is_empty() {
                continue;
            }
            specs.push(parse_spec(element).ok_or_else(err)?);
        }
        if specs.is_empty() {
            return Err(err());
        }
        Ok(specs)
    }

    fn parse_spec(element: &str) -> Option<ByteRangeSpec> {
        if let Some(suffix) = element.strip_prefix('-') {
            let len = parse_decimal(suffix)?;
            return Some(ByteRangeSpec::Suffix { len });
        }
        let (first, last) = element.split_once('-')?;
        let first = parse_decimal(first)?;
        if last.is_empty() {
            Some(ByteRangeSpec::From { first })
        } else {
            let last = parse_decimal(last)?;
            if last < first {
                return None;
            }
            Some(ByteRangeSpec::FromTo { first, last })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::{RangeHeader, RangeRequestGenerator, RawRangeFamily};
    use proptest::prelude::*;

    fn parse_range_header(value: &str) -> Result<RangeHeader> {
        RangeHeader::parse(value)
    }

    /// The scanner and the model agree on `value`: the same error, or the
    /// same specs, with `canonical` set exactly when `value` is the
    /// header's canonical text.
    fn agrees_with_model(value: &str) -> std::result::Result<(), TestCaseError> {
        let scanned = super::parse_range_header(value)
            .map(|(runs, canonical)| (RangeHeader::of(runs), canonical));
        let modelled = model::parse_range_header(value);
        match (scanned, modelled) {
            (Ok((header, canonical)), Ok(expected)) => {
                let specs: Vec<ByteRangeSpec> = header.specs().copied().collect();
                prop_assert_eq!(&specs, &expected, "{:?}", value);
                prop_assert_eq!(header.specs().len(), expected.len());
                prop_assert_eq!(
                    &header,
                    &RangeHeader::new(expected).expect("parsed specs are valid")
                );
                let text = header.to_string();
                prop_assert_eq!(canonical, text == value, "{:?}", value);
            }
            (scanned, modelled) => prop_assert_eq!(scanned.map(|_| ()), modelled.map(|_| ())),
        }
        Ok(())
    }

    #[test]
    fn scanner_matches_the_model_on_every_raw_family() {
        let mut gen = RangeRequestGenerator::new(15, 1 << 20);
        for family in RawRangeFamily::ALL {
            for _ in 0..200 {
                let case = gen.raw_case_of_family(family);
                agrees_with_model(&case.value).unwrap();
            }
        }
    }

    #[test]
    fn scanner_matches_the_model_at_the_edges() {
        for value in [
            "bytes=0-,0-,0-",
            "bytes=00-1",
            "bytes=0-01",
            "bytes=-0",
            "bytes=-00",
            "bytes=0-",
            "bytes=0-,",
            "bytes=,0-",
            "bytes= 0-",
            "bytes=0- ",
            "bytes=\t0-0\t",
            "bytes  =0-0",
            "bytes\t=0-0",
            "bytes=0-0\r",
            "bytes=0-0,\n1-1",
            "bytes=18446744073709551615-",
            "bytes=018446744073709551615-",
            "bytes=18446744073709551616-",
            "bytes=-18446744073709551615",
            "bytes=0-18446744073709551615",
            "bytes=1-0",
            "bytes=5-5",
            "bytes=é",
            "bytesé=0-0",
            "bytes=0-é",
        ] {
            agrees_with_model(value).unwrap();
        }
    }

    #[test]
    fn repeats_counts_whole_copies() {
        for copies in 0..70 {
            for tail in ["", "0", "0-", "0-,", "1-,", "x"] {
                let rest = format!("{}{tail}", "0-,".repeat(copies));
                let whole = copies + usize::from(tail == "0-,");
                assert_eq!(repeats(b"0-,", rest.as_bytes()), whole, "{rest:?}");
            }
        }
        assert_eq!(repeats(b",", b",,,,,x"), 5);
    }

    /// Elements the repeated-element strings are built from: the OBR
    /// shapes, leading zeros, whitespace, 20+ digit numbers (some past
    /// `u64::MAX`) and invalid elements.
    const ELEMENTS: [&str; 14] = [
        "0-",
        "1-",
        "-1024",
        "0-0",
        "5-9",
        "007-",
        " 0-",
        "0-\t",
        "18446744073709551615-",
        "000000000000000000000001-",
        "99999999999999999999-",
        "-0",
        "9-5",
        "",
    ];

    proptest! {
        #[test]
        fn scanner_matches_the_model_on_repeated_elements(
            lead in proptest::option::of(0usize..ELEMENTS.len()),
            element in 0usize..ELEMENTS.len(),
            count in 1usize..300,
            perturbation in 0usize..8,
            at in any::<usize>(),
            other in 0usize..ELEMENTS.len(),
        ) {
            let mut elements = vec![ELEMENTS[element].to_string(); count];
            let at = at % count;
            match perturbation {
                // Whitespace before one repeat.
                0 => elements[at].insert(0, ' '),
                // An empty element.
                1 => elements.insert(at, String::new()),
                // A leading zero in one repeat.
                2 => {
                    let digits_at = usize::from(elements[at].starts_with('-'));
                    elements[at].insert(digits_at, '0');
                }
                // A trailing comma.
                3 => elements.push(String::new()),
                // A different last element.
                4 => elements[count - 1] = ELEMENTS[other].to_string(),
                // A different element anywhere.
                5 => elements[at] = ELEMENTS[other].to_string(),
                // None.
                _ => {}
            }
            if let Some(lead) = lead {
                elements.insert(0, ELEMENTS[lead].to_string());
            }
            agrees_with_model(&format!("bytes={}", elements.join(",")))?;
        }

        #[test]
        fn scanner_matches_the_model_on_the_obr_shapes(
            lead in 0usize..3,
            count in 1usize..2_000,
            tail in 0usize..3,
        ) {
            let lead = ["", "-1024,", "1-,"][lead];
            let tail = ["", ",", ",1-"][tail];
            let value = format!("bytes={lead}{}{tail}", vec!["0-"; count].join(","));
            agrees_with_model(&value)?;
            let header = RangeHeader::parse(&value).unwrap();
            prop_assert!(header.runs().len() <= 3, "{:?}", header.runs());
        }

        #[test]
        fn scanner_matches_the_model_on_byteish_strings(
            unit in 0usize..6,
            body in "[0-9 ,\t=-]{0,40}",
        ) {
            let unit = ["bytes=", "bytes", "bytes ", "bytes =", "bytes  =", ""][unit];
            agrees_with_model(&format!("{unit}{body}"))?;
        }

        #[test]
        fn scanner_matches_the_model_on_long_numbers(
            specs in proptest::collection::vec((0u8..4, "[0-9]{1,22}", "[0-9]{1,22}"), 1..6),
            sep in 0usize..4,
        ) {
            let sep = [",", ", ", " ,\t", ",,"][sep];
            let elements: Vec<String> = specs
                .iter()
                .map(|(kind, a, b)| match kind {
                    0 => format!("{a}-{b}"),
                    1 => format!("{a}-"),
                    2 => format!("-{b}"),
                    _ => format!("{a}-{a}"),
                })
                .collect();
            agrees_with_model(&format!("bytes={}", elements.join(sep)))?;
        }
    }

    #[test]
    fn parses_all_three_spec_forms() {
        let header = parse_range_header("bytes=0-0,5-,-128").unwrap();
        assert_eq!(
            header.specs().copied().collect::<Vec<_>>(),
            [
                ByteRangeSpec::FromTo { first: 0, last: 0 },
                ByteRangeSpec::From { first: 5 },
                ByteRangeSpec::Suffix { len: 128 },
            ]
        );
    }

    #[test]
    fn tolerates_list_whitespace_and_empty_elements() {
        let header = parse_range_header("bytes=0-0, 1-1 ,,2-2").unwrap();
        assert_eq!(header.specs().len(), 3);
    }

    #[test]
    fn rejects_malformed_values() {
        for bad in [
            "bytes",
            "bytes=",
            "bytes=,",
            "bytes=a-b",
            "bytes=5-2",
            "bytes=--5",
            "bytes=0--5",
            "octets=0-0",
            "bytes=0-0x",
            "bytes=+1-2",
            "bytes=1 -2",
        ] {
            assert!(parse_range_header(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn huge_values_parse_up_to_u64() {
        let header = parse_range_header("bytes=0-18446744073709551615").unwrap();
        assert_eq!(
            header.first_spec(),
            ByteRangeSpec::FromTo {
                first: 0,
                last: u64::MAX
            }
        );
        assert!(parse_range_header("bytes=0-18446744073709551616").is_err());
    }

    #[test]
    fn content_range_satisfied() {
        let cr = parse_content_range("bytes 0-0/1000").unwrap();
        assert_eq!(
            cr,
            ContentRange::Satisfied {
                range: ResolvedRange { first: 0, last: 0 },
                complete_length: 1000
            }
        );
    }

    #[test]
    fn content_range_unsatisfied() {
        let cr = parse_content_range("bytes */1000").unwrap();
        assert_eq!(
            cr,
            ContentRange::Unsatisfied {
                complete_length: 1000
            }
        );
    }

    #[test]
    fn content_range_rejects_inconsistent_forms() {
        for bad in [
            "bytes 0-0/*",
            "bytes 5-2/1000",
            "bytes 0-1000/1000",
            "bytes0-0/1000",
            "bytes 0-0",
            "bytes a-b/10",
        ] {
            assert!(parse_content_range(bad).is_err(), "should reject {bad:?}");
        }
    }
}
