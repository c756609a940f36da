//! `multipart/byteranges` payload construction and parsing (RFC 7233 §4.1,
//! RFC 2046 §5.1.1).
//!
//! A multi-part 206 response is the vehicle of the OBR attack: a BCDN that
//! builds one part per requested range *without checking overlap* turns a
//! 1 KB resource into an `n × (1 KB + part overhead)` payload (paper
//! §IV-C). The builder here is deliberately policy-free — it emits exactly
//! the parts it is given; whether overlapping parts are allowed is decided
//! by the server/CDN layer above.

use bytes::Bytes;

use crate::body::RopeBuilder;
use crate::range::{ContentRange, ResolvedRange};
use crate::{decimal, Body, Error, Result};

/// The boundary string used in examples by RFC 7233 and the paper's Fig 2.
pub const DEFAULT_BOUNDARY: &str = "THIS_STRING_SEPARATES";

/// One part of a multipart/byteranges payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Part {
    /// The part's `Content-Type`.
    pub content_type: String,
    /// The part's `Content-Range`.
    pub content_range: ContentRange,
    /// The part's payload bytes.
    pub body: Body,
}

/// Builds a `multipart/byteranges` payload.
#[derive(Debug, Clone)]
pub struct MultipartBuilder {
    boundary: String,
    content_type: String,
    runs: Vec<PartRun>,
    complete_length: u64,
}

/// `times` consecutive parts with the same range and body.
#[derive(Debug, Clone)]
struct PartRun {
    range: ResolvedRange,
    body: Body,
    times: u64,
}

impl MultipartBuilder {
    /// Starts a builder for a representation of `complete_length` bytes of
    /// the given media type, using [`DEFAULT_BOUNDARY`].
    pub fn new(content_type: &str, complete_length: u64) -> MultipartBuilder {
        MultipartBuilder {
            boundary: DEFAULT_BOUNDARY.to_string(),
            content_type: content_type.to_string(),
            runs: Vec::new(),
            complete_length,
        }
    }

    /// Overrides the boundary string.
    pub fn boundary(mut self, boundary: &str) -> MultipartBuilder {
        self.boundary = boundary.to_string();
        self
    }

    /// Appends a part covering `range` with the matching slice of the
    /// representation. No overlap or ordering checks are performed — that
    /// is precisely the vulnerable behaviour of Table III BCDNs.
    pub fn part(mut self, range: ResolvedRange, body: Body) -> MultipartBuilder {
        self.runs.push(PartRun {
            range,
            body,
            times: 1,
        });
        self
    }

    /// Appends `times` parts per `(range, times)` run, in order, taking
    /// each part's body from `body_of`. Neighbouring runs of the same range
    /// (the OBR shape `0-,0-,...`) become one: `body_of` is called once
    /// for it, and the built payload holds its framing once, so the cost
    /// follows the number of runs, not of parts.
    pub fn ranges(
        mut self,
        runs: impl IntoIterator<Item = (ResolvedRange, usize)>,
        mut body_of: impl FnMut(&ResolvedRange) -> Body,
    ) -> MultipartBuilder {
        // Runs added before this call may carry another body.
        let added = self.runs.len();
        for (range, times) in runs.into_iter().filter(|&(_, times)| times > 0) {
            match self.runs[added..].last_mut() {
                Some(run) if run.range == range => run.times += times as u64,
                _ => self.runs.push(PartRun {
                    range,
                    body: body_of(&range),
                    times: times as u64,
                }),
            }
        }
        self
    }

    /// Number of parts added so far.
    pub fn part_count(&self) -> usize {
        self.runs.iter().map(|run| run.times as usize).sum()
    }

    /// Value for the response's `Content-Type` header.
    pub fn content_type_header(&self) -> String {
        format!("multipart/byteranges; boundary={}", self.boundary)
    }

    /// Serializes the multipart payload without copying any part bytes.
    ///
    /// The framing is written into one buffer sized up front: each run's
    /// head (CRLF, delimiter, `Content-Type` and `Content-Range` lines)
    /// once, then the closing delimiter. The result is a rope of slices
    /// of that buffer and the part bodies, with a repeated part as one
    /// run, so its cost follows the number of runs, not of parts.
    pub fn build(&self) -> Body {
        let mut framing = Vec::with_capacity(self.framing_len());
        for run in &self.runs {
            // Every head starts with the CRLF that ends the part before
            // it; the first part's head is sliced past it.
            framing.extend_from_slice(b"\r\n--");
            framing.extend_from_slice(self.boundary.as_bytes());
            framing.extend_from_slice(b"\r\nContent-Type: ");
            framing.extend_from_slice(self.content_type.as_bytes());
            framing.extend_from_slice(b"\r\nContent-Range: bytes ");
            decimal::push(&mut framing, run.range.first);
            framing.push(b'-');
            decimal::push(&mut framing, run.range.last);
            framing.push(b'/');
            decimal::push(&mut framing, self.complete_length);
            framing.extend_from_slice(b"\r\n\r\n");
        }
        // The closing delimiter, after the CRLF ending the last part.
        framing.extend_from_slice(b"\r\n--");
        framing.extend_from_slice(self.boundary.as_bytes());
        framing.extend_from_slice(b"--\r\n");
        debug_assert_eq!(framing.len(), self.framing_len());

        let framing = Bytes::from(framing);
        let mut rope = RopeBuilder::with_capacity(2 * self.runs.len() + 1);
        // Where the current run's head starts, its leading CRLF included.
        let mut at = 0;
        for (index, run) in self.runs.iter().enumerate() {
            let end = at + 2 + self.head_len(&run.range);
            let mut times = run.times;
            if index == 0 {
                // The payload starts past the buffer's leading CRLF.
                push_part(&mut rope, framing.slice(at + 2..end), &run.body);
                times -= 1;
            }
            let head = framing.slice(at..end);
            match times {
                0 => {}
                1 => push_part(&mut rope, head, &run.body),
                _ => rope.push_run_of(head, &run.body, times),
            }
            at = end;
        }
        // The closing delimiter; with no parts, past its CRLF too.
        let closing = if self.runs.is_empty() { 2 } else { at };
        rope.push(framing.slice(closing..));
        rope.build()
    }

    /// Exact length of [`MultipartBuilder::build`]'s output without
    /// materializing it (used for traffic projections in the max-n solver).
    pub fn encoded_len(&self) -> u64 {
        let parts: u64 = self
            .runs
            .iter()
            .map(|run| run.times * (self.head_len(&run.range) as u64 + 2 + run.body.len()))
            .sum();
        parts + self.closing_len() as u64
    }

    /// Length of one part's framing up to its body, less the digits of
    /// the part's own range: `--boundary CRLF`, the `Content-Type` line,
    /// the `Content-Range` line and the blank line.
    fn fixed_head_len(&self) -> usize {
        let boundary = 2 + self.boundary.len() + 2;
        let content_type = 14 + self.content_type.len() + 2;
        // "Content-Range: bytes " first "-" last "/" complete CRLF
        let content_range = 21 + 1 + 1 + decimal::digits(self.complete_length) + 2;
        boundary + content_type + content_range + 2
    }

    /// Length of a part's framing up to its body.
    fn head_len(&self, range: &ResolvedRange) -> usize {
        self.fixed_head_len() + part_digits(range)
    }

    /// Length of the closing delimiter `--boundary--CRLF`.
    fn closing_len(&self) -> usize {
        2 + self.boundary.len() + 4
    }

    /// Length of the framing buffer: each run's head with its leading
    /// CRLF, then the closing delimiter with its own.
    fn framing_len(&self) -> usize {
        let heads: usize = self
            .runs
            .iter()
            .map(|run| 2 + self.head_len(&run.range))
            .sum();
        heads + 2 + self.closing_len()
    }
}

/// Appends one part: its head, then its body.
fn push_part(rope: &mut RopeBuilder, head: Bytes, body: &Body) {
    rope.push(head);
    rope.push_body(body);
}

/// Digits of a part's `first` and `last` positions.
fn part_digits(range: &ResolvedRange) -> usize {
    decimal::digits(range.first) + decimal::digits(range.last)
}

/// Parses a multipart/byteranges payload produced with `boundary`.
///
/// # Errors
///
/// Returns [`Error::InvalidMultipart`] on framing errors, missing part
/// headers, or a part body that disagrees with its `Content-Range`.
pub fn parse(body: &[u8], boundary: &str) -> Result<Vec<Part>> {
    let delim = format!("--{boundary}\r\n");
    let closing = format!("--{boundary}--");
    let text_err = |reason: &str| Error::InvalidMultipart(reason.to_string());

    let mut parts = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &body[offset..];
        if rest.starts_with(closing.as_bytes()) {
            return Ok(parts);
        }
        if !rest.starts_with(delim.as_bytes()) {
            return Err(text_err("expected boundary delimiter"));
        }
        offset += delim.len();

        // Part headers end at the first blank line.
        let head_end = body[offset..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| text_err("part headers not terminated"))?;
        let head = &body[offset..offset + head_end];
        offset += head_end + 4;

        let mut content_type = None;
        let mut content_range = None;
        for line in head.split(|&b| b == b'\n') {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if line.is_empty() {
                continue;
            }
            let line = std::str::from_utf8(line).map_err(|_| text_err("non-utf8 part header"))?;
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| text_err("malformed part header"))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-type") {
                content_type = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("content-range") {
                content_range = Some(ContentRange::parse(value)?);
            }
        }
        let content_type = content_type.ok_or_else(|| text_err("part missing Content-Type"))?;
        let content_range = content_range.ok_or_else(|| text_err("part missing Content-Range"))?;
        let part_len = match content_range {
            ContentRange::Satisfied { range, .. } => range.len(),
            ContentRange::Unsatisfied { .. } => {
                return Err(text_err("part with unsatisfied Content-Range"))
            }
        };
        // A hostile Content-Range can claim up to u64::MAX bytes.
        let available = (body.len() - offset) as u64;
        if part_len
            .checked_add(2)
            .is_none_or(|needed| available < needed)
        {
            return Err(text_err("part body truncated"));
        }
        let data = Body::from_bytes(Bytes::copy_from_slice(
            &body[offset..offset + part_len as usize],
        ));
        offset += part_len as usize;
        if &body[offset..offset + 2] != b"\r\n" {
            return Err(text_err("part body not CRLF-terminated"));
        }
        offset += 2;
        parts.push(Part {
            content_type,
            content_range,
            body: data,
        });
    }
}

/// The straightforward copying serializer, kept as the reference the
/// rope-building [`MultipartBuilder::build`] is checked against.
#[cfg(test)]
mod model {
    use super::*;

    pub(super) fn build(builder: &MultipartBuilder) -> Vec<u8> {
        let mut out = Vec::new();
        let parts = builder
            .runs
            .iter()
            .flat_map(|run| (0..run.times).map(move |_| (&run.range, &run.body)));
        for (range, body) in parts {
            out.extend_from_slice(b"--");
            out.extend_from_slice(builder.boundary.as_bytes());
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(b"Content-Type: ");
            out.extend_from_slice(builder.content_type.as_bytes());
            out.extend_from_slice(b"\r\n");
            let content_range = ContentRange::Satisfied {
                range: *range,
                complete_length: builder.complete_length,
            };
            out.extend_from_slice(b"Content-Range: ");
            out.extend_from_slice(content_range.to_string().as_bytes());
            out.extend_from_slice(b"\r\n\r\n");
            out.extend_from_slice(body.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"--");
        out.extend_from_slice(builder.boundary.as_bytes());
        out.extend_from_slice(b"--\r\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(first: u64, last: u64) -> ResolvedRange {
        ResolvedRange { first, last }
    }

    #[test]
    fn builds_the_paper_fig2d_shape() {
        // Fig 2d: two parts of a 1000-byte JPEG, ranges 1-1 and 998-999.
        let payload = MultipartBuilder::new("image/jpeg", 1000)
            .part(r(1, 1), Body::from(vec![0xff]))
            .part(r(998, 999), Body::from(vec![0xd9, 0x00]))
            .build();
        let text = String::from_utf8_lossy(payload.as_bytes()).to_string();
        assert!(text.contains("--THIS_STRING_SEPARATES\r\n"));
        assert!(text.contains("Content-Range: bytes 1-1/1000"));
        assert!(text.contains("Content-Range: bytes 998-999/1000"));
        assert!(text.ends_with("--THIS_STRING_SEPARATES--\r\n"));
    }

    #[test]
    fn encoded_len_matches_build() {
        let builder = MultipartBuilder::new("application/octet-stream", 1 << 20)
            .part(r(0, 1023), Body::from(vec![0u8; 1024]))
            .part(r(0, 1023), Body::from(vec![0u8; 1024]))
            .part(r(512, 2047), Body::from(vec![0u8; 1536]));
        assert_eq!(builder.encoded_len(), builder.build().len());
    }

    #[test]
    fn round_trips_through_parse() {
        let builder = MultipartBuilder::new("text/plain", 100)
            .part(r(0, 9), Body::from(vec![b'a'; 10]))
            .part(r(90, 99), Body::from(vec![b'z'; 10]));
        let payload = builder.build();
        let parts = parse(payload.as_bytes(), DEFAULT_BOUNDARY).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].body.as_bytes(), &[b'a'; 10]);
        assert_eq!(
            parts[1].content_range,
            ContentRange::Satisfied {
                range: r(90, 99),
                complete_length: 100
            }
        );
    }

    #[test]
    fn overlapping_parts_are_not_rejected_here() {
        // The builder is policy-free: overlap checking is the CDN's job.
        let n = 64;
        let mut builder = MultipartBuilder::new("text/plain", 1024);
        for _ in 0..n {
            builder = builder.part(r(0, 1023), Body::from(vec![0u8; 1024]));
        }
        let payload = builder.build();
        let parts = parse(payload.as_bytes(), DEFAULT_BOUNDARY).unwrap();
        assert_eq!(parts.len(), n);
        assert!(payload.len() > 1024 * n as u64);
    }

    #[test]
    fn parse_rejects_bad_framing() {
        assert!(parse(b"garbage", DEFAULT_BOUNDARY).is_err());
        let truncated = b"--THIS_STRING_SEPARATES\r\nContent-Type: a/b\r\n";
        assert!(parse(truncated, DEFAULT_BOUNDARY).is_err());
    }

    #[test]
    fn parse_rejects_part_without_content_range() {
        let raw = b"--B\r\nContent-Type: a/b\r\n\r\nxx\r\n--B--\r\n";
        let err = parse(raw, "B").unwrap_err();
        assert!(matches!(err, Error::InvalidMultipart(_)));
    }

    #[test]
    fn parse_rejects_a_content_range_longer_than_the_payload() {
        // A part length near u64::MAX must not overflow the bounds check.
        let raw = b"--B\r\nContent-Type: a/b\r\nContent-Range: bytes 0-18446744073709551613/18446744073709551615\r\n\r\nxx\r\n--B--\r\n";
        let err = parse(raw, "B").unwrap_err();
        assert_eq!(
            err,
            Error::InvalidMultipart("part body truncated".to_string())
        );
    }

    #[test]
    fn repeated_ranges_build_one_run() {
        let full = Body::from((0..=255u8).collect::<Vec<_>>());
        let ranges = [r(1, 1), r(0, 99), r(0, 99), r(0, 99), r(5, 6)];
        let mut calls = 0;
        let runs = ranges.iter().map(|&range| (range, 1));
        let builder = MultipartBuilder::new("a/b", 256).ranges(runs, |range| {
            calls += 1;
            full.slice(range.first, range.last + 1)
        });
        assert_eq!(calls, 3, "one body per group of equal ranges");
        assert_eq!(builder.part_count(), 5);
        let payload = builder.build();
        // Per part a head and a body, then the closing delimiter.
        assert_eq!(payload.chunks().len(), 11);
        let bodies: Vec<&[u8]> = payload.chunks().skip(3).step_by(2).take(3).collect();
        assert!(bodies
            .iter()
            .all(|b| b.as_ptr() == full.as_bytes().as_ptr()));
        assert_eq!(payload.as_bytes(), model::build(&builder));
        assert_eq!(builder.encoded_len(), payload.len());
        let parts = parse(payload.as_bytes(), DEFAULT_BOUNDARY).unwrap();
        let parsed: Vec<ContentRange> = parts.iter().map(|p| p.content_range).collect();
        let expected: Vec<ContentRange> = ranges
            .iter()
            .map(|&range| ContentRange::Satisfied {
                range,
                complete_length: 256,
            })
            .collect();
        assert_eq!(parsed, expected);

        // A run never merges into a part added before, which may carry
        // another body.
        let builder = MultipartBuilder::new("a/b", 256)
            .part(r(0, 1), Body::from(vec![7, 7]))
            .ranges([(r(0, 1), 2)], |range| {
                full.slice(range.first, range.last + 1)
            });
        let parts = parse(builder.build().as_bytes(), DEFAULT_BOUNDARY).unwrap();
        let bodies: Vec<&[u8]> = parts.iter().map(|p| p.body.as_bytes()).collect();
        assert_eq!(bodies, [&[7u8, 7][..], &[0, 1], &[0, 1]]);
    }

    #[test]
    fn custom_boundary_respected() {
        let builder = MultipartBuilder::new("a/b", 10)
            .boundary("xyz")
            .part(r(0, 1), Body::from(vec![1, 2]));
        assert_eq!(
            builder.content_type_header(),
            "multipart/byteranges; boundary=xyz"
        );
        let parts = parse(builder.build().as_bytes(), "xyz").unwrap();
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn zero_parts_is_just_the_closing_delimiter() {
        let builder = MultipartBuilder::new("a/b", 10);
        let payload = builder.build();
        assert_eq!(payload.as_bytes(), b"--THIS_STRING_SEPARATES--\r\n");
        assert!(parse(payload.as_bytes(), DEFAULT_BOUNDARY)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn build_shares_part_storage() {
        let full = Body::from((0..=255u8).collect::<Vec<_>>());
        let builder = MultipartBuilder::new("a/b", 256)
            .part(r(0, 99), full.slice(0, 100))
            .part(r(0, 99), full.slice(0, 100));
        let payload = builder.build();
        // Framing, body, framing, body, closing delimiter.
        let chunks: Vec<&[u8]> = payload.chunks().collect();
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks[1].as_ptr(), full.as_bytes().as_ptr());
        assert_eq!(chunks[3].as_ptr(), full.as_bytes().as_ptr());
        assert_eq!(payload.as_bytes(), model::build(&builder));
    }

    /// Positions at every digit-count edge (`10^k - 1`, `10^k`) up to
    /// `u64::MAX`, mixed with arbitrary values.
    fn position(select: u64, raw: u64) -> u64 {
        const EDGES: usize = 2 * 19 + 2;
        match (select % (EDGES as u64 + 8)) as usize {
            0 => 0,
            1 => u64::MAX,
            i if i < EDGES => {
                let power = 10u64.pow((i / 2) as u32);
                if i % 2 == 0 {
                    power - 1
                } else {
                    power
                }
            }
            _ => raw,
        }
    }

    proptest! {
        #[test]
        fn build_matches_the_copying_model(
            parts in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>(), 0usize..40),
                0..65,
            ),
            complete in (any::<u64>(), any::<u64>()),
            boundary in "[A-Za-z0-9'()+_,./:=?-]{0,24}",
            content_type in "[a-z]{1,8}/[a-z0-9.+-]{1,12}",
            split in 0usize..40,
            repeats in proptest::collection::vec(1usize..5, 0..65),
        ) {
            let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37)).collect();
            let complete = position(complete.0, complete.1);
            let parts: Vec<(ResolvedRange, Body)> = parts
                .iter()
                .enumerate()
                .map(|(i, (a, b, select, len))| {
                    let (a, b) = (position(*select, *a), position(select.rotate_left(7), *b));
                    let range = ResolvedRange { first: a.min(b), last: a.max(b) };
                    // Flat bodies, empty bodies and two-chunk rope bodies.
                    let body = if i % 3 == 2 {
                        let cut = split.min(*len);
                        Body::from_chunks([
                            Bytes::copy_from_slice(&data[..cut]),
                            Bytes::copy_from_slice(&data[cut..*len]),
                        ])
                    } else {
                        Body::from(data[..*len].to_vec())
                    };
                    (range, body)
                })
                .collect();
            // Every case also checks its 0-, 1- and 2-part prefixes.
            for take in [0, 1, 2, parts.len()] {
                let mut builder = MultipartBuilder::new(&content_type, complete);
                if !boundary.is_empty() {
                    builder = builder.boundary(&boundary);
                }
                for (range, body) in parts.iter().take(take) {
                    builder = builder.part(*range, body.clone());
                }
                let expected = model::build(&builder);
                let built = builder.build();
                prop_assert_eq!(built.as_bytes(), expected.as_slice());
                prop_assert_eq!(built.len(), expected.len() as u64);
                prop_assert_eq!(builder.encoded_len(), built.len());
                prop_assert!(built == Body::from(expected));
            }

            // The same parts, with each range repeated, through `ranges`:
            // one run per group of equal ranges, and the same bytes as
            // adding every part on its own.
            let body_of = |range: &ResolvedRange| -> Body {
                let len = (range.first % 41) as usize;
                let cut = split.min(len);
                Body::from_chunks([
                    Bytes::copy_from_slice(&data[..cut]),
                    Bytes::copy_from_slice(&data[cut..len]),
                ])
            };
            let given: Vec<(ResolvedRange, usize)> = parts
                .iter()
                .zip(repeats.iter().chain(std::iter::repeat(&1)))
                .map(|((range, _), &times)| (*range, times))
                .collect();
            let ranges: Vec<ResolvedRange> = given
                .iter()
                .flat_map(|&(range, times)| std::iter::repeat_n(range, times))
                .collect();
            let runs = MultipartBuilder::new(&content_type, complete)
                .ranges(ranges.iter().map(|&range| (range, 1)), body_of);
            let given = MultipartBuilder::new(&content_type, complete).ranges(given, body_of);
            prop_assert!(given.build() == runs.build());
            let each = ranges
                .iter()
                .fold(MultipartBuilder::new(&content_type, complete), |b, range| {
                    b.part(*range, body_of(range))
                });
            let (built, expected) = (runs.build(), each.build());
            prop_assert_eq!(runs.part_count(), ranges.len());
            let modelled = model::build(&each);
            prop_assert_eq!(built.as_bytes(), modelled.as_slice());
            prop_assert!(built == expected);
            prop_assert_eq!(runs.encoded_len(), built.len());
            prop_assert_eq!(built.chunks().len(), expected.chunks().len());
            let joined: Vec<u8> = built.chunks().flat_map(|c| c.iter().copied()).collect();
            prop_assert_eq!(joined.as_slice(), expected.as_bytes());
            // Slices across run boundaries agree with the flat payload.
            let len = built.len();
            for (start, end) in [(0, len), (len / 3, len - len / 5), (len / 2, len / 2 + 7)] {
                let end = end.min(len);
                let start = start.min(end);
                let slice = built.slice(start, end);
                prop_assert_eq!(
                    slice.as_bytes(),
                    &expected.as_bytes()[start as usize..end as usize]
                );
            }
        }
    }
}
