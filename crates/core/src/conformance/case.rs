//! Fuzz-case vocabulary and the committed-corpus text format.
//!
//! A case is either a *pipeline* case — a structured client request
//! (resource size, raw `Range` value, `If-Range` validator kind, padding)
//! replayed through every vendor edge — or a *wire* case: mutated request
//! bytes pushed through the `wire.rs` parse→emit roundtrip.
//!
//! Cases serialize to a line-oriented text format so minimised findings
//! can live in `tests/corpus/` and replay as a normal `cargo test`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rangeamp_http::range::{ParseExpectation, RangeRequestGenerator, RawRangeFamily};
use rangeamp_http::{wire, Request};

use crate::TARGET_PATH;

/// Resource sizes exercised by the fuzzer, ascending. The large entries
/// straddle the size-conditional vendor branches (Azure 8/16 MB windows,
/// Huawei and CloudFront 10 MB thresholds).
pub const SIZE_PALETTE: [u64; 7] = [
    1,
    1024,
    64 * 1024,
    1024 * 1024,
    9 * 1024 * 1024,
    12 * 1024 * 1024,
    25 * 1024 * 1024,
];

/// How many leading palette entries count as "small" (multi-range and
/// malformed shapes are confined to these to bound multipart copy cost).
const SMALL_SIZES: usize = 4;

/// The `If-Range` validator attached to a pipeline case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfRangeKind {
    /// No `If-Range` header.
    None,
    /// The resource's current strong ETag (matches).
    MatchingEtag,
    /// A strong ETag for a different representation (fails).
    StaleEtag,
    /// A weak ETag (`W/"..."`) — never matches per RFC 7232.
    WeakEtag,
    /// The resource's exact `Last-Modified` date (matches).
    MatchingDate,
    /// A different HTTP-date (fails).
    StaleDate,
    /// A value that is neither a quoted tag nor the current date.
    Malformed,
}

impl IfRangeKind {
    /// Every kind, in corpus-name order.
    pub const ALL: [IfRangeKind; 7] = [
        IfRangeKind::None,
        IfRangeKind::MatchingEtag,
        IfRangeKind::StaleEtag,
        IfRangeKind::WeakEtag,
        IfRangeKind::MatchingDate,
        IfRangeKind::StaleDate,
        IfRangeKind::Malformed,
    ];

    /// Stable name used in the corpus text format.
    pub fn name(self) -> &'static str {
        match self {
            IfRangeKind::None => "none",
            IfRangeKind::MatchingEtag => "matching-etag",
            IfRangeKind::StaleEtag => "stale-etag",
            IfRangeKind::WeakEtag => "weak-etag",
            IfRangeKind::MatchingDate => "matching-date",
            IfRangeKind::StaleDate => "stale-date",
            IfRangeKind::Malformed => "malformed",
        }
    }

    /// Inverse of [`IfRangeKind::name`].
    pub fn from_name(name: &str) -> Option<IfRangeKind> {
        IfRangeKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the origin will honor a `Range` header accompanied by this
    /// validator (a failed or malformed validator voids the range).
    pub fn origin_honors_range(self) -> bool {
        matches!(
            self,
            IfRangeKind::None | IfRangeKind::MatchingEtag | IfRangeKind::MatchingDate
        )
    }
}

/// One structured pipeline case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// Complete length of the synthetic target resource.
    pub size: u64,
    /// Raw `Range` header value as the client sends it.
    pub range: String,
    /// What the generator promised about `range`'s parse outcome
    /// (`None` for corpus entries, which carry no generation metadata).
    pub expect: Option<ParseExpectation>,
    /// `If-Range` validator kind.
    pub if_range: IfRangeKind,
    /// Length of an `X-Fuzz-Pad` filler header (exercises header limits).
    pub pad: u32,
}

/// One wire-level case: raw request bytes for the parse→emit roundtrip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCase {
    /// The (possibly mutated) request bytes.
    pub raw: Vec<u8>,
}

/// A corpus entry: any replayable case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusEntry {
    /// A structured pipeline case.
    Pipeline(FuzzCase),
    /// A wire roundtrip case.
    Wire(WireCase),
}

/// Fraction denominators for the deterministic case mix.
const WIRE_EVERY: u64 = 4; // index % 4 == 3 → wire case
const LARGE_EVERY: u64 = 8; // 1-in-8 pipeline cases use a large size

/// Generates the case for unit `index`; the per-case RNG stream is keyed
/// by `(seed, index)` so every index yields an independent case and any
/// executor shard can regenerate case `i` without shared state.
pub fn generate(index: u64, seed: u64) -> CorpusEntry {
    let mut rng = StdRng::seed_from_u64(mix(seed, index));
    if index % WIRE_EVERY == WIRE_EVERY - 1 {
        CorpusEntry::Wire(generate_wire(&mut rng))
    } else {
        CorpusEntry::Pipeline(generate_pipeline(&mut rng))
    }
}

/// SplitMix64 finalizer over the `(seed, index)` pair — adjacent indices
/// must not produce correlated `StdRng` streams.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn generate_pipeline(rng: &mut StdRng) -> FuzzCase {
    let large = rng.gen_range(0..LARGE_EVERY) == 0;
    let size = if large {
        SIZE_PALETTE
            [SMALL_SIZES + rng.gen_range(0..(SIZE_PALETTE.len() - SMALL_SIZES) as u64) as usize]
    } else {
        SIZE_PALETTE[rng.gen_range(0..SMALL_SIZES as u64) as usize]
    };
    let (range, expect) = if large {
        generate_large_range(rng, size)
    } else {
        let mut gen = RangeRequestGenerator::new(rng.gen::<u64>(), size);
        let raw = gen.next_raw_case();
        (raw.value, Some(raw.expectation))
    };
    let pad = if rng.gen_range(0..16u64) == 0 {
        rng.gen_range(0..100_000u64) as u32
    } else {
        0
    };
    let if_range = if rng.gen_range(0..4u64) == 0 {
        IfRangeKind::ALL[1 + rng.gen_range(0..(IfRangeKind::ALL.len() - 1) as u64) as usize]
    } else {
        IfRangeKind::None
    };
    FuzzCase {
        size,
        range,
        expect,
        if_range,
        pad,
    }
}

/// Large files get single-range shapes biased toward the vendors'
/// size-threshold boundaries (multi-range sets add nothing there but
/// multipart copy cost).
fn generate_large_range(rng: &mut StdRng, size: u64) -> (String, Option<ParseExpectation>) {
    const MB: u64 = 1024 * 1024;
    if rng.gen_range(0..2u64) == 0 {
        // A boundary-biased valid single range.
        let a = boundary_offset(rng, size);
        let value = match rng.gen_range(0..3u64) {
            0 => {
                let b = boundary_offset(rng, size);
                format!("bytes={}-{}", a.min(b), a.max(b))
            }
            1 => format!("bytes={a}-"),
            _ => format!("bytes=-{}", a.max(1)),
        };
        (value, Some(ParseExpectation::Parses))
    } else {
        const SINGLE: [RawRangeFamily; 8] = [
            RawRangeFamily::SuffixTail,
            RawRangeFamily::HugeLast,
            RawRangeFamily::CaseUnit,
            RawRangeFamily::UnknownUnit,
            RawRangeFamily::ReversedBounds,
            RawRangeFamily::OverflowOffset,
            RawRangeFamily::BareSuffix,
            RawRangeFamily::Garbage,
        ];
        let family = SINGLE[rng.gen_range(0..SINGLE.len() as u64) as usize];
        let mut gen = RangeRequestGenerator::new(rng.gen::<u64>(), MB.min(size));
        let raw = gen.raw_case_of_family(family);
        (raw.value, Some(raw.expectation))
    }
}

fn boundary_offset(rng: &mut StdRng, size: u64) -> u64 {
    const MB: u64 = 1024 * 1024;
    const POINTS: [u64; 8] = [
        0,
        1,
        4095,
        8 * MB - 1,
        8 * MB,
        8 * MB + 1,
        16 * MB - 1,
        16 * MB,
    ];
    match rng.gen_range(0..10u64) {
        p @ 0..=7 => POINTS[p as usize].min(size - 1),
        8 => size - 1,
        _ => rng.gen_range(0..size),
    }
}

/// Builds a well-formed request, encodes it, then applies a deterministic
/// byte-level mutation (or none, for straight roundtrip coverage).
fn generate_wire(rng: &mut StdRng) -> WireCase {
    const RANGES: [&str; 6] = [
        "bytes=0-0",
        "bytes=0-0,2-2",
        "bytes=-1",
        "bytes=100-",
        "bits=0-1",
        "bytes=5-2",
    ];
    let mut builder = Request::get(TARGET_PATH).header("Host", "victim.example");
    if rng.gen_range(0..4u64) != 0 {
        builder = builder.header(
            "Range",
            RANGES[rng.gen_range(0..RANGES.len() as u64) as usize],
        );
    }
    if rng.gen_range(0..4u64) == 0 {
        builder = builder.header("If-Range", "\"stale\"");
    }
    let mut raw = wire::encode_request(&builder.build());
    let mutations = rng.gen_range(0..3u64);
    for _ in 0..mutations {
        mutate(rng, &mut raw);
    }
    WireCase { raw }
}

fn mutate(rng: &mut StdRng, raw: &mut Vec<u8>) {
    if raw.is_empty() {
        raw.push(b'G');
        return;
    }
    let pos = rng.gen_range(0..raw.len() as u64) as usize;
    match rng.gen_range(0..5u64) {
        0 => raw.truncate(pos),
        1 => raw[pos] ^= 1 << rng.gen_range(0..8u64),
        2 => raw.insert(pos, rng.gen_range(0..=255u64) as u8),
        3 => {
            raw.remove(pos);
        }
        _ => {
            // Duplicate a short run starting at `pos`.
            let end = (pos + 1 + rng.gen_range(0..16u64) as usize).min(raw.len());
            let run: Vec<u8> = raw[pos..end].to_vec();
            raw.splice(pos..pos, run);
        }
    }
}

impl CorpusEntry {
    /// Serializes the entry to the corpus text format. Lines starting with
    /// `#` are comments; the `range` line is last because its value is
    /// free-form (it never contains a newline by construction).
    pub fn to_text(&self) -> String {
        match self {
            CorpusEntry::Pipeline(case) => {
                let mut text = String::from("kind: pipeline\n");
                text.push_str(&format!("size: {}\n", case.size));
                text.push_str(&format!("if-range: {}\n", case.if_range.name()));
                text.push_str(&format!("pad: {}\n", case.pad));
                if let Some(expect) = case.expect {
                    let word = match expect {
                        ParseExpectation::Parses => "parses",
                        ParseExpectation::Rejected => "rejected",
                    };
                    text.push_str(&format!("expect: {word}\n"));
                }
                text.push_str(&format!("range: {}\n", case.range));
                text
            }
            CorpusEntry::Wire(case) => {
                let hex: String = case.raw.iter().map(|b| format!("{b:02x}")).collect();
                format!("kind: wire\nhex: {hex}\n")
            }
        }
    }

    /// Parses the corpus text format. `#` lines and blank lines are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line or missing field.
    pub fn from_text(text: &str) -> Result<CorpusEntry, String> {
        let mut kind = None;
        let mut size = None;
        let mut if_range = IfRangeKind::None;
        let mut pad = 0u32;
        let mut expect = None;
        let mut range = None;
        let mut hex = None;
        for line in text.lines() {
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, raw_value) = line
                .split_once(": ")
                .or_else(|| line.split_once(':'))
                .ok_or_else(|| format!("malformed corpus line: {line:?}"))?;
            // Range values are free-form and may carry significant leading
            // or trailing whitespace; every other value is trimmed.
            let value = if key == "range" {
                raw_value
            } else {
                raw_value.trim()
            };
            match key {
                "kind" => kind = Some(value.to_string()),
                "size" => {
                    size = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("bad size {value:?}: {e}"))?,
                    )
                }
                "if-range" => {
                    if_range = IfRangeKind::from_name(value)
                        .ok_or_else(|| format!("unknown if-range kind {value:?}"))?
                }
                "pad" => {
                    pad = value
                        .parse::<u32>()
                        .map_err(|e| format!("bad pad {value:?}: {e}"))?
                }
                "expect" => {
                    expect = Some(match value {
                        "parses" => ParseExpectation::Parses,
                        "rejected" => ParseExpectation::Rejected,
                        other => return Err(format!("unknown expectation {other:?}")),
                    })
                }
                "range" => range = Some(value.to_string()),
                "hex" => hex = Some(value.to_string()),
                other => return Err(format!("unknown corpus key {other:?}")),
            }
        }
        match kind.as_deref() {
            Some("pipeline") => Ok(CorpusEntry::Pipeline(FuzzCase {
                size: size.ok_or("pipeline entry missing size")?,
                range: range.ok_or("pipeline entry missing range")?,
                expect,
                if_range,
                pad,
            })),
            Some("wire") => {
                let hex = hex.ok_or("wire entry missing hex")?;
                if hex.len() % 2 != 0 {
                    return Err("odd-length hex payload".to_string());
                }
                let raw = (0..hex.len())
                    .step_by(2)
                    .map(|i| {
                        u8::from_str_radix(&hex[i..i + 2], 16)
                            .map_err(|e| format!("bad hex at {i}: {e}"))
                    })
                    .collect::<Result<Vec<u8>, String>>()?;
                Ok(CorpusEntry::Wire(WireCase { raw }))
            }
            Some(other) => Err(format!("unknown corpus kind {other:?}")),
            None => Err("corpus entry missing kind".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for index in 0..32u64 {
            assert_eq!(
                generate(index, index * 977 + 5),
                generate(index, index * 977 + 5)
            );
        }
    }

    #[test]
    fn corpus_text_roundtrips() {
        for index in 0..64u64 {
            let entry = generate(index, index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let text = entry.to_text();
            let reparsed = CorpusEntry::from_text(&text)
                .unwrap_or_else(|e| panic!("entry {index} failed to reparse: {e}\n{text}"));
            assert_eq!(entry, reparsed, "entry {index}");
        }
    }

    #[test]
    fn corpus_comments_and_blanks_are_ignored() {
        let text = "# a finding\n\nkind: pipeline\nsize: 1024\nrange: bytes=0-0\n";
        let entry = CorpusEntry::from_text(text).expect("parses");
        match entry {
            CorpusEntry::Pipeline(case) => {
                assert_eq!(case.size, 1024);
                assert_eq!(case.range, "bytes=0-0");
                assert_eq!(case.if_range, IfRangeKind::None);
                assert_eq!(case.pad, 0);
                assert_eq!(case.expect, None);
            }
            CorpusEntry::Wire(_) => panic!("expected pipeline entry"),
        }
    }

    #[test]
    fn each_index_yields_an_independent_case() {
        // Regression: `generate` once seeded the RNG from the master seed
        // alone, so every index produced the same case and the fuzzer had
        // a single-case corpus. Require genuine per-index variety.
        let distinct: std::collections::HashSet<String> =
            (0..64u64).map(|i| generate(i, 42).to_text()).collect();
        assert!(
            distinct.len() >= 48,
            "only {} distinct cases in 64 indices",
            distinct.len()
        );
    }

    #[test]
    fn the_case_mix_exercises_every_range_shape() {
        use rangeamp_http::range::{ByteRangeSpec, RangeHeader};
        let (mut wire, mut rejected, mut multi, mut single_from_to, mut single_other) =
            (0u32, 0u32, 0u32, 0u32, 0u32);
        for index in 0..400u64 {
            match generate(index, 42) {
                CorpusEntry::Wire(_) => wire += 1,
                CorpusEntry::Pipeline(case) => match RangeHeader::parse(&case.range) {
                    Err(_) => rejected += 1,
                    Ok(h) if h.is_multi() => multi += 1,
                    Ok(h) if matches!(h.first_spec(), ByteRangeSpec::FromTo { .. }) => {
                        single_from_to += 1
                    }
                    Ok(_) => single_other += 1,
                },
            }
        }
        // Every shape class must appear often enough that a vendor-policy
        // regression in any rewrite branch is observable within a smoke run.
        for (label, count) in [
            ("wire", wire),
            ("rejected", rejected),
            ("multi-range", multi),
            ("single from-to", single_from_to),
            ("single open/suffix", single_other),
        ] {
            assert!(count >= 10, "{label} underrepresented: {count}/400");
        }
    }

    #[test]
    fn sizes_stay_in_the_palette() {
        for index in 0..200u64 {
            if let CorpusEntry::Pipeline(case) = generate(index, index * 31 + 7) {
                assert!(SIZE_PALETTE.contains(&case.size), "size {}", case.size);
            }
        }
    }
}
