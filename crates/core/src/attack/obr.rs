//! The Overlapping Byte Ranges (OBR) attack (paper §IV-C).
//!
//! The attacker cascades two CDNs, disables range support on their own
//! origin, and sends a multi-range request with `n` overlapping ranges to
//! the FCDN. A Table II FCDN forwards the header unchanged; a Table III
//! BCDN answers with an `n`-part response — inflating the `fcdn-bcdn`
//! link to roughly `n ×` the resource size while the origin ships the
//! resource once. The attacker caps their own cost with a small receive
//! window.

use rangeamp_cdn::{max_overlapping_ranges, ObrRangeCase, Vendor};
use rangeamp_http::Request;
use serde::Serialize;

use crate::testbed::{CascadeTestbed, TARGET_HOST, TARGET_PATH};

/// The 11 cascaded combinations of Table V (4 FCDNs × 3 BCDNs minus the
/// StackPath self-cascade).
pub fn obr_combos() -> Vec<(Vendor, Vendor)> {
    let fcdns = Vendor::ALL
        .iter()
        .copied()
        .filter(Vendor::is_fcdn_vulnerable);
    let mut combos = Vec::new();
    for fcdn in fcdns {
        for bcdn in Vendor::ALL
            .iter()
            .copied()
            .filter(Vendor::is_bcdn_vulnerable)
        {
            if fcdn == bcdn {
                continue; // the paper leaves StackPath→StackPath blank
            }
            combos.push((fcdn, bcdn));
        }
    }
    combos
}

/// Result of one OBR run (one Table V row).
#[derive(Debug, Clone, Serialize)]
pub struct ObrMeasurement {
    /// Front-end CDN.
    pub fcdn: String,
    /// Back-end CDN.
    pub bcdn: String,
    /// Exploited range case in the paper's notation.
    pub exploited_case: String,
    /// Number of overlapping ranges used.
    pub n: usize,
    /// Response bytes on `bcdn-origin` ("Traffic from Server to BCDN").
    pub server_to_bcdn_bytes: u64,
    /// Response bytes on `fcdn-bcdn` ("Traffic from BCDN to FCDN").
    pub bcdn_to_fcdn_bytes: u64,
    /// Response bytes the attacker actually accepted.
    pub attacker_bytes: u64,
}

impl ObrMeasurement {
    /// Table V's amplification factor:
    /// `fcdn-bcdn` bytes ÷ `bcdn-origin` bytes.
    pub fn amplification_factor(&self) -> f64 {
        if self.server_to_bcdn_bytes == 0 {
            return 0.0;
        }
        self.bcdn_to_fcdn_bytes as f64 / self.server_to_bcdn_bytes as f64
    }
}

/// A configured OBR attack.
///
/// # Example
///
/// ```
/// use rangeamp::attack::ObrAttack;
/// use rangeamp_cdn::Vendor;
///
/// let attack = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai);
/// let report = attack.run();
/// // Table V: Cloudflare→Akamai reaches four orders of parts.
/// assert!(report.n > 10_000);
/// assert!(report.amplification_factor() > 1_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct ObrAttack {
    fcdn: Vendor,
    bcdn: Vendor,
    resource_size: u64,
    n: Option<usize>,
    receive_window: u64,
    bcdn_mitigation: Option<rangeamp_cdn::MitigationConfig>,
}

impl ObrAttack {
    /// Configures the attack with the paper's parameters: a 1 KB target
    /// resource and the maximum `n` the header limits allow.
    pub fn new(fcdn: Vendor, bcdn: Vendor) -> ObrAttack {
        ObrAttack {
            fcdn,
            bcdn,
            resource_size: 1024,
            n: None,
            receive_window: 1024,
            bcdn_mitigation: None,
        }
    }

    /// Overrides the target resource size.
    pub fn resource_size(mut self, size: u64) -> ObrAttack {
        self.resource_size = size;
        self
    }

    /// Uses a fixed `n` instead of the solver's maximum.
    pub fn overlapping_ranges(mut self, n: usize) -> ObrAttack {
        self.n = Some(n);
        self
    }

    /// Applies a mitigation at the BCDN (for the §VI-C ablations).
    pub fn with_bcdn_mitigation(mut self, mitigation: rangeamp_cdn::MitigationConfig) -> ObrAttack {
        self.bcdn_mitigation = Some(mitigation);
        self
    }

    /// The exploited range shape Table II permits against this FCDN.
    pub fn range_case(&self) -> ObrRangeCase {
        match self.fcdn {
            Vendor::Cdn77 => ObrRangeCase::SuffixThenZero,
            Vendor::CdnSun => ObrRangeCase::OneThenZero,
            _ => ObrRangeCase::AllZeroOpen,
        }
    }

    /// The maximum `n` admitted by both CDNs' header limits (§V-C),
    /// accounting for the `Via` line the FCDN adds on the forwarded hop.
    pub fn max_n(&self) -> usize {
        let fcdn_profile = self.fcdn.fcdn_profile();
        let via_value = format!("1.1 {}", fcdn_profile.via_token());
        max_overlapping_ranges(
            self.range_case(),
            TARGET_PATH,
            TARGET_HOST,
            &fcdn_profile.limits,
            &self.bcdn.profile().limits,
            &[("Via", via_value.as_str())],
        )
    }

    /// Builds the cascade and runs one attack request.
    pub fn run(&self) -> ObrMeasurement {
        let mut bcdn_profile = self.bcdn.profile();
        if let Some(mitigation) = self.bcdn_mitigation {
            bcdn_profile = bcdn_profile.with_mitigation(mitigation);
        }
        let bed = CascadeTestbed::builder(self.fcdn.fcdn_profile(), bcdn_profile)
            .resource_size(self.resource_size)
            .build();
        self.run_on(&bed)
    }

    /// Runs one attack request on an existing cascade.
    pub fn run_on(&self, bed: &CascadeTestbed) -> ObrMeasurement {
        bed.reset_traffic();
        let n = self.n.unwrap_or_else(|| self.max_n()).max(2);
        let case = self.range_case();
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .header("Range", case.header(n).to_string())
            .build();
        bed.request_with_small_window(&req, self.receive_window);
        ObrMeasurement {
            fcdn: self.fcdn.name().to_string(),
            bcdn: self.bcdn.name().to_string(),
            exploited_case: case.describe().to_string(),
            n,
            server_to_bcdn_bytes: bed.bcdn_origin_segment().stats().response_bytes,
            bcdn_to_fcdn_bytes: bed.fcdn_bcdn_segment().stats().response_bytes,
            attacker_bytes: bed.client_segment().stats().response_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_combos_exist() {
        let combos = obr_combos();
        assert_eq!(combos.len(), 11);
        assert!(!combos.contains(&(Vendor::StackPath, Vendor::StackPath)));
        assert!(combos.contains(&(Vendor::Cloudflare, Vendor::Akamai)));
        assert!(combos.contains(&(Vendor::Cdn77, Vendor::Azure)));
    }

    #[test]
    fn case_selection_matches_table_v() {
        assert_eq!(
            ObrAttack::new(Vendor::Cdn77, Vendor::Akamai).range_case(),
            ObrRangeCase::SuffixThenZero
        );
        assert_eq!(
            ObrAttack::new(Vendor::CdnSun, Vendor::Azure).range_case(),
            ObrRangeCase::OneThenZero
        );
        assert_eq!(
            ObrAttack::new(Vendor::Cloudflare, Vendor::StackPath).range_case(),
            ObrRangeCase::AllZeroOpen
        );
    }

    #[test]
    fn azure_bcdn_caps_n_at_64() {
        for fcdn in [
            Vendor::Cdn77,
            Vendor::CdnSun,
            Vendor::Cloudflare,
            Vendor::StackPath,
        ] {
            assert_eq!(ObrAttack::new(fcdn, Vendor::Azure).max_n(), 64, "{fcdn}");
        }
    }

    #[test]
    fn cdn77_akamai_n_matches_paper_scale() {
        // Paper: 5455 (16 KB single-header limit at CDN77 binds).
        let n = ObrAttack::new(Vendor::Cdn77, Vendor::Akamai).max_n();
        assert!((5400..=5500).contains(&n), "got {n}");
    }

    #[test]
    fn cloudflare_akamai_n_matches_paper_scale() {
        // Paper: 10750 (Cloudflare's 32 411-byte budget binds).
        let n = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai).max_n();
        assert!((10_700..=10_850).contains(&n), "got {n}");
    }

    #[test]
    fn small_n_run_amplifies_by_about_n() {
        let report = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai)
            .overlapping_ranges(16)
            .run();
        assert_eq!(report.n, 16);
        let factor = report.amplification_factor();
        assert!(
            factor > 8.0 && factor < 20.0,
            "≈ n expected for a 1 KB resource, got {factor}"
        );
        // Attacker accepted only the receive window.
        assert!(report.attacker_bytes <= 1024);
    }

    #[test]
    fn azure_bcdn_full_run() {
        let report = ObrAttack::new(Vendor::Cdn77, Vendor::Azure).run();
        assert_eq!(report.n, 64);
        let factor = report.amplification_factor();
        // Paper Table V: ≈ 53× for CDN77→Azure.
        assert!(factor > 25.0 && factor < 80.0, "got {factor}");
    }
}
