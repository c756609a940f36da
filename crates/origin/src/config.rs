/// Origin server configuration.
///
/// Defaults mirror the paper's testbed: Apache/2.4.18, default config,
/// range requests enabled. Everything else about the origin (its
/// multi-range hardening, `MaxRanges`, `Server` and `Date` headers) is
/// fixed; see the constants on [`OriginServer`](crate::OriginServer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginConfig {
    /// Whether byte-range requests are supported at all. The OBR attacker
    /// disables this on their own origin so the BCDN always receives a
    /// 200 with the entire representation (paper §IV-C).
    pub ranges_enabled: bool,
}

impl Default for OriginConfig {
    fn default() -> OriginConfig {
        OriginConfig {
            ranges_enabled: true,
        }
    }
}

impl OriginConfig {
    /// The paper's default testbed origin.
    pub fn apache_default() -> OriginConfig {
        OriginConfig::default()
    }

    /// An origin with range requests disabled — what the OBR attacker
    /// deploys behind the BCDN.
    pub fn ranges_disabled() -> OriginConfig {
        OriginConfig {
            ranges_enabled: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        assert!(OriginConfig::default().ranges_enabled);
        assert_eq!(OriginConfig::apache_default(), OriginConfig::default());
        assert_eq!(crate::OriginServer::MAX_RANGES, 200);
        assert!(crate::OriginServer::SERVER.contains("Apache/2.4.18"));
    }

    #[test]
    fn ranges_disabled_preset() {
        assert!(!OriginConfig::ranges_disabled().ranges_enabled);
    }
}
