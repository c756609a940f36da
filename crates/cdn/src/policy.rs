//! Range-handling policy vocabulary (paper §III-B) and the mitigation
//! switches of §VI-C.

use std::fmt;

/// The three observable range-forwarding policies of paper §III-B.
///
/// This is the *classification* vocabulary — what the vulnerability
/// scanner reports after differential probing. The vendor profiles
/// implement the underlying behaviours mechanistically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangePolicy {
    /// Forward the `Range` header without change.
    Laziness,
    /// Remove the `Range` header entirely.
    Deletion,
    /// Replace the `Range` header with a larger byte range.
    Expansion,
}

impl fmt::Display for RangePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RangePolicy::Laziness => "Laziness",
            RangePolicy::Deletion => "Deletion",
            RangePolicy::Expansion => "Expansion",
        };
        f.write_str(name)
    }
}

/// How a CDN answers a multi-range client request when it holds a full
/// copy of the representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiReplyPolicy {
    /// One part per requested range, in request order, no overlap check —
    /// the Table III vulnerability (Akamai, Azure, StackPath).
    NPartNoOverlapCheck,
    /// Coalesce overlapping/adjacent ranges first (RFC 7233 §6.1
    /// suggestion); a single surviving range degrades to a plain 206.
    Coalesce,
}

/// The CDN-side mitigations of paper §VI-C, applicable over any vendor
/// profile for ablation experiments.
///
/// # Example
///
/// ```
/// use rangeamp_cdn::{MitigationConfig, Vendor};
///
/// // G-Core's post-disclosure fix: the `slice` option = Laziness.
/// let fixed = Vendor::GCoreLabs.profile().with_mitigation(MitigationConfig {
///     force_laziness: true,
///     ..MitigationConfig::none()
/// });
/// assert!(fixed.mitigation.force_laziness);
/// assert_ne!(fixed.mitigation, MitigationConfig::none());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MitigationConfig {
    /// Adopt the *Laziness* policy wholesale ("completely defend against
    /// the SBR attack" — what G-Core Labs shipped as `slice` by default).
    pub force_laziness: bool,
    /// Keep expansion but cap it: extend the requested byte range by at
    /// most this many bytes (the paper suggests 8 KB as acceptable).
    pub expansion_cap: Option<u64>,
    /// Coalesce multi-range requests before replying.
    pub coalesce_multi: bool,
    /// Reject requests with overlapping ranges outright.
    pub reject_overlapping: bool,
}

impl MitigationConfig {
    /// No mitigation — the vulnerable configuration the paper measured.
    pub fn none() -> MitigationConfig {
        MitigationConfig::default()
    }

    /// The paper's "better way": capped expansion (+8 KB) plus coalescing,
    /// which keeps the caching benefit of range expansion.
    pub fn capped_expansion_8k() -> MitigationConfig {
        MitigationConfig {
            force_laziness: false,
            expansion_cap: Some(8 * 1024),
            coalesce_multi: true,
            reject_overlapping: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_match_the_paper() {
        assert_eq!(RangePolicy::Laziness.to_string(), "Laziness");
        assert_eq!(RangePolicy::Deletion.to_string(), "Deletion");
        assert_eq!(RangePolicy::Expansion.to_string(), "Expansion");
    }

    #[test]
    fn capped_expansion_preset() {
        let config = MitigationConfig::capped_expansion_8k();
        assert_eq!(config.expansion_cap, Some(8192));
        assert!(config.coalesce_multi);
        assert!(!config.force_laziness);
    }
}
