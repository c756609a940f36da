use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::Error;

/// Request-target in *origin-form*: an absolute path plus optional query.
///
/// CDN cache keys are derived from this (most CDNs key on path+query, which
/// is exactly why appending a random query string forces a cache miss —
/// paper §II-A), so the query component is first-class here.
///
/// The target text is stored once and shared by clones, so a capture or a
/// cache key can hold on to a request's target without copying it.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Uri {
    /// The whole target as received: `path` or `path?query`.
    target: Arc<str>,
    /// Where the path ends: the index of the first `?`, or the length.
    path_end: usize,
}

impl Uri {
    /// Parses an origin-form request target such as `/10MB.bin?x=1`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStartLine`] if the target does not begin
    /// with `/` or contains whitespace/control characters.
    pub fn parse(target: &str) -> Result<Uri, Error> {
        if !target.starts_with('/')
            || target
                .bytes()
                .any(|b| b == b' ' || b == b'\t' || b.is_ascii_control())
        {
            return Err(Error::InvalidStartLine(format!(
                "bad request target {target:?}"
            )));
        }
        Ok(Uri::from_target(Arc::from(target)))
    }

    fn from_target(target: Arc<str>) -> Uri {
        let path_end = target.find('?').unwrap_or(target.len());
        Uri { target, path_end }
    }

    /// The path component, always beginning with `/`.
    pub fn path(&self) -> &str {
        &self.target[..self.path_end]
    }

    /// The query component without the leading `?`, if present.
    pub fn query(&self) -> Option<&str> {
        self.target.get(self.path_end + 1..)
    }

    /// The whole target: the path, then `?` and the query if present.
    pub fn as_str(&self) -> &str {
        &self.target
    }

    /// Returns a copy with an extra `key=value` pair appended to the query.
    ///
    /// This is the cache-busting primitive: appending a random query string
    /// makes most CDNs treat the URL as a brand-new cache key and forward
    /// the request to the origin (paper §II-A, §IV-B).
    pub fn with_query_param(&self, key: &str, value: &str) -> Uri {
        let target = match self.query() {
            Some(existing) if !existing.is_empty() => format!("{self}&{key}={value}"),
            _ => format!("{}?{key}={value}", self.path()),
        };
        Uri::from_target(Arc::from(target))
    }

    /// Returns a copy with the query stripped (how a CDN configured to
    /// "ignore query strings" normalizes its cache key).
    pub fn without_query(&self) -> Uri {
        Uri::from_target(Arc::from(self.path()))
    }

    /// Wire length of the target in bytes.
    pub fn wire_len(&self) -> u64 {
        self.target.len() as u64
    }
}

impl fmt::Debug for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Uri")
            .field("path", &self.path())
            .field("query", &self.query())
            .finish()
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.target)
    }
}

impl FromStr for Uri {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self, Error> {
        Uri::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_path_and_query() {
        let uri = Uri::parse("/a/b.bin?x=1&y=2").unwrap();
        assert_eq!(uri.path(), "/a/b.bin");
        assert_eq!(uri.query(), Some("x=1&y=2"));
        assert_eq!(uri.to_string(), "/a/b.bin?x=1&y=2");
    }

    #[test]
    fn plain_path_has_no_query() {
        let uri = Uri::parse("/10MB.bin").unwrap();
        assert_eq!(uri.query(), None);
        assert_eq!(uri.to_string(), "/10MB.bin");
    }

    #[test]
    fn rejects_relative_and_malformed_targets() {
        assert!(Uri::parse("10MB.bin").is_err());
        assert!(Uri::parse("/a b").is_err());
        assert!(Uri::parse("").is_err());
    }

    #[test]
    fn cache_busting_appends_param() {
        let uri = Uri::parse("/f.bin").unwrap();
        let busted = uri.with_query_param("rnd", "123");
        assert_eq!(busted.to_string(), "/f.bin?rnd=123");
        let twice = busted.with_query_param("rnd", "456");
        assert_eq!(twice.to_string(), "/f.bin?rnd=123&rnd=456");
    }

    #[test]
    fn without_query_normalizes() {
        let uri = Uri::parse("/f.bin?rnd=1").unwrap();
        assert_eq!(uri.without_query().to_string(), "/f.bin");
    }

    /// The target length as the `String`-formatting `wire_len` computed
    /// it before targets were stored whole.
    fn model_wire_len(uri: &Uri) -> u64 {
        let text = match uri.query() {
            Some(query) => format!("{}?{}", uri.path(), query),
            None => uri.path().to_string(),
        };
        text.len() as u64
    }

    #[test]
    fn wire_len_matches_the_formatted_target() {
        for target in [
            "/",
            "/f.bin",
            "/f.bin?",
            "/f.bin?x=1&y=2",
            "/a?b?c",
            "/%20?%3F",
        ] {
            let uri = Uri::parse(target).unwrap();
            assert_eq!(uri.wire_len(), model_wire_len(&uri), "{target}");
            assert_eq!(uri.wire_len(), target.len() as u64);
            assert_eq!(uri.as_str(), target);
        }
        let uri = Uri::parse("/a?b?c").unwrap();
        assert_eq!((uri.path(), uri.query()), ("/a", Some("b?c")));
        let busted = Uri::parse("/f?").unwrap().with_query_param("k", "v");
        assert_eq!(busted.to_string(), "/f?k=v");
        assert_eq!(busted.wire_len(), model_wire_len(&busted));
    }

    #[test]
    fn clones_share_the_target() {
        let uri = Uri::parse("/f.bin?x=1").unwrap();
        let copy = uri.clone();
        assert!(std::ptr::eq(uri.as_str(), copy.as_str()));
        assert_eq!(uri, copy);
        assert_ne!(uri, uri.without_query());
    }

    #[test]
    fn empty_query_component_is_preserved_on_display() {
        let uri = Uri::parse("/f.bin?").unwrap();
        assert_eq!(uri.query(), Some(""));
        assert_eq!(uri.to_string(), "/f.bin?");
    }
}
