use std::fmt;
use std::str::FromStr;

use crate::Error;

/// HTTP request method.
///
/// Only the methods the RangeAmp testbed exercises are enumerated; anything
/// else round-trips through [`Method::Extension`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET` — the method every RangeAmp attack uses.
    Get,
    /// `HEAD`.
    Head,
    /// `POST`.
    Post,
    /// `PUT`.
    Put,
    /// `DELETE`.
    Delete,
    /// `OPTIONS`.
    Options,
    /// `PURGE` — used by several CDNs for cache invalidation.
    Purge,
    /// Any other token.
    Extension(String),
}

impl Method {
    /// Canonical wire name of the method.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
            Method::Purge => "PURGE",
            Method::Extension(token) => token,
        }
    }

    /// Whether responses to this method are cacheable by a shared cache.
    pub fn is_cacheable(&self) -> bool {
        matches!(self, Method::Get | Method::Head)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Method {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        if s.is_empty() || !s.bytes().all(is_tchar) {
            return Err(Error::InvalidStartLine(format!("bad method {s:?}")));
        }
        Ok(match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            "PURGE" => Method::Purge,
            other => Method::Extension(other.to_string()),
        })
    }
}

/// RFC 7230 `tchar`.
pub(crate) const fn is_tchar(b: u8) -> bool {
    matches!(
        b,
        b'!' | b'#'
            | b'$'
            | b'%'
            | b'&'
            | b'\''
            | b'*'
            | b'+'
            | b'-'
            | b'.'
            | b'^'
            | b'_'
            | b'`'
            | b'|'
            | b'~'
    ) || b.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_known_methods() {
        for name in ["GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PURGE"] {
            let method: Method = name.parse().unwrap();
            assert_eq!(method.as_str(), name);
        }
    }

    #[test]
    fn extension_methods_preserved() {
        let method: Method = "BREW".parse().unwrap();
        assert_eq!(method, Method::Extension("BREW".to_string()));
        assert_eq!(method.to_string(), "BREW");
    }

    #[test]
    fn rejects_non_token_methods() {
        assert!("GE T".parse::<Method>().is_err());
        assert!("".parse::<Method>().is_err());
        assert!("GET\r".parse::<Method>().is_err());
    }

    #[test]
    fn cacheability() {
        assert!(Method::Get.is_cacheable());
        assert!(Method::Head.is_cacheable());
        assert!(!Method::Post.is_cacheable());
        assert!(!Method::Purge.is_cacheable());
    }
}
