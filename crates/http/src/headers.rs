use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

use crate::decimal;
use crate::h2frame::in_static_table;
use crate::method::is_tchar;
use crate::Error;

/// Immutable header text: borrowed for the whole program, one heap copy
/// shared by every clone, or the digits of a number held inline.
#[derive(Clone)]
enum Text {
    Static(&'static str),
    Shared(Arc<str>),
    /// The first `len` bytes are the digits.
    Digits {
        len: u8,
        digits: [u8; decimal::MAX_DIGITS],
    },
}

impl Text {
    fn as_str(&self) -> &str {
        match self {
            Text::Static(text) => text,
            Text::Shared(text) => text,
            Text::Digits { len, digits } => {
                std::str::from_utf8(&digits[..usize::from(*len)]).expect("ASCII digits")
            }
        }
    }
}

/// Whether `name` is a non-empty RFC 7230 `token`.
const fn is_token(name: &str) -> bool {
    let bytes = name.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !is_tchar(bytes[i]) {
            return false;
        }
        i += 1;
    }
    !bytes.is_empty()
}

/// Whether `value` is valid field content: no control character other
/// than horizontal tab.
const fn is_field_value(value: &str) -> bool {
    let bytes = value.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if !(b == b'\t' || (b != 0x7f && b >= 0x20) || b >= 0x80) {
            return false;
        }
        i += 1;
    }
    true
}

/// A validated HTTP header field name.
///
/// The original spelling is preserved (it affects wire size, which the
/// amplification accounting depends on); comparisons are
/// case-insensitive per RFC 7230 §3.2.
///
/// The names the testbed writes are static constants such as
/// [`HeaderName::CONTENT_RANGE`]; parsing one of them in exactly that
/// spelling yields the constant without allocating. Any other name keeps
/// one owned copy, shared by its clones.
#[derive(Clone)]
pub struct HeaderName(NameText);

/// A name's text, and whether the HPACK static table indexes it, decided
/// once when the name is built (the flag fits in the enum's padding).
#[derive(Clone)]
enum NameText {
    Static(&'static str, bool),
    Shared(Arc<str>, bool),
}

/// Declares the standard header names: an associated constant for each,
/// and the exact-spelling lookup that turns parsed text into one.
macro_rules! standard_names {
    ($($konst:ident = $text:literal;)*) => {
        impl HeaderName {
            $(
                #[doc = concat!("`", $text, "`")]
                pub const $konst: HeaderName = HeaderName::from_static($text);
            )*
        }

        /// The constant for `name` if it is a standard name spelled
        /// exactly as the constant is.
        fn standard_name(name: &str) -> Option<HeaderName> {
            match name {
                $($text => Some(HeaderName::$konst),)*
                _ => None,
            }
        }
    };
}

standard_names! {
    ACCEPT_RANGES = "Accept-Ranges";
    AGE = "Age";
    CACHE_CONTROL = "Cache-Control";
    CONNECTION = "Connection";
    CONTENT_LENGTH = "Content-Length";
    CONTENT_RANGE = "Content-Range";
    CONTENT_TYPE = "Content-Type";
    DATE = "Date";
    ETAG = "ETag";
    EXPIRES = "Expires";
    HOST = "Host";
    IF_NONE_MATCH = "If-None-Match";
    IF_RANGE = "If-Range";
    LAST_MODIFIED = "Last-Modified";
    RANGE = "Range";
    RETRY_AFTER = "Retry-After";
    SERVER = "Server";
    USER_AGENT = "User-Agent";
    VARY = "Vary";
    VIA = "Via";
    WARNING = "Warning";
    X_CACHE = "X-Cache";
    X_CLIENT_ID = "X-Client-Id";
    X_DEFENSE = "X-Defense";
}

impl HeaderName {
    /// Validates and wraps a header name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHeaderName`] if `name` is empty or contains a
    /// character outside the RFC 7230 `token` alphabet.
    pub fn new(name: impl Into<String>) -> Result<HeaderName, Error> {
        name.into().parse()
    }

    /// Wraps a static name without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid token; in a `const` item that is
    /// a compile error.
    pub const fn from_static(name: &'static str) -> HeaderName {
        assert!(is_token(name), "invalid header name");
        HeaderName(NameText::Static(name, in_static_table(name)))
    }

    /// The name exactly as supplied.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameText::Static(text, _) => text,
            NameText::Shared(text, _) => text,
        }
    }

    /// Whether the HPACK static table (RFC 7541 Appendix A) indexes this
    /// name, so HTTP/2 sends it as a one-octet index.
    pub(crate) fn hpack_indexed(&self) -> bool {
        match self.0 {
            NameText::Static(_, indexed) | NameText::Shared(_, indexed) => indexed,
        }
    }

    /// Whether this is the field `name`, compared case-insensitively.
    pub fn is(&self, name: &str) -> bool {
        self.as_str().eq_ignore_ascii_case(name)
    }
}

impl PartialEq for HeaderName {
    fn eq(&self, other: &Self) -> bool {
        self.is(other.as_str())
    }
}
impl Eq for HeaderName {}

impl Hash for HeaderName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for b in self.as_str().bytes() {
            state.write_u8(b.to_ascii_lowercase());
        }
        state.write_u8(0xff);
    }
}

impl fmt::Debug for HeaderName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for HeaderName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for HeaderName {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self, Error> {
        if let Some(name) = standard_name(s) {
            return Ok(name);
        }
        if !is_token(s) {
            return Err(Error::InvalidHeaderName(s.to_string()));
        }
        Ok(HeaderName(NameText::Shared(
            Arc::from(s),
            in_static_table(s),
        )))
    }
}

/// A validated HTTP header field value.
///
/// Immutable and shared: the text is validated once, when the value is
/// built, and a clone shares it (a static value is never copied at all),
/// so values taken from a cached response or a vendor profile cost one
/// reference-count increment to reuse.
#[derive(Clone)]
pub struct HeaderValue(Text);

impl HeaderValue {
    /// Validates and wraps a header value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHeaderValue`] if `value` contains a control
    /// character other than horizontal tab.
    pub fn new(value: impl Into<String>) -> Result<HeaderValue, Error> {
        value.into().parse()
    }

    /// Wraps a static value without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `value` contains a control character other than
    /// horizontal tab; in a `const` item that is a compile error.
    pub const fn from_static(value: &'static str) -> HeaderValue {
        assert!(is_field_value(value), "invalid header value");
        HeaderValue(Text::Static(value))
    }

    /// The decimal form of `n` (a `Content-Length`, say), held inline:
    /// no allocation, whatever the number of digits.
    pub fn from_u64(n: u64) -> HeaderValue {
        let (digits, len) = decimal::to_array(n);
        HeaderValue(Text::Digits {
            len: len as u8,
            digits,
        })
    }

    /// Shares text this crate wrote from ASCII digits and punctuation,
    /// copied once and not re-validated.
    pub(crate) fn from_written(text: &str) -> HeaderValue {
        debug_assert!(is_field_value(text), "written header text is valid");
        HeaderValue(Text::Shared(Arc::from(text)))
    }

    /// The `Display` text of `value`, formatted on the stack and then
    /// copied once into the shared value (text longer than the stack
    /// buffer goes through a `String`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHeaderValue`] if the text contains a
    /// control character other than horizontal tab.
    pub fn from_display(value: &impl fmt::Display) -> Result<HeaderValue, Error> {
        let mut text = StackText::new();
        fmt::write(&mut text, format_args!("{value}")).expect("formatting to memory cannot fail");
        text.as_str().parse()
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }

    /// Length of the value in bytes.
    pub fn len(&self) -> usize {
        self.as_str().len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.as_str().is_empty()
    }
}

impl PartialEq for HeaderValue {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for HeaderValue {}

impl Hash for HeaderValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for HeaderValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("HeaderValue").field(&self.as_str()).finish()
    }
}

impl fmt::Display for HeaderValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for HeaderValue {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self, Error> {
        if is_field_value(s) {
            Ok(HeaderValue(Text::Shared(Arc::from(s))))
        } else {
            Err(Error::InvalidHeaderValue(s.to_string()))
        }
    }
}

/// Formatting target that stays on the stack for short text and spills
/// into a `String` past its buffer.
struct StackText {
    buf: [u8; StackText::CAPACITY],
    len: usize,
    spill: Option<String>,
}

impl StackText {
    /// Fits every `Content-Range` value (at most 68 bytes).
    const CAPACITY: usize = 80;

    fn new() -> StackText {
        StackText {
            buf: [0; StackText::CAPACITY],
            len: 0,
            spill: None,
        }
    }

    fn as_str(&self) -> &str {
        match &self.spill {
            Some(text) => text,
            None => {
                std::str::from_utf8(&self.buf[..self.len]).expect("only whole strs are written")
            }
        }
    }
}

impl fmt::Write for StackText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if let Some(text) = &mut self.spill {
            text.push_str(s);
        } else if let Some(room) = self.buf.get_mut(self.len..self.len + s.len()) {
            room.copy_from_slice(s.as_bytes());
            self.len += s.len();
        } else {
            let mut text = String::with_capacity(2 * (self.len + s.len()));
            text.push_str(self.as_str());
            text.push_str(s);
            self.spill = Some(text);
        }
        Ok(())
    }
}

/// Conversion into a [`HeaderName`]: text is validated (and looked up in
/// the standard names), a `HeaderName` is taken as is.
pub trait IntoHeaderName {
    /// Performs the conversion.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHeaderName`] for text that is not a token.
    fn into_header_name(self) -> Result<HeaderName, Error>;
}

impl IntoHeaderName for HeaderName {
    fn into_header_name(self) -> Result<HeaderName, Error> {
        Ok(self)
    }
}

impl IntoHeaderName for &HeaderName {
    fn into_header_name(self) -> Result<HeaderName, Error> {
        Ok(self.clone())
    }
}

impl IntoHeaderName for &str {
    fn into_header_name(self) -> Result<HeaderName, Error> {
        self.parse()
    }
}

impl IntoHeaderName for &String {
    fn into_header_name(self) -> Result<HeaderName, Error> {
        self.parse()
    }
}

impl IntoHeaderName for String {
    fn into_header_name(self) -> Result<HeaderName, Error> {
        HeaderName::new(self)
    }
}

/// Conversion into a [`HeaderValue`]: a static string is wrapped without
/// copying, an owned string is copied once into a shared value, and a
/// `HeaderValue` is taken as is (no copy, no re-validation).
pub trait IntoHeaderValue {
    /// Performs the conversion.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHeaderValue`] for text with a control
    /// character other than horizontal tab.
    fn into_header_value(self) -> Result<HeaderValue, Error>;
}

impl IntoHeaderValue for HeaderValue {
    fn into_header_value(self) -> Result<HeaderValue, Error> {
        Ok(self)
    }
}

impl IntoHeaderValue for &HeaderValue {
    fn into_header_value(self) -> Result<HeaderValue, Error> {
        Ok(self.clone())
    }
}

impl IntoHeaderValue for &'static str {
    fn into_header_value(self) -> Result<HeaderValue, Error> {
        if is_field_value(self) {
            Ok(HeaderValue(Text::Static(self)))
        } else {
            Err(Error::InvalidHeaderValue(self.to_string()))
        }
    }
}

impl IntoHeaderValue for String {
    fn into_header_value(self) -> Result<HeaderValue, Error> {
        HeaderValue::new(self)
    }
}

/// Ordered, case-insensitive multimap of HTTP header fields.
///
/// Field order is preserved exactly as inserted because it is visible on
/// the wire and therefore in the byte accounting. Multiple fields with the
/// same name are allowed (RFC 7230 §3.2.2). Lookups compare names with
/// `eq_ignore_ascii_case` and never allocate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Vec<(HeaderName, HeaderValue)>,
}

impl HeaderMap {
    /// Creates an empty header map.
    pub fn new() -> HeaderMap {
        HeaderMap::default()
    }

    /// Creates an empty header map with room for `capacity` fields.
    pub fn with_capacity(capacity: usize) -> HeaderMap {
        HeaderMap {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Makes room for at least `additional` more fields.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Number of header fields (not distinct names).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a field, keeping any existing fields with the same name.
    ///
    /// # Panics
    ///
    /// Panics if `name` or `value` are not valid header text. Use
    /// [`HeaderMap::try_append`] for untrusted input.
    pub fn append(&mut self, name: impl IntoHeaderName, value: impl IntoHeaderValue) {
        self.try_append(name, value)
            .expect("static header should be valid");
    }

    /// Appends a field, validating both parts.
    ///
    /// # Errors
    ///
    /// Returns an error if the name or value fails validation.
    pub fn try_append(
        &mut self,
        name: impl IntoHeaderName,
        value: impl IntoHeaderValue,
    ) -> Result<(), Error> {
        let name = name.into_header_name()?;
        let value = value.into_header_value()?;
        self.entries.push((name, value));
        Ok(())
    }

    /// Replaces all fields named `name` with a single field.
    ///
    /// # Panics
    ///
    /// Panics if `name` or `value` are not valid header text.
    pub fn set(&mut self, name: impl IntoHeaderName, value: impl IntoHeaderValue) {
        let name = name
            .into_header_name()
            .expect("static header name should be valid");
        let value = value
            .into_header_value()
            .expect("static header value should be valid");
        self.entries.retain(|(n, _)| *n != name);
        self.entries.push((name, value));
    }

    /// Removes every field named `name`, returning how many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.is(name));
        before - self.entries.len()
    }

    /// First value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.get_value(name).map(HeaderValue::as_str)
    }

    /// First value for `name` as a shareable [`HeaderValue`], if any.
    pub fn get_value(&self, name: &str) -> Option<&HeaderValue> {
        self.entries
            .iter()
            .find(|(n, _)| n.is(name))
            .map(|(_, v)| v)
    }

    /// All values for `name`, in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| n.is(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether at least one field named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n.is(name))
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> HeaderIter<'_> {
        HeaderIter(self.entries.iter())
    }

    /// Total wire size of the header block in bytes: each field costs
    /// `name + ": " + value + CRLF`. This is what CDN request-header
    /// limits meter (paper §V-C).
    pub fn wire_len(&self) -> u64 {
        self.entries
            .iter()
            .map(|(n, v)| n.as_str().len() as u64 + 2 + v.len() as u64 + 2)
            .sum()
    }
}

/// Iterator over the fields of a [`HeaderMap`], in insertion order.
#[derive(Debug, Clone)]
pub struct HeaderIter<'a>(std::slice::Iter<'a, (HeaderName, HeaderValue)>);

impl<'a> Iterator for HeaderIter<'a> {
    type Item = (&'a HeaderName, &'a HeaderValue);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(n, v)| (n, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<'a> IntoIterator for &'a HeaderMap {
    type Item = (&'a HeaderName, &'a HeaderValue);
    type IntoIter = HeaderIter<'a>;

    fn into_iter(self) -> HeaderIter<'a> {
        self.iter()
    }
}

impl FromIterator<(String, String)> for HeaderMap {
    fn from_iter<I: IntoIterator<Item = (String, String)>>(iter: I) -> Self {
        let mut map = HeaderMap::new();
        for (name, value) in iter {
            map.append(name, value);
        }
        map
    }
}

/// The `String`-based map this module used before its static names and
/// shared values, kept as the reference model for the equivalence
/// property test: every name stored twice (as given and lower-cased),
/// every lookup lower-casing its argument.
#[cfg(test)]
mod model {
    #[derive(Debug, Default)]
    pub(super) struct ModelMap {
        entries: Vec<(String, String, String)>,
    }

    impl ModelMap {
        pub(super) fn append(&mut self, name: &str, value: &str) {
            self.entries.push((
                name.to_string(),
                name.to_ascii_lowercase(),
                value.to_string(),
            ));
        }

        pub(super) fn set(&mut self, name: &str, value: &str) {
            let lower = name.to_ascii_lowercase();
            self.entries.retain(|(_, n, _)| *n != lower);
            self.append(name, value);
        }

        pub(super) fn remove(&mut self, name: &str) -> usize {
            let lower = name.to_ascii_lowercase();
            let before = self.entries.len();
            self.entries.retain(|(_, n, _)| *n != lower);
            before - self.entries.len()
        }

        pub(super) fn get(&self, name: &str) -> Option<&str> {
            let lower = name.to_ascii_lowercase();
            self.entries
                .iter()
                .find(|(_, n, _)| *n == lower)
                .map(|(_, _, v)| v.as_str())
        }

        pub(super) fn get_all(&self, name: &str) -> Vec<&str> {
            let lower = name.to_ascii_lowercase();
            self.entries
                .iter()
                .filter(|(_, n, _)| *n == lower)
                .map(|(_, _, v)| v.as_str())
                .collect()
        }

        pub(super) fn fields(&self) -> Vec<(&str, &str)> {
            self.entries
                .iter()
                .map(|(raw, _, v)| (raw.as_str(), v.as_str()))
                .collect()
        }

        pub(super) fn wire_len(&self) -> u64 {
            self.entries
                .iter()
                .map(|(raw, _, v)| raw.len() as u64 + 2 + v.len() as u64 + 2)
                .sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::ModelMap;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn names_compare_case_insensitively() {
        let a = HeaderName::new("Content-Range").unwrap();
        let b = HeaderName::new("content-range").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "Content-Range");
        assert_eq!(b.as_str(), "content-range");
        assert_eq!(a, HeaderName::CONTENT_RANGE);
    }

    #[test]
    fn equal_names_hash_alike() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |name: &HeaderName| {
            let mut hasher = DefaultHasher::new();
            name.hash(&mut hasher);
            hasher.finish()
        };
        let a: HeaderName = "X-Custom-Name".parse().unwrap();
        let b: HeaderName = "x-CUSTOM-name".parse().unwrap();
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(hash(&HeaderName::HOST), hash(&"HOST".parse().unwrap()));
    }

    #[test]
    fn standard_spellings_are_static_and_others_are_kept() {
        let standard: HeaderName = "Content-Length".parse().unwrap();
        assert!(matches!(standard.0, NameText::Static(..)));
        let lower: HeaderName = "content-length".parse().unwrap();
        assert!(matches!(lower.0, NameText::Shared(..)));
        assert!(standard.hpack_indexed() && lower.hpack_indexed());
        assert!(!HeaderName::X_CACHE.hpack_indexed());
        assert!(!"x-cache".parse::<HeaderName>().unwrap().hpack_indexed());
        assert_eq!(lower.as_str(), "content-length");
        assert_eq!(standard, lower);
    }

    #[test]
    fn rejects_invalid_names_and_values() {
        assert!(HeaderName::new("").is_err());
        assert!(HeaderName::new("Bad Header").is_err());
        assert!(HeaderName::new("Bad:Header").is_err());
        assert!("Bad Header".parse::<HeaderName>().is_err());
        assert!(HeaderValue::new("ok value").is_ok());
        assert!(HeaderValue::new("bad\r\nvalue").is_err());
        assert!(HeaderValue::new("bad\0").is_err());
        assert!("bad\n".parse::<HeaderValue>().is_err());
        assert!("bad\x7f".into_header_value().is_err());
        let mut map = HeaderMap::new();
        assert!(map.try_append("Ok", "bad\r\n").is_err());
        assert!(map.try_append("Bad Name", "ok").is_err());
        assert!(map.is_empty(), "a failed append adds nothing");
    }

    #[test]
    fn values_share_their_text() {
        let value = HeaderValue::new("shared text".to_string()).unwrap();
        let copy = value.clone();
        assert!(std::ptr::eq(value.as_str(), copy.as_str()));
        let fixed = HeaderValue::from_static("fixed");
        assert!(matches!(fixed.0, Text::Static(_)));
        // Numbers sit inline, in no more room than shared text takes.
        assert!(matches!(HeaderValue::from_u64(1).0, Text::Digits { .. }));
        assert_eq!(std::mem::size_of::<HeaderValue>(), 24);
        assert_eq!(fixed, HeaderValue::new("fixed").unwrap());
    }

    #[test]
    fn numeric_and_formatted_values() {
        for n in [0, 7, 10, 1_048_576, u64::MAX] {
            assert_eq!(HeaderValue::from_u64(n).as_str(), n.to_string());
            assert_eq!(
                HeaderValue::from_u64(n),
                HeaderValue::new(n.to_string()).unwrap()
            );
        }
        let short = HeaderValue::from_display(&format_args!("bytes {}-{}/{}", 0, 9, 10)).unwrap();
        assert_eq!(short.as_str(), "bytes 0-9/10");
        // Longer than the stack buffer: spills into a String.
        let long = "x".repeat(StackText::CAPACITY + 5);
        let spilled = HeaderValue::from_display(&format_args!("{long}-{long}")).unwrap();
        assert_eq!(spilled.as_str(), format!("{long}-{long}"));
        assert!(HeaderValue::from_display(&"a\r\nb").is_err());
    }

    #[test]
    fn append_preserves_duplicates_and_order() {
        let mut map = HeaderMap::new();
        map.append("Via", "1.1 edge-a");
        map.append("X-Cache", "MISS");
        map.append("Via", "1.1 edge-b");
        assert_eq!(
            map.get_all("via").collect::<Vec<_>>(),
            vec!["1.1 edge-a", "1.1 edge-b"]
        );
        let order: Vec<_> = map.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(order, vec!["Via", "X-Cache", "Via"]);
        let borrowed: Vec<_> = (&map).into_iter().map(|(_, v)| v.as_str()).collect();
        assert_eq!(borrowed, vec!["1.1 edge-a", "MISS", "1.1 edge-b"]);
        assert_eq!(map.iter().count(), 3);
    }

    #[test]
    fn set_replaces_all_occurrences() {
        let mut map = HeaderMap::new();
        map.append("Range", "bytes=0-0");
        map.append("range", "bytes=1-1");
        map.set("RANGE", "bytes=2-2");
        assert_eq!(map.get_all("range").collect::<Vec<_>>(), vec!["bytes=2-2"]);
        assert_eq!(map.iter().next().unwrap().0.as_str(), "RANGE");
    }

    #[test]
    fn remove_reports_count() {
        let mut map = HeaderMap::new();
        map.append("Range", "bytes=0-0");
        map.append("Range", "bytes=1-1");
        assert_eq!(map.remove("range"), 2);
        assert_eq!(map.remove("range"), 0);
        assert!(!map.contains("Range"));
    }

    #[test]
    fn wire_len_counts_separators() {
        let mut map = HeaderMap::new();
        map.append("Host", "a.example");
        // "Host: a.example\r\n" = 4 + 2 + 9 + 2
        assert_eq!(map.wire_len(), 17);
    }

    #[test]
    fn collects_from_pairs() {
        let map: HeaderMap = vec![
            ("Host".to_string(), "x".to_string()),
            ("Range".to_string(), "bytes=0-0".to_string()),
        ]
        .into_iter()
        .collect();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("host"), Some("x"));
    }

    /// Spellings of a few names, standard and not, in several cases.
    const NAMES: [&str; 10] = [
        "Range",
        "range",
        "RANGE",
        "Content-Range",
        "content-RANGE",
        "Host",
        "hOST",
        "X-Custom",
        "x-custom",
        "X-Other",
    ];
    const VALUES: [&str; 4] = ["", "bytes=0-0", "a.example", "1.1 edge, 1.1 origin"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_the_string_reference_model(
            steps in proptest::collection::vec((0u8..6, 0usize..10, 0usize..4), 1..60),
        ) {
            let mut map = HeaderMap::new();
            let mut model = ModelMap::default();
            for &(op, name, value) in &steps {
                let (name, value) = (NAMES[name], VALUES[value]);
                match op {
                    0 | 1 => {
                        map.append(name, value.to_string());
                        model.append(name, value);
                    }
                    2 => {
                        map.set(name, value);
                        model.set(name, value);
                    }
                    3 => prop_assert_eq!(map.remove(name), model.remove(name)),
                    4 => prop_assert_eq!(map.get(name), model.get(name)),
                    _ => prop_assert_eq!(
                        map.get_all(name).collect::<Vec<_>>(),
                        model.get_all(name)
                    ),
                }
                let fields: Vec<(&str, &str)> =
                    map.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
                prop_assert_eq!(fields, model.fields(), "fields after {:?}", (op, name, value));
                prop_assert_eq!(map.wire_len(), model.wire_len());
                prop_assert_eq!(map.len(), model.fields().len());
                for probe in NAMES {
                    prop_assert_eq!(map.contains(probe), model.get(probe).is_some());
                }
            }
        }
    }
}
