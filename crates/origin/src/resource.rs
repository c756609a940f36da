use std::collections::HashMap;
use std::fmt;

use bytes::Bytes;
use rangeamp_http::{Body, HeaderValue};

/// A static web resource served by the origin.
///
/// Content is synthetic but deterministic: byte *i* is a function of the
/// path hash and *i*, so range slices can be verified end-to-end without
/// storing reference copies.
#[derive(Clone)]
pub struct Resource {
    path: String,
    content_type: HeaderValue,
    content: Bytes,
    etag: HeaderValue,
}

impl Resource {
    /// Creates a resource with explicit content.
    ///
    /// # Panics
    ///
    /// Panics if `content_type` is not valid header text.
    pub fn new(path: &str, content_type: &str, content: impl Into<Bytes>) -> Resource {
        let content = content.into();
        let etag = Resource::compute_etag(path, &content);
        Resource {
            path: path.to_string(),
            content_type: content_type
                .parse()
                .expect("a media type should be valid header text"),
            content,
            etag,
        }
    }

    /// Creates a `size`-byte resource with deterministic synthetic
    /// content.
    pub fn synthetic(path: &str, size: u64, content_type: &str) -> Resource {
        let seed = fnv1a(path.as_bytes());
        // A 256-byte pattern keyed on the path: byte i is `(seed ^ i) as
        // u8`, which repeats every 256 bytes. Any mis-sliced range is
        // overwhelmingly likely to be detected.
        let period: [u8; 256] = std::array::from_fn(|i| (seed ^ i as u64) as u8);
        let size = size as usize;
        let mut content = Vec::with_capacity(size);
        while content.len() < size {
            let take = (size - content.len()).min(period.len());
            content.extend_from_slice(&period[..take]);
        }
        Resource::new(path, content_type, content)
    }

    /// Absolute path of the resource (no query).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Media type.
    pub fn content_type(&self) -> &str {
        self.content_type.as_str()
    }

    /// Media type as a shareable `Content-Type` value.
    pub fn content_type_value(&self) -> &HeaderValue {
        &self.content_type
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.content.len() as u64
    }

    /// Whether the resource is empty.
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }

    /// Entire content as a zero-copy body.
    pub fn full_body(&self) -> Body {
        Body::from_bytes(self.content.clone())
    }

    /// Zero-copy slice of the content covering the inclusive byte range.
    ///
    /// # Panics
    ///
    /// Panics if `last >= len()` or `first > last`.
    pub fn slice(&self, first: u64, last: u64) -> Body {
        assert!(first <= last && last < self.len(), "slice out of bounds");
        Body::from_bytes(self.content.slice(first as usize..=last as usize))
    }

    /// Apache-style strong ETag.
    pub fn etag(&self) -> &str {
        self.etag.as_str()
    }

    /// The ETag as a shareable header value.
    pub fn etag_value(&self) -> &HeaderValue {
        &self.etag
    }

    fn compute_etag(path: &str, content: &Bytes) -> HeaderValue {
        // Apache derives ETags from inode/mtime/size; we derive from
        // path/size, which is just as stable for a simulated filesystem.
        HeaderValue::new(format!(
            "\"{:x}-{:x}\"",
            fnv1a(path.as_bytes()),
            content.len()
        ))
        .expect("hex digits and quotes are valid header text")
    }
}

impl fmt::Debug for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resource")
            .field("path", &self.path)
            .field("content_type", &self.content_type())
            .field("len", &self.content.len())
            .finish()
    }
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The origin's document root: a path-keyed set of resources.
#[derive(Debug, Clone, Default)]
pub struct ResourceStore {
    resources: HashMap<String, Resource>,
}

impl ResourceStore {
    /// Creates an empty store.
    pub fn new() -> ResourceStore {
        ResourceStore::default()
    }

    /// Inserts a resource, replacing any existing one at the same path.
    pub fn add(&mut self, resource: Resource) {
        self.resources.insert(resource.path().to_string(), resource);
    }

    /// Convenience: inserts a synthetic resource and returns its size.
    pub fn add_synthetic(&mut self, path: &str, size: u64, content_type: &str) -> u64 {
        self.add(Resource::synthetic(path, size, content_type));
        size
    }

    /// Looks up the resource at `path` (query strings must already be
    /// stripped by the caller; origins serve the same file regardless of
    /// query, which is what makes cache-busting free for the attacker).
    pub fn get(&self, path: &str) -> Option<&Resource> {
        self.resources.get(path)
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_content_is_deterministic() {
        let a = Resource::synthetic("/f.bin", 1024, "application/octet-stream");
        let b = Resource::synthetic("/f.bin", 1024, "application/octet-stream");
        assert_eq!(a.full_body().as_bytes(), b.full_body().as_bytes());
        let c = Resource::synthetic("/g.bin", 1024, "application/octet-stream");
        assert_ne!(a.full_body().as_bytes(), c.full_body().as_bytes());
    }

    #[test]
    fn synthetic_content_follows_the_per_byte_formula() {
        let seed = fnv1a(b"/f.bin");
        for size in [0u64, 1, 255, 256, 257, 1000, 4096] {
            let r = Resource::synthetic("/f.bin", size, "x/y");
            let expected: Vec<u8> = (0..size).map(|i| (seed ^ i) as u8).collect();
            assert_eq!(r.full_body().as_bytes(), expected.as_slice(), "size {size}");
        }
    }

    #[test]
    fn slice_matches_full_content() {
        let r = Resource::synthetic("/f.bin", 4096, "application/octet-stream");
        let full = r.full_body();
        let part = r.slice(100, 199);
        assert_eq!(part.as_bytes(), &full.as_bytes()[100..200]);
        assert_eq!(part.len(), 100);
    }

    #[test]
    fn single_byte_slice() {
        let r = Resource::synthetic("/f.bin", 10, "x/y");
        assert_eq!(r.slice(0, 0).len(), 1);
        assert_eq!(r.slice(9, 9).len(), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_slice_panics() {
        Resource::synthetic("/f.bin", 10, "x/y").slice(5, 10);
    }

    #[test]
    fn etag_is_stable_and_quoted() {
        let r = Resource::synthetic("/f.bin", 10, "x/y");
        assert!(r.etag().starts_with('"') && r.etag().ends_with('"'));
        assert_eq!(r.etag(), Resource::synthetic("/f.bin", 10, "x/y").etag());
    }

    #[test]
    fn store_lookup() {
        let mut store = ResourceStore::new();
        store.add_synthetic("/a.bin", 100, "application/octet-stream");
        assert!(store.get("/a.bin").is_some());
        assert!(store.get("/missing").is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_replaces_same_path() {
        let mut store = ResourceStore::new();
        store.add_synthetic("/a.bin", 100, "x/y");
        store.add_synthetic("/a.bin", 200, "x/y");
        assert_eq!(store.get("/a.bin").unwrap().len(), 200);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn debug_does_not_dump_content() {
        let r = Resource::synthetic("/f.bin", 1 << 20, "x/y");
        let dbg = format!("{r:?}");
        assert!(dbg.len() < 200, "debug output too large: {dbg}");
    }
}
