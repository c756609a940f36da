use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use bytes::Bytes;
use rangeamp_http::{Body, HeaderValue};

/// Length of the synthetic content's period.
const PERIOD: usize = 256;
/// Length of a synthetic block: 4 KiB plus one period, so any slice of
/// up to 4 KiB fits in one block window and is a plain slice of it.
const BLOCK: usize = 4096 + PERIOD;

/// A static web resource served by the origin.
///
/// Content is synthetic but deterministic: byte *i* is a function of the
/// path hash and *i*, so range slices can be verified end-to-end without
/// storing reference copies.
#[derive(Clone)]
pub struct Resource {
    path: String,
    content_type: HeaderValue,
    content: Body,
    etag: HeaderValue,
}

impl Resource {
    /// Creates a resource with explicit content.
    ///
    /// # Panics
    ///
    /// Panics if `content_type` is not valid header text.
    pub fn new(path: &str, content_type: &str, content: impl Into<Bytes>) -> Resource {
        Resource::with_body(path, content_type, Body::from_bytes(content.into()))
    }

    fn with_body(path: &str, content_type: &str, content: Body) -> Resource {
        let etag = Resource::compute_etag(path, content.len());
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
    /// content, in O(1) time and memory whatever its size: the content is
    /// a [`Body::periodic`] view of a block shared by every resource with
    /// the same pattern, and it is materialised only if a reader asks for
    /// it contiguously ([`Body::as_bytes`]).
    pub fn synthetic(path: &str, size: u64, content_type: &str) -> Resource {
        // A 256-byte pattern keyed on the path: byte i is `(fnv1a(path)
        // ^ i) as u8`, which repeats every 256 bytes and depends only on
        // the hash's low byte. Any mis-sliced range is overwhelmingly
        // likely to be detected.
        let key = fnv1a(path.as_bytes()) as u8;
        let content = Body::periodic(block(key), PERIOD, size);
        Resource::with_body(path, content_type, content)
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
        self.content.len()
    }

    /// Whether the resource is empty.
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }

    /// Entire content as a zero-copy body.
    pub fn full_body(&self) -> Body {
        self.content.clone()
    }

    /// Zero-copy slice of the content covering the inclusive byte range.
    ///
    /// # Panics
    ///
    /// Panics if `last >= len()` or `first > last`.
    pub fn slice(&self, first: u64, last: u64) -> Body {
        assert!(first <= last && last < self.len(), "slice out of bounds");
        self.content.slice(first, last + 1)
    }

    /// Apache-style strong ETag.
    pub fn etag(&self) -> &str {
        self.etag.as_str()
    }

    /// The ETag as a shareable header value.
    pub fn etag_value(&self) -> &HeaderValue {
        &self.etag
    }

    fn compute_etag(path: &str, len: u64) -> HeaderValue {
        // Apache derives ETags from inode/mtime/size; we derive from
        // path/size, which is just as stable for a simulated filesystem.
        HeaderValue::new(format!("\"{:x}-{:x}\"", fnv1a(path.as_bytes()), len))
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

/// The synthetic block of pattern `key`: byte `j` is `key ^ j as u8`,
/// whole periods of `(seed ^ i) as u8` for any seed whose low byte is
/// `key`. Each of the 256 blocks is filled on first use and then shared
/// by every resource, clone and slice with that pattern.
fn block(key: u8) -> Bytes {
    static BLOCKS: [OnceLock<Bytes>; 256] = [const { OnceLock::new() }; 256];
    BLOCKS[usize::from(key)]
        .get_or_init(|| {
            let block: Vec<u8> = (0..BLOCK).map(|j| key ^ j as u8).collect();
            Bytes::from(block)
        })
        .clone()
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

/// The materialising fill `Resource::synthetic` used before its content
/// became periodic, kept as the reference the periodic bodies are
/// checked against.
#[cfg(test)]
mod model {
    use super::fnv1a;

    pub(super) fn synthetic(path: &str, size: u64) -> Vec<u8> {
        let seed = fnv1a(path.as_bytes());
        let period: [u8; 256] = std::array::from_fn(|i| (seed ^ i as u64) as u8);
        let size = size as usize;
        let mut content = Vec::with_capacity(size);
        while content.len() < size {
            let take = (size - content.len()).min(period.len());
            content.extend_from_slice(&period[..take]);
        }
        content
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rangeamp_http::multipart::MultipartBuilder;
    use rangeamp_http::range::ResolvedRange;
    use rangeamp_http::{Response, StatusCode};

    /// Sizes around the period and the block, and one past 1 MiB.
    const SIZES: [u64; 9] = [
        0,
        1,
        255,
        256,
        257,
        BLOCK as u64 - 1,
        BLOCK as u64,
        BLOCK as u64 + 1,
        (1 << 20) + 3,
    ];

    /// The concatenation of `body`'s chunks.
    fn joined(body: &Body) -> Vec<u8> {
        let mut out = Vec::with_capacity(body.len() as usize);
        for chunk in body.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }

    fn range(first: u64, end: u64) -> ResolvedRange {
        ResolvedRange {
            first,
            last: end - 1,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn periodic_content_agrees_with_the_materialised_model(
            size in 0usize..SIZES.len(),
            name in 0u32..1000,
            cuts in proptest::collection::vec(any::<u64>(), 4..5),
            times in 1usize..4,
        ) {
            let size = SIZES[size];
            let path = format!("/p{name}.bin");
            let resource = Resource::synthetic(&path, size, "x/y");
            let data = model::synthetic(&path, size);
            let (a, b) = (cuts[0] % (size + 1), cuts[1] % (size + 1));
            let (start, end) = (a.min(b), a.max(b));
            let (c, d) = (cuts[2] % (end - start + 1), cuts[3] % (end - start + 1));
            let (inner_start, inner_end) = (c.min(d), c.max(d));
            let full = resource.full_body();
            let slice = full.slice(start, end);
            let nested = slice.slice(inner_start, inner_end);
            let views = [
                (full.clone(), 0..size),
                (slice, start..end),
                (nested, start + inner_start..start + inner_end),
            ];
            for (body, span) in &views {
                let expected = &data[span.start as usize..span.end as usize];
                let flat = Body::from(expected.to_vec());
                prop_assert_eq!(body.len(), flat.len());
                prop_assert_eq!(joined(body), expected);
                prop_assert!(*body == flat);
                prop_assert!(flat == *body);
                prop_assert_eq!(body.as_bytes(), expected);

                // A multipart payload with the view as one part and as a
                // run of `times` parts, next to its flat copy.
                if !span.is_empty() {
                    let part = range(span.start, span.end);
                    let multipart = |body: &Body| {
                        MultipartBuilder::new("x/y", size)
                            .part(range(0, 1), full.slice(0, 1))
                            .ranges([(part, 1), (range(0, 1), 1), (part, times)], |_| body.clone())
                            .build()
                    };
                    let (built, modelled) = (multipart(body), multipart(&flat));
                    prop_assert!(built == modelled);
                    prop_assert!(modelled == built);
                    prop_assert_eq!(built.as_bytes(), modelled.as_bytes());
                    prop_assert_eq!(joined(&built), joined(&modelled));
                }

                // The wire encoding of a response carrying the view.
                let response = |body: &Body| {
                    Response::builder(StatusCode::OK)
                        .sized_body(body.clone())
                        .build()
                        .to_wire_bytes()
                };
                prop_assert_eq!(response(body), response(&flat));
            }
        }
    }

    #[test]
    fn views_of_one_resource_share_one_flat_copy() {
        let mut store = ResourceStore::new();
        store.add_synthetic("/f.bin", 1 << 20, "x/y");
        let copy = store.clone();
        let resource = store.get("/f.bin").unwrap();
        let full = resource.full_body();
        let base = full.as_bytes().as_ptr();
        assert_eq!(
            resource.slice(100_000, 199_999).as_bytes().as_ptr(),
            base.wrapping_add(100_000)
        );
        let other = copy.get("/f.bin").unwrap().full_body();
        assert_eq!(other.as_bytes().as_ptr(), base);
        assert_eq!(
            other.slice(5_000, 900_000).as_bytes().as_ptr(),
            base.wrapping_add(5_000)
        );
    }

    #[test]
    fn resources_with_one_pattern_share_one_block() {
        // Slices that fit in one block window are slices of the block,
        // whichever resource of that pattern they come from.
        let a = Resource::synthetic("/f.bin", 1 << 20, "x/y");
        let b = Resource::synthetic("/f.bin", 1 << 30, "x/y");
        let small = Resource::synthetic("/f.bin", 1024, "x/y");
        let block = small.full_body().as_bytes().as_ptr();
        assert_eq!(a.slice(0, 4095).as_bytes().as_ptr(), block);
        assert_eq!(
            b.slice(1 << 29, (1 << 29) + 4095).as_bytes().as_ptr(),
            block
        );
        assert_eq!(small.full_body().chunks().len(), 1, "flat");
        assert_eq!(a.slice(0, 4095).chunks().len(), 1, "flat");
    }

    #[test]
    fn a_huge_resource_costs_nothing_to_build_or_slice() {
        let r = Resource::synthetic("/huge.bin", 1 << 40, "x/y");
        assert_eq!(r.len(), 1 << 40);
        let seed = fnv1a(b"/huge.bin");
        let last = r.slice((1 << 40) - 2, (1 << 40) - 1);
        let expected: Vec<u8> = ((1u64 << 40) - 2..1 << 40)
            .map(|i| (seed ^ i) as u8)
            .collect();
        assert_eq!(last.as_bytes(), expected.as_slice());
    }

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
        for size in [0u64, 1, 255, 256, 257, 1000, 4096, 3 * BLOCK as u64 + 17] {
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
