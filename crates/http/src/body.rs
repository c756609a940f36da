use bytes::Bytes;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An HTTP message payload.
///
/// Bodies are cheaply cloneable because the testbed moves the same
/// multi-megabyte payload across several simulated connections while
/// metering each hop. A body is either one contiguous [`Bytes`] buffer
/// (the common case) or a rope: a shared list of `Bytes` chunks with its
/// total length cached. A `multipart/byteranges` payload is a rope of
/// framing slices interleaved with slices of the stored representation,
/// so building one copies no part bytes.
///
/// On both forms [`Body::len`] is O(1) and [`Body::slice`] is zero-copy.
/// Readers that can work chunk by chunk use [`Body::chunks`];
/// [`Body::as_bytes`] and [`Body::into_bytes`] flatten a rope once and
/// cache the result.
#[derive(Clone, Default)]
pub struct Body(Repr);

#[derive(Clone)]
enum Repr {
    Flat(Bytes),
    Rope(Arc<Rope>),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Flat(Bytes::new())
    }
}

struct Rope {
    /// At least two chunks, none of them empty.
    chunks: Vec<Bytes>,
    len: u64,
    /// The flattened payload, built on the first contiguous read.
    flat: OnceLock<Bytes>,
}

impl Rope {
    fn flattened(&self) -> &Bytes {
        self.flat.get_or_init(|| {
            let mut out = Vec::with_capacity(self.len as usize);
            for chunk in &self.chunks {
                out.extend_from_slice(chunk);
            }
            Bytes::from(out)
        })
    }
}

impl Body {
    /// An empty body.
    pub fn empty() -> Body {
        Body::default()
    }

    /// Wraps existing bytes without copying.
    pub fn from_bytes(bytes: Bytes) -> Body {
        Body(Repr::Flat(bytes))
    }

    /// Concatenates `chunks` without copying them. Empty chunks are
    /// dropped, and a single remaining chunk gives a contiguous body.
    pub(crate) fn from_chunks(chunks: impl IntoIterator<Item = Bytes>) -> Body {
        let mut chunks: Vec<Bytes> = chunks.into_iter().filter(|c| !c.is_empty()).collect();
        match chunks.len() {
            0 => Body::empty(),
            1 => Body::from_bytes(chunks.pop().expect("one chunk")),
            _ => {
                let len = chunks.iter().map(|c| c.len() as u64).sum();
                Body(Repr::Rope(Arc::new(Rope {
                    chunks,
                    len,
                    flat: OnceLock::new(),
                })))
            }
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> u64 {
        match &self.0 {
            Repr::Flat(bytes) => bytes.len() as u64,
            Repr::Rope(rope) => rope.len,
        }
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload's non-empty chunks in order. A contiguous body has at
    /// most one.
    pub fn chunks(&self) -> Chunks<'_> {
        let chunks = match &self.0 {
            Repr::Flat(bytes) if bytes.is_empty() => &[],
            Repr::Flat(bytes) => std::slice::from_ref(bytes),
            Repr::Rope(rope) => rope.chunks.as_slice(),
        };
        Chunks(chunks.iter())
    }

    /// View of the payload bytes. A rope is flattened on the first call
    /// and the copy is cached; prefer [`Body::chunks`] on hot paths.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Flat(bytes) => bytes,
            Repr::Rope(rope) => rope.flattened(),
        }
    }

    /// Zero-copy sub-slice of the payload (used when a CDN slices a cached
    /// full representation down to the client's requested range). A slice
    /// of a rope is a rope over the covered chunks.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: u64, end_exclusive: u64) -> Body {
        let rope = match &self.0 {
            Repr::Flat(bytes) => {
                return Body::from_bytes(bytes.slice(start as usize..end_exclusive as usize))
            }
            Repr::Rope(rope) => rope,
        };
        assert!(
            start <= end_exclusive && end_exclusive <= rope.len,
            "slice {start}..{end_exclusive} out of bounds of a {}-byte body",
            rope.len
        );
        let mut pieces = Vec::new();
        let mut at = 0u64;
        for chunk in &rope.chunks {
            let chunk_end = at + chunk.len() as u64;
            if chunk_end > start && at < end_exclusive {
                let from = start.saturating_sub(at) as usize;
                let to = (end_exclusive.min(chunk_end) - at) as usize;
                pieces.push(chunk.slice(from..to));
            }
            if chunk_end >= end_exclusive {
                break;
            }
            at = chunk_end;
        }
        Body::from_chunks(pieces)
    }

    /// Consumes the body, returning the underlying bytes (flattening a
    /// rope, as [`Body::as_bytes`] does).
    pub fn into_bytes(self) -> Bytes {
        match self.0 {
            Repr::Flat(bytes) => bytes,
            Repr::Rope(rope) => rope.flattened().clone(),
        }
    }
}

/// Iterator over a [`Body`]'s chunks, returned by [`Body::chunks`].
#[derive(Debug, Clone)]
pub struct Chunks<'a>(std::slice::Iter<'a, Bytes>);

impl<'a> Iterator for Chunks<'a> {
    type Item = &'a Bytes;

    fn next(&mut self) -> Option<&'a Bytes> {
        self.0.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Chunks<'_> {}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        if let (Repr::Flat(a), Repr::Flat(b)) = (&self.0, &other.0) {
            return a == b;
        }
        if self.len() != other.len() {
            return false;
        }
        // Equal lengths: walk both chunk lists in step.
        let (mut left, mut right) = (self.chunks(), other.chunks());
        let (mut a, mut b): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if a.is_empty() {
                match left.next() {
                    Some(chunk) => a = chunk,
                    None => return true,
                }
            }
            if b.is_empty() {
                match right.next() {
                    Some(chunk) => b = chunk,
                    None => return false,
                }
            }
            let n = a.len().min(b.len());
            if a[..n] != b[..n] {
                return false;
            }
            a = &a[n..];
            b = &b[n..];
        }
    }
}

impl Eq for Body {}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Body({} bytes)", self.len())
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Body {
        Body::from_bytes(Bytes::from(bytes))
    }
}

impl From<&'static str> for Body {
    fn from(text: &'static str) -> Body {
        Body::from_bytes(Bytes::from_static(text.as_bytes()))
    }
}

impl From<Bytes> for Body {
    fn from(bytes: Bytes) -> Body {
        Body::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rope(parts: &[&[u8]]) -> Body {
        Body::from_chunks(parts.iter().map(|p| Bytes::copy_from_slice(p)))
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let body = Body::from(vec![0u8, 1, 2, 3, 4, 5]);
        let part = body.slice(2, 5);
        assert_eq!(part.as_bytes(), &[2, 3, 4]);
        assert_eq!(part.len(), 3);
    }

    #[test]
    fn empty_body() {
        let body = Body::empty();
        assert!(body.is_empty());
        assert_eq!(body.len(), 0);
        assert_eq!(body.chunks().count(), 0);
    }

    #[test]
    fn debug_shows_length_not_content() {
        let body = Body::from(vec![0u8; 1024]);
        assert_eq!(format!("{body:?}"), "Body(1024 bytes)");
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_slice_panics() {
        Body::from(vec![0u8; 4]).slice(2, 10);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_rope_slice_panics() {
        rope(&[b"ab", b"cd"]).slice(2, 5);
    }

    #[test]
    fn from_chunks_drops_empty_chunks() {
        assert_eq!(rope(&[b"", b""]).chunks().count(), 0);
        assert_eq!(rope(&[b"", b"ab", b""]).chunks().count(), 1);
        let body = rope(&[b"ab", b"", b"cde"]);
        assert_eq!(body.chunks().count(), 2);
        assert_eq!(body.len(), 5);
    }

    #[test]
    fn rope_slice_shares_chunk_storage() {
        let body = rope(&[b"abc", b"defg", b"hi"]);
        let inner = body.slice(1, 8);
        let chunks: Vec<&[u8]> = inner.chunks().map(|c| c.as_ref()).collect();
        assert_eq!(chunks, [&b"bc"[..], b"defg", b"h"]);
        // A slice inside one chunk is contiguous.
        assert_eq!(body.slice(3, 7).chunks().count(), 1);
        assert_eq!(body.slice(3, 7), Body::from(b"defg".to_vec()));
    }

    #[test]
    fn as_bytes_flattens_once() {
        let body = rope(&[b"ab", b"cd"]);
        let first = body.as_bytes().as_ptr();
        assert_eq!(body.as_bytes(), b"abcd");
        assert_eq!(body.as_bytes().as_ptr(), first);
        // Clones share the cache.
        assert_eq!(body.clone().as_bytes().as_ptr(), first);
    }

    /// Cuts `data` at the given points (clamped and sorted), keeping the
    /// empty pieces that repeated cut points produce.
    fn split(data: &[u8], cuts: &[usize]) -> Vec<Bytes> {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let mut pieces = Vec::new();
        let mut at = 0;
        for cut in cuts {
            pieces.push(Bytes::copy_from_slice(&data[at..cut]));
            at = cut;
        }
        pieces.push(Bytes::copy_from_slice(&data[at..]));
        pieces
    }

    proptest! {
        #[test]
        fn rope_agrees_with_flat_body(
            data in proptest::collection::vec(any::<u8>(), 0..200),
            cuts in proptest::collection::vec(0usize..220, 0..12),
            a in 0usize..220,
            b in 0usize..220,
            c in 0usize..220,
            d in 0usize..220,
        ) {
            let flat = Body::from(data.clone());
            let rope = Body::from_chunks(split(&data, &cuts));
            prop_assert_eq!(rope.len(), flat.len());
            prop_assert_eq!(rope.is_empty(), flat.is_empty());
            prop_assert_eq!(rope.as_bytes(), flat.as_bytes());
            prop_assert_eq!(format!("{rope:?}"), format!("{flat:?}"));
            let joined: Vec<u8> = rope.chunks().flat_map(|c| c.iter().copied()).collect();
            prop_assert_eq!(&joined, &data);
            prop_assert!(rope.chunks().all(|c| !c.is_empty()));
            prop_assert!(rope == flat);
            prop_assert!(flat == rope);

            // Slices across chunk boundaries, and slices of slices.
            let len = data.len();
            let (start, end) = (a.min(len).min(b.min(len)), a.min(len).max(b.min(len)));
            let (rs, fs) = (rope.slice(start as u64, end as u64), flat.slice(start as u64, end as u64));
            prop_assert_eq!(rs.len(), fs.len());
            prop_assert!(rs == fs);
            prop_assert_eq!(rs.as_bytes(), &data[start..end]);
            let inner = end - start;
            let (s2, e2) = (c.min(inner).min(d.min(inner)), c.min(inner).max(d.min(inner)));
            let nested = rs.slice(s2 as u64, e2 as u64);
            prop_assert!(nested == fs.slice(s2 as u64, e2 as u64));
            prop_assert_eq!(nested.as_bytes(), &data[start + s2..start + e2]);

            // Inequality is detected at any position.
            if !data.is_empty() {
                let mut other = data.clone();
                other[a % len] ^= 1;
                let changed = Body::from_chunks(split(&other, &cuts));
                prop_assert!(rope != changed && changed != flat);
            }
            let flattened = rope.into_bytes();
            prop_assert_eq!(&flattened[..], data.as_slice());
        }
    }
}
