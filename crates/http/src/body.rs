use bytes::Bytes;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An HTTP message payload.
///
/// Bodies are cheaply cloneable because the testbed moves the same
/// multi-megabyte payload across several simulated connections while
/// metering each hop. A body is either one contiguous [`Bytes`] buffer
/// (the common case) or a rope: a shared list of entries with its total
/// length cached. An entry is a `Bytes` chunk or a *run*, a short chunk
/// list repeated k times. A `multipart/byteranges` payload is a rope of
/// framing slices and slices of the stored representation, with one run
/// per group of identical consecutive parts, so building one copies no
/// part bytes and costs the same for `bytes=0-,0-` as for 10,000 copies
/// of `0-`.
///
/// On both forms [`Body::len`] is O(1) and [`Body::slice`] is zero-copy.
/// Readers that can work chunk by chunk use [`Body::chunks`], which
/// yields a run's chunks once per repetition; [`Body::as_bytes`] and
/// [`Body::into_bytes`] flatten a rope once and cache the result.
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
    /// Entries yielding at least two chunks in all, none of them empty.
    entries: Vec<Entry>,
    len: u64,
    /// Number of chunks the entries yield.
    chunk_count: usize,
    /// The flattened payload, built on the first contiguous read.
    flat: OnceLock<Bytes>,
}

/// One stretch of a rope.
enum Entry {
    Chunk(Bytes),
    Run(Run),
}

/// A non-empty chunk list repeated `times >= 2` times.
struct Run {
    chunks: Arc<[Bytes]>,
    /// Length of one repetition.
    pass_len: u64,
    times: u64,
}

impl Entry {
    fn len(&self) -> u64 {
        match self {
            Entry::Chunk(chunk) => chunk.len() as u64,
            Entry::Run(run) => run.pass_len * run.times,
        }
    }
}

impl Rope {
    fn chunks(&self) -> Chunks<'_> {
        Chunks {
            entries: self.entries.iter(),
            pass: [].iter(),
            run: &[],
            passes_left: 0,
            remaining: self.chunk_count,
        }
    }

    fn flattened(&self) -> &Bytes {
        self.flat.get_or_init(|| {
            let mut out = Vec::with_capacity(self.len as usize);
            for chunk in self.chunks() {
                out.extend_from_slice(chunk);
            }
            Bytes::from(out)
        })
    }
}

/// Assembles a body from chunks and runs without copying their bytes.
/// Empty chunks and empty runs are dropped; a single remaining chunk
/// gives a contiguous body.
#[derive(Default)]
pub(crate) struct RopeBuilder {
    entries: Vec<Entry>,
    len: u64,
    chunk_count: usize,
}

impl RopeBuilder {
    /// A builder with room for `entries` chunks and runs.
    pub(crate) fn with_capacity(entries: usize) -> RopeBuilder {
        RopeBuilder {
            entries: Vec::with_capacity(entries),
            ..RopeBuilder::default()
        }
    }

    /// Appends one chunk.
    pub(crate) fn push(&mut self, chunk: Bytes) {
        if chunk.is_empty() {
            return;
        }
        self.len += chunk.len() as u64;
        self.chunk_count += 1;
        self.entries.push(Entry::Chunk(chunk));
    }

    /// Appends `chunks` repeated `times` times.
    pub(crate) fn push_run(&mut self, mut chunks: Vec<Bytes>, times: u64) {
        chunks.retain(|c| !c.is_empty());
        let pass_len = chunks.iter().map(|c| c.len() as u64).sum();
        self.push_shared_run(&chunks.into(), pass_len, times);
    }

    fn push_shared_run(&mut self, chunks: &Arc<[Bytes]>, pass_len: u64, times: u64) {
        if pass_len == 0 || times == 0 {
            return;
        }
        if times == 1 {
            for chunk in chunks.iter() {
                self.push(chunk.clone());
            }
            return;
        }
        self.len += pass_len * times;
        self.chunk_count += chunks.len() * times as usize;
        self.entries.push(Entry::Run(Run {
            chunks: chunks.clone(),
            pass_len,
            times,
        }));
    }

    /// Appends bytes `start..end` of the concatenation of `chunks`.
    fn push_slice_of(&mut self, chunks: &[Bytes], start: u64, end: u64) {
        let mut at = 0u64;
        for chunk in chunks {
            let chunk_end = at + chunk.len() as u64;
            if chunk_end > start && at < end {
                let from = start.saturating_sub(at) as usize;
                let to = (end.min(chunk_end) - at) as usize;
                self.push(chunk.slice(from..to));
            }
            if chunk_end >= end {
                break;
            }
            at = chunk_end;
        }
    }

    /// Appends bytes `start..end` of `run`: partial repetitions at either
    /// end become chunks, the whole ones between them a shorter run.
    fn push_slice_of_run(&mut self, run: &Run, start: u64, end: u64) {
        let pass = run.pass_len;
        let (first, last) = (start / pass, (end - 1) / pass);
        if first == last {
            self.push_slice_of(&run.chunks, start - first * pass, end - first * pass);
            return;
        }
        let mut whole = first..last + 1;
        if start % pass != 0 {
            self.push_slice_of(&run.chunks, start % pass, pass);
            whole.start += 1;
        }
        if end % pass != 0 {
            whole.end -= 1;
        }
        self.push_shared_run(&run.chunks, pass, whole.end - whole.start);
        if end % pass != 0 {
            self.push_slice_of(&run.chunks, 0, end % pass);
        }
    }

    pub(crate) fn build(mut self) -> Body {
        if self.chunk_count < 2 {
            return match self.entries.pop() {
                Some(Entry::Chunk(chunk)) => Body::from_bytes(chunk),
                _ => Body::empty(),
            };
        }
        Body(Repr::Rope(Arc::new(Rope {
            entries: self.entries,
            len: self.len,
            chunk_count: self.chunk_count,
            flat: OnceLock::new(),
        })))
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
    #[cfg(test)]
    pub(crate) fn from_chunks(chunks: impl IntoIterator<Item = Bytes>) -> Body {
        let mut rope = RopeBuilder::default();
        for chunk in chunks {
            rope.push(chunk);
        }
        rope.build()
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

    /// The payload's non-empty chunks in order, a run's chunks once per
    /// repetition. A contiguous body has at most one.
    pub fn chunks(&self) -> Chunks<'_> {
        match &self.0 {
            Repr::Flat(bytes) => Chunks {
                entries: [].iter(),
                pass: if bytes.is_empty() {
                    [].iter()
                } else {
                    std::slice::from_ref(bytes).iter()
                },
                run: &[],
                passes_left: 0,
                remaining: usize::from(!bytes.is_empty()),
            },
            Repr::Rope(rope) => rope.chunks(),
        }
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
    /// of a rope is a rope over the covered chunks and repetitions.
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
        let mut pieces = RopeBuilder::default();
        let mut at = 0u64;
        for entry in &rope.entries {
            let entry_end = at + entry.len();
            if entry_end > start && at < end_exclusive {
                let from = start.saturating_sub(at);
                let to = end_exclusive.min(entry_end) - at;
                match entry {
                    Entry::Chunk(chunk) => pieces.push(chunk.slice(from as usize..to as usize)),
                    Entry::Run(run) => pieces.push_slice_of_run(run, from, to),
                }
            }
            if entry_end >= end_exclusive {
                break;
            }
            at = entry_end;
        }
        pieces.build()
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
#[derive(Clone)]
pub struct Chunks<'a> {
    /// Entries not yet started.
    entries: std::slice::Iter<'a, Entry>,
    /// What is left of the current chunk list.
    pass: std::slice::Iter<'a, Bytes>,
    /// The current run's chunks, and how many more times they repeat.
    run: &'a [Bytes],
    passes_left: u64,
    remaining: usize,
}

impl<'a> Iterator for Chunks<'a> {
    type Item = &'a Bytes;

    fn next(&mut self) -> Option<&'a Bytes> {
        loop {
            if let Some(chunk) = self.pass.next() {
                self.remaining -= 1;
                return Some(chunk);
            }
            if self.passes_left > 0 {
                self.passes_left -= 1;
                self.pass = self.run.iter();
                continue;
            }
            match self.entries.next()? {
                Entry::Chunk(chunk) => {
                    self.remaining -= 1;
                    return Some(chunk);
                }
                Entry::Run(run) => {
                    self.run = &run.chunks;
                    self.passes_left = run.times - 1;
                    self.pass = run.chunks.iter();
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Chunks<'_> {}

impl fmt::Debug for Chunks<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chunks")
            .field("remaining", &self.remaining)
            .finish()
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        match (&self.0, &other.0) {
            (Repr::Flat(a), Repr::Flat(b)) => return a == b,
            (Repr::Rope(a), Repr::Rope(b)) if Arc::ptr_eq(a, b) => return true,
            _ => {}
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

    /// Builds a rope from `pieces` whose pieces `run` (a range of piece
    /// indices) repeat `times` times, and the bytes it stands for.
    fn with_run(pieces: &[Bytes], run: (usize, usize), times: u64) -> (Body, Vec<u8>) {
        let (lo, hi) = (
            run.0.min(run.1).min(pieces.len()),
            run.0.max(run.1).min(pieces.len()),
        );
        let mut rope = RopeBuilder::default();
        let mut bytes = Vec::new();
        for piece in &pieces[..lo] {
            rope.push(piece.clone());
            bytes.extend_from_slice(piece);
        }
        rope.push_run(pieces[lo..hi].to_vec(), times);
        for _ in 0..times {
            for piece in &pieces[lo..hi] {
                bytes.extend_from_slice(piece);
            }
        }
        for piece in &pieces[hi..] {
            rope.push(piece.clone());
            bytes.extend_from_slice(piece);
        }
        (rope.build(), bytes)
    }

    #[test]
    fn run_len_and_chunks_count_every_repetition() {
        let (body, bytes) = with_run(&split(b"abcdef", &[1, 3]), (1, 2), 4);
        assert_eq!(bytes, b"abcbcbcbcdef");
        assert_eq!(body.len(), 12);
        let chunks: Vec<&[u8]> = body.chunks().map(|c| c.as_ref()).collect();
        assert_eq!(chunks, [&b"a"[..], b"bc", b"bc", b"bc", b"bc", b"def"]);
        assert_eq!(body.chunks().len(), 6);
        // A slice keeps whole repetitions as a run over the same chunks.
        let inner = body.slice(2, 10);
        assert_eq!(inner.as_bytes(), b"cbcbcbcd");
        let first = body.chunks().nth(1).unwrap().as_ptr();
        assert!(inner.chunks().skip(1).take(2).all(|c| c.as_ptr() == first));
    }

    proptest! {
        #[test]
        fn rope_agrees_with_flat_body(
            data in proptest::collection::vec(any::<u8>(), 0..200),
            cuts in proptest::collection::vec(0usize..220, 0..12),
            run in (0usize..14, 0usize..14),
            times in 0u64..6,
            a in 0usize..1200,
            b in 0usize..1200,
            c in 0usize..1200,
            d in 0usize..1200,
        ) {
            // Pieces `run` repeat `times` times (once: a plain rope).
            let (rope, data) = with_run(&split(&data, &cuts), run, times);
            let flat = Body::from(data.clone());
            prop_assert_eq!(rope.len(), flat.len());
            prop_assert_eq!(rope.is_empty(), flat.is_empty());
            prop_assert_eq!(rope.as_bytes(), flat.as_bytes());
            prop_assert_eq!(format!("{rope:?}"), format!("{flat:?}"));
            let joined: Vec<u8> = rope.chunks().flat_map(|c| c.iter().copied()).collect();
            prop_assert_eq!(&joined, &data);
            prop_assert_eq!(rope.chunks().len(), rope.chunks().count());
            prop_assert!(rope.chunks().all(|c| !c.is_empty()));
            prop_assert!(rope == flat);
            prop_assert!(flat == rope);

            // Slices across chunk and run boundaries, and slices of slices.
            let len = data.len();
            let (a, b) = (a % (len + 1), b % (len + 1));
            let (start, end) = (a.min(b), a.max(b));
            let (rs, fs) = (rope.slice(start as u64, end as u64), flat.slice(start as u64, end as u64));
            prop_assert_eq!(rs.len(), fs.len());
            prop_assert!(rs == fs);
            prop_assert_eq!(rs.as_bytes(), &data[start..end]);
            prop_assert_eq!(rs.chunks().len(), rs.chunks().count());
            let inner = end - start;
            let (c, d) = (c % (inner + 1), d % (inner + 1));
            let (s2, e2) = (c.min(d), c.max(d));
            let nested = rs.slice(s2 as u64, e2 as u64);
            prop_assert!(nested == fs.slice(s2 as u64, e2 as u64));
            prop_assert_eq!(nested.as_bytes(), &data[start + s2..start + e2]);

            // Inequality is detected at any position.
            if !data.is_empty() {
                let mut other = data.clone();
                other[a % len] ^= 1;
                let changed = Body::from_chunks(split(&other, &cuts));
                prop_assert!(rope != changed && changed != flat);
                prop_assert!(rope != Body::from(other));
            }
            let flattened = rope.into_bytes();
            prop_assert_eq!(&flattened[..], data.as_slice());
        }
    }
}
