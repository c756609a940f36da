use bytes::Bytes;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// An HTTP message payload.
///
/// Bodies are cheaply cloneable because the testbed moves the same
/// multi-megabyte payload across several simulated connections while
/// metering each hop. A body takes one of three forms:
///
/// * *flat*: one contiguous [`Bytes`] buffer (the common case);
/// * *rope*: a shared list of entries with its total length cached. An
///   entry is a `Bytes` chunk repeated k ≥ 1 times, or a *run*, a short
///   list of such chunks repeated k ≥ 2 times. A `multipart/byteranges`
///   payload is a rope of framing slices and slices of the stored
///   representation, with one run per group of identical consecutive
///   parts, so building one copies no part bytes and costs the same for
///   `bytes=0-,0-` as for 10,000 copies of `0-`;
/// * *periodic* ([`Body::periodic`]): `len` bytes of an endless
///   repetition of a shared block, which is never materialised. A
///   synthetic origin resource of any size costs one block.
///
/// On every form [`Body::len`] is O(1) and [`Body::slice`] is zero-copy.
/// Readers that can work chunk by chunk use [`Body::chunks`], which
/// yields a repeated chunk or run once per repetition and a periodic
/// body block by block; [`Body::as_bytes`] and [`Body::into_bytes`]
/// flatten a rope or a periodic source once and cache the result.
#[derive(Clone, Default)]
pub struct Body(Repr);

#[derive(Clone)]
enum Repr {
    Flat(Bytes),
    Rope(Arc<Rope>),
    Periodic(Periodic),
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

/// A non-empty chunk repeated `times >= 1` times.
#[derive(Clone)]
struct Piece {
    chunk: Bytes,
    times: u64,
}

/// One stretch of a rope.
#[derive(Clone)]
enum Entry {
    Piece(Piece),
    Run(Run),
}

/// A non-empty piece list repeated `times >= 2` times.
#[derive(Clone)]
struct Run {
    pieces: Arc<[Piece]>,
    /// Length of one repetition.
    pass_len: u64,
    /// Chunks one repetition yields.
    pass_chunks: usize,
    times: u64,
}

impl Piece {
    fn len(&self) -> u64 {
        self.chunk.len() as u64 * self.times
    }
}

impl Entry {
    fn len(&self) -> u64 {
        match self {
            Entry::Piece(piece) => piece.len(),
            Entry::Run(run) => run.pass_len * run.times,
        }
    }

    fn chunk_count(&self) -> usize {
        match self {
            Entry::Piece(piece) => piece.times as usize,
            Entry::Run(run) => run.pass_chunks * run.times as usize,
        }
    }
}

impl Rope {
    fn chunks(&self) -> Chunks<'_> {
        Chunks {
            chunk: &[],
            repeats: 0,
            pass: [].iter(),
            run: &[],
            passes_left: 0,
            entries: self.entries.iter(),
            then: NOTHING_AFTER.into_iter(),
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

/// Bytes `start..end` (`start < end`) of a `unit`-byte unit repeated
/// endlessly, cut at unit boundaries: the covered part of the first unit
/// (empty when `start` is on a boundary and the range spans more than
/// one unit), the number of whole units after it, and the length of the
/// partial unit at the end.
fn cut(unit: u64, start: u64, end: u64) -> (Range<u64>, u64, u64) {
    let first = start / unit;
    if first == (end - 1) / unit {
        return (start - first * unit..end - first * unit, 0, 0);
    }
    let at = start % unit;
    let head = if at == 0 { 0..0 } else { at..unit };
    (head, end / unit - start.div_ceil(unit), end % unit)
}

/// The first `len` bytes of an endless repetition of `block`.
struct Source {
    /// Whole periods: byte `i` of the source is `block[i % block.len()]`.
    block: Bytes,
    period: u64,
    len: u64,
    /// The whole source, built on the first contiguous read of any view.
    /// A `Vec` rather than `Bytes`, which would copy it once more and
    /// briefly hold it twice.
    flat: OnceLock<Vec<u8>>,
}

impl Source {
    /// Bytes `start..start + len` of the source: a slice of the block if
    /// they fit in one window of it, else a view.
    fn view(source: &Arc<Source>, start: u64, len: u64) -> Body {
        let at = start % source.period;
        if at + len <= source.block.len() as u64 {
            return Body::from_bytes(source.block.slice(at as usize..(at + len) as usize));
        }
        Body(Repr::Periodic(Periodic {
            source: Arc::clone(source),
            start,
            len,
        }))
    }

    fn flattened(&self) -> &[u8] {
        self.flat.get_or_init(|| {
            let len = self.len as usize;
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                let take = (len - out.len()).min(self.block.len());
                out.extend_from_slice(&self.block[..take]);
            }
            out
        })
    }
}

/// `len` bytes from position `start` of a periodic source, more than
/// fit in one window of its block.
#[derive(Clone)]
struct Periodic {
    source: Arc<Source>,
    start: u64,
    len: u64,
}

impl Periodic {
    /// The view in block coordinates: the part of the first block it
    /// covers, then whole blocks, then the length of the last block's
    /// covered prefix.
    fn cut(&self) -> (Range<usize>, u64, usize) {
        let at = self.start % self.source.period;
        let (head, whole, tail) = cut(self.source.block.len() as u64, at, at + self.len);
        (head.start as usize..head.end as usize, whole, tail as usize)
    }

    fn chunk_count(&self) -> usize {
        let (head, whole, tail) = self.cut();
        usize::from(!head.is_empty()) + whole as usize + usize::from(tail > 0)
    }

    /// The view as at most three pieces: head, repeated block, tail.
    fn pieces(&self) -> impl Iterator<Item = Piece> + '_ {
        let (head, whole, tail) = self.cut();
        let block = &self.source.block;
        [
            (block.slice(head), 1),
            (block.clone(), whole),
            (block.slice(..tail), 1),
        ]
        .into_iter()
        .filter(|(chunk, times)| !chunk.is_empty() && *times > 0)
        .map(|(chunk, times)| Piece { chunk, times })
    }
}

/// Assembles a body from chunks, bodies and runs without copying their
/// bytes. Empty chunks and empty runs are dropped; a single remaining
/// chunk gives a contiguous body.
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
        self.push_repeated(chunk, 1);
    }

    /// Appends `chunk` repeated `times` times.
    fn push_repeated(&mut self, chunk: Bytes, times: u64) {
        if !chunk.is_empty() && times > 0 {
            self.push_entry(Entry::Piece(Piece { chunk, times }));
        }
    }

    fn push_entry(&mut self, entry: Entry) {
        self.len += entry.len();
        self.chunk_count += entry.chunk_count();
        self.entries.push(entry);
    }

    /// Appends `body`: a flat body as one chunk, a periodic one as its
    /// head, one repeated block and its tail, a rope as its entries.
    pub(crate) fn push_body(&mut self, body: &Body) {
        match &body.0 {
            Repr::Flat(bytes) => self.push(bytes.clone()),
            Repr::Rope(rope) => {
                for entry in &rope.entries {
                    self.push_entry(entry.clone());
                }
            }
            Repr::Periodic(view) => {
                for piece in view.pieces() {
                    self.push_entry(Entry::Piece(piece));
                }
            }
        }
    }

    /// Appends `head` then `body`, the two repeated `times` times.
    pub(crate) fn push_run_of(&mut self, head: Bytes, body: &Body, times: u64) {
        // Room for the head and a flat or periodic body's pieces.
        let mut pass = Vec::with_capacity(4);
        pass.push(Piece {
            chunk: head,
            times: 1,
        });
        match &body.0 {
            Repr::Flat(bytes) => pass.push(Piece {
                chunk: bytes.clone(),
                times: 1,
            }),
            // A run holds pieces, not runs: a rope's runs are unrolled.
            Repr::Rope(rope) => {
                for entry in &rope.entries {
                    match entry {
                        Entry::Piece(piece) => pass.push(piece.clone()),
                        Entry::Run(run) => {
                            for _ in 0..run.times {
                                pass.extend(run.pieces.iter().cloned());
                            }
                        }
                    }
                }
            }
            Repr::Periodic(view) => pass.extend(view.pieces()),
        }
        self.push_run(pass, times);
    }

    /// Appends `pieces` repeated `times` times.
    fn push_run(&mut self, mut pieces: Vec<Piece>, times: u64) {
        pieces.retain(|piece| !piece.chunk.is_empty() && piece.times > 0);
        let pass_len = pieces.iter().map(Piece::len).sum();
        let pass_chunks = pieces.iter().map(|piece| piece.times as usize).sum();
        self.push_shared_run(&pieces.into(), pass_len, pass_chunks, times);
    }

    fn push_shared_run(
        &mut self,
        pieces: &Arc<[Piece]>,
        pass_len: u64,
        pass_chunks: usize,
        times: u64,
    ) {
        if pass_len == 0 || times == 0 {
            return;
        }
        if times == 1 {
            for piece in pieces.iter() {
                self.push_entry(Entry::Piece(piece.clone()));
            }
            return;
        }
        self.push_entry(Entry::Run(Run {
            pieces: pieces.clone(),
            pass_len,
            pass_chunks,
            times,
        }));
    }

    /// Appends bytes `start..end` (`start < end`) of `piece`: partial
    /// repetitions at either end become chunks, the whole ones between
    /// them a repeated chunk.
    fn push_slice_of_piece(&mut self, piece: &Piece, start: u64, end: u64) {
        let chunk = &piece.chunk;
        let (head, whole, tail) = cut(chunk.len() as u64, start, end);
        self.push(chunk.slice(head.start as usize..head.end as usize));
        self.push_repeated(chunk.clone(), whole);
        self.push(chunk.slice(..tail as usize));
    }

    /// Appends bytes `start..end` of the concatenation of `pieces`.
    fn push_slice_of(&mut self, pieces: &[Piece], start: u64, end: u64) {
        let mut at = 0u64;
        for piece in pieces {
            let piece_end = at + piece.len();
            if piece_end > start && at < end {
                let from = start.saturating_sub(at);
                let to = end.min(piece_end) - at;
                self.push_slice_of_piece(piece, from, to);
            }
            if piece_end >= end {
                break;
            }
            at = piece_end;
        }
    }

    /// Appends bytes `start..end` (`start < end`) of `run`: partial
    /// repetitions at either end become pieces, the whole ones between
    /// them a shorter run.
    fn push_slice_of_run(&mut self, run: &Run, start: u64, end: u64) {
        let (head, whole, tail) = cut(run.pass_len, start, end);
        if !head.is_empty() {
            self.push_slice_of(&run.pieces, head.start, head.end);
        }
        self.push_shared_run(&run.pieces, run.pass_len, run.pass_chunks, whole);
        if tail > 0 {
            self.push_slice_of(&run.pieces, 0, tail);
        }
    }

    pub(crate) fn build(mut self) -> Body {
        if self.chunk_count < 2 {
            return match self.entries.pop() {
                Some(Entry::Piece(piece)) => Body::from_bytes(piece.chunk),
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

    /// A `len`-byte body whose byte `i` is `block[i % period]`, without
    /// materialising it: `block` holds whole periods and is shared by the
    /// body, its clones and its slices. A body or slice that fits in one
    /// window of the block (any of at most `block.len() - period + 1`
    /// bytes does) is a contiguous slice of it; a longer one is a view
    /// whose [`Body::chunks`] are block-sized.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `block.len()` is not a non-zero
    /// multiple of it.
    pub fn periodic(block: Bytes, period: usize, len: u64) -> Body {
        assert!(
            period > 0 && !block.is_empty() && block.len() % period == 0,
            "a {}-byte block is not whole {period}-byte periods",
            block.len()
        );
        if len <= block.len() as u64 {
            return Body::from_bytes(block.slice(..len as usize));
        }
        let source = Arc::new(Source {
            block,
            period: period as u64,
            len,
            flat: OnceLock::new(),
        });
        Source::view(&source, 0, len)
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
            Repr::Periodic(view) => view.len,
        }
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload's non-empty chunks in order: a repeated chunk or run
    /// once per repetition, a periodic body block by block. A contiguous
    /// body has at most one.
    pub fn chunks(&self) -> Chunks<'_> {
        match &self.0 {
            Repr::Flat(bytes) => Chunks {
                chunk: bytes,
                repeats: u64::from(!bytes.is_empty()),
                pass: [].iter(),
                run: &[],
                passes_left: 0,
                entries: [].iter(),
                then: NOTHING_AFTER.into_iter(),
                remaining: usize::from(!bytes.is_empty()),
            },
            Repr::Rope(rope) => rope.chunks(),
            Repr::Periodic(view) => {
                let (head, whole, tail) = view.cut();
                let block = &view.source.block[..];
                Chunks {
                    chunk: &block[head.clone()],
                    repeats: u64::from(!head.is_empty()),
                    pass: [].iter(),
                    run: &[],
                    passes_left: 0,
                    entries: [].iter(),
                    then: [(block, whole), (&block[..tail], u64::from(tail > 0))].into_iter(),
                    remaining: view.chunk_count(),
                }
            }
        }
    }

    /// View of the payload bytes. A rope is flattened on the first call
    /// and the copy is cached; a periodic body's whole source is, and
    /// every view of the source shares the copy. Prefer [`Body::chunks`]
    /// on hot paths.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Flat(bytes) => bytes,
            Repr::Rope(rope) => rope.flattened(),
            Repr::Periodic(view) => {
                &view.source.flattened()[view.start as usize..(view.start + view.len) as usize]
            }
        }
    }

    /// Zero-copy sub-slice of the payload (used when a CDN slices a cached
    /// full representation down to the client's requested range). A slice
    /// of a rope is a rope over the covered chunks and repetitions; a
    /// slice of a periodic body is another view of its source.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: u64, end_exclusive: u64) -> Body {
        if let Repr::Flat(bytes) = &self.0 {
            return Body::from_bytes(bytes.slice(start as usize..end_exclusive as usize));
        }
        let len = self.len();
        assert!(
            start <= end_exclusive && end_exclusive <= len,
            "slice {start}..{end_exclusive} out of bounds of a {len}-byte body"
        );
        let rope = match &self.0 {
            Repr::Rope(rope) => rope,
            Repr::Periodic(view) => {
                return Source::view(&view.source, view.start + start, end_exclusive - start)
            }
            Repr::Flat(_) => unreachable!("handled above"),
        };
        let mut pieces = RopeBuilder::default();
        let mut at = 0u64;
        for entry in &rope.entries {
            let entry_end = at + entry.len();
            if entry_end > start && at < end_exclusive {
                let from = start.saturating_sub(at);
                let to = end_exclusive.min(entry_end) - at;
                match entry {
                    Entry::Piece(piece) => pieces.push_slice_of_piece(piece, from, to),
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
    /// rope as [`Body::as_bytes`] does; a periodic body's bytes are
    /// copied out of its source's flat copy).
    pub fn into_bytes(self) -> Bytes {
        match self.0 {
            Repr::Flat(bytes) => bytes,
            Repr::Rope(rope) => rope.flattened().clone(),
            Repr::Periodic(_) => Bytes::copy_from_slice(self.as_bytes()),
        }
    }
}

/// [`Chunks::then`] of a body with nothing after its other chunks.
const NOTHING_AFTER: [(&[u8], u64); 2] = [(&[], 0); 2];

/// Iterator over a [`Body`]'s chunks, returned by [`Body::chunks`].
#[derive(Clone)]
pub struct Chunks<'a> {
    /// The current chunk, and how many more times it is yielded.
    chunk: &'a [u8],
    repeats: u64,
    /// What is left of the current run's pass.
    pass: std::slice::Iter<'a, Piece>,
    /// The current run's pieces, and how many more times they repeat.
    run: &'a [Piece],
    passes_left: u64,
    /// Rope entries not yet started.
    entries: std::slice::Iter<'a, Entry>,
    /// Chunks after everything else, each with its repeat count: a
    /// periodic body's whole blocks and tail.
    then: std::array::IntoIter<(&'a [u8], u64), 2>,
    remaining: usize,
}

impl<'a> Iterator for Chunks<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        loop {
            if self.repeats > 0 {
                self.repeats -= 1;
                self.remaining -= 1;
                return Some(self.chunk);
            }
            if let Some(piece) = self.pass.next() {
                (self.chunk, self.repeats) = (&piece.chunk[..], piece.times);
                continue;
            }
            if self.passes_left > 0 {
                self.passes_left -= 1;
                self.pass = self.run.iter();
                continue;
            }
            match self.entries.next() {
                Some(Entry::Piece(piece)) => {
                    (self.chunk, self.repeats) = (&piece.chunk[..], piece.times)
                }
                Some(Entry::Run(run)) => {
                    self.run = &run.pieces;
                    self.passes_left = run.times - 1;
                    self.pass = run.pieces.iter();
                }
                None => (self.chunk, self.repeats) = self.then.next()?,
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
            (Repr::Periodic(a), Repr::Periodic(b))
                if Arc::ptr_eq(&a.source, &b.source) && a.start == b.start =>
            {
                return a.len == b.len
            }
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
        let chunks: Vec<&[u8]> = inner.chunks().collect();
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
        let run = pieces[lo..hi].iter().map(|chunk| Piece {
            chunk: chunk.clone(),
            times: 1,
        });
        rope.push_run(run.collect(), times);
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
        let chunks: Vec<&[u8]> = body.chunks().collect();
        assert_eq!(chunks, [&b"a"[..], b"bc", b"bc", b"bc", b"bc", b"def"]);
        assert_eq!(body.chunks().len(), 6);
        // A slice keeps whole repetitions as a run over the same chunks.
        let inner = body.slice(2, 10);
        assert_eq!(inner.as_bytes(), b"cbcbcbcd");
        let first = body.chunks().nth(1).unwrap().as_ptr();
        assert!(inner.chunks().skip(1).take(2).all(|c| c.as_ptr() == first));
    }

    /// A periodic body over a 16-byte block of four 4-byte periods.
    fn periodic(len: u64) -> (Body, Vec<u8>) {
        let block: Vec<u8> = (0..16u8).map(|i| i % 4 * 10).collect();
        let bytes = (0..len as usize).map(|i| block[i % 16]).collect();
        (Body::periodic(Bytes::from(block), 4, len), bytes)
    }

    #[test]
    fn a_periodic_body_within_one_block_window_is_flat() {
        let (body, bytes) = periodic(16);
        assert!(matches!(body.0, Repr::Flat(_)));
        assert_eq!(body.as_bytes(), bytes);
        let (long, bytes) = periodic(100);
        assert!(matches!(long.0, Repr::Periodic(_)));
        // Any 13 bytes (block less one period, plus one) fit in a window.
        for start in 0..87 {
            let slice = long.slice(start, start + 13);
            assert!(matches!(slice.0, Repr::Flat(_)), "{start}");
            assert_eq!(
                slice.as_bytes(),
                &bytes[start as usize..start as usize + 13]
            );
        }
        assert!(matches!(long.slice(3, 17).0, Repr::Periodic(_)));
    }

    #[test]
    fn periodic_chunks_are_block_sized() {
        let (body, bytes) = periodic(100);
        let part = body.slice(5, 95);
        let lens: Vec<usize> = part.chunks().map(<[u8]>::len).collect();
        assert_eq!(lens, [15, 16, 16, 16, 16, 11]);
        assert_eq!(part.chunks().len(), 6);
        assert_eq!(part.as_bytes(), &bytes[5..95]);
    }

    #[test]
    fn periodic_views_share_one_flat_copy() {
        let (body, _) = periodic(100);
        let part = body.slice(20, 80);
        let base = body.as_bytes().as_ptr();
        assert_eq!(part.as_bytes().as_ptr(), base.wrapping_add(20));
        assert_eq!(
            part.slice(10, 40).as_bytes().as_ptr(),
            base.wrapping_add(30)
        );
        assert_eq!(&body.clone().into_bytes()[..], body.as_bytes());
    }

    #[test]
    fn a_periodic_body_enters_a_rope_as_at_most_three_pieces() {
        let (body, bytes) = periodic(1 << 20);
        let part = body.slice(3, (1 << 20) - 3);
        let mut rope = RopeBuilder::default();
        rope.push(Bytes::from_static(b"head"));
        rope.push_body(&part);
        let built = rope.build();
        let Repr::Rope(inner) = &built.0 else {
            panic!("a rope")
        };
        assert_eq!(inner.entries.len(), 4, "head, then block head, run, tail");
        assert_eq!(&built.as_bytes()[4..], &bytes[3..(1 << 20) - 3]);

        let mut rope = RopeBuilder::default();
        rope.push_run_of(Bytes::from_static(b"h"), &part, 3);
        let built = rope.build();
        let Repr::Rope(inner) = &built.0 else {
            panic!("a rope")
        };
        assert!(matches!(&inner.entries[..], [Entry::Run(run)] if run.pieces.len() == 4));
        assert_eq!(built.len(), 3 * (1 + part.len()));
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

        #[test]
        fn periodic_body_agrees_with_flat_body(
            period in 1usize..6,
            periods in 1usize..5,
            len in 0u64..200,
            cuts in proptest::collection::vec(0u64..1000, 4..5),
            times in 1u64..4,
        ) {
            let block: Vec<u8> = (0..period * periods).map(|i| (i % period) as u8 * 7).collect();
            let data: Vec<u8> = (0..len as usize).map(|i| block[i % period]).collect();
            let body = Body::periodic(Bytes::from(block), period, len);
            let flat = Body::from(data.clone());
            let (a, b) = (cuts[0] % (len + 1), cuts[1] % (len + 1));
            let (start, end) = (a.min(b), a.max(b));
            let slice = body.slice(start, end);
            let inner = end - start;
            let (c, d) = (cuts[2] % (inner + 1), cuts[3] % (inner + 1));
            let nested = slice.slice(c.min(d), c.max(d));
            let nested_data = &data[(start + c.min(d)) as usize..(start + c.max(d)) as usize];
            for (body, data) in [(&body, &data[..]), (&slice, &data[start as usize..end as usize]), (&nested, nested_data)] {
                let flat = Body::from(data.to_vec());
                prop_assert_eq!(body.len(), data.len() as u64);
                let joined: Vec<u8> = body.chunks().flat_map(|c| c.iter().copied()).collect();
                prop_assert_eq!(joined.as_slice(), data);
                prop_assert_eq!(body.chunks().len(), body.chunks().count());
                prop_assert!(body.chunks().all(|c| !c.is_empty() && c.len() <= period * periods));
                prop_assert!(*body == flat);
                prop_assert!(flat == *body);
                prop_assert_eq!(body.as_bytes(), data);

                // In a rope, alone and as a run, and sliced from there.
                let mut rope = RopeBuilder::default();
                rope.push(Bytes::from_static(b"<"));
                rope.push_body(body);
                rope.push_run_of(Bytes::from_static(b"|"), body, times);
                let mut expected = b"<".to_vec();
                expected.extend_from_slice(data);
                for _ in 0..times {
                    expected.push(b'|');
                    expected.extend_from_slice(data);
                }
                let rope = rope.build();
                prop_assert_eq!(rope.as_bytes(), expected.as_slice());
                prop_assert_eq!(rope.chunks().len(), rope.chunks().count());
                let whole = expected.len() as u64;
                let (e, f) = (cuts[0] % (whole + 1), cuts[3] % (whole + 1));
                let cut = rope.slice(e.min(f), e.max(f));
                prop_assert_eq!(cut.as_bytes(), &expected[e.min(f) as usize..e.max(f) as usize]);
                prop_assert!(cut == Body::from(expected[e.min(f) as usize..e.max(f) as usize].to_vec()));
            }
            prop_assert!(body == flat);
        }
    }
}
