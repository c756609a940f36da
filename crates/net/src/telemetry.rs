//! Deterministic hop-span tracing and the amplification flight recorder.
//!
//! The paper derives every result from *differential traffic observation*:
//! capture each message on each segment of the attacker → FCDN → BCDN →
//! origin path and compare byte counts (§V-A). [`SegmentStats`] gives the
//! aggregate view; this module adds the per-request view — a tree of
//! [`Span`]s that follows one client request through cache lookup, range
//! rewrite, upstream fetch attempts, retries, breaker transitions and
//! serve-stale fallbacks, with wire bytes attached to every hop.
//!
//! Determinism rules (also in DESIGN.md § Observability):
//!
//! * all timestamps come from the [virtual clock](crate::clock) —
//!   wall-clock time never enters a span;
//! * trace ids derive from the campaign seed via a splitmix64 mix, span
//!   ids and sequence numbers are simple monotonic counters — the same
//!   seed reproduces the same ids;
//! * spans are kept in a bounded ring buffer (the *flight recorder*);
//!   when full, the oldest spans are dropped deterministically;
//! * the Chrome-trace exporter emits events sorted by start sequence and
//!   hand-assembles the JSON, so equal inputs yield byte-identical files.
//!
//! Trace context propagates **in process** through a tracer-held span
//! stack rather than through HTTP headers: injecting headers would change
//! `wire_len` on every segment and perturb the very byte counts the
//! testbed exists to measure. The simulator's call tree is synchronous,
//! so the enclosing [`ActiveSpan`] is always the top of the stack. A
//! [`Tracer`] is therefore meant to observe one request tree at a time;
//! concurrent flood experiments (`FlowSim`) model bandwidth, not
//! per-request traces, and do not use it.
//!
//! Span timestamps are exported in microseconds as
//! `start_ms * 1000 + start_seq`. The sub-millisecond component is the
//! span's global sequence number, which keeps parent/child nesting
//! visible (and the file deterministic) even while the virtual clock is
//! frozen between advances.
//!
//! [`SegmentStats`]: crate::segment::SegmentStats

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::{escape_json, MetricsRegistry};

/// Default flight-recorder capacity, in spans.
pub const DEFAULT_RECORDER_CAPACITY: usize = 65_536;

/// Identifier of one request's span tree, derived from the campaign seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifier of one span within a tracer (monotonic counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

/// The kind of work a span covers — one per instrumented decision point
/// of the request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A client request entering the testbed (the root of a trace).
    Request,
    /// Edge-node request handling (one per CDN tier the request crosses).
    Edge,
    /// An edge cache lookup.
    CacheLookup,
    /// A first upstream fetch over a metered segment.
    Hop,
    /// A repeated upstream fetch attempt under the retry policy.
    RetryAttempt,
    /// A circuit-breaker state change or short-circuit.
    BreakerTransition,
    /// A serve-stale fallback decision.
    ServeStale,
    /// Server-side handling at the origin.
    Origin,
    /// An enforcing online-defense action (deflate/throttle/block) taken
    /// by an edge's defense middleware (DESIGN.md §12).
    Defense,
}

impl SpanKind {
    /// Stable lowercase name, used as the Chrome-trace event category.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Edge => "edge",
            SpanKind::CacheLookup => "cache-lookup",
            SpanKind::Hop => "hop",
            SpanKind::RetryAttempt => "retry-attempt",
            SpanKind::BreakerTransition => "breaker",
            SpanKind::ServeStale => "serve-stale",
            SpanKind::Origin => "origin",
            SpanKind::Defense => "defense",
        }
    }
}

/// One finished span: a named interval of virtual time with byte counts
/// and ordered attributes, linked into its request's trace tree.
///
/// Byte direction follows the component that owns the span: `bytes_in`
/// are wire bytes *received by* that component during the span (the
/// request for a server span, the upstream response for a fetch span)
/// and `bytes_out` are wire bytes it *sent*.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the tracer.
    pub id: SpanId,
    /// The trace (request tree) this span belongs to.
    pub trace: TraceId,
    /// Enclosing span, `None` for a trace root.
    pub parent: Option<SpanId>,
    /// Human-readable operation name (static: part of the span taxonomy).
    pub name: &'static str,
    /// Operation kind.
    pub kind: SpanKind,
    /// Virtual-clock start, in milliseconds.
    pub start_ms: u64,
    /// Virtual-clock end, in milliseconds.
    pub end_ms: u64,
    /// Global sequence number at start (total order across all spans).
    pub start_seq: u64,
    /// Global sequence number at finish.
    pub end_seq: u64,
    /// Wire bytes received by the span's component.
    pub bytes_in: u64,
    /// Wire bytes sent by the span's component.
    pub bytes_out: u64,
    /// Structured attributes in insertion order (vendor, status, ...).
    pub attrs: Vec<(&'static str, String)>,
}

impl Span {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Export timestamp in microseconds: `start_ms * 1000 + start_seq`.
    pub fn ts_micros(&self) -> u64 {
        self.start_ms * 1000 + self.start_seq
    }

    /// Export duration in microseconds (at least 1).
    pub fn dur_micros(&self) -> u64 {
        (self.end_ms * 1000 + self.end_seq)
            .saturating_sub(self.ts_micros())
            .max(1)
    }
}

#[derive(Debug)]
struct TracerInner {
    seed: u64,
    id_state: u64,
    next_span: u64,
    seq: u64,
    stack: Vec<(TraceId, SpanId)>,
    spans: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
    traces_started: u64,
}

/// The span factory and flight recorder.
///
/// Cloneable handle; clones share state, so the testbed, edge nodes and
/// origin all append into one recorder and one span stack.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// Creates a tracer whose trace ids derive from `seed`, with the
    /// [default](DEFAULT_RECORDER_CAPACITY) flight-recorder capacity.
    pub fn seeded(seed: u64) -> Tracer {
        Tracer::with_capacity(seed, DEFAULT_RECORDER_CAPACITY)
    }

    /// Creates a tracer with an explicit flight-recorder capacity.
    pub fn with_capacity(seed: u64, capacity: usize) -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                seed,
                id_state: seed,
                next_span: 0,
                seq: 0,
                stack: Vec::new(),
                spans: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                traces_started: 0,
            })),
        }
    }

    /// Starts a span that roots a **new** trace, regardless of any open
    /// spans (used by the testbed for each client request).
    pub fn start_trace(&self, name: &'static str, kind: SpanKind, now_ms: u64) -> ActiveSpan {
        self.start_inner(name, kind, now_ms, true)
    }

    /// Starts a span as a child of the innermost open span, or as the
    /// root of a new trace when none is open.
    pub fn start_span(&self, name: &'static str, kind: SpanKind, now_ms: u64) -> ActiveSpan {
        self.start_inner(name, kind, now_ms, false)
    }

    fn start_inner(
        &self,
        name: &'static str,
        kind: SpanKind,
        now_ms: u64,
        new_trace: bool,
    ) -> ActiveSpan {
        let mut inner = self.inner.lock();
        let parent = if new_trace {
            None
        } else {
            inner.stack.last().copied()
        };
        let (trace, parent_id) = match parent {
            Some((trace, id)) => (trace, Some(id)),
            None => {
                inner.traces_started += 1;
                inner.id_state = inner.id_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                (TraceId(splitmix64(inner.id_state)), None)
            }
        };
        inner.next_span += 1;
        let id = SpanId(inner.next_span);
        inner.seq += 1;
        let start_seq = inner.seq;
        inner.stack.push((trace, id));
        ActiveSpan {
            tracer: self.clone(),
            span: Some(Span {
                id,
                trace,
                parent: parent_id,
                name,
                kind,
                start_ms: now_ms,
                end_ms: now_ms,
                start_seq,
                end_seq: start_seq,
                bytes_in: 0,
                bytes_out: 0,
                attrs: Vec::new(),
            }),
        }
    }

    fn record(&self, mut span: Span, end_ms: u64) {
        let mut inner = self.inner.lock();
        inner.seq += 1;
        span.end_ms = end_ms.max(span.start_ms);
        span.end_seq = inner.seq;
        // Pop this span from the stack (LIFO in the synchronous call
        // tree; search defensively in case of out-of-order drops).
        if let Some(pos) = inner.stack.iter().rposition(|&(_, id)| id == span.id) {
            inner.stack.remove(pos);
        }
        if inner.spans.len() == inner.capacity {
            inner.spans.pop_front();
            inner.dropped += 1;
        }
        inner.spans.push_back(span);
    }

    /// Absorbs another tracer's flight recorder into this one (the
    /// executor's shard-merge step): `other`'s spans are appended with
    /// their span ids and sequence numbers re-based past this tracer's
    /// counters, preserving parent/child links and relative order.
    ///
    /// Trace ids are kept verbatim — they derive from the absorbed
    /// tracer's own seed, which parallel campaigns derive per *unit*
    /// (via `rangeamp::executor::unit_seed`), so the merged recorder is
    /// identical no matter which shard ran the unit. Absorbing unit
    /// bundles in unit order therefore yields a byte-identical
    /// [`Tracer::chrome_trace_json`] at any thread count.
    pub fn absorb(&self, other: &Tracer) {
        let (spans, other_next_span, other_seq, other_dropped, other_traces) = {
            let inner = other.inner.lock();
            (
                inner.spans.iter().cloned().collect::<Vec<Span>>(),
                inner.next_span,
                inner.seq,
                inner.dropped,
                inner.traces_started,
            )
        };
        let mut inner = self.inner.lock();
        let id_base = inner.next_span;
        let seq_base = inner.seq;
        for mut span in spans {
            span.id = SpanId(span.id.0 + id_base);
            span.parent = span.parent.map(|p| SpanId(p.0 + id_base));
            span.start_seq += seq_base;
            span.end_seq += seq_base;
            if inner.spans.len() == inner.capacity {
                inner.spans.pop_front();
                inner.dropped += 1;
            }
            inner.spans.push_back(span);
        }
        inner.next_span = id_base + other_next_span;
        inner.seq = seq_base + other_seq;
        inner.dropped += other_dropped;
        inner.traces_started += other_traces;
    }

    /// All finished spans still in the flight recorder, oldest first.
    pub fn finished_spans(&self) -> Vec<Span> {
        self.inner.lock().spans.iter().cloned().collect()
    }

    /// Number of spans currently held by the flight recorder.
    pub fn span_count(&self) -> usize {
        self.inner.lock().spans.len()
    }

    /// Number of spans evicted from the full ring buffer.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Number of traces started.
    pub fn trace_count(&self) -> u64 {
        self.inner.lock().traces_started
    }

    /// Exports the flight recorder as Chrome trace-event JSON — loadable
    /// in `chrome://tracing` or <https://ui.perfetto.dev>.
    ///
    /// Events are "complete" (`ph:"X"`) events sorted by start sequence,
    /// one virtual thread per trace in first-seen order, with span ids,
    /// byte counts and attributes in `args`. The string is hand-built so
    /// identical recorder contents give byte-identical output.
    pub fn chrome_trace_json(&self) -> String {
        let inner = self.inner.lock();
        let mut spans: Vec<&Span> = inner.spans.iter().collect();
        spans.sort_by_key(|s| s.start_seq);

        let mut trace_order: Vec<TraceId> = Vec::new();
        for span in &spans {
            if !trace_order.contains(&span.trace) {
                trace_order.push(span.trace);
            }
        }
        let tid_of = |trace: TraceId| -> usize {
            trace_order.iter().position(|&t| t == trace).unwrap_or(0) + 1
        };

        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"metadata\":{");
        let _ = write!(
            out,
            "\"tool\":\"rangeamp\",\"seed\":{},\"spans\":{},\"dropped\":{},\"traces\":{}",
            inner.seed,
            spans.len(),
            inner.dropped,
            inner.traces_started
        );
        out.push_str("},\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"rangeamp testbed\"}}",
        );
        for &trace in &trace_order {
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"trace {}\"}}}}",
                tid_of(trace),
                trace
            );
        }
        for span in &spans {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"trace\":\"{}\",\"span\":\"{}\"",
                escape_json(span.name),
                span.kind.as_str(),
                tid_of(span.trace),
                span.ts_micros(),
                span.dur_micros(),
                span.trace,
                span.id
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":\"{parent}\"");
            }
            let _ = write!(
                out,
                ",\"bytes_in\":{},\"bytes_out\":{}",
                span.bytes_in, span.bytes_out
            );
            for (key, value) in &span.attrs {
                let _ = write!(out, ",\"{}\":\"{}\"", escape_json(key), escape_json(value));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// RAII handle on an in-flight span.
///
/// Accumulate bytes and attributes while the work runs, then call
/// [`finish`](ActiveSpan::finish) with the virtual-clock end time. A span
/// dropped without `finish` is recorded with zero duration at its start
/// time, so no span is ever lost.
#[derive(Debug)]
pub struct ActiveSpan {
    tracer: Tracer,
    span: Option<Span>,
}

impl ActiveSpan {
    /// This span's id.
    pub fn id(&self) -> SpanId {
        self.span.as_ref().expect("span not finished").id
    }

    /// The trace this span belongs to.
    pub fn trace(&self) -> TraceId {
        self.span.as_ref().expect("span not finished").trace
    }

    /// Appends a structured attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(span) = self.span.as_mut() {
            span.attrs.push((key, value.into()));
        }
    }

    /// Adds wire bytes received by the span's component.
    pub fn add_bytes_in(&mut self, bytes: u64) {
        if let Some(span) = self.span.as_mut() {
            span.bytes_in += bytes;
        }
    }

    /// Adds wire bytes sent by the span's component.
    pub fn add_bytes_out(&mut self, bytes: u64) {
        if let Some(span) = self.span.as_mut() {
            span.bytes_out += bytes;
        }
    }

    /// Finishes the span at virtual time `end_ms` and commits it to the
    /// flight recorder.
    pub fn finish(mut self, end_ms: u64) {
        if let Some(span) = self.span.take() {
            self.tracer.record(span, end_ms);
        }
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        if let Some(span) = self.span.take() {
            let start = span.start_ms;
            self.tracer.record(span, start);
        }
    }
}

/// The telemetry bundle threaded through the testbed: one shared tracer
/// plus one shared metrics registry, both derived from the campaign seed.
#[derive(Debug, Clone)]
pub struct Telemetry {
    tracer: Tracer,
    metrics: MetricsRegistry,
}

impl Telemetry {
    /// Creates a bundle whose trace ids derive from `seed`.
    pub fn seeded(seed: u64) -> Telemetry {
        Telemetry {
            tracer: Tracer::seeded(seed),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The shared tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Absorbs a unit's telemetry bundle into this one: spans are
    /// re-based and appended ([`Tracer::absorb`]), counters/histograms
    /// add and gauges last-write-win
    /// ([`MetricsRegistry::absorb`](crate::metrics::MetricsRegistry::absorb)).
    ///
    /// Parallel campaigns call this once per unit, **in unit order**,
    /// after all shards have finished — the merged bundle is then a
    /// pure function of the unit results.
    pub fn absorb(&self, unit: &Telemetry) {
        self.tracer.absorb(&unit.tracer);
        self.metrics.absorb(&unit.metrics);
    }
}

/// splitmix64 finalizer — the id mixer (public-domain constant set).
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_ids() {
        let a = Tracer::seeded(7);
        let b = Tracer::seeded(7);
        let c = Tracer::seeded(8);
        let id_of = |t: &Tracer| {
            let span = t.start_trace("r", SpanKind::Request, 0);
            let trace = span.trace();
            span.finish(0);
            trace
        };
        assert_eq!(id_of(&a), id_of(&b));
        assert_ne!(id_of(&a), id_of(&c));
        // Consecutive traces from one tracer differ.
        assert_ne!(id_of(&a), id_of(&a));
    }

    #[test]
    fn children_nest_under_the_open_span() {
        let tracer = Tracer::seeded(1);
        let root = tracer.start_trace("request", SpanKind::Request, 0);
        let root_id = root.id();
        let trace = root.trace();
        let edge = tracer.start_span("edge", SpanKind::Edge, 0);
        let edge_id = edge.id();
        assert_eq!(edge.trace(), trace);
        let fetch = tracer.start_span("fetch", SpanKind::Hop, 1);
        let fetch_id = fetch.id();
        fetch.finish(2);
        edge.finish(2);
        root.finish(3);

        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 3);
        let get = |id: SpanId| spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(get(root_id).parent, None);
        assert_eq!(get(edge_id).parent, Some(root_id));
        assert_eq!(get(fetch_id).parent, Some(edge_id));
        assert!(spans.iter().all(|s| s.trace == trace));
        // Finish order is inside-out; start_seq restores tree order.
        assert!(get(root_id).start_seq < get(edge_id).start_seq);
        assert!(get(edge_id).start_seq < get(fetch_id).start_seq);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let tracer = Tracer::seeded(1);
        let root = tracer.start_trace("request", SpanKind::Request, 0);
        let root_id = root.id();
        let a = tracer.start_span("attempt", SpanKind::Hop, 0);
        a.finish(1);
        let b = tracer.start_span("attempt", SpanKind::RetryAttempt, 5);
        b.finish(6);
        root.finish(6);
        let spans = tracer.finished_spans();
        let attempts: Vec<_> = spans.iter().filter(|s| s.parent == Some(root_id)).collect();
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[0].kind, SpanKind::Hop);
        assert_eq!(attempts[1].kind, SpanKind::RetryAttempt);
    }

    #[test]
    fn start_trace_ignores_open_spans() {
        let tracer = Tracer::seeded(1);
        let outer = tracer.start_trace("a", SpanKind::Request, 0);
        let inner = tracer.start_trace("b", SpanKind::Request, 0);
        assert_ne!(outer.trace(), inner.trace());
        assert!(tracer.finished_spans().iter().all(|s| s.parent.is_none()));
        inner.finish(0);
        outer.finish(0);
    }

    #[test]
    fn bytes_and_attrs_accumulate() {
        let tracer = Tracer::seeded(3);
        let mut span = tracer.start_trace("fetch", SpanKind::Hop, 10);
        span.add_bytes_out(100);
        span.add_bytes_in(4000);
        span.add_bytes_in(96);
        span.attr("vendor", "Akamai");
        span.attr("status", "206");
        span.finish(12);
        let spans = tracer.finished_spans();
        let s = &spans[0];
        assert_eq!(s.bytes_out, 100);
        assert_eq!(s.bytes_in, 4096);
        assert_eq!(s.attr("vendor"), Some("Akamai"));
        assert_eq!(s.attr("status"), Some("206"));
        assert_eq!(s.attr("missing"), None);
        assert_eq!(s.start_ms, 10);
        assert_eq!(s.end_ms, 12);
    }

    #[test]
    fn dropped_span_is_recorded_with_zero_duration() {
        let tracer = Tracer::seeded(1);
        {
            let mut span = tracer.start_trace("lost", SpanKind::Edge, 42);
            span.attr("note", "dropped without finish");
        }
        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_ms, 42);
        assert_eq!(spans[0].end_ms, 42);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let tracer = Tracer::with_capacity(1, 2);
        for ms in 0..5u64 {
            tracer.start_trace("s", SpanKind::Edge, ms).finish(ms);
        }
        assert_eq!(tracer.span_count(), 2);
        assert_eq!(tracer.dropped(), 3);
        let spans = tracer.finished_spans();
        assert_eq!(spans[0].start_ms, 3);
        assert_eq!(spans[1].start_ms, 4);
    }

    #[test]
    fn export_micros_encode_sequence() {
        let tracer = Tracer::seeded(1);
        let a = tracer.start_trace("a", SpanKind::Edge, 2);
        a.finish(3);
        let spans = tracer.finished_spans();
        // start_seq == 1, end_seq == 2.
        assert_eq!(spans[0].ts_micros(), 2001);
        assert_eq!(spans[0].dur_micros(), 3002 - 2001);
    }

    #[test]
    fn chrome_export_is_deterministic_and_structured() {
        let run = || {
            let tracer = Tracer::seeded(7);
            let root = tracer.start_trace("request", SpanKind::Request, 0);
            let mut fetch = tracer.start_span("fetch", SpanKind::Hop, 0);
            fetch.attr("segment", "cdn-origin");
            fetch.add_bytes_in(1048576);
            fetch.finish(4);
            root.finish(4);
            tracer.chrome_trace_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give byte-identical export");
        assert!(a.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(a.ends_with("]}"));
        assert!(a.contains("\"traceEvents\":["));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"cat\":\"hop\""));
        assert!(a.contains("\"bytes_in\":1048576"));
        assert!(a.contains("\"segment\":\"cdn-origin\""));
        assert!(a.contains("\"thread_name\""));
        // Balanced braces/brackets — cheap well-formedness check given the
        // vendored serde_json has no parser.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn absorb_rebases_span_ids_and_sequences() {
        let main = Tracer::seeded(1);
        let root = main.start_trace("a", SpanKind::Request, 0);
        root.finish(1);

        let unit = Tracer::seeded(77);
        let uroot = unit.start_trace("b", SpanKind::Request, 0);
        let uroot_id = uroot.id();
        let child = unit.start_span("c", SpanKind::Hop, 0);
        child.finish(1);
        uroot.finish(2);

        main.absorb(&unit);
        let spans = main.finished_spans();
        assert_eq!(spans.len(), 3);
        // Absorbed spans keep their relative structure with re-based ids.
        let absorbed_root = spans.iter().find(|s| s.name == "b").expect("absorbed");
        let absorbed_child = spans.iter().find(|s| s.name == "c").expect("absorbed");
        assert_eq!(absorbed_child.parent, Some(absorbed_root.id));
        assert!(absorbed_root.id.0 > uroot_id.0, "ids re-based past main's");
        // Sequence numbers stay globally monotonic (export sorts on them).
        let mut seqs: Vec<u64> = spans.iter().map(|s| s.start_seq).collect();
        let sorted = {
            let mut s = seqs.clone();
            s.sort_unstable();
            s
        };
        seqs.sort_unstable();
        assert_eq!(seqs, sorted);
        assert_eq!(main.trace_count(), 2);
    }

    #[test]
    fn absorb_in_unit_order_is_shard_independent() {
        // Two "units" traced into their own bundles, absorbed in unit
        // order, must export identically no matter which ran first.
        let unit = |seed: u64| {
            let tel = Telemetry::seeded(seed);
            let mut span = tel
                .tracer()
                .start_trace("unit", SpanKind::Request, seed % 5);
            span.add_bytes_in(seed * 10);
            span.finish(seed % 5 + 1);
            tel.metrics()
                .counter_add("unit_total", &[("seed", &seed.to_string())], seed);
            tel
        };
        let export = |units: Vec<Telemetry>| {
            let main = Telemetry::seeded(0);
            for u in &units {
                main.absorb(u);
            }
            (
                main.tracer().chrome_trace_json(),
                main.metrics().snapshot().to_jsonl(),
            )
        };
        // Build the units in opposite wall-clock orders; absorb order is
        // what matters and stays fixed.
        let (a1, a2) = (unit(3), unit(9));
        let first = export(vec![a1, a2]);
        let (b2, b1) = (unit(9), unit(3));
        let second = export(vec![b1, b2]);
        assert_eq!(first, second);
    }

    #[test]
    fn telemetry_bundle_shares_state_across_clones() {
        let tel = Telemetry::seeded(9);
        let clone = tel.clone();
        clone.metrics().counter_add("x_total", &[], 1);
        clone.tracer().start_trace("s", SpanKind::Edge, 0).finish(0);
        assert_eq!(tel.metrics().counter_value("x_total", &[]), 1);
        assert_eq!(tel.tracer().span_count(), 1);
    }
}
