//! Spans for the traced run, recorded from the benchmark's own wrappers.
//!
//! The traced topology puts a [`TimedUpstream`] in front of every
//! upstream (origin, BCDN) and a [`TimedDefense`] around the defense
//! hook, and the traced testbed times its own client-side meter calls and
//! the edge call. Each span has a name (its [`Layer`]), start, end and
//! parent; a layer's self time is its duration minus the time its child
//! spans cover. Totals accumulate over every traced round; span records
//! are kept in memory, up to a reserved count within the first traced
//! round, and written out when the run ends.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rangeamp::cdn::{DefenseAction, DefenseHook, RequestOutcome, UpstreamError, UpstreamService};
use rangeamp::defense::DefenseLayer;
use rangeamp::http::{Request, Response};

use crate::alloc::{self, AllocCount};

/// A layer boundary the traced run records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole client request (the root span).
    Request,
    /// Client-side segment metering (`send_request` / `send_response`).
    Meter,
    /// The client-facing `EdgeNode::handle` (the FCDN in a cascade).
    Edge,
    /// The BCDN edge, called as the FCDN's upstream.
    Bcdn,
    /// The origin server, called as an edge's upstream.
    Origin,
    /// `DefenseHook::decide`.
    Decide,
    /// `DefenseHook::observe`.
    Observe,
}

/// Number of [`Layer`] variants.
const LAYERS: usize = 7;

impl Layer {
    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Meter => "segment.meter",
            Layer::Edge => "edge",
            Layer::Bcdn => "bcdn",
            Layer::Origin => "origin",
            Layer::Decide => "defense.decide",
            Layer::Observe => "defense.observe",
        }
    }
}

/// Accumulated figures of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations (ns).
    pub total_ns: u64,
    /// Summed self time: duration minus child spans (ns).
    pub self_ns: u64,
    /// Allocations made in the layer itself, children excluded.
    pub self_allocs: AllocCount,
    /// Response wire bytes the layer returned.
    pub wire_bytes: u64,
}

/// One recorded span. `parent` is 0 for a root span; ids start at 1.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    id: u32,
    parent: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u32,
    layer: Layer,
    start: Instant,
    child_ns: u64,
    allocs_at_start: AllocCount,
    child_allocs: AllocCount,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    stack: Vec<Open>,
    totals: [LayerTotals; LAYERS],
    spans: Vec<SpanRecord>,
    keep_spans: bool,
    paused: bool,
    next_id: u32,
    decisions: u64,
    enforced: u64,
}

/// In-memory span recorder shared by the traced topology's wrappers.
#[derive(Debug)]
pub struct Recorder(Mutex<Inner>);

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder(Mutex::new(Inner {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            totals: [LayerTotals::default(); LAYERS],
            spans: Vec::new(),
            keep_spans: true,
            paused: false,
            next_id: 1,
            decisions: 0,
            enforced: 0,
        }))
    }
}

impl Recorder {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.0.lock().expect("span recorder poisoned by a panic")
    }

    /// Reserves room for `spans` records; spans beyond it are counted in
    /// the totals but not kept.
    pub fn reserve(&self, spans: usize) {
        let mut inner = self.lock();
        if inner.keep_spans {
            inner.spans.reserve(spans);
        }
    }

    /// Stops keeping span records (totals still accumulate).
    pub fn stop_keeping(&self) {
        self.lock().keep_spans = false;
    }

    /// Pauses or resumes recording (set-up traffic is not recorded).
    /// Call only between requests.
    pub fn pause(&self, paused: bool) {
        self.lock().paused = paused;
    }

    /// Opens a span of `layer`, nested in the innermost open span.
    pub fn enter(&self, layer: Layer) {
        let mut inner = self.lock();
        if inner.paused {
            return;
        }
        let id = inner.next_id;
        inner.next_id = inner.next_id.wrapping_add(1).max(1);
        inner.stack.push(Open {
            id,
            layer,
            start: Instant::now(),
            child_ns: 0,
            allocs_at_start: alloc::snapshot(),
            child_allocs: AllocCount::default(),
        });
    }

    /// Closes the innermost span, which returned `wire_bytes` of response.
    pub fn exit(&self, wire_bytes: u64) {
        let end = Instant::now();
        let allocs_at_end = alloc::snapshot();
        let mut inner = self.lock();
        if inner.paused {
            return;
        }
        let open = inner.stack.pop().expect("exit without a matching enter");
        let ns = end.duration_since(open.start).as_nanos() as u64;
        let allocs = allocs_at_end - open.allocs_at_start;
        let totals = &mut inner.totals[open.layer as usize];
        totals.calls += 1;
        totals.total_ns += ns;
        totals.self_ns += ns.saturating_sub(open.child_ns);
        totals.self_allocs += allocs - open.child_allocs;
        totals.wire_bytes += wire_bytes;
        let parent = match inner.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += ns;
                parent.child_allocs += allocs;
                parent.id
            }
            None => 0,
        };
        // Never grow the span buffer inside a timed span: keep spans only
        // while reserved room remains.
        if inner.keep_spans && inner.spans.len() < inner.spans.capacity() {
            let start_ns = open.start.duration_since(inner.epoch).as_nanos() as u64;
            inner.spans.push(SpanRecord {
                id: open.id,
                parent,
                layer: open.layer,
                start_ns,
                end_ns: start_ns + ns,
            });
        }
    }

    fn note_action(&self, action: DefenseAction) {
        let mut inner = self.lock();
        if inner.paused {
            return;
        }
        inner.decisions += 1;
        inner.enforced += u64::from(action.is_enforcing());
    }

    /// Totals of `layer` so far.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.lock().totals[layer as usize]
    }

    /// Defense decisions seen and how many of them enforced something.
    pub fn decisions(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.decisions, inner.enforced)
    }

    /// The kept spans as tab-separated lines:
    /// `id parent name start_ns end_ns`.
    pub fn render_spans(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for s in &inner.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// An upstream whose calls are recorded as spans of one layer.
#[derive(Debug)]
pub struct TimedUpstream {
    layer: Layer,
    inner: Arc<dyn UpstreamService>,
    rec: Arc<Recorder>,
}

impl TimedUpstream {
    /// Wraps `inner`, recording its calls as `layer` spans.
    pub fn new(layer: Layer, inner: Arc<dyn UpstreamService>, rec: Arc<Recorder>) -> TimedUpstream {
        TimedUpstream { layer, inner, rec }
    }
}

impl UpstreamService for TimedUpstream {
    fn handle(&self, req: &Request) -> Result<Response, UpstreamError> {
        self.rec.enter(self.layer);
        let result = self.inner.handle(req);
        self.rec.exit(result.as_ref().map_or(0, Response::wire_len));
        result
    }

    fn resource_size(&self, path: &str) -> Option<u64> {
        self.inner.resource_size(path)
    }
}

/// The defense layer with its `decide`/`observe` calls recorded.
#[derive(Debug)]
pub struct TimedDefense {
    inner: Arc<DefenseLayer>,
    rec: Arc<Recorder>,
}

impl TimedDefense {
    /// Wraps `inner`.
    pub fn new(inner: Arc<DefenseLayer>, rec: Arc<Recorder>) -> TimedDefense {
        TimedDefense { inner, rec }
    }
}

impl DefenseHook for TimedDefense {
    fn decide(&self, client: &str, req: &Request, now_ms: u64) -> DefenseAction {
        self.rec.enter(Layer::Decide);
        let action = self.inner.decide(client, req, now_ms);
        self.rec.exit(0);
        self.rec.note_action(action);
        action
    }

    fn observe(
        &self,
        client: &str,
        req: &Request,
        action: DefenseAction,
        outcome: &RequestOutcome,
        now_ms: u64,
    ) {
        self.rec.enter(Layer::Observe);
        self.inner.observe(client, req, action, outcome, now_ms);
        self.rec.exit(0);
    }
}
