//! Reference model of the defense: the per-client detector and layer as
//! they were before the client record was compacted, kept for the
//! equivalence test below. Every window counter is kept, the query
//! memory and token bucket sit inline, and clients live in an ordered
//! map.

use std::collections::{BTreeMap, BTreeSet};

use rangeamp_cdn::{DefenseAction, RequestOutcome};
use rangeamp_http::range::RangeHeader;
use rangeamp_http::Request;

use crate::detector::{Cusum, Ewma, TrafficClass, Verdict, OBR_OVERLAP_PAIRS, SBR_TINY_BUSTING};
use crate::enforce::{
    ClientReport, TokenBucket, BLOCK_AFTER, BUCKET_CAPACITY, BUCKET_REFILL_PER_SEC, CALM_WINDOWS,
    THROTTLE_AFTER,
};
use crate::features::{RequestSample, QUERY_MEMORY, WINDOW_MS};

/// Aggregated features of one closed (or in-progress) window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowFeatures {
    pub index: u64,
    pub requests: u64,
    pub tiny: u64,
    pub busting: u64,
    pub tiny_busting: u64,
    pub multi: u64,
    pub overlap_pairs_max: u64,
    pub origin_bytes: u64,
    pub client_bytes: u64,
    pub request_bytes: u64,
    pub suspects: u64,
}

/// Per-client streaming feature extractor.
#[derive(Debug, Clone, Default)]
pub struct ClientFeatures {
    seen_queries: BTreeSet<String>,
    current: WindowFeatures,
    started: bool,
    pub windows_closed: u64,
}

impl ClientFeatures {
    pub fn roll_to(&mut self, now_ms: u64) -> Option<WindowFeatures> {
        let index = now_ms / WINDOW_MS;
        if !self.started {
            self.started = true;
            self.current.index = index;
            return None;
        }
        if index == self.current.index {
            return None;
        }
        let closed = self.current;
        self.current = WindowFeatures {
            index,
            ..WindowFeatures::default()
        };
        self.windows_closed += 1;
        Some(closed)
    }

    pub fn on_request(&mut self, sample: &RequestSample<'_>) -> (bool, u64) {
        self.current.requests += 1;
        self.current.request_bytes += sample.request_bytes;
        let tiny = sample.is_tiny();
        if tiny {
            self.current.tiny += 1;
        }
        let busting = match sample.query {
            None => false,
            Some(query) => {
                let fresh = !self.seen_queries.contains(query);
                if fresh {
                    if self.seen_queries.len() >= QUERY_MEMORY {
                        self.seen_queries.clear();
                    }
                    self.seen_queries.insert(query.to_string());
                }
                fresh
            }
        };
        if busting {
            self.current.busting += 1;
        }
        if tiny && busting {
            self.current.tiny_busting += 1;
        }
        let pairs = sample.overlap_pairs();
        if sample.range.as_ref().is_some_and(RangeHeader::is_multi) {
            self.current.multi += 1;
        }
        self.current.overlap_pairs_max = self.current.overlap_pairs_max.max(pairs);
        (tiny && busting, pairs)
    }

    pub fn on_outcome(&mut self, origin_bytes: u64, client_bytes: u64) {
        self.current.origin_bytes += origin_bytes;
        self.current.client_bytes += client_bytes;
    }
}

/// Streaming per-client detector: features + shape rules + change-points.
#[derive(Debug, Clone, Default)]
pub struct ClientDetector {
    features: ClientFeatures,
    amp_ewma: Ewma,
    amp_cusum: Cusum,
}

impl ClientDetector {
    pub fn relax(&mut self) {
        self.amp_cusum.reset();
    }

    pub fn observe(
        &mut self,
        sample: &RequestSample<'_>,
        origin_bytes: u64,
        client_bytes: u64,
        now_ms: u64,
    ) -> (Verdict, Option<WindowFeatures>) {
        let closed_window = self.features.roll_to(now_ms);
        let (_, overlap_pairs) = self.features.on_request(sample);
        self.features.on_outcome(origin_bytes, client_bytes);
        let ratio = origin_bytes as f64 / client_bytes.max(1) as f64;
        let log_amp = (1.0 + ratio).log2();
        let smoothed = self.amp_ewma.update(log_amp);
        let cusum_alarm = self.amp_cusum.update(log_amp);
        let cusum_score = self.amp_cusum.value();
        if cusum_alarm {
            self.amp_cusum.reset();
        }
        let window = self.features.current;
        let (class, score) = if overlap_pairs >= OBR_OVERLAP_PAIRS {
            (TrafficClass::ObrSuspect, overlap_pairs as f64)
        } else if window.tiny_busting >= SBR_TINY_BUSTING {
            (TrafficClass::SbrSuspect, window.tiny_busting as f64)
        } else if cusum_alarm {
            (TrafficClass::SbrSuspect, cusum_score)
        } else {
            (TrafficClass::Benign, smoothed)
        };
        if class.is_suspect() {
            self.features.current.suspects += 1;
        }
        let verdict = Verdict {
            class,
            score,
            at_ms: now_ms,
        };
        (verdict, closed_window)
    }
}

#[derive(Debug)]
struct ClientState {
    detector: ClientDetector,
    rung: DefenseAction,
    bucket: Option<TokenBucket>,
    calm_streak: u64,
    report: ClientReport,
}

/// The layer: decide/observe as `DefenseHook` has them, over an ordered
/// map of full per-client records.
#[derive(Debug, Default)]
pub struct ModelLayer {
    clients: BTreeMap<String, ClientState>,
}

impl ModelLayer {
    fn state(&mut self, client: &str) -> &mut ClientState {
        self.clients
            .entry(client.to_string())
            .or_insert_with(|| ClientState {
                detector: ClientDetector::default(),
                rung: DefenseAction::Allow,
                bucket: None,
                calm_streak: 0,
                report: ClientReport {
                    client: client.to_string(),
                    ..ClientReport::default()
                },
            })
    }

    pub fn report(&self) -> Vec<ClientReport> {
        self.clients.values().map(|s| s.report.clone()).collect()
    }

    pub fn decide(&mut self, client: &str, now_ms: u64) -> DefenseAction {
        let state = self.state(client);
        match state.rung {
            DefenseAction::Throttle => {
                let empty = state
                    .bucket
                    .as_mut()
                    .is_some_and(|bucket| bucket.level_at(now_ms) == 0);
                if empty {
                    DefenseAction::Block
                } else {
                    DefenseAction::Throttle
                }
            }
            rung => rung,
        }
    }

    pub fn observe(
        &mut self,
        client: &str,
        req: &Request,
        action: DefenseAction,
        outcome: &RequestOutcome,
        now_ms: u64,
    ) {
        let sample = RequestSample::of(req);
        let state = self.state(client);
        let tally = &mut state.report;
        tally.requests += 1;
        match action {
            DefenseAction::Allow => tally.allowed += 1,
            DefenseAction::Deflate => tally.deflated += 1,
            DefenseAction::Throttle => tally.throttled += 1,
            DefenseAction::Block => tally.blocked += 1,
        }
        tally.origin_bytes += outcome.origin_bytes;
        tally.client_bytes += outcome.client_bytes;
        tally.request_bytes += sample.request_bytes;
        if action.is_enforcing() {
            tally.enforced_origin_bytes += outcome.origin_bytes;
            tally.enforced_request_bytes += sample.request_bytes;
        }
        tally.peak_action = Some(tally.peak_action.map_or(action, |p| p.max(action)));

        if action == DefenseAction::Throttle {
            if let Some(bucket) = state.bucket.as_mut() {
                bucket.consume(outcome.origin_bytes, now_ms);
            }
        }

        let (verdict, closed_window) =
            state
                .detector
                .observe(&sample, outcome.origin_bytes, outcome.client_bytes, now_ms);
        state.report.last_verdict = Some(verdict);

        if let Some(window) = closed_window {
            if window.suspects == 0 {
                state.calm_streak += 1;
                if state.calm_streak >= CALM_WINDOWS {
                    deescalate(state);
                }
            } else {
                state.calm_streak = 0;
            }
        }

        if verdict.class.is_suspect() {
            state.report.suspects += 1;
            if state.report.first_flag_ms.is_none() {
                state.report.first_flag_ms = Some(now_ms);
            }
            escalate(state, now_ms);
        }
    }
}

fn escalate(state: &mut ClientState, now_ms: u64) {
    state.calm_streak = 0;
    let suspects = state.report.suspects;
    let target = if suspects >= BLOCK_AFTER {
        DefenseAction::Block
    } else if suspects >= THROTTLE_AFTER {
        DefenseAction::Throttle
    } else {
        DefenseAction::Deflate
    };
    if target > state.rung {
        state.rung = target;
    }
    if state.rung == DefenseAction::Throttle && state.bucket.is_none() {
        state.bucket = Some(TokenBucket::new(
            BUCKET_CAPACITY,
            BUCKET_REFILL_PER_SEC,
            now_ms,
        ));
    }
}

fn deescalate(state: &mut ClientState) {
    state.rung = match state.rung {
        DefenseAction::Block => DefenseAction::Throttle,
        DefenseAction::Throttle => DefenseAction::Deflate,
        DefenseAction::Deflate | DefenseAction::Allow => {
            state.detector.relax();
            DefenseAction::Allow
        }
    };
    if state.rung < DefenseAction::Throttle {
        state.bucket = None;
    }
    state.calm_streak = 0;
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::rng::TestRng;
    use rangeamp_cdn::DefenseHook;

    use super::*;
    use crate::enforce::DefenseLayer;

    /// One event: the client, the virtual time since the last event, the
    /// request shape, and the origin and client bytes the undefended
    /// pipeline would report.
    type Event = (u8, u64, u8, u64, u64);

    /// The events of a schedule. A `fast` one gives client 0, the
    /// attacker, about half of the requests, often faster than the token
    /// bucket refills (16 B/ms), so its bucket runs dry. A slow one
    /// spreads requests over the four clients and often across windows,
    /// so clients calm down, de-escalate and escalate again.
    fn event(fast: bool) -> BoxedStrategy<Event> {
        let (client, dt) = if fast {
            (
                prop_oneof![Just(0u8), 0u8..4],
                prop_oneof![0u64..60, 0u64..400, 0u64..13_000],
            )
        } else {
            (
                prop_oneof![0u8..4],
                prop_oneof![0u64..400, 0u64..400, 0u64..13_000],
            )
        };
        (
            client,
            dt,
            0u8..8,
            // Around the token bucket's capacity too, so that a throttled
            // client's bucket runs dry at different requests.
            prop_oneof![
                Just(0u64),
                0u64..2_000,
                0u64..300_000,
                100_000u64..2_000_000
            ],
            1u64..5_000,
        )
            .boxed()
    }

    /// The request of an event, `n` numbering its query. Client 0 sends
    /// only attack shapes, so schedules reach Throttle and Block; the
    /// others mix every shape.
    fn request(n: usize, client: u8, shape: u8) -> Request {
        let shape = if client == 0 {
            [2, 3, 4, 6][usize::from(shape % 4)]
        } else {
            shape
        };
        let (target, range) = match shape {
            0 => ("/t.bin".to_string(), None),
            1 => ("/t.bin?v=1".to_string(), Some("bytes=0-1023")),
            2 => (format!("/t.bin?rnd={n}"), Some("bytes=0-0")),
            3 => (format!("/t.bin?rnd={n}"), Some("bytes=-1")),
            4 => (format!("/t.bin?rnd={n}"), Some("bytes=0-,0-,0-")),
            5 => ("/t.bin".to_string(), Some("bytes=0-9,20-29")),
            6 => (format!("/t.bin?rnd={n}"), Some("bytes=0-9999")),
            _ => (format!("/t.bin?rnd={n}"), Some("bytes=0-")),
        };
        let mut builder = Request::get(&target).header("Host", "victim");
        if let Some(range) = range {
            builder = builder.header("Range", range);
        }
        builder.build()
    }

    /// What drove the layer through one schedule: per event, the action,
    /// the last verdict with its score's bits, and the client's rung
    /// afterwards.
    type Trace = Vec<(DefenseAction, TrafficClass, u64, u64, DefenseAction)>;

    /// Drives `events` through a fresh layer and a fresh model, as the
    /// edge pipeline would (a blocked request costs the origin nothing),
    /// and returns both traces and reports. Event `n` numbers its query
    /// `query(n)`.
    fn drive(
        events: &[Event],
        query: impl Fn(usize) -> usize,
    ) -> ((Trace, Vec<ClientReport>), (Trace, Vec<ClientReport>)) {
        let layer = DefenseLayer::default();
        let mut model = ModelLayer::default();
        let (mut ours, mut theirs) = (Trace::new(), Trace::new());
        let mut now = 0;
        for (n, &(client, dt, shape, origin_bytes, client_bytes)) in events.iter().enumerate() {
            now += dt;
            let key = format!("c{client}");
            let req = request(query(n), client, shape);
            let outcome = |action: DefenseAction| {
                if action == DefenseAction::Block {
                    RequestOutcome {
                        origin_bytes: 0,
                        client_bytes: 150,
                        status: 429,
                    }
                } else {
                    RequestOutcome {
                        origin_bytes,
                        client_bytes,
                        status: 200,
                    }
                }
            };
            let action = layer.decide(&key, &req, now);
            layer.observe(&key, &req, action, &outcome(action), now);
            let verdict = layer.client_report(&key).and_then(|r| r.last_verdict);
            let verdict = verdict.expect("observe records a verdict");
            let rung = layer.client_rung(&key);
            ours.push((
                action,
                verdict.class,
                verdict.score.to_bits(),
                verdict.at_ms,
                rung,
            ));

            let action = model.decide(&key, now);
            model.observe(&key, &req, action, &outcome(action), now);
            let verdict = model.clients[&key].report.last_verdict.expect("verdict");
            let rung = model.clients[&key].rung;
            theirs.push((
                action,
                verdict.class,
                verdict.score.to_bits(),
                verdict.at_ms,
                rung,
            ));
        }
        ((ours, layer.report()), (theirs, model.report()))
    }

    #[test]
    fn random_schedules_match_the_model() {
        // What the schedules reached, over all cases: a client pinned at
        // Block, a throttled client blocked on an empty bucket, a client
        // walked down a rung by calm windows, and one throttled again
        // after calm windows took it below Throttle.
        let (mut pinned, mut dry, mut relaxed, mut rearmed) = (false, false, false, false);
        for case in 0..400u64 {
            let events = proptest::collection::vec(event(case % 2 == 0), 1..300)
                .generate(&mut TestRng::new(0x5eed ^ case.wrapping_mul(0x9e37_79b9)));
            let ((ours, our_report), (theirs, their_report)) = drive(&events, |n| n);
            if let Some(n) = ours.iter().zip(&theirs).position(|(a, b)| a != b) {
                panic!(
                    "case {case}: event {n} {:?}: layer {:?}, model {:?}",
                    events[n], ours[n], theirs[n]
                );
            }
            assert_eq!(our_report, their_report, "case {case}");
            let mut rungs = [DefenseAction::Allow; 4];
            let mut disarmed = [false; 4];
            for (&(client, ..), &(action, .., rung)) in events.iter().zip(&ours) {
                let client = usize::from(client);
                let before = std::mem::replace(&mut rungs[client], rung);
                pinned |= rung == DefenseAction::Block;
                dry |= action == DefenseAction::Block && before == DefenseAction::Throttle;
                relaxed |= rung < before;
                rearmed |= disarmed[client] && rung == DefenseAction::Throttle;
                disarmed[client] |=
                    before >= DefenseAction::Throttle && rung < DefenseAction::Throttle;
            }
        }
        assert!(pinned, "some schedule escalates a client to Block");
        assert!(dry, "some schedule drains a throttled client's bucket");
        assert!(relaxed, "some schedule de-escalates a client");
        assert!(rearmed, "some schedule throttles a client again");
    }

    #[test]
    fn query_churn_past_the_memory_matches_the_model() {
        // One more distinct query than the memory holds, cycled: each
        // query comes back just after the memory cleared, so it is fresh
        // again. Three requests per window put the shape rule on its
        // threshold, so a single stale query changes the verdicts.
        let distinct = QUERY_MEMORY + 1;
        let events: Vec<Event> = (0..3 * distinct)
            .map(|n| (1, if n % 3 == 0 { 6_000 } else { 1 }, 2, 700, 650))
            .collect();
        let ((ours, our_report), (theirs, their_report)) = drive(&events, |n| n % distinct);
        assert_eq!(ours, theirs);
        assert_eq!(our_report, their_report);
    }
}
