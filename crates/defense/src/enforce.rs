//! Graduated enforcement: the [`DefenseLayer`] middleware.
//!
//! The layer implements [`DefenseHook`] and owns one
//! [`ClientDetector`] per client key. Detector verdicts drive a
//! per-client rung on the enforcement ladder
//! (allow → deflate → throttle → block, see
//! [`DefenseAction`]):
//!
//! * the **first** suspect verdict lifts the client to *Deflate* —
//!   requests still flow, but under laziness + coalescing transforms
//!   the origin ships at most what the client asked for;
//! * [`THROTTLE_AFTER`] suspect verdicts arm the per-client **token
//!   bucket** on origin-fetched bytes; a request arriving to an empty
//!   bucket is blocked;
//! * [`BLOCK_AFTER`] suspect verdicts pin the client at **Block**;
//! * windows that close without a single suspect verdict are *calm*;
//!   [`CALM_WINDOWS`] consecutive calm windows walk the client one rung
//!   back down and discharge the change-point evidence.
//!
//! Determinism: all state advances only on `decide`/`observe` calls
//! with caller-provided virtual timestamps. A layer driven twice with
//! the same request schedule produces identical reports.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use parking_lot::Mutex;
use rangeamp_cdn::{DefenseAction, DefenseHook, RequestOutcome};
use rangeamp_http::Request;

use crate::detector::{ClientDetector, Verdict};
use crate::features::RequestSample;

// Enforcement-ladder parameters, pinned by the golden fixtures under
// `tests/corpus/`.

/// Suspect verdicts after which the token bucket arms (Throttle).
pub const THROTTLE_AFTER: u64 = 8;

/// Suspect verdicts after which the client is pinned at Block.
pub const BLOCK_AFTER: u64 = 16;

/// Token-bucket capacity, in origin-fetched bytes.
pub const BUCKET_CAPACITY: u64 = 128 * 1024;

/// Token-bucket refill rate, in origin bytes per virtual second.
pub const BUCKET_REFILL_PER_SEC: u64 = 16 * 1024;

/// Consecutive calm windows that earn one rung of de-escalation.
pub const CALM_WINDOWS: u64 = 2;

/// Deterministic token bucket over virtual time (integer arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenBucket {
    capacity: u64,
    refill_per_sec: u64,
    level: u64,
    last_ms: u64,
}

impl TokenBucket {
    /// A full bucket.
    pub fn new(capacity: u64, refill_per_sec: u64, now_ms: u64) -> TokenBucket {
        TokenBucket {
            capacity,
            refill_per_sec,
            level: capacity,
            last_ms: now_ms,
        }
    }

    /// Refills for elapsed virtual time and returns the current level.
    pub fn level_at(&mut self, now_ms: u64) -> u64 {
        let elapsed = now_ms.saturating_sub(self.last_ms);
        if elapsed > 0 {
            let refill = elapsed.saturating_mul(self.refill_per_sec) / 1_000;
            self.level = (self.level + refill).min(self.capacity);
            self.last_ms = now_ms;
        }
        self.level
    }

    /// Consumes up to `cost` tokens (saturating at zero).
    pub fn consume(&mut self, cost: u64, now_ms: u64) {
        self.level_at(now_ms);
        self.level = self.level.saturating_sub(cost);
    }
}

/// Cumulative per-client statistics, exported for evaluation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClientReport {
    /// The client key.
    pub client: String,
    /// Total requests decided.
    pub requests: u64,
    /// Requests per action taken.
    pub allowed: u64,
    /// Requests handled under Deflate.
    pub deflated: u64,
    /// Requests handled under Throttle.
    pub throttled: u64,
    /// Requests answered 429.
    pub blocked: u64,
    /// Suspect verdicts accumulated.
    pub suspects: u64,
    /// Origin-side bytes across all requests.
    pub origin_bytes: u64,
    /// Client-facing response bytes across all requests.
    pub client_bytes: u64,
    /// Client request wire bytes across all requests.
    pub request_bytes: u64,
    /// Origin bytes on requests handled under an enforcing action.
    pub enforced_origin_bytes: u64,
    /// Request wire bytes on requests handled under an enforcing action.
    pub enforced_request_bytes: u64,
    /// Virtual time of the first suspect verdict.
    pub first_flag_ms: Option<u64>,
    /// The most severe action ever taken for this client.
    pub peak_action: Option<DefenseAction>,
    /// Most recent verdict.
    pub last_verdict: Option<Verdict>,
}

impl ClientReport {
    /// Residual amplification while enforcement was active: origin
    /// bytes fetched per request byte the client spent, over enforced
    /// requests only. Zero before any enforcement.
    pub fn residual_amplification(&self) -> f64 {
        if self.enforced_request_bytes == 0 {
            0.0
        } else {
            self.enforced_origin_bytes as f64 / self.enforced_request_bytes as f64
        }
    }
}

/// A client's cumulative statistics: a [`ClientReport`] without the
/// client key, which the table's index already holds.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    allowed: u64,
    deflated: u64,
    throttled: u64,
    blocked: u64,
    suspects: u64,
    origin_bytes: u64,
    client_bytes: u64,
    request_bytes: u64,
    enforced_origin_bytes: u64,
    enforced_request_bytes: u64,
    first_flag_ms: Option<u64>,
    peak_action: Option<DefenseAction>,
    last_verdict: Option<Verdict>,
}

impl Tally {
    fn report(&self, client: &str) -> ClientReport {
        ClientReport {
            client: client.to_string(),
            requests: self.requests,
            allowed: self.allowed,
            deflated: self.deflated,
            throttled: self.throttled,
            blocked: self.blocked,
            suspects: self.suspects,
            origin_bytes: self.origin_bytes,
            client_bytes: self.client_bytes,
            request_bytes: self.request_bytes,
            enforced_origin_bytes: self.enforced_origin_bytes,
            enforced_request_bytes: self.enforced_request_bytes,
            first_flag_ms: self.first_flag_ms,
            peak_action: self.peak_action,
            last_verdict: self.last_verdict,
        }
    }
}

#[derive(Debug)]
struct ClientState {
    detector: ClientDetector,
    rung: DefenseAction,
    bucket: Option<TokenBucket>,
    calm_streak: u64,
    tally: Tally,
}

impl ClientState {
    fn new() -> ClientState {
        ClientState {
            detector: ClientDetector::default(),
            rung: DefenseAction::Allow,
            bucket: None,
            calm_streak: 0,
            tally: Tally::default(),
        }
    }
}

/// Longest client key the index stores inline.
const INLINE_KEY: usize = 22;

/// A client key as the index stores it: inline up to [`INLINE_KEY`]
/// bytes, boxed beyond. An inline key costs no allocation on insert and
/// no pointer chase on lookup, and leaves no small heap block per
/// client between the slab's chunks. It hashes and compares as its
/// bytes, so the index is probed with `client.as_bytes()`.
#[derive(Debug)]
enum ClientKey {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Boxed(Box<[u8]>),
}

impl ClientKey {
    fn new(client: &str) -> ClientKey {
        let key = client.as_bytes();
        if key.len() > INLINE_KEY {
            return ClientKey::Boxed(key.into());
        }
        let mut bytes = [0; INLINE_KEY];
        bytes[..key.len()].copy_from_slice(key);
        let len = u8::try_from(key.len()).expect("INLINE_KEY fits in a u8");
        ClientKey::Inline { len, bytes }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            ClientKey::Inline { len, bytes } => &bytes[..usize::from(*len)],
            ClientKey::Boxed(bytes) => bytes,
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("client keys are built from a str")
    }
}

impl Borrow<[u8]> for ClientKey {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for ClientKey {
    fn eq(&self, other: &ClientKey) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ClientKey {}

impl Hash for ClientKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

/// Records per slab chunk. A chunk (~22 KB) stays below the allocator's
/// mmap threshold, so a new layer reuses the heap memory an old one
/// freed instead of faulting in fresh pages, and growing the slab never
/// moves a record.
const CHUNK: usize = 64;

/// Every client's state: the records in a slab, found through an index
/// from client key to slot. A known client costs one hash probe and no
/// allocation; a new one allocates only a chunk for every 64th client
/// and a key longer than [`INLINE_KEY`] bytes.
#[derive(Debug, Default)]
struct ClientTable {
    /// Client key → slot. Client ids are chosen by the sender, so the
    /// index keeps std's per-process random hash keys: a fixed-key hash
    /// would let an attacker pick colliding ids.
    index: HashMap<ClientKey, usize>,
    /// Slot `s` is `chunks[s / CHUNK][s % CHUNK]`; slots are dense, in
    /// order of first sighting.
    chunks: Vec<Vec<ClientState>>,
}

impl ClientTable {
    fn record(&self, slot: usize) -> &ClientState {
        &self.chunks[slot / CHUNK][slot % CHUNK]
    }

    fn get(&self, client: &str) -> Option<&ClientState> {
        self.index
            .get(client.as_bytes())
            .map(|&slot| self.record(slot))
    }

    fn get_or_insert(&mut self, client: &str) -> &mut ClientState {
        let slot = match self.index.get(client.as_bytes()) {
            Some(&slot) => slot,
            None => {
                let slot = self.index.len();
                self.index.insert(ClientKey::new(client), slot);
                if slot % CHUNK == 0 {
                    self.chunks.push(Vec::with_capacity(CHUNK));
                }
                self.chunks[slot / CHUNK].push(ClientState::new());
                slot
            }
        };
        &mut self.chunks[slot / CHUNK][slot % CHUNK]
    }
}

/// The pluggable online defense: detectors + enforcement ladder.
///
/// Attach to an edge with
/// [`EdgeNode::with_defense`](rangeamp_cdn::EdgeNode::with_defense).
/// One layer instance per campaign unit — state is per-layer, and the
/// determinism contract of [`DefenseHook`] forbids sharing a layer
/// across concurrently-driven testbeds.
#[derive(Debug, Default)]
pub struct DefenseLayer {
    clients: Mutex<ClientTable>,
}

impl DefenseLayer {
    /// Snapshot of every client's report, ordered by client key.
    pub fn report(&self) -> Vec<ClientReport> {
        let table = self.clients.lock();
        let mut keys: Vec<(&str, usize)> = table
            .index
            .iter()
            .map(|(client, &slot)| (client.as_str(), slot))
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|(client, slot)| table.record(slot).tally.report(client))
            .collect()
    }

    /// Number of clients the layer tracks: `report().len()` without
    /// building or sorting the reports.
    pub fn len(&self) -> usize {
        self.clients.lock().index.len()
    }

    /// Whether the layer tracks no client yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of one client's report.
    pub fn client_report(&self, client: &str) -> Option<ClientReport> {
        self.clients
            .lock()
            .get(client)
            .map(|state| state.tally.report(client))
    }

    /// The enforcement rung a client currently sits on.
    pub fn client_rung(&self, client: &str) -> DefenseAction {
        self.clients
            .lock()
            .get(client)
            .map_or(DefenseAction::Allow, |state| state.rung)
    }

    fn escalate(state: &mut ClientState, now_ms: u64) {
        state.calm_streak = 0;
        let suspects = state.tally.suspects;
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
}

impl DefenseHook for DefenseLayer {
    fn decide(&self, client: &str, _req: &Request, now_ms: u64) -> DefenseAction {
        let mut clients = self.clients.lock();
        let state = clients.get_or_insert(client);
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

    fn observe(
        &self,
        client: &str,
        req: &Request,
        action: DefenseAction,
        outcome: &RequestOutcome,
        now_ms: u64,
    ) {
        let sample = RequestSample::of(req);
        let mut clients = self.clients.lock();
        let state = clients.get_or_insert(client);

        state.tally.requests += 1;
        match action {
            DefenseAction::Allow => state.tally.allowed += 1,
            DefenseAction::Deflate => state.tally.deflated += 1,
            DefenseAction::Throttle => state.tally.throttled += 1,
            DefenseAction::Block => state.tally.blocked += 1,
        }
        state.tally.origin_bytes += outcome.origin_bytes;
        state.tally.client_bytes += outcome.client_bytes;
        state.tally.request_bytes += sample.request_bytes;
        if action.is_enforcing() {
            state.tally.enforced_origin_bytes += outcome.origin_bytes;
            state.tally.enforced_request_bytes += sample.request_bytes;
        }
        state.tally.peak_action = Some(state.tally.peak_action.map_or(action, |p| p.max(action)));

        if action == DefenseAction::Throttle {
            if let Some(bucket) = state.bucket.as_mut() {
                bucket.consume(outcome.origin_bytes, now_ms);
            }
        }

        let observation =
            state
                .detector
                .observe(&sample, outcome.origin_bytes, outcome.client_bytes, now_ms);
        state.tally.last_verdict = Some(observation.verdict);

        if let Some(window) = observation.closed_window {
            if window.suspects == 0 {
                state.calm_streak += 1;
                if state.calm_streak >= CALM_WINDOWS {
                    Self::deescalate(state);
                }
            } else {
                state.calm_streak = 0;
            }
        }

        if observation.verdict.class.is_suspect() {
            state.tally.suspects += 1;
            if state.tally.first_flag_ms.is_none() {
                state.tally.first_flag_ms = Some(now_ms);
            }
            Self::escalate(state, now_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attack_request(rnd: u64) -> Request {
        Request::get(&format!("/t.bin?rnd={rnd}"))
            .header("Host", "victim")
            .header("X-Client-Id", "mallory")
            .header("Range", "bytes=0-0")
            .build()
    }

    fn benign_request() -> Request {
        Request::get("/t.bin")
            .header("Host", "victim")
            .header("X-Client-Id", "alice")
            .build()
    }

    fn drive(layer: &DefenseLayer, req: &Request, origin: u64, client_bytes: u64, now: u64) {
        let key = rangeamp_cdn::client_key(req).to_string();
        let action = layer.decide(&key, req, now);
        let outcome = RequestOutcome {
            origin_bytes: if action == DefenseAction::Block {
                0
            } else {
                origin
            },
            client_bytes,
            status: 206,
        };
        layer.observe(&key, req, action, &outcome, now);
    }

    #[test]
    fn ladder_escalates_to_block_under_sustained_attack() {
        let layer = DefenseLayer::default();
        for i in 0..40u64 {
            drive(&layer, &attack_request(i), 1_000_000, 700, i * 100);
        }
        let report = layer.client_report("mallory").expect("tracked");
        assert_eq!(layer.client_rung("mallory"), DefenseAction::Block);
        assert!(report.blocked > 0, "bucket drained into blocks");
        assert!(report.first_flag_ms.is_some());
        assert_eq!(report.peak_action, Some(DefenseAction::Block));
    }

    #[test]
    fn len_counts_the_tracked_clients() {
        let layer = DefenseLayer::default();
        assert!(layer.is_empty());
        assert_eq!(layer.len(), layer.report().len());
        for i in 0..5u64 {
            drive(&layer, &attack_request(i), 1_000_000, 700, i * 100);
            drive(&layer, &benign_request(), 0, 1_000, i * 100 + 50);
        }
        // Keys past the inline limit are tracked like short ones.
        let long = Request::get("/t.bin")
            .header("Host", "victim")
            .header("X-Client-Id", "a-client-id-longer-than-the-inline-key")
            .build();
        drive(&layer, &long, 0, 1_000, 1_000);
        assert!(!layer.is_empty());
        assert_eq!(layer.len(), 3);
        assert_eq!(layer.len(), layer.report().len());
    }

    #[test]
    fn benign_client_rides_allow_forever() {
        let layer = DefenseLayer::default();
        for i in 0..100u64 {
            drive(&layer, &benign_request(), 0, 1_000_000, i * 250);
        }
        let report = layer.client_report("alice").expect("tracked");
        assert_eq!(report.allowed, 100);
        assert_eq!(report.blocked, 0);
        assert_eq!(report.suspects, 0);
        assert_eq!(layer.client_rung("alice"), DefenseAction::Allow);
    }

    #[test]
    fn calm_windows_deescalate_one_rung_at_a_time() {
        let window = crate::features::WINDOW_MS;
        let layer = DefenseLayer::default();
        // Burst to Deflate…
        for i in 0..4u64 {
            drive(&layer, &attack_request(i), 1_000_000, 700, i * 10);
        }
        assert!(layer.client_rung("mallory") >= DefenseAction::Deflate);
        // …then go quiet and benign for several windows.
        let benign_as_mallory = Request::get("/t.bin")
            .header("Host", "victim")
            .header("X-Client-Id", "mallory")
            .build();
        for w in 1..=6u64 {
            drive(&layer, &benign_as_mallory, 0, 1_000, w * window + 1);
        }
        assert_eq!(layer.client_rung("mallory"), DefenseAction::Allow);
    }

    #[test]
    fn token_bucket_refills_on_virtual_time() {
        let mut bucket = TokenBucket::new(1_000, 100, 0);
        bucket.consume(1_000, 0);
        assert_eq!(bucket.level_at(0), 0);
        assert_eq!(bucket.level_at(5_000), 500, "100 B/s for 5 s");
        assert_eq!(bucket.level_at(60_000), 1_000, "capped at capacity");
    }

    #[test]
    fn reports_are_ordered_by_client_key() {
        let layer = DefenseLayer::default();
        drive(&layer, &benign_request(), 0, 1_000, 0);
        drive(&layer, &attack_request(0), 1_000, 700, 0);
        // 1,000 more ids of 1 to 27 bytes, stored inline and boxed, first
        // seen in a shuffled order (7,919 is prime to 1,000); client `n`
        // sends `n % 3 + 1` requests, so each report must also carry its
        // own client's counts.
        let mut expected = vec![("alice".to_string(), 1), ("mallory".to_string(), 1)];
        for i in 0..1_000u64 {
            let n = i * 7_919 % 1_000;
            let id = format!("{}{n}", "k".repeat(n as usize % 25));
            let req = Request::get("/t.bin")
                .header("Host", "victim")
                .header("X-Client-Id", id.clone())
                .build();
            for _ in 0..=n % 3 {
                drive(&layer, &req, 0, 1_000, 0);
            }
            expected.push((id, n % 3 + 1));
        }
        expected.sort();
        let reports: Vec<(String, u64)> = layer
            .report()
            .into_iter()
            .map(|r| (r.client, r.requests))
            .collect();
        assert_eq!(reports, expected);
    }

    #[test]
    fn client_record_stays_small() {
        // The slab holds one record per client ever seen (75,913 per
        // `defended_mix` round), so its size is the defense's memory.
        let size = std::mem::size_of::<ClientState>();
        assert!(size <= 352, "ClientState is {size} B");
    }
}
