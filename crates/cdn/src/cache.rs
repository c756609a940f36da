//! The edge cache.
//!
//! Cache keys include the full path *and query string* — that is why an
//! attacker can force a cache miss on every request by appending a random
//! query parameter (paper §II-A), which both RangeAmp attacks rely on.
//! Only complete 200 representations are stored (partial-response caching
//! is exactly what vendors told the authors they don't want to do, §VII-A).
//!
//! # Data structure
//!
//! Lookups, stores, recency refreshes and evictions are all O(1). Entries
//! live in a slab (`Vec`) of slots threaded into a doubly linked recency
//! list by slot index, and a `HashMap` maps each key to its slot. Each key
//! is allocated once, as an `Arc<str>` shared by the map and its slot.
//! Once the cache is full, a store of a new key reuses the least recently
//! used slot in place, so the slab never grows past the capacity.
//!
//! Entries are stored as `Arc<CachedEntry>`: a hit hands out a shared
//! pointer instead of cloning the response and its headers, and the
//! pointer stays valid after the entry is evicted or replaced.
//!
//! # Keys
//!
//! A key is the borrowed `(host, path, query)` triple of a request
//! ([`CacheKey`]). Lookups hash and compare those parts in place, so a hit
//! builds no key string; only a store copies the parts, once, into the
//! owned key the map and its slot share. Comparing parts (not a joined
//! string) also keeps keys whose joined text would coincide apart, such
//! as host `a` with path `/x|/y` and host `a|/x` with path `/y`.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;
use rangeamp_http::{Response, Uri};

/// The parts a cached representation is keyed on: the request's `Host`
/// and its target's path and query.
///
/// # Example
///
/// ```
/// use rangeamp_cdn::CacheKey;
///
/// // Every cache-busted URL is a distinct key:
/// let a = CacheKey::new("victim", "/f.bin", Some("rnd=1"));
/// let b = CacheKey::new("victim", "/f.bin", Some("rnd=2"));
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey<'a> {
    /// The `Host` value.
    pub host: &'a str,
    /// The target's path.
    pub path: &'a str,
    /// The target's query, without the `?`.
    pub query: Option<&'a str>,
}

impl<'a> CacheKey<'a> {
    /// A key from its parts.
    pub fn new(host: &'a str, path: &'a str, query: Option<&'a str>) -> CacheKey<'a> {
        CacheKey { host, path, query }
    }

    /// The key of request target `uri` on `host`.
    pub fn of(host: &'a str, uri: &'a Uri) -> CacheKey<'a> {
        CacheKey::new(host, uri.path(), uri.query())
    }
}

/// A stored key: the parts of a [`CacheKey`] copied into one shared
/// buffer, `host` then `path` then `query`.
#[derive(Debug, Clone)]
struct OwnedKey {
    text: Arc<str>,
    host_end: usize,
    path_end: usize,
    has_query: bool,
}

impl OwnedKey {
    fn new(key: CacheKey<'_>) -> OwnedKey {
        let query = key.query.unwrap_or("");
        let mut text = String::with_capacity(key.host.len() + key.path.len() + query.len());
        text.push_str(key.host);
        text.push_str(key.path);
        text.push_str(query);
        OwnedKey {
            text: Arc::from(text),
            host_end: key.host.len(),
            path_end: key.host.len() + key.path.len(),
            has_query: key.query.is_some(),
        }
    }
}

/// Views of a key as its borrowed parts, so the maps keyed on
/// [`OwnedKey`] can be searched with a [`CacheKey`] (the map's key type
/// must borrow as the lookup type, and both must hash alike).
trait KeyParts {
    fn parts(&self) -> CacheKey<'_>;
}

impl KeyParts for CacheKey<'_> {
    fn parts(&self) -> CacheKey<'_> {
        *self
    }
}

impl KeyParts for OwnedKey {
    fn parts(&self) -> CacheKey<'_> {
        CacheKey {
            host: &self.text[..self.host_end],
            path: &self.text[self.host_end..self.path_end],
            query: self.has_query.then(|| &self.text[self.path_end..]),
        }
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}
impl Eq for dyn KeyParts + '_ {}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for OwnedKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}
impl Eq for OwnedKey {}

impl Hash for OwnedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for OwnedKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

/// A cached full representation.
#[derive(Debug, Clone)]
pub struct CachedEntry {
    /// The stored 200 response (complete body).
    pub response: Response,
    /// Virtual instant (ms) the entry was stored, for TTL freshness.
    pub stored_at_ms: u64,
}

/// End-of-list marker for the recency links.
const NIL: usize = usize::MAX;

/// One stored entry plus its links in the recency list.
#[derive(Debug)]
struct Slot {
    key: OwnedKey,
    entry: Arc<CachedEntry>,
    /// Next less recently used slot, or [`NIL`].
    older: usize,
    /// Next more recently used slot, or [`NIL`].
    newer: usize,
}

#[derive(Debug)]
struct CacheInner {
    /// Key → index into `slots`.
    index: HashMap<OwnedKey, usize>,
    slots: Vec<Slot>,
    /// Least recently used slot, or [`NIL`] when empty.
    oldest: usize,
    /// Most recently used slot, or [`NIL`] when empty.
    newest: usize,
    max_entries: usize,
    /// Freshness lifetime in virtual ms; `None` = entries never expire.
    ttl_ms: Option<u64>,
    evictions: u64,
    /// KeyCDN's observed two-step behaviour needs per-key request
    /// history. Bounded like the entries: at `max_entries` keys it is
    /// cleared before the next insert.
    seen: HashSet<OwnedKey>,
    hits: u64,
    misses: u64,
}

impl Default for CacheInner {
    fn default() -> CacheInner {
        CacheInner {
            index: HashMap::new(),
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
            max_entries: Cache::DEFAULT_MAX_ENTRIES,
            ttl_ms: None,
            evictions: 0,
            seen: HashSet::new(),
            hits: 0,
            misses: 0,
        }
    }
}

impl CacheInner {
    /// Removes slot `i` from the recency list (it stays in the slab).
    fn unlink(&mut self, i: usize) {
        let Slot { older, newer, .. } = self.slots[i];
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
    }

    /// Appends the unlinked slot `i` as the most recently used.
    fn push_newest(&mut self, i: usize) {
        self.slots[i].older = self.newest;
        self.slots[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// Marks slot `i` as the most recently used.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
    }

    /// Stores `entry` under `key` as the most recently used entry. A new
    /// key arriving at a full cache takes over the least recently used
    /// entry's slot.
    fn insert(&mut self, key: CacheKey<'_>, entry: Arc<CachedEntry>) {
        if let Some(&i) = self.index.get(&key as &dyn KeyParts) {
            self.slots[i].entry = entry;
            self.touch(i);
            return;
        }
        let key = OwnedKey::new(key);
        let i = if self.slots.len() < self.max_entries {
            self.slots.push(Slot {
                key: key.clone(),
                entry,
                older: NIL,
                newer: NIL,
            });
            self.slots.len() - 1
        } else {
            // Full: evict the least recently used entry and reuse its slot.
            let i = self.oldest;
            self.unlink(i);
            let slot = &mut self.slots[i];
            let victim = std::mem::replace(&mut slot.key, key.clone());
            slot.entry = entry;
            self.index.remove(&victim);
            self.evictions += 1;
            i
        };
        self.index.insert(key, i);
        self.push_newest(i);
    }
}

/// Shared-state edge cache (clones share storage, like processes on one
/// edge node). Bounded: beyond [`Cache::DEFAULT_MAX_ENTRIES`] (or the
/// limit given to [`Cache::with_capacity`]) the least recently used
/// entry is evicted — which is how an SBR attacker's cache-busted
/// requests also *pollute* the edge cache as a side effect.
///
/// Every operation is O(1): lookups ([`Cache::get`],
/// [`Cache::get_stale`]) hash the key once and hand out a shared
/// `Arc<CachedEntry>` without copying the response; a fresh hit and a
/// store move the entry to the most-recently-used end of an intrusive
/// recency list; an eviction unlinks its least-recently-used end.
///
/// # Example
///
/// ```
/// use rangeamp_cdn::{Cache, CacheKey};
/// use rangeamp_http::{Response, StatusCode};
///
/// let cache = Cache::with_capacity(2);
/// let key = CacheKey::new("victim", "/f.bin", Some("rnd=1"));
/// cache.put(key, Response::builder(StatusCode::OK).build(), 0);
/// assert!(cache.get(key, 0).is_some());
/// // A cache-busted URL is a distinct key:
/// assert!(cache.get(CacheKey::new("victim", "/f.bin", Some("rnd=2")), 0).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cache {
    inner: Arc<Mutex<CacheInner>>,
}

impl Cache {
    /// Default entry limit per edge cache.
    pub const DEFAULT_MAX_ENTRIES: usize = 4096;

    /// Creates an empty cache with the default capacity.
    pub fn new() -> Cache {
        Cache::default()
    }

    /// Creates an empty cache holding at most `max_entries`.
    pub fn with_capacity(max_entries: usize) -> Cache {
        let cache = Cache::default();
        cache.inner.lock().max_entries = max_entries.max(1);
        cache
    }

    /// Gives entries a freshness lifetime of `ttl_ms` virtual
    /// milliseconds. Expired entries stop counting as hits but stay
    /// stored, so the resilience layer can serve them *stale* (with
    /// `Warning: 110`) while the upstream is failing.
    pub fn with_ttl(self, ttl_ms: u64) -> Cache {
        self.inner.lock().ttl_ms = Some(ttl_ms);
        self
    }

    /// Looks up a *fresh* representation at `now_ms`, counting hit/miss
    /// statistics and refreshing recency. An expired entry counts as a
    /// miss, keeps its recency, and is retained for
    /// [`Cache::get_stale`]. The returned entry is shared with the cache.
    pub fn get(&self, key: CacheKey<'_>, now_ms: u64) -> Option<Arc<CachedEntry>> {
        let mut inner = self.inner.lock();
        let ttl_ms = inner.ttl_ms;
        let fresh = inner
            .index
            .get(&key as &dyn KeyParts)
            .copied()
            .filter(|&i| {
                ttl_ms.is_none_or(|ttl| {
                    now_ms < inner.slots[i].entry.stored_at_ms.saturating_add(ttl)
                })
            });
        match fresh {
            Some(i) => {
                inner.hits += 1;
                inner.touch(i);
                Some(Arc::clone(&inner.slots[i].entry))
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Looks up a representation regardless of freshness — the
    /// serve-stale fallback when the upstream is failing. Does not touch
    /// hit/miss statistics or recency. The returned entry is shared with
    /// the cache.
    pub fn get_stale(&self, key: CacheKey<'_>) -> Option<Arc<CachedEntry>> {
        let inner = self.inner.lock();
        let i = *inner.index.get(&key as &dyn KeyParts)?;
        Some(Arc::clone(&inner.slots[i].entry))
    }

    /// Stores a full representation stamped at `now_ms` and marks it most
    /// recently used. Storing over an existing key replaces the entry in
    /// place; storing a new key into a full cache first evicts the least
    /// recently used entry.
    pub fn put(&self, key: CacheKey<'_>, response: Response, now_ms: u64) {
        let entry = Arc::new(CachedEntry {
            response,
            stored_at_ms: now_ms,
        });
        self.inner.lock().insert(key, entry);
    }

    /// Number of entries evicted so far (the cache-pollution signal).
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Marks that `key` has been requested before (KeyCDN's first-pass
    /// marker), returning whether it had already been marked.
    ///
    /// The markers are bounded by the cache's capacity: a new key that
    /// finds `max_entries` markers clears them first, so a flood of
    /// cache-busted URLs cannot grow them without limit. A request and
    /// its immediate repeat still pair up.
    pub fn mark_seen(&self, key: CacheKey<'_>) -> bool {
        let mut inner = self.inner.lock();
        if inner.seen.contains(&key as &dyn KeyParts) {
            return true;
        }
        if inner.seen.len() >= inner.max_entries {
            inner.seen.clear();
        }
        inner.seen.insert(OwnedKey::new(key));
        false
    }

    /// Whether `key` was requested before.
    pub fn was_seen(&self, key: CacheKey<'_>) -> bool {
        self.inner.lock().seen.contains(&key as &dyn KeyParts)
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Number of stored representations.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().index.is_empty()
    }

    /// Drops all entries and statistics. Like a freshly built
    /// [`Cache::new`], the cleared cache has the default capacity and no
    /// TTL.
    pub fn clear(&self) {
        *self.inner.lock() = CacheInner::default();
    }

    /// Paths of the stored keys, least recently used first.
    #[cfg(test)]
    fn keys_by_recency(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut keys = Vec::with_capacity(inner.index.len());
        let mut i = inner.oldest;
        while i != NIL {
            keys.push(inner.slots[i].key.parts().path.to_string());
            i = inner.slots[i].newer;
        }
        keys
    }
}

/// The linear-scan LRU the cache used before its O(1) recency list,
/// kept as the reference model for the equivalence property test: a
/// `Vec` of keys in least-recently-used-first order, searched and
/// shifted on every touch and eviction.
#[cfg(test)]
mod model {
    use std::collections::HashMap;

    use rangeamp_http::Response;

    use super::{Cache, CachedEntry};

    #[derive(Debug)]
    pub(super) struct ModelCache {
        entries: HashMap<String, CachedEntry>,
        /// Keys in least-recently-used-first order.
        lru: Vec<String>,
        max_entries: usize,
        ttl_ms: Option<u64>,
        evictions: u64,
        hits: u64,
        misses: u64,
    }

    impl ModelCache {
        pub(super) fn new(max_entries: usize, ttl_ms: Option<u64>) -> ModelCache {
            ModelCache {
                entries: HashMap::new(),
                lru: Vec::new(),
                max_entries: max_entries.max(1),
                ttl_ms,
                evictions: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn touch(&mut self, key: &str) {
            if let Some(pos) = self.lru.iter().position(|k| k == key) {
                let key = self.lru.remove(pos);
                self.lru.push(key);
            }
        }

        pub(super) fn get_at(&mut self, key: &str, now_ms: u64) -> Option<CachedEntry> {
            let fresh = self.entries.get(key).cloned().filter(|entry| {
                self.ttl_ms
                    .is_none_or(|ttl| now_ms < entry.stored_at_ms.saturating_add(ttl))
            });
            match fresh {
                Some(entry) => {
                    self.hits += 1;
                    self.touch(key);
                    Some(entry)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        pub(super) fn get_stale(&self, key: &str) -> Option<CachedEntry> {
            self.entries.get(key).cloned()
        }

        /// Stores an entry, returning the keys evicted to make room.
        pub(super) fn put_at(&mut self, key: &str, response: Response, now_ms: u64) -> Vec<String> {
            let entry = CachedEntry {
                response,
                stored_at_ms: now_ms,
            };
            if self.entries.insert(key.to_string(), entry).is_none() {
                self.lru.push(key.to_string());
            } else {
                self.touch(key);
            }
            let mut evicted = Vec::new();
            while self.entries.len() > self.max_entries && !self.lru.is_empty() {
                let victim = self.lru.remove(0);
                self.entries.remove(&victim);
                self.evictions += 1;
                evicted.push(victim);
            }
            evicted
        }

        pub(super) fn clear(&mut self) {
            *self = ModelCache::new(Cache::DEFAULT_MAX_ENTRIES, None);
        }

        pub(super) fn stats(&self) -> (u64, u64) {
            (self.hits, self.misses)
        }

        pub(super) fn evictions(&self) -> u64 {
            self.evictions
        }

        pub(super) fn len(&self) -> usize {
            self.entries.len()
        }

        pub(super) fn keys_by_recency(&self) -> &[String] {
            &self.lru
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::ModelCache;
    use super::*;
    use proptest::prelude::*;
    use rangeamp_http::StatusCode;

    /// A key on a fixed host whose path is `name`.
    fn key(name: &str) -> CacheKey<'_> {
        CacheKey::new("victim", name, None)
    }

    fn response_of(len: usize) -> Response {
        Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; len])
            .build()
    }

    #[test]
    fn put_then_get() {
        let cache = Cache::new();
        let key = CacheKey::new("victim", "/f.bin", None);
        assert!(cache.get(key, 0).is_none());
        cache.put(key, response_of(10), 0);
        assert_eq!(cache.get(key, 0).unwrap().response.body().len(), 10);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn query_string_changes_the_key() {
        // The cache-busting property the attacks rely on.
        let cache = Cache::new();
        cache.put(CacheKey::new("victim", "/f.bin", None), response_of(10), 0);
        assert!(cache
            .get(CacheKey::new("victim", "/f.bin", Some("rnd=1")), 0)
            .is_none());
        assert!(cache
            .get(CacheKey::new("victim", "/f.bin", Some("rnd=2")), 0)
            .is_none());
    }

    #[test]
    fn host_changes_the_key() {
        let cache = Cache::new();
        cache.put(CacheKey::new("a", "/f", None), response_of(1), 0);
        assert!(cache.get(CacheKey::new("b", "/f", None), 0).is_none());
    }

    #[test]
    fn keys_whose_joined_text_coincides_stay_apart() {
        // `a` + `/x|/y` and `a|/x` + `/y` both joined to `a|/x|/y` when
        // keys were `host|target` strings.
        let cache = Cache::new();
        cache.put(CacheKey::new("a", "/x|/y", None), response_of(1000), 0);
        assert!(cache.get(CacheKey::new("a|/x", "/y", None), 0).is_none());
        // Nor may a query move into the path or the host.
        cache.put(CacheKey::new("h", "/p", Some("q")), response_of(1), 0);
        assert!(cache.get(CacheKey::new("h", "/pq", None), 0).is_none());
        assert!(cache.get(CacheKey::new("h", "/p", Some("")), 0).is_none());
        assert!(cache.get(CacheKey::new("h/p", "", Some("q")), 0).is_none());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn key_of_a_target_round_trips_through_storage() {
        let uri = Uri::parse("/f.bin?rnd=1").unwrap();
        let key = CacheKey::of("victim", &uri);
        assert_eq!(key, CacheKey::new("victim", "/f.bin", Some("rnd=1")));
        assert_eq!(OwnedKey::new(key).parts(), key);
        let bare = CacheKey::new("victim", "/f.bin", None);
        assert_eq!(OwnedKey::new(bare).parts(), bare);
    }

    #[test]
    fn seen_marker_flips_on_second_visit() {
        let cache = Cache::new();
        let key = CacheKey::new("victim", "/f.bin", Some("x=1"));
        assert!(!cache.mark_seen(key));
        assert!(cache.was_seen(key));
        assert!(cache.mark_seen(key));
    }

    #[test]
    fn seen_markers_stay_within_the_capacity() {
        let cache = Cache::with_capacity(4);
        for i in 0..5 {
            let query = format!("rnd={i}");
            assert!(!cache.mark_seen(CacheKey::new("victim", "/f.bin", Some(&query))));
        }
        assert!(cache.inner.lock().seen.len() <= 4);
    }

    #[test]
    fn a_back_to_back_pair_survives_the_clear() {
        let cache = Cache::with_capacity(4);
        for i in 0..4 {
            let query = format!("rnd={i}");
            cache.mark_seen(CacheKey::new("victim", "/f.bin", Some(&query)));
        }
        // The set is full: the next new key clears it, then pairs up.
        let key = CacheKey::new("victim", "/f.bin", Some("rnd=4"));
        assert!(!cache.mark_seen(key));
        assert!(cache.mark_seen(key));
        assert!(cache.was_seen(key));
    }

    #[test]
    fn clones_share_state() {
        let a = Cache::new();
        let b = a.clone();
        a.put(key("k"), response_of(1), 0);
        assert!(b.get(key("k"), 0).is_some());
    }

    #[test]
    fn lru_eviction_beyond_capacity() {
        let cache = Cache::with_capacity(2);
        cache.put(key("a"), response_of(1), 0);
        cache.put(key("b"), response_of(2), 0);
        cache.put(key("c"), response_of(3), 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(key("a"), 0).is_none(), "oldest evicted");
        assert!(cache.get(key("b"), 0).is_some());
        assert!(cache.get(key("c"), 0).is_some());
    }

    #[test]
    fn get_refreshes_recency() {
        let cache = Cache::with_capacity(2);
        cache.put(key("a"), response_of(1), 0);
        cache.put(key("b"), response_of(2), 0);
        cache.get(key("a"), 0); // a becomes most recent
        cache.put(key("c"), response_of(3), 0);
        assert!(cache.get(key("a"), 0).is_some(), "recently used survives");
        assert!(cache.get(key("b"), 0).is_none(), "LRU victim");
    }

    #[test]
    fn reinsert_updates_without_duplicate_lru_entry() {
        let cache = Cache::with_capacity(2);
        cache.put(key("a"), response_of(1), 0);
        cache.put(key("a"), response_of(9), 0);
        cache.put(key("b"), response_of(2), 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(key("a"), 0).unwrap().response.body().len(), 9);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn cache_busting_pollutes_the_cache() {
        // The SBR side effect: each busted URL is a distinct key, so a
        // stream of attack requests evicts legitimate entries.
        let cache = Cache::with_capacity(4);
        cache.put(
            CacheKey::new("victim", "/popular.bin", None),
            response_of(10),
            0,
        );
        for i in 0..16 {
            let rnd = format!("rnd={i}");
            cache.put(
                CacheKey::new("victim", "/f.bin", Some(&rnd)),
                response_of(1),
                0,
            );
        }
        assert!(cache
            .get(CacheKey::new("victim", "/popular.bin", None), 0)
            .is_none());
        assert!(cache.evictions() >= 12);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = Cache::new();
        cache.put(key("k"), response_of(1), 0);
        cache.mark_seen(key("k"));
        cache.clear();
        assert!(cache.is_empty());
        assert!(!cache.was_seen(key("k")));
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn expired_get_is_a_miss_and_keeps_recency() {
        let cache = Cache::with_capacity(2).with_ttl(10);
        cache.put(key("a"), response_of(1), 0);
        cache.put(key("b"), response_of(2), 5);
        assert!(cache.get(key("a"), 12).is_none(), "a expired at 10");
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.keys_by_recency(), ["a", "b"]);
        cache.put(key("c"), response_of(3), 12);
        assert!(
            cache.get_stale(key("a")).is_none(),
            "a stayed LRU and was evicted"
        );
        assert!(cache.get_stale(key("b")).is_some());
    }

    #[test]
    fn get_stale_keeps_recency_and_counters() {
        let cache = Cache::with_capacity(2).with_ttl(10);
        cache.put(key("a"), response_of(1), 0);
        cache.put(key("b"), response_of(2), 0);
        assert_eq!(cache.get_stale(key("a")).unwrap().response.body().len(), 1);
        assert!(cache.get_stale(key("missing")).is_none());
        assert_eq!(cache.stats(), (0, 0));
        assert_eq!(cache.keys_by_recency(), ["a", "b"]);
        cache.put(key("c"), response_of(3), 0);
        assert!(
            cache.get_stale(key("a")).is_none(),
            "a was still the LRU victim"
        );
    }

    #[test]
    fn put_over_existing_key_restamps_and_refreshes() {
        let cache = Cache::with_capacity(2).with_ttl(10);
        cache.put(key("a"), response_of(1), 0);
        cache.put(key("b"), response_of(2), 0);
        cache.put(key("a"), response_of(7), 8);
        assert_eq!(cache.keys_by_recency(), ["b", "a"]);
        cache.put(key("c"), response_of(3), 15);
        assert_eq!(cache.keys_by_recency(), ["a", "c"], "b was the LRU victim");
        assert_eq!(cache.evictions(), 1);
        let entry = cache.get(key("a"), 15).expect("fresh until 18");
        assert_eq!(entry.stored_at_ms, 8);
        assert_eq!(entry.response.body().len(), 7);
    }

    #[test]
    fn returned_entry_outlives_its_eviction() {
        let cache = Cache::with_capacity(1);
        cache.put(key("a"), response_of(5), 0);
        let held = cache.get(key("a"), 0).unwrap();
        cache.put(key("b"), response_of(6), 0);
        assert!(cache.get_stale(key("a")).is_none());
        assert_eq!(held.response.body().len(), 5);
        assert_eq!(held.stored_at_ms, 0);
    }

    #[test]
    fn hits_share_the_stored_entry() {
        let cache = Cache::new();
        cache.put(key("a"), response_of(5), 0);
        let first = cache.get(key("a"), 0).unwrap();
        let second = cache.get_stale(key("a")).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
    }

    fn same_entry(real: Option<Arc<CachedEntry>>, model: Option<CachedEntry>) -> bool {
        match (real, model) {
            (None, None) => true,
            (Some(real), Some(model)) => {
                real.stored_at_ms == model.stored_at_ms && real.response == model.response
            }
            _ => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_the_linear_scan_reference_model(
            capacity in 1usize..9,
            ttl_ms in proptest::option::of(1u64..12),
            steps in proptest::collection::vec((0u8..16, 0u8..12, 0u64..4), 1..120),
        ) {
            let cache = Cache::with_capacity(capacity);
            let cache = match ttl_ms {
                Some(ttl) => cache.with_ttl(ttl),
                None => cache,
            };
            let mut model = ModelCache::new(capacity, ttl_ms);
            let mut now_ms = 0u64;
            for (index, &step) in steps.iter().enumerate() {
                let (op, id, advance) = step;
                now_ms += advance;
                let name = format!("k{id}");
                let key = key(&name);
                match op {
                    // put: the body length tags which store wrote it.
                    0..=6 => {
                        let before = cache.keys_by_recency();
                        let expected = model.put_at(&name, response_of(index), now_ms);
                        cache.put(key, response_of(index), now_ms);
                        let after = cache.keys_by_recency();
                        let evicted: Vec<String> =
                            before.into_iter().filter(|k| !after.contains(k)).collect();
                        prop_assert_eq!(evicted, expected, "evicted keys at {:?}", step);
                    }
                    7..=12 => prop_assert!(
                        same_entry(cache.get(key, now_ms), model.get_at(&name, now_ms)),
                        "get differs at {:?}", step
                    ),
                    13..=14 => prop_assert!(
                        same_entry(cache.get_stale(key), model.get_stale(&name)),
                        "get_stale differs at {:?}", step
                    ),
                    _ => {
                        cache.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(cache.stats(), model.stats(), "stats at {:?}", step);
                prop_assert_eq!(cache.evictions(), model.evictions(), "evictions at {:?}", step);
                prop_assert_eq!(cache.len(), model.len(), "len at {:?}", step);
                prop_assert_eq!(
                    cache.keys_by_recency(),
                    model.keys_by_recency(),
                    "recency order at {:?}", step
                );
            }
        }
    }
}
