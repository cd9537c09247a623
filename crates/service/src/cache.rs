//! The content-addressed result cache, and the bounded [`Store`] it
//! shares with the fork server's checkpoint cache.
//!
//! Every compute request is deterministic: the simulator is cycle-exact
//! and the JSON encoder is byte-stable, so a response is fully determined
//! by `(source hash, backend, security mode, config digest, parameters)`.
//! That tuple is the [`CacheKey`]; the cached value is the encoded
//! response line itself, which makes cache hits byte-identical to cold
//! responses by construction.
//!
//! The cache is a bounded FIFO: at capacity, the oldest entry is evicted.
//! Hit/miss counters feed the `stats` and `metrics` endpoints: the cache
//! can be handed registry-owned [`Counter`] handles
//! ([`ResultCache::with_counters`]) so both endpoints read the *same*
//! atomics — one source of truth, no drift.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use sempe_core::telemetry::Counter;

use crate::sync;

/// What a cached response is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Request kind (`"compile"`, `"run"`, `"sweep"`, `"attack"`).
    pub op: &'static str,
    /// FNV-1a of the WIR source text.
    pub source_hash: u64,
    /// Compiler backend discriminant (0 baseline, 1 sempe, 2 cte;
    /// `u8::MAX` when the request spans all backends).
    pub backend: u8,
    /// Security mode discriminant (0 baseline, 1 sempe; `u8::MAX` when
    /// the request spans both).
    pub mode: u8,
    /// XOR of the [`sempe_sim::SimConfig::digest`]s of every
    /// configuration the request simulates under.
    pub config_digest: u64,
    /// Digest of the remaining request parameters (fuel, candidates, …).
    pub params_digest: u64,
}

/// The result cache: encoded response lines by [`CacheKey`].
pub type ResultCache = Store<CacheKey, Arc<str>>;

#[derive(Debug)]
struct Fifo<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

/// A bounded, thread-safe FIFO map with hit/miss accounting: the store
/// behind both the [`ResultCache`] and the fork server's checkpoint
/// cache. At capacity the oldest entry is evicted; capacity 0 stores
/// nothing.
#[derive(Debug)]
pub struct Store<K, V> {
    capacity: usize,
    inner: Mutex<Fifo<K, V>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl<K: Copy + Eq + Hash, V: Clone> Store<K, V> {
    /// An empty store holding at most `capacity` entries, with private
    /// (unregistered) counters.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Store::with_counters(capacity, Arc::new(Counter::new()), Arc::new(Counter::new()))
    }

    /// An empty store whose hit/miss accounting lands in the given
    /// counters — typically `registry.counter("cache_hits_total")` /
    /// `…misses_total`, so `stats` and `metrics` render one ledger.
    #[must_use]
    pub fn with_counters(capacity: usize, hits: Arc<Counter>, misses: Arc<Counter>) -> Self {
        let inner = Mutex::new(Fifo { map: HashMap::new(), order: VecDeque::new() });
        Store { capacity, inner, hits, misses }
    }

    /// Look up an entry, counting the hit or miss.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        let hit = sync::lock(&self.inner).map.get(key).cloned();
        if hit.is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        hit
    }

    /// Store an entry, evicting the oldest at capacity. A racing insert
    /// under the same key wins by arrival order; both racers computed
    /// identical values, so either is correct.
    pub fn insert(&self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = sync::lock(&self.inner);
        if inner.map.insert(key, value).is_none() {
            inner.order.push_back(key);
            while inner.map.len() > self.capacity {
                // `order` tracks `map` one-to-one; an empty queue here
                // would mean the invariant broke, and the right response
                // in a long-running daemon is to stop evicting, not to
                // panic while holding the lock.
                let Some(oldest) = inner.order.pop_front() else { break };
                inner.map.remove(&oldest);
            }
        }
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        sync::lock(&self.inner).map.len()
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups served from memory.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that missed.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// `hits / (hits + misses)`, or 0 before any lookup.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            op: "run",
            source_hash: n,
            backend: 1,
            mode: 1,
            config_digest: 7,
            params_digest: 9,
        }
    }

    #[test]
    fn get_insert_and_counters() {
        let c = ResultCache::new(4);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), Arc::from("body"));
        assert_eq!(c.get(&key(1)).as_deref(), Some("body"));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let c = ResultCache::new(2);
        c.insert(key(1), Arc::from("a"));
        c.insert(key(2), Arc::from("b"));
        c.insert(key(3), Arc::from("c"));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(1)).is_none(), "oldest evicted");
        assert!(c.get(&key(2)).is_some());
        assert!(c.get(&key(3)).is_some());
    }

    #[test]
    fn reinsert_does_not_duplicate_order_entries() {
        let c = ResultCache::new(2);
        c.insert(key(1), Arc::from("a"));
        c.insert(key(1), Arc::from("a"));
        c.insert(key(2), Arc::from("b"));
        c.insert(key(3), Arc::from("c"));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(3)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ResultCache::new(0);
        c.insert(key(1), Arc::from("a"));
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn registry_backed_counters_share_one_ledger() {
        let reg = sempe_core::Registry::new();
        let c = ResultCache::with_counters(
            4,
            reg.counter("cache_hits_total"),
            reg.counter("cache_misses_total"),
        );
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), Arc::from("body"));
        assert!(c.get(&key(1)).is_some());
        // The cache's own accessors and the registry read the same atomics.
        assert_eq!(reg.counter("cache_hits_total").get(), c.hits());
        assert_eq!(reg.counter("cache_misses_total").get(), c.misses());
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn distinct_dimensions_do_not_collide() {
        let a = key(1);
        let mut b = a;
        b.mode = 0;
        let mut c = a;
        c.config_digest ^= 1;
        let cache = ResultCache::new(8);
        cache.insert(a, Arc::from("a"));
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&c).is_none());
    }
}
