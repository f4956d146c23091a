//! Content-addressed LRU caches of inference results, at two granularities:
//! whole circuits ([`EmbeddingCache`]) and fanin-cone components
//! ([`ConeMemo`]).
//!
//! The serving workload described by the paper's downstream tasks (power
//! estimation, reliability) hammers a *frozen* model with repeated queries
//! over the same or near-identical circuits. The cache keys results by
//! **content**, not identity: the circuit contributes its canonical
//! [`structural_hash`] (invariant under node renumbering), the workload its
//! per-PI stimulus *paired with the PI's name* (so a renumbered circuit with
//! a correspondingly reordered workload still hits, while assigning the same
//! stimulus vector to differently-named PIs misses), and the initial-state
//! seed completes the key. Repeated circuit+workload queries are O(1).
//! Both caches also key every entry by the generation of the model that
//! computed it, so results from replaced weights never hit.
//!
//! # Numbering semantics of cached results
//!
//! Content addressing deliberately identifies all renumberings of one
//! circuit: a hit reproduces the outputs of the request that *populated*
//! the entry, computed under that request's node numbering. Per-node rows
//! are indexed by the populating numbering, and because
//! `initial_states` seeds the random non-PI rows by node index, even
//! circuit-level outputs (pooled embedding, prediction means) would come
//! out slightly different under a different numbering of the same
//! structure — the cache pins them to the first numbering seen. Callers
//! that need numbering-exact results must query with one consistent
//! numbering (or disable the cache); callers treating the model as a
//! content-addressed embedding provider get exactly the determinism they
//! want: one circuit structure + workload + seed ⇒ one stable answer.
//!
//! # Cone granularity
//!
//! The [`ConeMemo`] caches *below* whole-circuit granularity: the final
//! propagated state rows of one weakly connected component, keyed by an
//! order-sensitive structural fingerprint of the component plus a content
//! hash of its actual initial-state rows (see
//! [`ConeKey`]). Because per-node updates are row-independent within a
//! level and a component's levels are intrinsic to it, those rows are a
//! pure function of the key — a request whose circuit shares components
//! with a cached one reuses their rows bitwise-identically and only
//! recomputes the changed components. The engine's cone path
//! (`crate::cone`) does the partitioning, extraction and reassembly.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use deepseq_core::Predictions;
use deepseq_netlist::hash::{combine, hash_bytes, mix};
use deepseq_netlist::{structural_hash, SeqAig};
use deepseq_nn::Matrix;
use deepseq_sim::Workload;

/// Content address of one inference request. It names the request only;
/// the [`EmbeddingCache`] pairs it with the model generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical structural hash of the circuit.
    pub structural: u64,
    /// Order-invariant hash of the (PI name, stimulus) pairs.
    pub workload: u64,
    /// Seed of the random non-PI rows of the initial state matrix.
    pub init_seed: u64,
}

/// Tag separating trailing (beyond-the-PI-list) stimuli from the per-PI
/// hash stream in [`CacheKey::for_request`].
const TAG_TRAILING: u64 = 0x74726C; // "trl"

impl CacheKey {
    /// Computes the content address of a request.
    pub fn for_request(aig: &SeqAig, workload: &Workload, init_seed: u64) -> CacheKey {
        let stimuli = workload.stimuli();
        let mut wsum = 0u64;
        // Duplicate PI names are legal in parsed netlists; rank same-named
        // PIs by id order so swapping their stimuli changes the key (a false
        // miss under renumbering is safe, a false hit would not be).
        let mut name_rank: HashMap<&str, u64> = HashMap::new();
        for (i, pi) in aig.pis().iter().enumerate() {
            let name = aig.node_name(*pi).unwrap_or("");
            let rank = name_rank.entry(name).or_insert(0);
            let mut h = combine(hash_bytes(name.as_bytes()), *rank);
            *rank += 1;
            match stimuli.get(i) {
                Some(s) => {
                    h = combine(h, s.p1.to_bits());
                    h = combine(h, s.density.to_bits());
                }
                None => h = combine(h, u64::MAX),
            }
            // Order-invariant: the multiset of (name, rank, stimulus)
            // triples is what matters, not PI id order.
            wsum = wsum.wrapping_add(mix(h));
        }
        // Stimuli beyond the PI list never reach the model, but they are
        // part of the request: hash them by index so two oversized workloads
        // of equal length cannot collide into one key (a false hit).
        for (i, s) in stimuli.iter().enumerate().skip(aig.pis().len()) {
            let mut h = combine(mix(TAG_TRAILING), i as u64);
            h = combine(h, s.p1.to_bits());
            h = combine(h, s.density.to_bits());
            wsum = wsum.wrapping_add(mix(h));
        }
        CacheKey {
            structural: structural_hash(aig),
            workload: combine(wsum, stimuli.len() as u64),
            init_seed,
        }
    }
}

/// A cached forward-pass result, shared by `Arc` so cache hits are
/// allocation-free.
///
/// Per-node rows follow the node numbering of the request that populated
/// the entry — see the [module docs](self) on row-numbering semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedInference {
    /// Per-node predictions.
    pub predictions: Predictions,
    /// `1×d` mean-pooled circuit embedding.
    pub embedding: Matrix,
    /// Node count of the circuit that produced them.
    pub num_nodes: usize,
}

/// Hit/miss/eviction counters of an [`EmbeddingCache`] or [`ConeMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The shared LRU machinery of both cache granularities: a `HashMap` for
/// O(1) lookup plus a `BTreeMap` keyed by last-used tick for O(log n)
/// eviction of the minimum — ticks are unique (every touch bumps the
/// counter), so the tree is a faithful recency order and eviction never
/// scans. Counter semantics match the original O(capacity) scan exactly.
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, LruEntry<V>>,
    by_tick: BTreeMap<u64, K>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct LruEntry<V> {
    value: V,
    last_used: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            by_tick: BTreeMap::new(),
            capacity: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl<K: Eq + Hash + Copy, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::with_capacity(capacity.min(1024)),
            by_tick: BTreeMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                self.by_tick.remove(&entry.last_used);
                entry.last_used = self.tick;
                self.by_tick.insert(self.tick, *key);
                self.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        match self.map.get_mut(&key) {
            Some(entry) => {
                // Refresh in place.
                self.by_tick.remove(&entry.last_used);
                entry.value = value;
                entry.last_used = self.tick;
                self.by_tick.insert(self.tick, key);
                return;
            }
            None => {
                if self.map.len() >= self.capacity {
                    if let Some((&oldest_tick, &oldest_key)) = self.by_tick.iter().next() {
                        self.by_tick.remove(&oldest_tick);
                        self.map.remove(&oldest_key);
                        self.evictions += 1;
                    }
                }
            }
        }
        self.map.insert(
            key,
            LruEntry {
                value,
                last_used: self.tick,
            },
        );
        self.by_tick.insert(self.tick, key);
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|entry| {
            self.by_tick.remove(&entry.last_used);
            entry.value
        })
    }

    fn clear(&mut self) {
        self.map.clear();
        self.by_tick.clear();
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

/// Bounded LRU of [`CachedInference`] results keyed by model generation
/// (see [`InferenceModel::generation`](crate::InferenceModel::generation))
/// and [`CacheKey`]. The generation makes a reload sound without any
/// ordering between it and in-flight requests: a request that began on the
/// old model inserts under the old generation, which the new model's
/// lookups never ask for.
///
/// Recency is tracked with a monotonic tick per entry; a `BTreeMap` over
/// the (unique) ticks gives O(log n) eviction of the least recently used
/// entry — the O(capacity) min-scan it replaces became a hot loop once the
/// cone memo multiplied entry counts. Wrap it in a `Mutex` to share
/// (the [`Engine`](crate::Engine) does).
///
/// # Example
/// ```
/// use deepseq_serve::{CachedInference, CacheKey, EmbeddingCache};
/// use deepseq_core::Predictions;
/// use deepseq_nn::Matrix;
/// use std::sync::Arc;
///
/// let mut cache = EmbeddingCache::new(2);
/// let key = CacheKey { structural: 1, workload: 2, init_seed: 3 };
/// assert!(cache.get(1, &key).is_none());
/// cache.insert(1, key, Arc::new(CachedInference {
///     predictions: Predictions { tr: Matrix::zeros(1, 2), lg: Matrix::zeros(1, 1) },
///     embedding: Matrix::zeros(1, 4),
///     num_nodes: 1,
/// }));
/// assert!(cache.get(1, &key).is_some());
/// assert!(cache.get(2, &key).is_none()); // another model generation
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Default)]
pub struct EmbeddingCache {
    lru: Lru<(u64, CacheKey), Arc<CachedInference>>,
}

impl EmbeddingCache {
    /// A cache holding at most `capacity` results (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        EmbeddingCache {
            lru: Lru::new(capacity),
        }
    }

    /// Looks up a request under one model generation, refreshing its
    /// recency and counting hit/miss.
    pub fn get(&mut self, model: u64, key: &CacheKey) -> Option<Arc<CachedInference>> {
        self.lru.get(&(model, *key))
    }

    /// Inserts (or refreshes) the result `model` computed for a request,
    /// evicting the least recently used entry when full.
    pub fn insert(&mut self, model: u64, key: CacheKey, value: Arc<CachedInference>) {
        self.lru.insert((model, key), value);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.len() == 0
    }

    /// Drops one entry if present (the `cache_evict` fault hook uses this
    /// to force a recompute path). Does not count as an eviction.
    pub fn remove(&mut self, model: u64, key: &CacheKey) -> Option<Arc<CachedInference>> {
        self.lru.remove(&(model, *key))
    }

    /// Drops all entries, keeping the counters.
    pub fn clear(&mut self) {
        self.lru.clear();
    }
}

/// Content address of one weakly-connected component's propagated states.
///
/// Soundness: the final state rows of a component are a pure function of
/// (weights, config, component structure, its initial rows). The `model`
/// generation pins the weights+config, `structure` is an order-sensitive
/// fingerprint of the component's nodes in ascending-id order with local
/// fanin ordinals (capturing exactly the level structure, gather order and
/// accumulation order of propagation), and `h0` hashes the component's
/// actual initial-state row bytes (capturing the workload values, the
/// node-index-seeded random rows and the hidden dimension). Anything that
/// could change a bit of the result changes the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConeKey {
    /// Generation of the [`InferenceModel`](crate::InferenceModel) the rows
    /// were computed under (unique per loaded model).
    pub model: u64,
    /// Order-sensitive structural fingerprint of the component.
    pub structure: u64,
    /// Content hash of the component's initial-state rows.
    pub h0: u64,
}

/// The final propagated state rows of one component, in ascending-node-id
/// order of the populating circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct ConeStates {
    /// `k×d` state rows (`k` = component size).
    pub rows: Matrix,
}

/// Bounded LRU of per-component propagated states keyed by [`ConeKey`] —
/// the cone-granularity memo layer under the whole-circuit
/// [`EmbeddingCache`].
///
/// A request that misses the exact cache but shares components with cached
/// traffic reuses their rows and only propagates the changed components;
/// reassembled results are bitwise-identical to a full recompute (see the
/// [module docs](self) and the property tests). Entries computed under a
/// replaced model die out naturally: the [`ConeKey`] carries the model
/// generation, so stale rows can never hit and LRU pressure reclaims them.
#[derive(Debug, Default)]
pub struct ConeMemo {
    lru: Lru<ConeKey, Arc<ConeStates>>,
}

impl ConeMemo {
    /// A memo holding at most `capacity` component entries (0 disables the
    /// cone path entirely — the engine then always runs whole circuits).
    pub fn new(capacity: usize) -> Self {
        ConeMemo {
            lru: Lru::new(capacity),
        }
    }

    /// Looks a component up, refreshing its recency and counting hit/miss.
    pub fn get(&mut self, key: &ConeKey) -> Option<Arc<ConeStates>> {
        self.lru.get(key)
    }

    /// Inserts (or refreshes) a component's rows.
    pub fn insert(&mut self, key: ConeKey, value: Arc<ConeStates>) {
        self.lru.insert(key, value);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.lru.len() == 0
    }

    /// True if the memo can hold entries (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.lru.capacity > 0
    }

    /// Drops all entries, keeping the counters.
    pub fn clear(&mut self) {
        self.lru.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepseq_sim::PiStimulus;

    fn dummy(n: usize) -> Arc<CachedInference> {
        Arc::new(CachedInference {
            predictions: Predictions {
                tr: Matrix::zeros(n, 2),
                lg: Matrix::zeros(n, 1),
            },
            embedding: Matrix::zeros(1, 4),
            num_nodes: n,
        })
    }

    fn key(k: u64) -> CacheKey {
        CacheKey {
            structural: k,
            workload: 0,
            init_seed: 0,
        }
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = EmbeddingCache::new(2);
        cache.insert(1, key(1), dummy(1));
        cache.insert(1, key(2), dummy(2));
        assert!(cache.get(1, &key(1)).is_some()); // refresh 1 ⇒ 2 is LRU
        cache.insert(1, key(3), dummy(3));
        assert!(cache.get(1, &key(2)).is_none());
        assert!(cache.get(1, &key(1)).is_some());
        assert!(cache.get(1, &key(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = EmbeddingCache::new(0);
        cache.insert(1, key(1), dummy(1));
        assert!(cache.get(1, &key(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut cache = EmbeddingCache::new(4);
        assert!(cache.get(1, &key(1)).is_none());
        cache.insert(1, key(1), dummy(1));
        assert!(cache.get(1, &key(1)).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_order_survives_refreshing_inserts() {
        // Re-inserting an existing key must refresh its recency, not grow
        // the tick index: the stalest *other* entry is evicted next.
        let mut cache = EmbeddingCache::new(2);
        cache.insert(1, key(1), dummy(1));
        cache.insert(1, key(2), dummy(2));
        cache.insert(1, key(1), dummy(10)); // refresh 1 ⇒ 2 is LRU
        cache.insert(1, key(3), dummy(3));
        assert!(cache.get(1, &key(2)).is_none());
        assert_eq!(cache.get(1, &key(1)).unwrap().num_nodes, 10);
        assert!(cache.get(1, &key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn remove_and_clear_keep_the_tick_index_consistent() {
        let mut cache = EmbeddingCache::new(3);
        cache.insert(1, key(1), dummy(1));
        cache.insert(1, key(2), dummy(2));
        assert!(cache.remove(1, &key(1)).is_some());
        assert!(cache.remove(1, &key(1)).is_none());
        assert_eq!(cache.stats().evictions, 0); // remove is not an eviction
        cache.clear();
        assert!(cache.is_empty());
        // Reuse after clear: no stale tick entries can evict a live key.
        cache.insert(1, key(4), dummy(4));
        cache.insert(1, key(5), dummy(5));
        cache.insert(1, key(6), dummy(6));
        cache.insert(1, key(7), dummy(7));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(1, &key(4)).is_none()); // 4 was the LRU
        assert!(cache.get(1, &key(7)).is_some());
    }

    #[test]
    fn lru_eviction_is_log_time_under_pressure() {
        // Sanity: a large churn loop completes quickly and keeps exactly
        // `capacity` entries with the newest keys resident.
        let mut cache = EmbeddingCache::new(64);
        for i in 0..10_000u64 {
            cache.insert(1, key(i), dummy(1));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.evictions, 10_000 - 64);
        assert!(cache.get(1, &key(9_999)).is_some());
        assert!(cache.get(1, &key(0)).is_none());
    }

    #[test]
    fn key_binds_workload_to_pi_names() {
        let mut aig = SeqAig::new("k");
        aig.add_pi("a");
        aig.add_pi("b");
        let w1 = Workload::new(vec![
            PiStimulus::independent(0.1),
            PiStimulus::independent(0.9),
        ]);
        let w2 = Workload::new(vec![
            PiStimulus::independent(0.9),
            PiStimulus::independent(0.1),
        ]);
        // Same stimulus multiset, different PI assignment ⇒ different key.
        assert_ne!(
            CacheKey::for_request(&aig, &w1, 0),
            CacheKey::for_request(&aig, &w2, 0)
        );
        // Different init seed ⇒ different key.
        assert_ne!(
            CacheKey::for_request(&aig, &w1, 0),
            CacheKey::for_request(&aig, &w1, 1)
        );
        // Identical request ⇒ identical key.
        assert_eq!(
            CacheKey::for_request(&aig, &w1, 0),
            CacheKey::for_request(&aig, &w1, 0)
        );
    }

    #[test]
    fn key_distinguishes_swapped_stimuli_on_duplicate_pi_names() {
        // Parsed netlists can legally carry duplicate input names; swapping
        // the stimuli of two same-named PIs must change the key (the two
        // requests produce different h0 matrices).
        let mut aig = SeqAig::new("dup");
        aig.add_pi("x");
        aig.add_pi("x");
        let w1 = Workload::new(vec![
            PiStimulus::independent(0.1),
            PiStimulus::independent(0.9),
        ]);
        let w2 = Workload::new(vec![
            PiStimulus::independent(0.9),
            PiStimulus::independent(0.1),
        ]);
        assert_ne!(
            CacheKey::for_request(&aig, &w1, 0),
            CacheKey::for_request(&aig, &w2, 0)
        );
    }

    #[test]
    fn key_hashes_trailing_stimuli_beyond_the_pi_list() {
        // Regression: a workload longer than the PI list used to contribute
        // its trailing stimuli only via the total length, so two different
        // oversized workloads of equal length collided into one key — a
        // false cache hit. Trailing stimuli must be hashed by index.
        let mut aig = SeqAig::new("short");
        aig.add_pi("a");
        let covered = PiStimulus::independent(0.5);
        let w1 = Workload::new(vec![covered, PiStimulus::independent(0.1)]);
        let w2 = Workload::new(vec![covered, PiStimulus::independent(0.9)]);
        assert_ne!(
            CacheKey::for_request(&aig, &w1, 0),
            CacheKey::for_request(&aig, &w2, 0)
        );
        // Swapping two trailing stimuli changes the key too (index-bound).
        let w3 = Workload::new(vec![
            covered,
            PiStimulus::independent(0.1),
            PiStimulus::independent(0.9),
        ]);
        let w4 = Workload::new(vec![
            covered,
            PiStimulus::independent(0.9),
            PiStimulus::independent(0.1),
        ]);
        assert_ne!(
            CacheKey::for_request(&aig, &w3, 0),
            CacheKey::for_request(&aig, &w4, 0)
        );
    }

    #[test]
    fn cone_memo_counts_and_evicts() {
        let mut memo = ConeMemo::new(2);
        let ck = |s| ConeKey {
            model: 1,
            structure: s,
            h0: 0,
        };
        let rows = |k| {
            Arc::new(ConeStates {
                rows: Matrix::zeros(k, 4),
            })
        };
        assert!(memo.get(&ck(1)).is_none());
        memo.insert(ck(1), rows(1));
        memo.insert(ck(2), rows(2));
        assert!(memo.get(&ck(1)).is_some()); // refresh ⇒ 2 is LRU
        memo.insert(ck(3), rows(3));
        assert!(memo.get(&ck(2)).is_none());
        let s = memo.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(memo.is_enabled());
        assert!(!ConeMemo::new(0).is_enabled());
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn cone_key_separates_model_generations() {
        let mut memo = ConeMemo::new(8);
        let rows = Arc::new(ConeStates {
            rows: Matrix::zeros(1, 4),
        });
        let k1 = ConeKey {
            model: 1,
            structure: 7,
            h0: 9,
        };
        let k2 = ConeKey { model: 2, ..k1 };
        memo.insert(k1, rows);
        assert!(memo.get(&k1).is_some());
        assert!(memo.get(&k2).is_none());
    }
}
