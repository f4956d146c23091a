//! The engine's one cache: the [`ConeMemo`], a content-addressed LRU of
//! per-component forward-pass results.
//!
//! DeepSeq's propagation never moves information between weakly connected
//! components, and both regressor heads are per-row MLPs. So a
//! component's final state rows *and* its head rows are a pure function of
//! its [`ConeKey`]: the model generation, the component's order-sensitive
//! structure and its own initial-state rows — exactly what the forward
//! pass reads. The memo stores both per component. A request whose
//! components all hit is answered from the memo alone (no propagation, no
//! GEMM); a request that shares some components with earlier traffic
//! propagates and reads out only the others. Either way the answer is
//! bitwise what an uncached engine returns, whatever was served before:
//! a renumbered circuit is looked up under its own keys, so it never
//! borrows rows computed for another numbering. The engine's cone path
//! (`crate::cone`) does the partitioning, extraction and reassembly.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use deepseq_core::Predictions;
use deepseq_netlist::hash::{combine, hash_bytes, mix};
use deepseq_netlist::{structural_hash, SeqAig};
use deepseq_nn::Matrix;
use deepseq_sim::Workload;

/// A renumbering-invariant content address of one inference request.
///
/// The serving path does not use it: the [`ConeMemo`] is keyed by what the
/// forward pass reads, which depends on node numbering. It remains a
/// public, tested content hash because the end-to-end benchmark still
/// times it (`cache.key_us`).
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
        // PIs by id order so swapping their stimuli changes the key.
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
        // of equal length cannot collide into one key.
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

/// The forward-pass result of one request, shared by `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedInference {
    /// Per-node predictions.
    pub predictions: Predictions,
    /// `1×d` mean-pooled circuit embedding.
    pub embedding: Matrix,
    /// Node count of the circuit that produced them.
    pub num_nodes: usize,
}

/// Hit/miss/eviction counters of the [`ConeMemo`], counted per component
/// ([`ConeMemo::stats`]) or per request ([`ConeMemo::request_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry (requests: every component did).
    pub hits: u64,
    /// Lookups that missed (requests: some component did, or none was
    /// looked up).
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

/// Content address of one weakly-connected component's forward-pass rows.
///
/// Soundness: the final state rows of a component, and so its head rows,
/// are a pure function of (weights, config, component structure, its
/// initial rows). The `model` generation pins the weights+config,
/// `structure` is an order-sensitive fingerprint of the component's nodes
/// in ascending-id order with local fanin ordinals (capturing exactly the
/// level structure, gather order and accumulation order of propagation),
/// and `h0` hashes the component's actual initial-state row bytes
/// (capturing the workload values, the node-index-seeded random rows and
/// the hidden dimension). Anything that could change a bit of the result
/// changes the key.
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

/// The forward-pass rows of one component, in ascending-node-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct ConeEntry {
    /// `k×d` final state rows (`k` = component size).
    pub states: Matrix,
    /// `k×2` `tr` and `k×1` `lg` head rows.
    pub predictions: Predictions,
}

/// Bounded LRU of per-component forward-pass rows keyed by [`ConeKey`] —
/// the engine's only cache (see the [module docs](self)).
///
/// A `HashMap` gives O(1) lookup and a `BTreeMap` keyed by last-used tick
/// gives O(log n) eviction of the least recently used entry: ticks are
/// unique (every touch bumps the counter), so the tree is a faithful
/// recency order and eviction never scans. Entries computed under a
/// replaced model can never hit (the key carries the model generation).
/// Wrap it in a `Mutex` to share (the [`Engine`](crate::Engine) does).
///
/// # Example
/// ```
/// use std::sync::Arc;
/// use deepseq_core::Predictions;
/// use deepseq_nn::Matrix;
/// use deepseq_serve::{ConeEntry, ConeKey, ConeMemo};
///
/// let mut memo = ConeMemo::new(2);
/// let key = ConeKey { model: 1, structure: 2, h0: 3 };
/// assert_eq!(memo.lookup(&[key]), vec![None]);
/// memo.insert(key, Arc::new(ConeEntry {
///     states: Matrix::zeros(1, 4),
///     predictions: Predictions { tr: Matrix::zeros(1, 2), lg: Matrix::zeros(1, 1) },
/// }));
/// assert!(memo.lookup(&[key])[0].is_some());
/// assert!(memo.lookup(&[ConeKey { model: 2, ..key }])[0].is_none()); // another model
/// assert_eq!((memo.stats().hits, memo.request_stats().hits), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct ConeMemo {
    entries: HashMap<ConeKey, (Arc<ConeEntry>, u64)>,
    by_tick: BTreeMap<u64, ConeKey>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    request_hits: u64,
    request_misses: u64,
    evictions: u64,
}

impl ConeMemo {
    /// A memo holding at most `capacity` component entries (0 disables
    /// reuse — the engine then always runs whole circuits).
    pub fn new(capacity: usize) -> Self {
        ConeMemo {
            entries: HashMap::with_capacity(capacity.min(1024)),
            capacity,
            ..ConeMemo::default()
        }
    }

    /// Looks up one request's component keys, refreshing the recency of
    /// every hit. Counts a hit or miss per component, and one request hit
    /// if there is at least one key and every key hit (else a request
    /// miss).
    pub fn lookup(&mut self, keys: &[ConeKey]) -> Vec<Option<Arc<ConeEntry>>> {
        let found: Vec<Option<Arc<ConeEntry>>> = keys.iter().map(|k| self.get(k)).collect();
        if !found.is_empty() && found.iter().all(Option::is_some) {
            self.request_hits += 1;
        } else {
            self.request_misses += 1;
        }
        found
    }

    fn get(&mut self, key: &ConeKey) -> Option<Arc<ConeEntry>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((entry, last_used)) => {
                self.by_tick.remove(last_used);
                *last_used = self.tick;
                self.by_tick.insert(self.tick, *key);
                self.hits += 1;
                Some(Arc::clone(entry))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a component's rows, evicting the least
    /// recently used entry when full.
    pub fn insert(&mut self, key: ConeKey, entry: Arc<ConeEntry>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some((_, last_used)) = self.entries.get(&key) {
            self.by_tick.remove(last_used);
        } else if self.entries.len() >= self.capacity {
            if let Some((_, oldest)) = self.by_tick.pop_first() {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.entries.insert(key, (entry, self.tick));
        self.by_tick.insert(self.tick, key);
    }

    /// Drops one entry if present (the `cache_evict` fault uses this to
    /// force the compute path). Does not count as an eviction.
    pub fn remove(&mut self, key: &ConeKey) -> Option<Arc<ConeEntry>> {
        let (entry, last_used) = self.entries.remove(key)?;
        self.by_tick.remove(&last_used);
        Some(entry)
    }

    /// Drops all entries, keeping the counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_tick.clear();
    }

    /// Per-component counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            ..self.request_stats()
        }
    }

    /// Per-request counters: a hit is a request answered wholly from the
    /// memo.
    pub fn request_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.request_hits,
            misses: self.request_misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the memo can hold entries (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepseq_sim::PiStimulus;

    fn key(structure: u64) -> ConeKey {
        ConeKey {
            model: 1,
            structure,
            h0: 0,
        }
    }

    fn entry(k: usize) -> Arc<ConeEntry> {
        Arc::new(ConeEntry {
            states: Matrix::zeros(k, 4),
            predictions: Predictions {
                tr: Matrix::zeros(k, 2),
                lg: Matrix::zeros(k, 1),
            },
        })
    }

    fn hit(memo: &mut ConeMemo, structure: u64) -> bool {
        memo.lookup(&[key(structure)])[0].is_some()
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut memo = ConeMemo::new(2);
        memo.insert(key(1), entry(1));
        memo.insert(key(2), entry(2));
        assert!(hit(&mut memo, 1)); // refresh 1 ⇒ 2 is LRU
        memo.insert(key(3), entry(3));
        assert!(!hit(&mut memo, 2));
        assert!(hit(&mut memo, 1));
        assert!(hit(&mut memo, 3));
        let stats = memo.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn zero_capacity_disables_the_memo() {
        let mut memo = ConeMemo::new(0);
        memo.insert(key(1), entry(1));
        assert!(!hit(&mut memo, 1));
        assert!(memo.is_empty());
        assert!(!memo.is_enabled());
        assert!(ConeMemo::new(1).is_enabled());
    }

    #[test]
    fn counts_components_and_whole_requests() {
        let mut memo = ConeMemo::new(4);
        memo.insert(key(1), entry(1));
        memo.insert(key(2), entry(1));
        assert_eq!(memo.lookup(&[key(1), key(2)]).len(), 2); // whole hit
        let partial = memo.lookup(&[key(1), key(3)]);
        assert!(partial[0].is_some() && partial[1].is_none());
        assert!(memo.lookup(&[]).is_empty()); // nothing to answer from
        let cones = memo.stats();
        assert_eq!((cones.hits, cones.misses), (3, 1));
        assert!((cones.hit_ratio() - 0.75).abs() < 1e-12);
        let requests = memo.request_stats();
        assert_eq!((requests.hits, requests.misses), (1, 2));
        assert_eq!((requests.entries, requests.capacity), (2, 4));
    }

    #[test]
    fn eviction_order_survives_refreshing_inserts() {
        // Re-inserting an existing key must refresh its recency, not grow
        // the tick index: the stalest *other* entry is evicted next.
        let mut memo = ConeMemo::new(2);
        memo.insert(key(1), entry(1));
        memo.insert(key(2), entry(2));
        memo.insert(key(1), entry(10)); // refresh 1 ⇒ 2 is LRU
        memo.insert(key(3), entry(3));
        assert!(!hit(&mut memo, 2));
        let refreshed = memo.lookup(&[key(1)]).pop().flatten().expect("resident");
        assert_eq!(refreshed.states.rows(), 10);
        assert!(hit(&mut memo, 3));
        assert_eq!(memo.stats().evictions, 1);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn remove_and_clear_keep_the_tick_index_consistent() {
        let mut memo = ConeMemo::new(3);
        memo.insert(key(1), entry(1));
        memo.insert(key(2), entry(2));
        assert!(memo.remove(&key(1)).is_some());
        assert!(memo.remove(&key(1)).is_none());
        assert_eq!(memo.stats().evictions, 0); // remove is not an eviction
        memo.clear();
        assert!(memo.is_empty());
        // Reuse after clear: no stale tick entries can evict a live key.
        for k in 4..8 {
            memo.insert(key(k), entry(1));
        }
        assert_eq!(memo.len(), 3);
        assert!(!hit(&mut memo, 4)); // 4 was the LRU
        assert!(hit(&mut memo, 7));
    }

    #[test]
    fn lru_eviction_is_log_time_under_pressure() {
        // Sanity: a large churn loop completes quickly and keeps exactly
        // `capacity` entries with the newest keys resident.
        let mut memo = ConeMemo::new(64);
        for i in 0..10_000u64 {
            memo.insert(key(i), entry(1));
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.evictions, 10_000 - 64);
        assert!(hit(&mut memo, 9_999));
        assert!(!hit(&mut memo, 0));
    }

    #[test]
    fn cone_key_separates_models() {
        let mut memo = ConeMemo::new(8);
        let k1 = ConeKey {
            model: 1,
            structure: 7,
            h0: 9,
        };
        memo.insert(k1, entry(1));
        assert!(memo.lookup(&[k1])[0].is_some());
        assert!(memo.lookup(&[ConeKey { model: 2, ..k1 }])[0].is_none());
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
        // oversized workloads of equal length collided into one key.
        // Trailing stimuli must be hashed by index.
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
}
