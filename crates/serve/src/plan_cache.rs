//! Compiled-plan cache: maps a serving workload key to a long-lived cached
//! value — the [`FeatgraphBackend`](fg_gnn::FeatgraphBackend)s whose internal
//! plan tables hold the compiled SpMM/SDDMM kernels for a (graph, model)
//! pair. The cache is generic over the value.
//!
//! A `FeatgraphBackend` instance caches one compiled plan per
//! `(op, feature-dim)` it executes, and those plans embed graph-specific
//! partitioning — so one backend instance is only valid for one graph. The
//! cache key is therefore `(graph id, model, options)`: the options string
//! folds in everything that changes kernel selection (target, thread count
//! — and through those, the Fds chosen by the autotuner). Sampled requests
//! run on a subgraph of their own and never come here.
//!
//! Concurrent misses on one key are **single-flighted**: the first caller
//! marks the key as building and compiles outside the lock; later callers
//! wait on the condvar and receive the finished entry as a hit. Without
//! this, a cold burst of N identical requests would compile N identical
//! plans — N× the work, and (worse for the byte bound) N−1 of them
//! uncounted, because cost lands per *key* and duplicate instances never
//! get charged.
//!
//! The cache is **byte-bounded**: each entry carries a cost, charged at
//! insert from the builder's estimate and refined by
//! [`PlanCache::note_cost`] after each batch (backends compile plans lazily
//! per feature dim, so their footprint grows after insert). When the summed
//! cost exceeds the configured capacity the least-recently-used entries are
//! evicted until it fits. `capacity == 0` means unbounded. Eviction drops
//! the cache's `Arc`; an in-flight batch still executing against an evicted
//! value keeps it alive until the batch finishes. Total cost is mirrored
//! into the memory accountant's `PlanCache` component.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use fg_telemetry::{counter_add, mem_charge, mem_credit, Counter, MemComponent};

/// Identity of a compiled-plan cache entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Stable ID of the graph the plans were partitioned for.
    pub graph_id: u64,
    /// Model name (distinct models use distinct feature dims, hence
    /// distinct plans).
    pub model: String,
    /// Kernel-selection options: target and thread count, e.g. `cpu,t=4`.
    /// Everything the autotuner's Fds choice depends on is a function of
    /// these plus the per-layer feature dim the backend keys on internally.
    pub options: String,
}

impl PlanKey {
    /// Key for a full-graph CPU serving workload.
    pub fn cpu(graph_id: u64, model: &str, threads: usize) -> Self {
        PlanKey {
            graph_id,
            model: model.to_string(),
            options: format!("cpu,t={threads}"),
        }
    }

    /// Key for a sharded CPU workload: one entry holds the whole shard
    /// fleet's backends (one per shard, each caching plans for its local
    /// graph), so shard count and placement strategy are part of the
    /// identity — re-sharding must never reuse another topology's plans.
    pub fn cpu_sharded(
        graph_id: u64,
        model: &str,
        threads: usize,
        shards: usize,
        strategy: fg_graph::ShardStrategy,
    ) -> Self {
        PlanKey {
            graph_id,
            model: model.to_string(),
            options: format!("cpu,t={threads},shard,n={shards},s={strategy}"),
        }
    }

    /// Append the feature storage dtype to the options namespace. `F32`
    /// leaves the key untouched, so engines serving f32 keep the exact keys
    /// they had before the dtype knob existed — cache state and hit/miss
    /// accounting stay bitwise comparable.
    pub fn with_dtype(mut self, dtype: fg_tensor::FeatureDtype) -> Self {
        if dtype != fg_tensor::FeatureDtype::F32 {
            self.options.push_str(",dtype=");
            self.options.push_str(dtype.name());
        }
        self
    }
}

struct Entry<V> {
    value: Arc<V>,
    /// Last reported cost in bytes (refined by `note_cost` as lazy plans
    /// compile).
    cost: u64,
    /// Recency stamp (larger = more recently used).
    stamp: u64,
}

struct Inner<V> {
    entries: HashMap<PlanKey, Entry<V>>,
    /// Keys with a compile in flight; concurrent misses wait on the condvar
    /// instead of building duplicates.
    building: HashSet<PlanKey>,
    /// Sum of entry costs (mirrored into the `PlanCache` mem component).
    total_bytes: u64,
    /// Monotone use counter backing the LRU stamps.
    tick: u64,
}

impl<V> Default for Inner<V> {
    fn default() -> Self {
        Inner {
            entries: HashMap::new(),
            building: HashSet::new(),
            total_bytes: 0,
            tick: 0,
        }
    }
}

/// See the [module docs](self).
pub struct PlanCache<V> {
    inner: Mutex<Inner<V>>,
    ready: Condvar,
    /// Byte bound; 0 = unbounded.
    capacity: u64,
    evictions: AtomicU64,
}

impl<V> Default for PlanCache<V> {
    fn default() -> Self {
        Self::bounded(0)
    }
}

/// Removes the in-flight marker if the build panics, so waiters wake up
/// and retry instead of deadlocking on a key nobody is building.
struct BuildGuard<'a, V> {
    cache: &'a PlanCache<V>,
    key: &'a PlanKey,
    armed: bool,
}

impl<V> Drop for BuildGuard<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.inner.lock().unwrap();
            inner.building.remove(self.key);
            drop(inner);
            self.cache.ready.notify_all();
        }
    }
}

impl<V> PlanCache<V> {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache evicting least-recently-used entries once the summed
    /// plan cost exceeds `capacity_bytes` (`0` = unbounded).
    pub fn bounded(capacity_bytes: u64) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            capacity: capacity_bytes,
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetch the value for `key`, building (and retaining) it on first use.
    /// `build` returns the value plus its initial byte cost, charged at
    /// insert (refine later via [`note_cost`](Self::note_cost) for values
    /// whose footprint grows lazily). Returns `(value, hit)` where `hit` is
    /// false exactly when `build` ran *in this call* — concurrent callers
    /// that waited for another thread's build count as hits. Telemetry:
    /// bumps `serve_plan_hits` / `serve_plan_misses` accordingly.
    pub fn get_or_insert(
        &self,
        key: &PlanKey,
        build: impl FnOnce() -> (V, u64),
    ) -> (Arc<V>, bool) {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.entries.contains_key(key) {
                inner.tick += 1;
                let stamp = inner.tick;
                let entry = inner.entries.get_mut(key).expect("entry present");
                entry.stamp = stamp;
                counter_add(Counter::ServePlanHits, 1);
                return (Arc::clone(&entry.value), true);
            }
            if inner.building.contains(key) {
                // Someone else is compiling this key; wait for the insert
                // (or for the builder to fail) rather than duplicating the
                // compile.
                inner = self.ready.wait(inner).unwrap();
                continue;
            }
            break;
        }
        inner.building.insert(key.clone());
        drop(inner);
        counter_add(Counter::ServePlanMisses, 1);
        let guard = BuildGuard {
            cache: self,
            key,
            armed: true,
        };
        // Compile OUTSIDE the lock: plan compilation can take milliseconds
        // and must not serialize unrelated keys (or block hit lookups).
        let (value, cost) = build();
        let value = Arc::new(value);
        let mut inner = self.inner.lock().unwrap();
        inner.building.remove(key);
        inner.tick += 1;
        let stamp = inner.tick;
        inner.entries.insert(
            key.clone(),
            Entry {
                value: Arc::clone(&value),
                cost,
                stamp,
            },
        );
        mem_charge(MemComponent::PlanCache, cost);
        inner.total_bytes += cost;
        self.enforce(&mut inner);
        drop(inner);
        // Drop the guard's cleanup duty before notifying: the marker is
        // already gone and the entry is in place.
        let mut guard = guard;
        guard.armed = false;
        self.ready.notify_all();
        (value, false)
    }

    /// Report the current byte cost of `key`'s value (backends compile
    /// plans lazily as new feature dims execute), then evict LRU entries
    /// while the cache is over capacity. No-op for a key already evicted.
    pub fn note_cost(&self, key: &PlanKey, bytes: u64) {
        let mut inner = self.inner.lock().unwrap();
        let Some(entry) = inner.entries.get_mut(key) else {
            return;
        };
        let old = entry.cost;
        entry.cost = bytes;
        if bytes >= old {
            mem_charge(MemComponent::PlanCache, bytes - old);
        } else {
            mem_credit(MemComponent::PlanCache, old - bytes);
        }
        inner.total_bytes = inner.total_bytes + bytes - old;
        self.enforce(&mut inner);
    }

    /// Evict least-recently-used entries until `total_bytes <= capacity`.
    /// A single entry larger than the capacity is itself evicted, leaving
    /// the cache empty (the next batch recompiles).
    fn enforce(&self, inner: &mut Inner<V>) {
        if self.capacity == 0 {
            return;
        }
        while inner.total_bytes > self.capacity {
            let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let entry = inner.entries.remove(&victim).expect("victim present");
            inner.total_bytes -= entry.cost;
            mem_credit(MemComponent::PlanCache, entry.cost);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            counter_add(Counter::ServePlanEvictions, 1);
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed plan cost of the cached entries in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().unwrap().total_bytes
    }

    /// Configured byte bound (`0` = unbounded).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Entries evicted to stay under the byte bound since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl<V> Drop for PlanCache<V> {
    fn drop(&mut self) {
        // Balance the accountant for whatever is still cached.
        let inner = self.inner.get_mut().unwrap();
        mem_credit(MemComponent::PlanCache, inner.total_bytes);
        inner.total_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_gnn::FeatgraphBackend;
    use std::sync::atomic::AtomicUsize;

    fn backend() -> (FeatgraphBackend, u64) {
        (FeatgraphBackend::cpu(1), 0)
    }

    #[test]
    fn second_lookup_hits_and_reuses_instance() {
        let cache = PlanCache::new();
        let key = PlanKey::cpu(7, "gcn", 2);
        let (b1, hit1) = cache.get_or_insert(&key, backend);
        assert!(!hit1);
        let (b2, hit2) = cache.get_or_insert(&key, || panic!("must not rebuild"));
        assert!(hit2);
        assert!(Arc::ptr_eq(&b1, &b2), "hit returns the same backend instance");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_get_distinct_backends() {
        let cache = PlanCache::new();
        let (_, h1) = cache.get_or_insert(&PlanKey::cpu(1, "gcn", 1), backend);
        let (_, h2) = cache.get_or_insert(&PlanKey::cpu(1, "gat", 1), backend);
        let (_, h3) = cache.get_or_insert(&PlanKey::cpu(2, "gcn", 1), backend);
        assert!(!h1 && !h2 && !h3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = PlanCache::new();
        for i in 0..8 {
            let key = PlanKey::cpu(i, "gcn", 1);
            let _ = cache.get_or_insert(&key, backend);
            cache.note_cost(&key, 1 << 30);
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.total_bytes(), 8 << 30);
    }

    #[test]
    fn churn_stays_under_byte_bound_and_evicts_lru() {
        let cache = PlanCache::bounded(2500);
        for i in 0..10 {
            let key = PlanKey::cpu(i, "gcn", 1);
            let _ = cache.get_or_insert(&key, backend);
            cache.note_cost(&key, 1000);
            assert!(
                cache.total_bytes() <= 2500,
                "over bound after key {i}: {}",
                cache.total_bytes()
            );
        }
        assert!(cache.evictions() >= 8, "evictions {}", cache.evictions());
        assert_eq!(cache.len(), 2, "2×1000 fits under 2500, 3×1000 does not");
        // The survivors are the most recently used keys.
        let (_, hit) = cache.get_or_insert(&PlanKey::cpu(9, "gcn", 1), || {
            panic!("most recent key must survive")
        });
        assert!(hit);
        let (_, hit) = cache.get_or_insert(&PlanKey::cpu(0, "gcn", 1), backend);
        assert!(!hit, "oldest key was evicted");
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        let cache = PlanCache::bounded(2000);
        let hot = PlanKey::cpu(0, "hot", 1);
        let _ = cache.get_or_insert(&hot, backend);
        cache.note_cost(&hot, 900);
        for i in 1..6 {
            // Re-touch the hot key before each insertion so it is never LRU.
            let (_, hit) = cache.get_or_insert(&hot, || panic!("hot key evicted"));
            assert!(hit);
            let key = PlanKey::cpu(i, "cold", 1);
            let _ = cache.get_or_insert(&key, backend);
            cache.note_cost(&key, 900);
        }
        let (_, hit) = cache.get_or_insert(&hot, || panic!("hot key evicted"));
        assert!(hit);
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn oversized_single_entry_evicts_to_empty() {
        let cache = PlanCache::bounded(100);
        let key = PlanKey::cpu(1, "big", 1);
        let (backend_arc, _) = cache.get_or_insert(&key, backend);
        cache.note_cost(&key, 1_000_000);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.total_bytes(), 0);
        assert_eq!(cache.evictions(), 1);
        // The in-flight handle is unaffected; a late note_cost is a no-op.
        cache.note_cost(&key, 2_000_000);
        assert_eq!(cache.total_bytes(), 0);
        drop(backend_arc);
    }

    #[test]
    fn cost_is_charged_at_insert() {
        // Regression: cost used to land only at the first post-execution
        // note_cost, so a cold burst of inserts was invisible to the bound.
        let cache: PlanCache<u32> = PlanCache::bounded(4096);
        for i in 0..4 {
            let _ = cache.get_or_insert(&PlanKey::cpu(i, "m", 1), || (i as u32, 2048));
            assert!(
                cache.total_bytes() <= 4096,
                "insert {i} left the cache over bound: {}",
                cache.total_bytes()
            );
        }
        assert_eq!(cache.len(), 2, "2×2048 fits under 4096");
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn concurrent_misses_share_one_build() {
        // Single-flight: 8 threads race one cold key; exactly one build
        // runs, the rest wait and come back as hits on the same instance.
        let cache: Arc<PlanCache<u64>> = Arc::new(PlanCache::bounded(4096));
        let builds = Arc::new(AtomicUsize::new(0));
        let key = PlanKey::cpu(1, "burst", 1);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let key = key.clone();
                std::thread::spawn(move || {
                    cache.get_or_insert(&key, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Hold the "compile" long enough that the other
                        // threads pile up behind the in-flight marker.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        (42u64, 512)
                    })
                })
            })
            .collect();
        let results: Vec<(Arc<u64>, bool)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one compile");
        assert_eq!(results.iter().filter(|&&(_, hit)| !hit).count(), 1);
        let first = &results[0].0;
        for (v, _) in &results {
            assert!(Arc::ptr_eq(first, v), "all callers share the instance");
        }
        assert_eq!(cache.total_bytes(), 512, "cost charged once");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_cold_burst_respects_byte_bound() {
        // The 4 KiB eviction/accounting scenario: many threads, few keys,
        // every entry costed at insert — the bound holds throughout.
        let cache: Arc<PlanCache<u32>> = Arc::new(PlanCache::bounded(4096));
        let handles: Vec<_> = (0..16)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..8u64 {
                        let key = PlanKey::cpu(i % 4, "churn", 1);
                        let _ = cache.get_or_insert(&key, || {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            ((t + i) as u32, 1500)
                        });
                        assert!(
                            cache.total_bytes() <= 4096,
                            "over bound: {}",
                            cache.total_bytes()
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.total_bytes() <= 4096);
        assert!(cache.len() <= 2, "2×1500 fits under 4096, 3×1500 does not");
    }

    #[test]
    fn panicked_build_releases_the_key_for_retry() {
        let cache: Arc<PlanCache<u32>> = Arc::new(PlanCache::new());
        let key = PlanKey::cpu(1, "flaky", 1);
        let c2 = Arc::clone(&cache);
        let k2 = key.clone();
        let result = std::thread::spawn(move || {
            c2.get_or_insert(&k2, || panic!("compile failed"));
        })
        .join();
        assert!(result.is_err(), "builder panicked");
        // The in-flight marker must be gone: a retry builds successfully
        // instead of deadlocking behind a dead builder.
        let (v, hit) = cache.get_or_insert(&key, || (7, 16));
        assert!(!hit);
        assert_eq!(*v, 7);
    }

    #[test]
    fn sharded_keys_fold_count_and_strategy() {
        use fg_graph::ShardStrategy;
        let a = PlanKey::cpu_sharded(1, "gcn", 2, 4, ShardStrategy::Range);
        assert_eq!(a.options, "cpu,t=2,shard,n=4,s=range");
        // Shard count and strategy are identity: changing either must
        // miss (the backends are partitioned per shard-local graph).
        assert_ne!(a, PlanKey::cpu_sharded(1, "gcn", 2, 2, ShardStrategy::Range));
        assert_ne!(a, PlanKey::cpu_sharded(1, "gcn", 2, 4, ShardStrategy::Degree));
        // And sharded keys never collide with full-graph keys.
        assert_ne!(a, PlanKey::cpu(1, "gcn", 2));
    }
}
