//! Memoized per-topology artifacts shared read-only across workers.
//!
//! A sweep crossing one topology with dozens of seeds and fault plans
//! re-derives the same graph-level facts in every cell: the parsed
//! graph, the diameter of its self-loop closure (round budgets are
//! `n + D + c`), and the centralized minimum base (the reference object
//! of every F2/F3-style certification). [`TopologyCache`] computes each
//! exactly once per key and hands out shared `Arc`s; hit/miss counters
//! make the memoization observable (and testable: cached answers must
//! equal cold ones).

use kya_fibration::MinimumBase;
use kya_graph::{connectivity, Digraph};
use kya_runtime::faults::FaultPlan;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::spec::{parse_graph, SpecError};

std::thread_local! {
    /// The worker index cache accesses on this thread are attributed to
    /// (`None` outside any [`TopologyCache::enter_worker`] scope).
    static CURRENT_WORKER: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// RAII scope attributing this thread's cache accesses to one worker;
/// restores the previous attribution on drop. Created by
/// [`TopologyCache::enter_worker`].
#[derive(Debug)]
pub struct WorkerScope {
    prev: Option<usize>,
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        CURRENT_WORKER.with(|c| c.set(self.prev));
    }
}

/// Minimum bases are memoized per (label, input values) pair.
type BaseMemo = BTreeMap<(String, Vec<u64>), Arc<MinimumBase>>;

/// A memo table of per-topology artifacts, safe to share across the
/// runner's workers (`&TopologyCache` is `Sync`).
///
/// Keys are the *labels* (graph specs), so two cells naming the same
/// spec share one computation. All values are immutable once inserted.
#[derive(Default)]
pub struct TopologyCache {
    graphs: Mutex<BTreeMap<String, Arc<Digraph>>>,
    diameters: Mutex<BTreeMap<String, Option<usize>>>,
    bases: Mutex<BaseMemo>,
    hits: AtomicU64,
    misses: AtomicU64,
    per_worker: Mutex<BTreeMap<Option<usize>, (u64, u64)>>,
}

impl TopologyCache {
    /// An empty cache.
    pub fn new() -> TopologyCache {
        TopologyCache::default()
    }

    /// Attribute this thread's cache accesses to `worker` until the
    /// returned scope is dropped. The [`Runner`](crate::Runner) enters a
    /// scope per worker thread, so [`TopologyCache::worker_stats`] can
    /// break the global counters down by worker.
    pub fn enter_worker(worker: usize) -> WorkerScope {
        let prev = CURRENT_WORKER.with(|c| c.replace(Some(worker)));
        WorkerScope { prev }
    }

    /// Bump the global and per-worker counters for one access.
    fn record(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        let worker = CURRENT_WORKER.with(|c| c.get());
        let mut map = self.per_worker.lock().expect("stats lock");
        let entry = map.entry(worker).or_insert((0, 0));
        if hit {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }

    fn memo<K: Ord + Clone, V: Clone>(
        &self,
        table: &Mutex<BTreeMap<K, V>>,
        key: &K,
        compute: impl FnOnce() -> V,
    ) -> V {
        // Compute while holding the lock: artifacts are expensive and
        // must be computed once per key, and cells needing *different*
        // keys still proceed after a short wait. (The maps are distinct
        // locks, so a base computation never blocks a graph parse.)
        let mut map = table.lock().expect("cache lock");
        if let Some(v) = map.get(key) {
            self.record(true);
            return v.clone();
        }
        self.record(false);
        let v = compute();
        map.insert(key.clone(), v.clone());
        v
    }

    /// The parsed graph for `label`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the label is not in the grammar (the
    /// error is *not* cached; dynamic-network labels that experiments
    /// interpret themselves simply never hit this method).
    pub fn graph(&self, label: &str) -> Result<Arc<Digraph>, SpecError> {
        {
            let map = self.graphs.lock().expect("cache lock");
            if let Some(g) = map.get(label) {
                self.record(true);
                return Ok(g.clone());
            }
        }
        // Parse outside the lock: failures must not poison or block.
        let g = Arc::new(parse_graph(label)?);
        self.record(false);
        let mut map = self.graphs.lock().expect("cache lock");
        Ok(map.entry(label.to_string()).or_insert(g).clone())
    }

    /// The diameter of the self-loop closure of `label`'s graph
    /// (`None` if the closure is not strongly connected).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the label does not parse.
    pub fn diameter(&self, label: &str) -> Result<Option<usize>, SpecError> {
        let g = self.graph(label)?;
        Ok(self.memo(&self.diameters, &label.to_string(), || {
            connectivity::diameter(&g.with_self_loops())
        }))
    }

    /// The standard stabilization budget `n + D + slack` for `label`,
    /// with `D` falling back to `n` when the graph is not strongly
    /// connected.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the label does not parse.
    pub fn stabilization_budget(&self, label: &str, slack: u64) -> Result<u64, SpecError> {
        let g = self.graph(label)?;
        let d = self.diameter(label)?.unwrap_or(g.n());
        Ok(g.n() as u64 + d as u64 + slack)
    }

    /// The minimum base of `label`'s graph **with self-loops** under
    /// `values` — the reference object centralized certifications
    /// compare against.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the label does not parse.
    pub fn minimum_base(&self, label: &str, values: &[u64]) -> Result<Arc<MinimumBase>, SpecError> {
        let g = self.graph(label)?;
        let key = (label.to_string(), values.to_vec());
        Ok(self.memo(&self.bases, &key, || {
            Arc::new(MinimumBase::compute(&g.with_self_loops(), values))
        }))
    }

    /// Instantiate the cell's fault plan against the cached graph —
    /// pure convenience mirroring [`FaultPlan::new`] usage.
    pub fn fault_plan(&self, template: &crate::spec::PlanSpec, cell_seed: u64) -> FaultPlan {
        template.build(cell_seed)
    }

    /// (hits, misses) over all tables so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// (worker, hits, misses) per attribution bucket, in worker order.
    /// `None` collects accesses made outside any worker scope (e.g.
    /// direct cache use from tests). The buckets partition
    /// [`TopologyCache::stats`]: summing them reproduces the totals.
    pub fn worker_stats(&self) -> Vec<(Option<usize>, u64, u64)> {
        let map = self.per_worker.lock().expect("stats lock");
        map.iter().map(|(&w, &(h, m))| (w, h, m)).collect()
    }

    /// (hits, misses) attributed to one worker so far.
    pub fn stats_for_worker(&self, worker: usize) -> (u64, u64) {
        let map = self.per_worker.lock().expect("stats lock");
        map.get(&Some(worker)).copied().unwrap_or((0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::generators;

    #[test]
    fn graphs_are_cached_by_label() {
        let cache = TopologyCache::new();
        let a = cache.graph("ring:6").unwrap();
        let b = cache.graph("ring:6").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
        assert!(cache.graph("not-a-graph").is_err());
        // Errors are not cached and do not disturb the counters' sense.
        assert!(cache.graph("not-a-graph").is_err());
    }

    #[test]
    fn diameter_and_budget() {
        let cache = TopologyCache::new();
        assert_eq!(cache.diameter("ring:6").unwrap(), Some(5));
        assert_eq!(cache.stabilization_budget("ring:6", 8).unwrap(), 6 + 5 + 8);
        // Second call is a pure hit.
        let before = cache.stats().1;
        assert_eq!(cache.diameter("ring:6").unwrap(), Some(5));
        assert_eq!(cache.stats().1, before);
    }

    #[test]
    fn minimum_base_matches_direct_computation() {
        let cache = TopologyCache::new();
        let values = vec![1, 2, 1, 2, 1, 2];
        let cached = cache.minimum_base("biring:6", &values).unwrap();
        let g = generators::bidirectional_ring(6);
        let direct = MinimumBase::compute(&g.with_self_loops(), &values);
        assert_eq!(cached.base().n(), direct.base().n());
        assert_eq!(cached.base_values(), direct.base_values());
        // Distinct values vectors are distinct keys.
        let other = cache.minimum_base("biring:6", &[1, 1, 1, 1, 1, 1]).unwrap();
        assert_eq!(other.base().n(), 1);
    }

    #[test]
    fn worker_scopes_partition_the_counters() {
        let cache = TopologyCache::new();
        let _ = cache.graph("ring:4"); // unattributed miss
        {
            let _scope = TopologyCache::enter_worker(3);
            let _ = cache.graph("ring:4"); // hit for worker 3
            let _ = cache.graph("ring:5"); // miss for worker 3
            {
                // Scopes nest and restore on drop.
                let _inner = TopologyCache::enter_worker(7);
                let _ = cache.graph("ring:5"); // hit for worker 7
            }
            let _ = cache.diameter("ring:4"); // hit + miss for worker 3
        }
        let _ = cache.graph("ring:4"); // unattributed hit
        assert_eq!(
            cache.worker_stats(),
            vec![(None, 1, 1), (Some(3), 2, 2), (Some(7), 1, 0)]
        );
        assert_eq!(cache.stats_for_worker(3), (2, 2));
        assert_eq!(cache.stats_for_worker(9), (0, 0));
        let (hits, misses) = cache.stats();
        let (h_sum, m_sum) = cache
            .worker_stats()
            .iter()
            .fold((0, 0), |(h, m), &(_, wh, wm)| (h + wh, m + wm));
        assert_eq!((hits, misses), (h_sum, m_sum));
    }
}
