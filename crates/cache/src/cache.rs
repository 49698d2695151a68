//! The device feature cache.
//!
//! All transmission strategies reduce to the same abstraction (paper
//! §3.2): given a mini-batch, split it into cache *hits* (already on
//! device) and *misses* (must cross the link), then optionally update
//! the cache. The policies differ only in what a hit touches and what
//! an admission evicts, so one [`FeatureCache`] owns the split, the
//! resident set and the statistics, and a private `Order` holds the
//! per-policy rest.

use crate::policy::CachePolicy;
use gnnav_graph::{stats::nodes_by_degree_desc, Graph, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Result of a cache lookup over a batch's nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupOutcome {
    /// Nodes whose feature rows are resident on the device.
    pub hits: Vec<NodeId>,
    /// Nodes that must be transferred from the host.
    pub misses: Vec<NodeId>,
}

impl LookupOutcome {
    /// Hit fraction of this lookup (0 when the batch was empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.len() + self.misses.len();
        if total == 0 {
            0.0
        } else {
            self.hits.len() as f64 / total as f64
        }
    }
}

/// Cumulative hit/miss statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total node lookups.
    pub lookups: usize,
    /// Total hits.
    pub hits: usize,
}

impl CacheStats {
    /// Cumulative hit rate (`hit` in the paper's Eq. 5–6).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Serializable snapshot of a cache's observable state, for
/// checkpoint/resume. `resident` is in the policy's canonical order
/// (static descending degree, FIFO queue front→back, LRU MRU→LRU, LFU
/// ascending id); the `freq`/`heap`/`seq` fields are LFU-only and empty
/// elsewhere.
///
/// Restoring a snapshot onto a freshly built cache of the same
/// policy, capacity, and graph reproduces the original's observable
/// behavior exactly: every subsequent lookup/update/eviction decision
/// matches what the snapshotted instance would have done.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Capacity the snapshot was taken at (restore sanity check).
    pub capacity: usize,
    /// Resident node ids in canonical per-policy order.
    pub resident: Vec<NodeId>,
    /// LFU per-node access-frequency table.
    pub freq: Vec<u32>,
    /// LFU lazy-heap entries `(freq, seq, node)`. All entries are
    /// distinct (`seq` is unique), so pop order — and therefore
    /// eviction behavior — is a pure function of this multiset,
    /// independent of internal heap layout.
    pub heap: Vec<(u32, u64, NodeId)>,
    /// LFU reindex sequence counter.
    pub seq: u64,
    /// Cumulative stats at snapshot time.
    pub stats: CacheStats,
}

/// A device feature cache under one [`CachePolicy`].
///
/// Stores node *ids* (each standing for one resident feature row); the
/// backend charges bytes via the row size. Built by [`build_cache`].
#[derive(Debug)]
pub struct FeatureCache {
    policy: CachePolicy,
    capacity: usize,
    resident: Vec<bool>,
    len: usize,
    order: Order,
    stats: CacheStats,
}

/// Builds a cache of `capacity` entries with the given policy.
///
/// [`CachePolicy::StaticDegree`] pre-fills with the highest-degree
/// nodes of `graph`; other policies start empty.
/// [`CachePolicy::None`] has capacity 0 whatever `capacity` says.
pub fn build_cache(policy: CachePolicy, capacity: usize, graph: &Graph) -> FeatureCache {
    let num_nodes = graph.num_nodes();
    let capacity = if policy == CachePolicy::None { 0 } else { capacity };
    let order = match policy {
        CachePolicy::None => Order::Fixed(Vec::new()),
        CachePolicy::StaticDegree => {
            Order::Fixed(nodes_by_degree_desc(graph).into_iter().take(capacity).collect())
        }
        CachePolicy::Fifo => Order::Fifo(VecDeque::with_capacity(capacity)),
        CachePolicy::Lru => Order::Lru(Recency::new(num_nodes)),
        CachePolicy::Lfu => {
            Order::Lfu { freq: vec![0; num_nodes], heap: BinaryHeap::new(), seq: 0 }
        }
    };
    let mut resident = vec![false; num_nodes];
    let mut len = 0;
    if let Order::Fixed(entries) = &order {
        entries.iter().for_each(|&v| resident[v as usize] = true);
        len = entries.len();
    }
    FeatureCache { policy, capacity, resident, len, order, stats: CacheStats::default() }
}

/// Number of cache entries affordable within `budget_bytes` when each
/// row costs `row_bytes`.
pub fn entries_for_budget(budget_bytes: usize, row_bytes: usize) -> usize {
    budget_bytes.checked_div(row_bytes).unwrap_or(0)
}

impl FeatureCache {
    /// Splits `nodes` into hits and misses, updating recency/frequency
    /// metadata and cumulative stats.
    pub fn lookup(&mut self, nodes: &[NodeId]) -> LookupOutcome {
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for &v in nodes {
            let hit = self.resident[v as usize];
            self.order.looked_up(v, hit);
            if hit {
                hits.push(v);
            } else {
                misses.push(v);
            }
        }
        self.stats.lookups += nodes.len();
        self.stats.hits += hits.len();
        LookupOutcome { hits, misses }
    }

    /// Admits `missed` nodes per the policy. Returns the number of
    /// rows written to the device (insertions, including those that
    /// evicted an older entry) — the paper's replaced-volume input to
    /// `t_replace`. A fixed (none / static) cache never writes.
    pub fn update(&mut self, missed: &[NodeId]) -> usize {
        if self.capacity == 0 || !self.policy.is_dynamic() {
            return 0;
        }
        let mut inserted = 0usize;
        for &v in missed {
            if self.resident[v as usize] {
                self.order.readmitted(v);
                continue;
            }
            if self.len == self.capacity {
                if let Some(old) = self.order.evict(&self.resident) {
                    self.resident[old as usize] = false;
                    self.len -= 1;
                }
            }
            self.order.admit(v);
            self.resident[v as usize] = true;
            self.len += 1;
            inserted += 1;
        }
        inserted
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// This cache's policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Whether `v` is resident.
    pub fn contains(&self, v: NodeId) -> bool {
        self.resident[v as usize]
    }

    /// Resident node ids, in the snapshot's canonical order.
    pub fn resident(&self) -> Vec<NodeId> {
        match &self.order {
            Order::Fixed(entries) => entries.clone(),
            Order::Fifo(queue) => queue.iter().copied().collect(),
            Order::Lru(list) => list.mru_first(self.len),
            Order::Lfu { .. } => {
                (0..self.resident.len() as u32).filter(|&v| self.resident[v as usize]).collect()
            }
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Captures the cache's observable state for checkpointing.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut snap = CacheSnapshot {
            capacity: self.capacity,
            resident: self.resident(),
            stats: self.stats,
            ..CacheSnapshot::default()
        };
        // The lazy heap's entries are all distinct (unique `seq`), so
        // its pop sequence is determined by the entry multiset alone;
        // capturing the entries in internal order and re-heapifying on
        // restore reproduces eviction behavior exactly.
        if let Order::Lfu { freq, heap, seq } = &self.order {
            snap.freq = freq.clone();
            snap.heap = heap.iter().map(|Reverse(t)| *t).collect();
            snap.seq = *seq;
        }
        snap
    }

    /// Restores state captured by [`FeatureCache::snapshot`] from a
    /// cache of the same policy, capacity, and graph.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch (wrong capacity, node id
    /// out of range, a fixed cache's entries differing from the ones
    /// this graph gives, an LFU frequency table of another length)
    /// without modifying the cache.
    pub fn restore(&mut self, snap: &CacheSnapshot) -> Result<(), String> {
        let num_nodes = self.resident.len();
        if snap.capacity != self.capacity {
            return Err(format!(
                "snapshot capacity {} does not match cache capacity {}",
                snap.capacity, self.capacity
            ));
        }
        if let Some(&v) = snap.resident.iter().find(|&&v| v as usize >= num_nodes) {
            return Err(format!("snapshot resident node {v} out of range (graph has {num_nodes})"));
        }
        match &mut self.order {
            // Fixed entries are a pure function of (graph, capacity);
            // they ride along only for this check.
            Order::Fixed(entries) if snap.resident != *entries => {
                return Err(format!("{} snapshot resident set does not match graph", self.policy));
            }
            Order::Fixed(_) => {}
            Order::Fifo(queue) => {
                queue.clear();
                queue.extend(&snap.resident);
            }
            Order::Lru(list) => list.rebuild(&snap.resident),
            Order::Lfu { freq, heap, seq } => {
                if snap.freq.len() != freq.len() {
                    return Err(format!(
                        "LFU snapshot frequency table covers {} nodes, cache has {}",
                        snap.freq.len(),
                        freq.len()
                    ));
                }
                freq.copy_from_slice(&snap.freq);
                *heap = snap.heap.iter().map(|&t| Reverse(t)).collect();
                *seq = snap.seq;
            }
        }
        self.resident.fill(false);
        snap.resident.iter().for_each(|&v| self.resident[v as usize] = true);
        self.len = snap.resident.len();
        self.stats = snap.stats;
        Ok(())
    }
}

/// What differs between policies: what a hit touches, which entry an
/// admission evicts, and the snapshot's canonical order.
#[derive(Debug)]
enum Order {
    /// `None` and `StaticDegree`: the entries chosen at build time
    /// (descending degree), never replaced.
    Fixed(Vec<NodeId>),
    /// Admission order, oldest at the front.
    Fifo(VecDeque<NodeId>),
    /// Recency, most recent first.
    Lru(Recency),
    /// Per-node access counts (misses included) and a lazy min-heap of
    /// `(freq, seq, node)`: an entry whose recorded frequency no longer
    /// matches is stale and skipped on eviction.
    Lfu { freq: Vec<u32>, heap: LfuHeap, seq: u64 },
}

type LfuHeap = BinaryHeap<Reverse<(u32, u64, NodeId)>>;

impl Order {
    /// A lookup of `v` that hit (`hit`) or missed.
    fn looked_up(&mut self, v: NodeId, hit: bool) {
        match self {
            Order::Lru(list) if hit => list.touch(v),
            Order::Lfu { freq, heap, seq } => {
                freq[v as usize] = freq[v as usize].saturating_add(1);
                if hit {
                    reindex(freq, heap, seq, v);
                }
            }
            _ => {}
        }
    }

    /// An update offered `v`, which is already resident.
    fn readmitted(&mut self, v: NodeId) {
        if let Order::Lru(list) = self {
            list.touch(v);
        }
    }

    /// Removes and returns the entry an admission into a full cache
    /// replaces.
    fn evict(&mut self, resident: &[bool]) -> Option<NodeId> {
        match self {
            Order::Fixed(_) => unreachable!("a fixed cache admits nothing"),
            Order::Fifo(queue) => queue.pop_front(),
            Order::Lru(list) => {
                let victim = list.tail;
                debug_assert_ne!(victim, NIL);
                list.unlink(victim);
                Some(victim)
            }
            Order::Lfu { freq, heap, .. } => {
                while let Some(Reverse((f, _, v))) = heap.pop() {
                    if resident[v as usize] && freq[v as usize] == f {
                        return Some(v);
                    }
                }
                None
            }
        }
    }

    /// Records the admission of `v`.
    fn admit(&mut self, v: NodeId) {
        match self {
            Order::Fixed(_) => unreachable!("a fixed cache admits nothing"),
            Order::Fifo(queue) => queue.push_back(v),
            Order::Lru(list) => list.push_front(v),
            Order::Lfu { freq, heap, seq } => reindex(freq, heap, seq, v),
        }
    }
}

/// Pushes `v`'s current frequency as a fresh LFU heap entry.
fn reindex(freq: &[u32], heap: &mut LfuHeap, seq: &mut u64, v: NodeId) {
    *seq += 1;
    heap.push(Reverse((freq[v as usize], *seq, v)));
}

const NIL: u32 = u32::MAX;

/// Intrusive doubly-linked list over node-id slots: O(1) touch and
/// eviction.
#[derive(Debug)]
struct Recency {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
}

impl Recency {
    fn new(num_nodes: usize) -> Self {
        Recency { prev: vec![NIL; num_nodes], next: vec![NIL; num_nodes], head: NIL, tail: NIL }
    }

    fn unlink(&mut self, v: u32) {
        let (p, n) = (self.prev[v as usize], self.next[v as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
        self.prev[v as usize] = NIL;
        self.next[v as usize] = NIL;
    }

    fn push_front(&mut self, v: u32) {
        self.prev[v as usize] = NIL;
        self.next[v as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = v;
        }
        self.head = v;
        if self.tail == NIL {
            self.tail = v;
        }
    }

    fn touch(&mut self, v: u32) {
        if self.head == v {
            return;
        }
        self.unlink(v);
        self.push_front(v);
    }

    fn mru_first(&self, len: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(len);
        let mut cur = self.head;
        while cur != NIL {
            out.push(cur);
            cur = self.next[cur as usize];
        }
        out
    }

    /// Rebuilds the list from `mru_first` order.
    fn rebuild(&mut self, mru_first: &[NodeId]) {
        *self = Recency::new(self.prev.len());
        mru_first.iter().rev().for_each(|&v| self.push_front(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_graph::GraphBuilder;

    fn star(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(0, v);
        }
        b.symmetrize().build().expect("build")
    }

    #[test]
    fn hit_rate_zero_lookups_is_zero() {
        // Fresh stats must report 0.0, not NaN, before any lookup.
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let empty = LookupOutcome { hits: Vec::new(), misses: Vec::new() };
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn no_cache_always_misses() {
        let g = star(5);
        let mut c = build_cache(CachePolicy::None, 100, &g);
        let out = c.lookup(&[0, 1, 2]);
        assert!(out.hits.is_empty());
        assert_eq!(out.misses, vec![0, 1, 2]);
        assert_eq!(c.update(&out.misses), 0);
        assert_eq!(c.stats().hit_rate(), 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn static_degree_prefills_hub() {
        let g = star(10);
        let mut c = build_cache(CachePolicy::StaticDegree, 1, &g);
        assert!(c.contains(0), "hub must be cached");
        let out = c.lookup(&[0, 3]);
        assert_eq!(out.hits, vec![0]);
        assert_eq!(out.misses, vec![3]);
        assert_eq!(c.update(&out.misses), 0, "static cache never updates");
        assert!(!c.contains(3));
        assert_eq!(c.resident(), vec![0]);
    }

    #[test]
    fn fifo_evicts_oldest() {
        let g = star(10);
        let mut c = build_cache(CachePolicy::Fifo, 2, &g);
        assert_eq!(c.update(&[1, 2]), 2);
        assert_eq!(c.update(&[3]), 1); // evicts 1
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn fifo_skips_already_resident() {
        let g = star(10);
        let mut c = build_cache(CachePolicy::Fifo, 2, &g);
        c.update(&[1]);
        assert_eq!(c.update(&[1]), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let g = star(10);
        let mut c = build_cache(CachePolicy::Lru, 2, &g);
        c.update(&[1, 2]);
        let _ = c.lookup(&[1]); // 1 now most recent
        c.update(&[3]); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.resident(), vec![3, 1], "MRU order");
    }

    #[test]
    fn lru_capacity_never_exceeded() {
        let g = star(50);
        let mut c = build_cache(CachePolicy::Lru, 5, &g);
        for batch in (0u32..40).collect::<Vec<_>>().chunks(7) {
            let out = c.lookup(batch);
            c.update(&out.misses);
            assert!(c.len() <= 5, "len {} > capacity", c.len());
        }
    }

    #[test]
    fn lfu_keeps_frequent_nodes() {
        let g = star(10);
        let mut c = build_cache(CachePolicy::Lfu, 2, &g);
        // Node 1 accessed many times; node 2 once.
        for _ in 0..5 {
            let out = c.lookup(&[1]);
            c.update(&out.misses);
        }
        let out = c.lookup(&[2]);
        c.update(&out.misses);
        // Insert 3: should evict the less-frequent 2, not 1.
        let out = c.lookup(&[3]);
        c.update(&out.misses);
        assert!(c.contains(1), "frequent node survives");
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn hit_rate_accumulates() {
        let g = star(10);
        let mut c = build_cache(CachePolicy::Fifo, 4, &g);
        let out = c.lookup(&[1, 2]); // 2 misses
        c.update(&out.misses);
        let _ = c.lookup(&[1, 2]); // 2 hits
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_dynamic_cache_never_stores() {
        let g = star(5);
        for policy in [CachePolicy::Fifo, CachePolicy::Lru, CachePolicy::Lfu] {
            let mut c = build_cache(policy, 0, &g);
            assert_eq!(c.update(&[1, 2, 3]), 0, "{policy}");
            assert_eq!(c.len(), 0);
        }
    }

    #[test]
    fn restore_rejects_a_snapshot_it_cannot_reproduce() {
        let g = star(10);
        let snap_of = |policy, capacity| build_cache(policy, capacity, &g).snapshot();
        let rejects = |policy, capacity, snap: &CacheSnapshot| {
            let mut c = build_cache(policy, capacity, &g);
            let before = c.snapshot();
            assert!(c.restore(snap).is_err(), "{policy} accepted {snap:?}");
            assert_eq!(c.snapshot(), before, "{policy}: a rejected restore changed the cache");
        };
        for policy in CachePolicy::ALL {
            let mut snap = snap_of(policy, 3);
            snap.capacity += 1;
            rejects(policy, 3, &snap);
            let mut snap = snap_of(policy, 3);
            snap.resident.push(10);
            rejects(policy, 3, &snap);
        }
        // A fixed cache's entries come from the graph, not the snapshot.
        let mut snap = snap_of(CachePolicy::StaticDegree, 3);
        snap.resident.reverse();
        rejects(CachePolicy::StaticDegree, 3, &snap);
        let mut snap = snap_of(CachePolicy::None, 3);
        snap.resident.push(1);
        rejects(CachePolicy::None, 3, &snap);
        let mut snap = snap_of(CachePolicy::Lfu, 3);
        snap.freq.pop();
        rejects(CachePolicy::Lfu, 3, &snap);
        // Dynamic policies take any in-range resident list.
        for policy in [CachePolicy::Fifo, CachePolicy::Lru, CachePolicy::Lfu] {
            let mut snap = snap_of(policy, 3);
            snap.resident = vec![4, 2];
            let mut c = build_cache(policy, 3, &g);
            c.restore(&snap).expect("in-range residents");
            assert_eq!(c.len(), 2);
            assert!(c.contains(4) && c.contains(2) && !c.contains(0), "{policy}");
        }
    }

    #[test]
    fn entries_for_budget_division() {
        assert_eq!(entries_for_budget(1000, 100), 10);
        assert_eq!(entries_for_budget(1000, 0), 0);
        assert_eq!(entries_for_budget(99, 100), 0);
    }

    #[test]
    fn lookup_outcome_hit_rate() {
        let o = LookupOutcome { hits: vec![1], misses: vec![2, 3, 4] };
        assert!((o.hit_rate() - 0.25).abs() < 1e-12);
        let empty = LookupOutcome { hits: vec![], misses: vec![] };
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn skewed_access_gives_high_hit_rate_with_small_cache() {
        // The phenomenon PaGraph exploits: power-law access means a
        // small degree-ordered cache already captures most traffic.
        use gnnav_graph::generators::barabasi_albert;
        let g = barabasi_albert(1000, 4, 3).expect("gen");
        let mut c = build_cache(CachePolicy::StaticDegree, 200, &g);
        // Access pattern proportional to degree: walk the edge list.
        let accesses: Vec<NodeId> = g.edges().map(|(_, v)| v).collect();
        for chunk in accesses.chunks(64) {
            let _ = c.lookup(chunk);
        }
        let hr = c.stats().hit_rate();
        assert!(hr > 0.4, "20% cache should catch >40% of skewed traffic, got {hr}");
        // A uniform access pattern over the same cache would only hit
        // ~20%; skew roughly doubles it.
    }
}
