//! BEAGLE-style CLV reuse cache keyed on subtree fingerprints.
//!
//! Repeated evaluations of near-identical trees — the MCMC proposal
//! pattern, and the dominant shape of batched service traffic — share
//! most of their subtrees. A node's conditional likelihood vector is a
//! pure function of (dataset, subtree topology, branch lengths, model
//! parameters), so a CLV computed once can be replayed for any later
//! evaluation whose subtree *fingerprint* matches, skipping the whole
//! `CondLikeDown` for that node.
//!
//! **Fingerprint definition.** Computed bottom-up over the evaluation
//! plan with a splitmix64-based mix (no dependencies, stable across
//! runs):
//!
//! * leaf: `mix(LEAF_TAG, dataset_token, fnv(taxon name))`
//! * internal (Down): `mix(DOWN_TAG, fp(left), bits(branch_left),
//!   fp(right), bits(branch_right), model_fp, scaled?)`
//! * root (Root): like Down over the 2–3 children meeting at the
//!   virtual root, tagged `ROOT_TAG`
//!
//! `model_fp` hashes the GTR exchangeabilities, base frequencies, Γ
//! shape, per-category rates, `pinvar`, and the rate-category count;
//! `dataset_token` is a caller-supplied identity for the pattern
//! alignment (the plfd service uses its registered `DatasetId`, which
//! by construction names one immutable alignment). Branch lengths enter
//! as raw `f64` bit patterns, so *any* change to a branch changes the
//! fingerprint of every ancestor — that is the entire invalidation
//! rule; stale entries simply stop being addressed and age out FIFO.
//!
//! **Scaler replay.** A cached entry for a scaled node stores the
//! *post-scale* CLV plus the per-pattern `ln(max)` delta vector its
//! `CondLikeScaler` produced. On a hit the delta is added to the
//! evaluation's running scaler vector at the same plan position a fresh
//! scale would have been — the identical `f32` addition sequence, which
//! keeps cached evaluation bit-identical to fresh evaluation.
//!
//! This file is in `plf-lint`'s L2 hot-path scope: it runs inside every
//! batched service evaluation, so it must be panic-free.

use crate::clv::Clv;
use crate::kernels::plan::{PlfOp, PlfPlan};
use crate::model::SiteModel;
use crate::splitmix64;
use crate::tree::Tree;
use std::collections::{HashMap, VecDeque};

/// Domain-separation tags for the fingerprint mix.
const LEAF_TAG: u64 = 0x1eaf;
const DOWN_TAG: u64 = 0xd01;
const ROOT_TAG: u64 = 0x1007;

/// Fold `word` into the running fingerprint `acc`.
fn mix(acc: u64, word: u64) -> u64 {
    splitmix64(acc ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// FNV-1a over a byte string (taxon names).
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the model parameters that determine CLV contents.
pub fn model_fingerprint(model: &SiteModel) -> u64 {
    let params = model.params();
    let mut h = mix(0x6d0d, model.n_rates() as u64);
    for &r in &params.rates {
        h = mix(h, r.to_bits());
    }
    for &f in &params.freqs {
        h = mix(h, f.to_bits());
    }
    h = mix(h, model.shape().to_bits());
    for &r in model.rates() {
        h = mix(h, r.to_bits());
    }
    mix(h, model.pinvar().to_bits())
}

/// Per-node subtree fingerprints for one evaluation of `plan` over
/// `tree`, indexed by `NodeId.0`. Entries are `None` for nodes the plan
/// never computes (tips have fingerprints — parents need them — but
/// only plan-computed internal nodes are cache keys; the boolean marks
/// whether the plan scales that node, which is part of its identity
/// because cached entries store post-scale values).
pub fn subtree_fingerprints(
    tree: &Tree,
    plan: &PlfPlan,
    model: &SiteModel,
    dataset_token: u64,
) -> Vec<Option<(u64, bool)>> {
    let n = tree.n_nodes();
    let mfp = model_fingerprint(model);
    // Which plan nodes get a Scale op (identity of the cached value).
    let mut scaled = vec![false; n];
    for op in plan.ops() {
        if let PlfOp::Scale { node } = op {
            if let Some(s) = scaled.get_mut(node.0) {
                *s = true;
            }
        }
    }
    let mut fp = vec![0u64; n];
    let mut out: Vec<Option<(u64, bool)>> = vec![None; n];
    // Leaves first: their fingerprints seed the bottom-up walk.
    for id in tree.node_ids() {
        let node = tree.node(id);
        if node.is_leaf() {
            let name = node.name.as_deref().unwrap_or("");
            fp[id.0] = mix(mix(mix(LEAF_TAG, dataset_token), fnv(name.as_bytes())), mfp);
        }
    }
    // Plan ops are postorder: children always precede parents.
    for op in plan.ops() {
        match op {
            PlfOp::Down { node, left, right } => {
                let mut h = mix(DOWN_TAG, mfp);
                h = mix(h, fp[left.0]);
                h = mix(h, tree.node(*left).branch.to_bits());
                h = mix(h, fp[right.0]);
                h = mix(h, tree.node(*right).branch.to_bits());
                h = mix(h, u64::from(scaled[node.0]));
                fp[node.0] = h;
                out[node.0] = Some((h, scaled[node.0]));
            }
            PlfOp::Root { node, children } => {
                let mut h = mix(ROOT_TAG, mfp);
                for &c in children {
                    h = mix(h, fp[c.0]);
                    h = mix(h, tree.node(c).branch.to_bits());
                }
                h = mix(h, u64::from(scaled[node.0]));
                fp[node.0] = h;
                out[node.0] = Some((h, scaled[node.0]));
            }
            PlfOp::Scale { .. } => {}
        }
    }
    out
}

/// A cached per-node likelihood value.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The node's CLV as the plan leaves it (post-scale if scaled).
    pub clv: Clv,
    /// For scaled nodes: the per-pattern `ln(max)` scaler delta the
    /// node's `CondLikeScaler` contributed; `None` for unscaled nodes.
    pub scale_delta: Option<Vec<f32>>,
}

/// Hit/miss/eviction counts since the last [`ClvCache::take_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

/// Bounded FIFO cache of per-node CLVs keyed on subtree fingerprints.
///
/// FIFO (insertion-order) eviction keeps the hot set deterministic for
/// a given request stream, which the bit-identity tests rely on; an
/// entry's key encodes everything its value depends on, so there is no
/// explicit invalidation — superseded entries age out.
#[derive(Debug)]
pub struct ClvCache {
    map: HashMap<u64, CacheEntry>,
    order: VecDeque<u64>,
    max_entries: usize,
    stats: CacheStats,
}

impl ClvCache {
    /// An empty cache holding at most `max_entries` node CLVs
    /// (0 disables storage; lookups then always miss).
    pub fn new(max_entries: usize) -> ClvCache {
        ClvCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            max_entries,
            stats: CacheStats::default(),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity bound (entries).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Look `fingerprint` up, counting a hit or miss.
    pub fn lookup(&mut self, fingerprint: u64) -> Option<&CacheEntry> {
        match self.map.get(&fingerprint) {
            Some(entry) => {
                self.stats.hits += 1;
                Some(entry)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Like [`lookup`](ClvCache::lookup), but an absent entry is *not*
    /// counted as a miss. For re-polls of a fingerprint another job in
    /// the same fused call is already computing (intra-call dedup): the
    /// original lookup already recorded the miss, and counting every
    /// parked round again would make the miss rate meaningless.
    pub fn lookup_pending(&mut self, fingerprint: u64) -> Option<&CacheEntry> {
        match self.map.get(&fingerprint) {
            Some(entry) => {
                self.stats.hits += 1;
                Some(entry)
            }
            None => None,
        }
    }

    /// Insert a freshly computed node value, evicting the oldest
    /// entries as needed. Re-inserting an existing key refreshes the
    /// value without growing the cache.
    pub fn insert(&mut self, fingerprint: u64, entry: CacheEntry) {
        if self.max_entries == 0 {
            return;
        }
        if self.map.insert(fingerprint, entry).is_none() {
            self.order.push_back(fingerprint);
        }
        while self.map.len() > self.max_entries {
            match self.order.pop_front() {
                Some(oldest) => {
                    if self.map.remove(&oldest).is_some() {
                        self.stats.evictions += 1;
                    }
                }
                None => break,
            }
        }
    }

    /// Drop every entry (counters are untouched).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Counter snapshot since the previous call, resetting the window —
    /// the plfd workers flush these deltas into `ServiceCounters` after
    /// every shard.
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    /// Cumulative counters since the last [`ClvCache::take_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::model::GtrParams;

    fn setup() -> (Tree, SiteModel) {
        // Two independent internal nodes, so an edit under one leaves
        // the other's fingerprint untouched.
        let tree =
            Tree::from_newick("((a:0.1,b:0.2):0.05,(c:0.3,d:0.1):0.2,e:0.4);").unwrap();
        let model = SiteModel::gtr_gamma4(GtrParams::jc69(), 0.5).unwrap();
        (tree, model)
    }

    #[test]
    fn fingerprints_are_deterministic_and_branch_sensitive() {
        let (tree, model) = setup();
        let plan = PlfPlan::for_tree(&tree, 1).unwrap();
        let a = subtree_fingerprints(&tree, &plan, &model, 7);
        let b = subtree_fingerprints(&tree, &plan, &model, 7);
        assert_eq!(a, b, "same inputs must give the same fingerprints");

        // Changing one leaf branch must change its parent (and the
        // root), but not unrelated subtrees.
        let mut t2 = tree.clone();
        let leaf = t2.leaves()[0];
        t2.node_mut(leaf).branch += 0.01;
        let c = subtree_fingerprints(&t2, &plan, &model, 7);
        assert_ne!(a, c);
        let changed: Vec<usize> = (0..a.len()).filter(|&i| a[i] != c[i]).collect();
        let unchanged: Vec<usize> = (0..a.len())
            .filter(|&i| a[i].is_some() && a[i] == c[i])
            .collect();
        assert!(!changed.is_empty(), "ancestors of the edit must change");
        assert!(
            !unchanged.is_empty(),
            "subtrees not containing the edit must keep their fingerprints"
        );
    }

    #[test]
    fn fingerprints_differ_across_models_and_datasets() {
        let (tree, model) = setup();
        let plan = PlfPlan::for_tree(&tree, 1).unwrap();
        let a = subtree_fingerprints(&tree, &plan, &model, 7);
        let b = subtree_fingerprints(&tree, &plan, &model, 8);
        assert_ne!(a, b, "dataset token must enter the fingerprint");
        let other = SiteModel::gtr_gamma4(GtrParams::jc69(), 0.6).unwrap();
        let c = subtree_fingerprints(&tree, &plan, &other, 7);
        assert_ne!(a, c, "model parameters must enter the fingerprint");
    }

    #[test]
    fn scaled_flag_is_part_of_the_identity() {
        let (tree, model) = setup();
        let every = PlfPlan::for_tree(&tree, 1).unwrap();
        let never = PlfPlan::for_tree(&tree, 0).unwrap();
        let a = subtree_fingerprints(&tree, &every, &model, 7);
        let b = subtree_fingerprints(&tree, &never, &model, 7);
        assert_ne!(a, b, "scaling period changes what the cached value is");
    }

    #[test]
    fn fifo_eviction_respects_capacity_and_counts() {
        let aln = Alignment::from_strings(&[("a", "ACGT")]).unwrap().compress();
        let clv = Clv::tip(aln.taxon_patterns(0), 4);
        let mut cache = ClvCache::new(2);
        for k in 0..3u64 {
            cache.insert(
                k,
                CacheEntry {
                    clv: clv.clone(),
                    scale_delta: None,
                },
            );
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(0).is_none(), "oldest entry evicted first");
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(2).is_some());
        let stats = cache.take_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(cache.take_stats(), CacheStats::default());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let aln = Alignment::from_strings(&[("a", "ACGT")]).unwrap().compress();
        let clv = Clv::tip(aln.taxon_patterns(0), 4);
        let mut cache = ClvCache::new(0);
        cache.insert(
            1,
            CacheEntry {
                clv,
                scale_delta: None,
            },
        );
        assert!(cache.is_empty());
        assert!(cache.lookup(1).is_none());
        assert_eq!(cache.stats().misses, 1);
    }
}
