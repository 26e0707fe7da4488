//! Tree log-likelihood evaluation: ties together the model, the data,
//! the evaluation plan, and a [`PlfBackend`].
//!
//! [`TreeLikelihood`] owns the per-node CLV workspace (the "likelihood
//! vector data structures" the paper schedules onto processing elements)
//! and drives any backend through a postorder plan, then integrates the
//! root CLV over rate categories and states into the final
//! log-likelihood. The integration is done on the host in double
//! precision — in MrBayes too, the per-site products are `f32` but the
//! final site-likelihood accumulation is not part of the parallel
//! section.

use crate::alignment::PatternAlignment;
use crate::clv::{Clv, TransitionMatrices};
use crate::dna::N_STATES;
use crate::kernels::plan::{PlfOp, PlfPlan};
use crate::kernels::PlfBackend;
use crate::model::SiteModel;
use crate::resilience::PlfError;
use crate::tree::{NodeId, Tree, TreeError};
use std::collections::HashMap;

/// Errors from evaluator construction or evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum LikelihoodError {
    /// A leaf name was not found in the alignment.
    UnknownTaxon(String),
    /// Underlying tree problem.
    Tree(TreeError),
    /// The PLF backend failed (device fault, corrupted output, …).
    Backend(PlfError),
}

impl std::fmt::Display for LikelihoodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LikelihoodError::UnknownTaxon(t) => write!(f, "taxon {t} not in alignment"),
            LikelihoodError::Tree(e) => write!(f, "{e}"),
            LikelihoodError::Backend(e) => write!(f, "backend failure: {e}"),
        }
    }
}

impl std::error::Error for LikelihoodError {}

impl From<TreeError> for LikelihoodError {
    fn from(e: TreeError) -> Self {
        LikelihoodError::Tree(e)
    }
}

impl From<PlfError> for LikelihoodError {
    fn from(e: PlfError) -> Self {
        LikelihoodError::Backend(e)
    }
}

/// Log site-likelihood combining the Γ mixture with the `+I`
/// invariable-sites class:
/// `L_i = pinvar·I_i + (1−pinvar)·site_Γ·e^{S_i}` computed in log space
/// (`site_gamma` is the unscaled Γ-mixture value, `scaler` the
/// accumulated log rescaling `S_i`, `inv_support` the stationary mass of
/// states the pattern is compatible with being constant in).
pub(crate) fn ln_site_likelihood(
    site_gamma: f64,
    scaler: f64,
    pinvar: f64,
    inv_support: f64,
) -> f64 {
    if pinvar <= 0.0 {
        return if site_gamma > 0.0 {
            site_gamma.ln() + scaler
        } else {
            f64::NEG_INFINITY
        };
    }
    let ln_gamma_term = if site_gamma > 0.0 {
        (1.0 - pinvar).ln() + site_gamma.ln() + scaler
    } else {
        f64::NEG_INFINITY
    };
    let ln_inv_term = if inv_support > 0.0 {
        pinvar.ln() + inv_support.ln()
    } else {
        f64::NEG_INFINITY
    };
    // log-sum-exp of the two mixture components.
    let hi = ln_gamma_term.max(ln_inv_term);
    if hi == f64::NEG_INFINITY {
        f64::NEG_INFINITY
    } else {
        hi + ((ln_gamma_term - hi).exp() + (ln_inv_term - hi).exp()).ln()
    }
}

/// Stationary-frequency mass of the states in a constant-pattern mask.
pub(crate) fn invariant_support(mask: u8, freqs: &[f64; 4]) -> f64 {
    let mut acc = 0.0;
    for (s, &f) in freqs.iter().enumerate() {
        if mask & (1 << s) != 0 {
            acc += f;
        }
    }
    acc
}

/// Workspace + driver for computing tree log-likelihoods.
pub struct TreeLikelihood {
    model: SiteModel,
    n_patterns: usize,
    weights: Vec<f64>,
    /// Per-node CLV slots; tips are filled when the workspace is bound
    /// to a tree, internals are overwritten by every evaluation.
    clvs: Vec<Option<Clv>>,
    /// Which nodes are tips (their CLVs are immutable).
    is_tip: Vec<bool>,
    /// Per-pattern accumulated log scalers, reset each evaluation.
    scalers: Vec<f32>,
    /// Per-pattern constant-state masks (for the +I likelihood term).
    const_masks: Vec<u8>,
    /// Rescale after every n-th internal node (0 = never).
    scale_every: usize,
}

impl TreeLikelihood {
    /// Build the workspace for `tree` over `data` under `model`.
    ///
    /// Leaf nodes are matched to alignment rows by taxon name. The tree's
    /// arena must stay fixed afterwards (branch lengths and topology may
    /// change — that is what MCMC does — but node identity must not).
    pub fn new(
        tree: &Tree,
        data: &PatternAlignment,
        model: SiteModel,
    ) -> Result<TreeLikelihood, LikelihoodError> {
        Self::with_scaling(tree, data, model, 1)
    }

    /// As [`TreeLikelihood::new`] with an explicit scaling period.
    pub fn with_scaling(
        tree: &Tree,
        data: &PatternAlignment,
        model: SiteModel,
        scale_every: usize,
    ) -> Result<TreeLikelihood, LikelihoodError> {
        let mut eval = TreeLikelihood {
            model,
            n_patterns: 0,
            weights: Vec::new(),
            clvs: Vec::new(),
            is_tip: Vec::new(),
            scalers: Vec::new(),
            const_masks: Vec::new(),
            scale_every,
        };
        eval.bind(tree, data)?;
        Ok(eval)
    }

    /// Re-point this workspace at `tree` over `data` under `model`,
    /// keeping its CLV buffers. Afterwards it evaluates bit for bit like
    /// a fresh [`TreeLikelihood::with_scaling`] of the same arguments
    /// and this workspace's scaling period.
    ///
    /// Every leaf slot is refilled with its taxon's tip vector, and the
    /// pattern weights and constant masks are re-read from `data`, so
    /// nothing of the previous tree or alignment survives in them.
    /// Internal slots keep their stale contents: every `Down` and `Root`
    /// op (and every fused cache hit) overwrites its output slot in full
    /// before any op reads it. A slot whose shape no longer fits `data`
    /// and `model` is reallocated, so a workspace can be rebound to any
    /// tree and alignment; it allocates nothing when the node count,
    /// pattern count and rate count are unchanged.
    ///
    /// On error (an unknown taxon, an invalid tree) the workspace must
    /// be rebound successfully before it is evaluated again.
    pub fn rebind(
        &mut self,
        tree: &Tree,
        data: &PatternAlignment,
        model: SiteModel,
    ) -> Result<(), LikelihoodError> {
        self.model = model;
        self.bind(tree, data)
    }

    /// Lay out one slot per node of `tree` for `data` under the current
    /// model, reusing every slot that already has the right shape.
    fn bind(&mut self, tree: &Tree, data: &PatternAlignment) -> Result<(), LikelihoodError> {
        tree.validate()?;
        let n_patterns = data.n_patterns();
        let n_rates = self.model.n_rates();
        let taxon_index: HashMap<&str, usize> = data
            .taxa()
            .iter()
            .enumerate()
            .map(|(i, t)| (t.as_str(), i))
            .collect();
        self.clvs.resize_with(tree.n_nodes(), || None);
        self.is_tip.clear();
        for (id, slot) in tree.node_ids().zip(self.clvs.iter_mut()) {
            let fits = slot
                .as_ref()
                .is_some_and(|c| c.n_patterns() == n_patterns && c.n_rates() == n_rates);
            let clv = match slot {
                Some(clv) if fits => clv,
                _ => slot.insert(Clv::zeroed(n_patterns, n_rates)),
            };
            let node = tree.node(id);
            if node.is_leaf() {
                let name = node.name.as_deref().expect("validated leaf has a name");
                let &t = taxon_index
                    .get(name)
                    .ok_or_else(|| LikelihoodError::UnknownTaxon(name.to_string()))?;
                clv.fill_tip(data.taxon_patterns(t));
            }
            self.is_tip.push(node.is_leaf());
        }
        self.n_patterns = n_patterns;
        self.weights.clear();
        self.weights
            .extend(data.weights().iter().map(|&w| w as f64));
        self.scalers.clear();
        self.scalers.resize(n_patterns, 0.0);
        self.const_masks = data.constant_masks();
        Ok(())
    }

    /// The site model in use.
    pub fn model(&self) -> &SiteModel {
        &self.model
    }

    /// Replace the site model (after an MCMC model-parameter move).
    pub fn set_model(&mut self, model: SiteModel) {
        assert_eq!(model.n_rates(), self.model.n_rates(), "rate-count change requires a new workspace");
        self.model = model;
    }

    /// Number of site patterns.
    pub fn n_patterns(&self) -> usize {
        self.n_patterns
    }

    /// Evaluate the log-likelihood of `tree` using `backend`.
    ///
    /// Recomputes every transition matrix and the full postorder sweep —
    /// the paper's experiments likewise touch the whole tree per PLF
    /// round, which is what makes the PLF >85% of runtime.
    pub fn log_likelihood(
        &mut self,
        tree: &Tree,
        backend: &mut dyn PlfBackend,
    ) -> Result<f64, LikelihoodError> {
        let plan = PlfPlan::for_tree(tree, self.scale_every)?;
        self.log_likelihood_planned(tree, &plan, backend)
    }

    /// Evaluate with a pre-built plan (avoids replanning when only branch
    /// lengths changed).
    pub fn log_likelihood_planned(
        &mut self,
        tree: &Tree,
        plan: &PlfPlan,
        backend: &mut dyn PlfBackend,
    ) -> Result<f64, LikelihoodError> {
        debug_assert_eq!(tree.n_nodes(), self.clvs.len());
        self.scalers.iter_mut().for_each(|s| *s = 0.0);
        backend.begin_evaluation();

        // Per-branch transition matrices (one set per non-root node).
        let tms: Vec<Option<TransitionMatrices>> = tree
            .node_ids()
            .map(|id| {
                if id == tree.root() {
                    None
                } else {
                    Some(self.model.transition_matrices(tree.node(id).branch))
                }
            })
            .collect();
        let tm = |id: NodeId| tms[id.0].as_ref().expect("non-root node has a branch matrix");

        for op in plan.ops() {
            match op {
                PlfOp::Down { node, left, right } => {
                    let mut out = self.clvs[node.0].take().expect("CLV slot present");
                    let result = {
                        let l = self.clvs[left.0].as_ref().expect("child CLV computed");
                        let r = self.clvs[right.0].as_ref().expect("child CLV computed");
                        backend.cond_like_down(l, tm(*left), r, tm(*right), &mut out)
                    };
                    // The slot must be restored even on error, or the
                    // workspace is poisoned for the next evaluation.
                    self.clvs[node.0] = Some(out);
                    result?;
                }
                PlfOp::Root { node, children } => {
                    let mut out = self.clvs[node.0].take().expect("CLV slot present");
                    let result = {
                        let a = self.clvs[children[0].0].as_ref().unwrap();
                        let b = self.clvs[children[1].0].as_ref().unwrap();
                        let c = children
                            .get(2)
                            .map(|c3| (self.clvs[c3.0].as_ref().unwrap(), tm(*c3)));
                        backend.cond_like_root(a, tm(children[0]), b, tm(children[1]), c, &mut out)
                    };
                    self.clvs[node.0] = Some(out);
                    result?;
                }
                PlfOp::Scale { node } => {
                    assert!(!self.is_tip[node.0], "tips are never rescaled");
                    let mut clv = self.clvs[node.0].take().expect("CLV slot present");
                    let result = backend.cond_like_scaler(&mut clv, &mut self.scalers);
                    self.clvs[node.0] = Some(clv);
                    result?;
                }
            }
        }
        Ok(self.integrate_root(plan.root()))
    }

    /// Σ over patterns of `weight · ln L_i`, where `L_i` mixes the Γ
    /// categories and (under `+I`) the invariable-sites class.
    fn integrate_root(&self, root: NodeId) -> f64 {
        let clv = self.clvs[root.0].as_ref().expect("root CLV computed");
        let n_rates = self.model.n_rates();
        let freqs = self.model.freqs();
        let pinvar = self.model.pinvar();
        let cat_weight = 1.0 / n_rates as f64;
        let mut lnl = 0.0f64;
        for i in 0..self.n_patterns {
            let mut site = 0.0f64;
            for k in 0..n_rates {
                let e = clv.entry(i, k);
                let mut acc = 0.0f64;
                for s in 0..N_STATES {
                    acc += freqs[s] * e[s] as f64;
                }
                site += cat_weight * acc;
            }
            let inv = invariant_support(self.const_masks[i], &freqs);
            lnl += self.weights[i]
                * ln_site_likelihood(site, self.scalers[i] as f64, pinvar, inv);
        }
        lnl
    }

    /// Read access to a node's CLV (for tests and cross-backend checks).
    pub fn clv(&self, node: NodeId) -> &Clv {
        self.clvs[node.0].as_ref().expect("CLV slot present")
    }

    /// The accumulated per-pattern log scalers from the last evaluation.
    pub fn scalers(&self) -> &[f32] {
        &self.scalers
    }

    // ---- pub(crate) surface for the fused cross-job driver ----
    // (`crate::fused` is panic-free L2 code; these accessors keep its
    // access to the workspace checkable instead of field pokes.)

    /// The scaling period this workspace plans with.
    pub(crate) fn scale_every(&self) -> usize {
        self.scale_every
    }

    /// Zero the running scaler vector (start of an evaluation).
    pub(crate) fn reset_scalers(&mut self) {
        self.scalers.iter_mut().for_each(|s| *s = 0.0);
    }

    /// Move a node's CLV out of its slot (`None` if absent or out of
    /// range — an invariant breach the fused driver surfaces as an
    /// error rather than a panic).
    pub(crate) fn take_clv(&mut self, node: NodeId) -> Option<Clv> {
        self.clvs.get_mut(node.0).and_then(Option::take)
    }

    /// Restore a node's CLV taken with [`TreeLikelihood::take_clv`].
    pub(crate) fn put_clv(&mut self, node: NodeId, clv: Clv) {
        if let Some(slot) = self.clvs.get_mut(node.0) {
            *slot = Some(clv);
        }
    }

    /// Shared access to a node's CLV without panicking on absence.
    pub(crate) fn clv_opt(&self, node: NodeId) -> Option<&Clv> {
        self.clvs.get(node.0).and_then(Option::as_ref)
    }

    /// Overwrite a node's CLV with a cached copy; `false` if the slot
    /// is missing or the shapes disagree (the caller then treats the
    /// lookup as unusable).
    pub(crate) fn overwrite_clv(&mut self, node: NodeId, src: &Clv) -> bool {
        match self.clvs.get_mut(node.0) {
            Some(Some(dst))
                if dst.n_patterns() == src.n_patterns() && dst.n_rates() == src.n_rates() =>
            {
                dst.as_mut_slice().copy_from_slice(src.as_slice());
                true
            }
            _ => false,
        }
    }

    /// Accumulate a cached (or scratch) scaler delta into the running
    /// vector: the identical `f32` additions a fresh scale would do.
    pub(crate) fn add_scalers(&mut self, delta: &[f32]) {
        for (acc, &d) in self.scalers.iter_mut().zip(delta) {
            *acc += d;
        }
    }

    /// Host-side root integration for the fused driver.
    pub(crate) fn integrate_root_at(&self, root: NodeId) -> f64 {
        self.integrate_root(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::kernels::{ScalarBackend, Simd4Backend};
    use crate::model::GtrParams;

    fn toy() -> (Tree, PatternAlignment) {
        let tree = Tree::from_newick("((a:0.1,b:0.2):0.05,c:0.3,d:0.4);").unwrap();
        let aln = Alignment::from_strings(&[
            ("a", "ACGTACGTAA"),
            ("b", "ACGTACGTAC"),
            ("c", "ACGAACGTTA"),
            ("d", "ACTTACGTAA"),
        ])
        .unwrap()
        .compress();
        (tree, aln)
    }

    #[test]
    fn likelihood_is_finite_and_negative() {
        let (tree, aln) = toy();
        let model = SiteModel::gtr_gamma4(GtrParams::jc69(), 0.5).unwrap();
        let mut tl = TreeLikelihood::new(&tree, &aln, model).unwrap();
        let lnl = tl.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        assert!(lnl.is_finite());
        assert!(lnl < 0.0, "log-likelihood {lnl} should be negative");
    }

    #[test]
    fn scalar_and_simd_agree() {
        let (tree, aln) = toy();
        let model = SiteModel::gtr_gamma4(GtrParams::hky85(2.0, [0.3, 0.2, 0.2, 0.3]), 0.7).unwrap();
        let mut tl = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
        let l_scalar = tl.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        let mut tl2 = TreeLikelihood::new(&tree, &aln, model).unwrap();
        let l_simd = tl2
            .log_likelihood(&tree, &mut Simd4Backend::col_wise())
            .unwrap();
        assert_eq!(l_scalar, l_simd, "colwise SIMD must be bitwise identical");
        let mut tl3 = TreeLikelihood::new(
            &tree,
            &aln,
            SiteModel::gtr_gamma4(GtrParams::hky85(2.0, [0.3, 0.2, 0.2, 0.3]), 0.7).unwrap(),
        )
        .unwrap();
        let l_row = tl3
            .log_likelihood(&tree, &mut Simd4Backend::row_wise())
            .unwrap();
        assert!((l_scalar - l_row).abs() < 1e-3);
    }

    #[test]
    fn rebind_matches_a_fresh_workspace_bitwise_and_reuses_buffers() {
        let (tree, aln) = toy();
        // Other leaf order, other topology, other alignment of the same
        // shape: nothing of the first binding may leak into the second.
        let other_tree = Tree::from_newick("((d:0.3,a:0.2):0.1,c:0.05,b:0.4);").unwrap();
        let other_aln = Alignment::from_strings(&[
            ("a", "ACGTTCGTAA"),
            ("b", "ACGGACGTAC"),
            ("c", "TCGAACGTTA"),
            ("d", "ACTTACGAAA"),
        ])
        .unwrap()
        .compress();
        assert_eq!(aln.n_patterns(), other_aln.n_patterns());
        let model =
            SiteModel::gtr_gamma4(GtrParams::hky85(2.0, [0.3, 0.2, 0.2, 0.3]), 0.7).unwrap();
        let other_model = SiteModel::gtr_gamma4(GtrParams::jc69(), 0.3).unwrap();

        let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
        eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        let ptrs: Vec<*const f32> = eval
            .clvs
            .iter()
            .flatten()
            .map(|c| c.as_slice().as_ptr())
            .collect();
        eval.rebind(&other_tree, &other_aln, other_model.clone())
            .unwrap();
        let reused: Vec<*const f32> = eval
            .clvs
            .iter()
            .flatten()
            .map(|c| c.as_slice().as_ptr())
            .collect();
        assert_eq!(ptrs, reused, "a same-shape rebind must not reallocate");
        // Internal slots are outputs only: poison them to prove no op
        // reads one before writing it.
        for (slot, &tip) in eval.clvs.iter_mut().zip(&eval.is_tip) {
            if let (Some(clv), false) = (slot.as_mut(), tip) {
                clv.fill(f32::NAN);
            }
        }
        let rebound = eval
            .log_likelihood(&other_tree, &mut ScalarBackend)
            .unwrap();
        let mut fresh = TreeLikelihood::new(&other_tree, &other_aln, other_model).unwrap();
        let want = fresh
            .log_likelihood(&other_tree, &mut ScalarBackend)
            .unwrap();
        assert_eq!(rebound.to_bits(), want.to_bits());

        // A shape change (patterns, rates, node count) reallocates and
        // still matches a fresh workspace.
        let small = Alignment::from_strings(&[("a", "AC"), ("b", "AG"), ("c", "TC")])
            .unwrap()
            .compress();
        let star = Tree::from_newick("(a:0.2,b:0.1,c:0.3);").unwrap();
        eval.rebind(&star, &small, SiteModel::jc69()).unwrap();
        let rebound = eval.log_likelihood(&star, &mut ScalarBackend).unwrap();
        let mut fresh = TreeLikelihood::new(&star, &small, SiteModel::jc69()).unwrap();
        let want = fresh.log_likelihood(&star, &mut ScalarBackend).unwrap();
        assert_eq!(rebound.to_bits(), want.to_bits());
        assert!(matches!(
            eval.rebind(&tree, &small, SiteModel::jc69()),
            Err(LikelihoodError::UnknownTaxon(_))
        ));
    }

    #[test]
    fn scaling_does_not_change_likelihood() {
        let (tree, aln) = toy();
        let model = SiteModel::gtr_gamma4(GtrParams::jc69(), 0.5).unwrap();
        let mut every = TreeLikelihood::with_scaling(&tree, &aln, model.clone(), 1).unwrap();
        let mut never = TreeLikelihood::with_scaling(&tree, &aln, model, 0).unwrap();
        let a = every.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        let b = never.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        assert!((a - b).abs() < 1e-3, "scaled {a} vs unscaled {b}");
    }

    #[test]
    fn longer_branches_lower_likelihood_for_identical_data() {
        // Identical sequences: any substitution lowers the likelihood, so
        // stretching branches must hurt.
        let aln = Alignment::from_strings(&[
            ("a", "ACGTACGT"),
            ("b", "ACGTACGT"),
            ("c", "ACGTACGT"),
            ("d", "ACGTACGT"),
        ])
        .unwrap()
        .compress();
        let short = Tree::from_newick("((a:0.01,b:0.01):0.01,c:0.01,d:0.01);").unwrap();
        let long = Tree::from_newick("((a:1.0,b:1.0):1.0,c:1.0,d:1.0);").unwrap();
        let model = SiteModel::gtr_gamma4(GtrParams::jc69(), 1.0).unwrap();
        let mut tls = TreeLikelihood::new(&short, &aln, model.clone()).unwrap();
        let mut tll = TreeLikelihood::new(&long, &aln, model).unwrap();
        let ls = tls.log_likelihood(&short, &mut ScalarBackend).unwrap();
        let ll = tll.log_likelihood(&long, &mut ScalarBackend).unwrap();
        assert!(ls > ll, "short {ls} should beat long {ll}");
    }

    #[test]
    fn unknown_taxon_rejected() {
        let (tree, _) = toy();
        let aln = Alignment::from_strings(&[
            ("a", "ACGT"),
            ("b", "ACGT"),
            ("c", "ACGT"),
            ("zzz", "ACGT"),
        ])
        .unwrap()
        .compress();
        let model = SiteModel::jc69();
        assert!(matches!(
            TreeLikelihood::new(&tree, &aln, model),
            Err(LikelihoodError::UnknownTaxon(_))
        ));
    }

    #[test]
    fn likelihood_invariant_under_pattern_weighting() {
        // Computing on the compressed alignment must equal computing on
        // the uncompressed one.
        let (tree, _) = toy();
        let aln = Alignment::from_strings(&[
            ("a", "AAACCC"),
            ("b", "AAACCC"),
            ("c", "AAACCG"),
            ("d", "AAACCC"),
        ])
        .unwrap();
        let compressed = aln.compress();
        assert!(compressed.n_patterns() < aln.n_sites());
        // Expand into an equivalent all-weight-1 pattern alignment.
        let expanded = compressed.decompress().compress();
        let model = SiteModel::gtr_gamma4(GtrParams::jc69(), 0.5).unwrap();
        let mut t1 = TreeLikelihood::new(&tree, &compressed, model.clone()).unwrap();
        let mut t2 = TreeLikelihood::new(&tree, &expanded, model).unwrap();
        let a = t1.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        let b = t2.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn pinvar_zero_matches_plain_gamma() {
        let (tree, aln) = toy();
        let base = SiteModel::gtr_gamma4(GtrParams::jc69(), 0.5).unwrap();
        let with_zero = base.clone().with_pinvar(0.0).unwrap();
        let mut t1 = TreeLikelihood::new(&tree, &aln, base).unwrap();
        let mut t2 = TreeLikelihood::new(&tree, &aln, with_zero).unwrap();
        let a = t1.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        let b = t2.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pinvar_helps_on_constant_heavy_data() {
        // Data with many constant columns: a +I class should fit better
        // than forcing all sites through the Γ rates.
        let aln = Alignment::from_strings(&[
            ("a", "AAAAAAAAAACCCCCCCCCCGGGGGGGGGGTA"),
            ("b", "AAAAAAAAAACCCCCCCCCCGGGGGGGGGGTC"),
            ("c", "AAAAAAAAAACCCCCCCCCCGGGGGGGGGGTA"),
            ("d", "AAAAAAAAAACCCCCCCCCCGGGGGGGGGGTA"),
        ])
        .unwrap()
        .compress();
        let tree = Tree::from_newick("((a:0.3,b:0.3):0.1,c:0.3,d:0.3);").unwrap();
        let base = SiteModel::gtr_gamma4(GtrParams::jc69(), 2.0).unwrap();
        let with_inv = base.clone().with_pinvar(0.6).unwrap();
        let mut t1 = TreeLikelihood::new(&tree, &aln, base).unwrap();
        let mut t2 = TreeLikelihood::new(&tree, &aln, with_inv).unwrap();
        let plain = t1.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        let inv = t2.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        assert!(inv > plain, "+I {inv} should beat plain {plain} here");
    }

    #[test]
    fn pinvar_kills_variable_only_patterns() {
        // A pattern incompatible with constancy keeps a finite
        // likelihood through the Γ term even at high pinvar.
        let aln = Alignment::from_strings(&[("a", "A"), ("b", "C"), ("c", "G")])
            .unwrap()
            .compress();
        let tree = Tree::from_newick("(a:0.2,b:0.2,c:0.2);").unwrap();
        let model = SiteModel::gtr_gamma4(GtrParams::jc69(), 1.0)
            .unwrap()
            .with_pinvar(0.9)
            .unwrap();
        let mut t = TreeLikelihood::new(&tree, &aln, model).unwrap();
        let lnl = t.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        assert!(lnl.is_finite());
        // The Γ term is down-weighted by (1-pinvar): lnL must be lower
        // than without +I.
        let plain_model = SiteModel::gtr_gamma4(GtrParams::jc69(), 1.0).unwrap();
        let mut t2 = TreeLikelihood::new(&tree, &aln, plain_model).unwrap();
        let plain = t2.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        assert!(lnl < plain);
        assert!((lnl - (plain + 0.1f64.ln())).abs() < 1e-6, "exact (1-pinvar) down-weighting");
    }

    #[test]
    fn ln_site_likelihood_edge_cases() {
        use super::ln_site_likelihood;
        // No +I: plain log.
        assert!((ln_site_likelihood(0.5, 1.0, 0.0, 0.25) - (0.5f64.ln() + 1.0)).abs() < 1e-12);
        assert_eq!(ln_site_likelihood(0.0, 0.0, 0.0, 0.25), f64::NEG_INFINITY);
        // Pure invariant fallback when the Γ term vanishes.
        let v = ln_site_likelihood(0.0, 0.0, 0.2, 0.25);
        assert!((v - (0.2f64 * 0.25).ln()).abs() < 1e-12);
        // Both zero: impossible site.
        assert_eq!(ln_site_likelihood(0.0, 0.0, 0.2, 0.0), f64::NEG_INFINITY);
        // Huge negative scaler must not overflow.
        let v = ln_site_likelihood(0.5, -5000.0, 0.2, 0.25);
        assert!((v - (0.2f64 * 0.25).ln()).abs() < 1e-9);
    }

    #[test]
    fn jc69_single_site_closed_form() {
        // Two taxa at distance t under JC69 (rooted anchor): for an
        // identical site, L = Σ_s π_s P_ss... Using a 3-leaf star with
        // two zero branches collapses to a simple check that likelihood
        // increases when data match short branches.
        let tree = Tree::from_newick("(a:0.0,b:0.0,c:0.1);").unwrap();
        let aln = Alignment::from_strings(&[("a", "A"), ("b", "A"), ("c", "A")])
            .unwrap()
            .compress();
        let model = SiteModel::jc69();
        let mut tl = TreeLikelihood::new(&tree, &aln, model).unwrap();
        let lnl = tl.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        // L = π_A * P_AA(0.1) = 0.25 * (1/4 + 3/4 e^{-4·0.1/3})
        let p_aa = 0.25 + 0.75 * (-4.0 * 0.1 / 3.0f64).exp();
        let expect = (0.25 * p_aa).ln();
        assert!((lnl - expect).abs() < 1e-5, "got {lnl}, want {expect}");
    }
}
