//! Sum-product expressions: nodes, well-formedness (C1–C5), and the
//! hash-consing [`Factory`] implementing the paper's deduplication and
//! factorization optimizations (Sec. 5.1).
//!
//! An [`Spe`] is a cheap handle (`Arc`) to an immutable node. The
//! [`Factory`] interns nodes by *shallow* structural hash — children are
//! compared by pointer, so detecting a duplicate subtree is O(1) instead of
//! a deep traversal, exactly the trick described in Sec. 5.1
//! ("comparing logical memory addresses of internal nodes in O(1) time,
//! instead of computing hash functions that require an expensive subtree
//! traversal").

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sppl_dists::Distribution;
use sppl_num::float::logsumexp;

use crate::digest::{self, Digester, Encoder, Fingerprint, ModelDigest};
use crate::error::SpplError;
use crate::event::Event;
use crate::sync_map::ShardedMap;
use crate::transform::Transform;
use crate::var::Var;

/// The environment of a leaf: derived variables defined as transforms of
/// the leaf variable (the paper's `σ : Var → Transform`, conditions C1–C2;
/// the implicit `x ↦ Id(x)` entry is not stored).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Env {
    entries: Vec<(Var, Transform)>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Adds a derived variable. Enforces C1/C2: the transform must mention
    /// only the leaf variable or earlier derived variables, and `var` must
    /// be fresh — both checked by the caller ([`Factory::leaf_env`]).
    pub fn with(mut self, var: Var, t: Transform) -> Env {
        self.entries.push((var, t));
        self
    }

    /// The derived variables in insertion order.
    pub fn entries(&self) -> &[(Var, Transform)] {
        &self.entries
    }

    /// Looks up the transform of a derived variable.
    pub fn get(&self, var: &Var) -> Option<&Transform> {
        self.entries.iter().find(|(v, _)| v == var).map(|(_, t)| t)
    }

    /// True when no derived variables exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A sum-product expression node (Lst. 9f).
#[derive(Debug)]
pub enum Node {
    /// A primitive distribution on one variable plus derived transforms.
    Leaf {
        /// The leaf's base variable.
        var: Var,
        /// The primitive distribution of the base variable.
        dist: Distribution,
        /// Derived variables (transforms of `var`).
        env: Env,
        /// Cached scope.
        scope: BTreeSet<Var>,
    },
    /// A probabilistic mixture; weights are natural-log probabilities that
    /// sum to one (log-sum-exp equals zero).
    Sum {
        /// Children with their log-weights.
        children: Vec<(Spe, f64)>,
        /// Cached scope (equal across children, C4).
        scope: BTreeSet<Var>,
    },
    /// A tuple of independent subexpressions with disjoint scopes (C3).
    Product {
        /// The independent factors.
        children: Vec<Spe>,
        /// Cached scope (disjoint union of child scopes).
        scope: BTreeSet<Var>,
    },
}

/// An interned node plus its lazily computed content digest. The digest
/// is cached *per physical node* so Merkle-style recomputation is paid
/// once per node for the lifetime of the DAG — sum construction sorts
/// children by digest, so this cache is what keeps building an `n`-node
/// model `O(n)` instead of `O(n²)`.
#[derive(Debug)]
struct SpeInner {
    node: Node,
    digest: OnceLock<ModelDigest>,
}

/// A handle to an immutable, interned sum-product expression.
#[derive(Debug, Clone)]
pub struct Spe(Arc<SpeInner>);

impl Spe {
    fn from_node(node: Node) -> Spe {
        Spe(Arc::new(SpeInner {
            node,
            digest: OnceLock::new(),
        }))
    }

    /// The underlying node.
    pub fn node(&self) -> &Node {
        &self.0.node
    }

    /// A stable identifier for the physical node (pointer identity).
    pub fn ptr_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// True when the two handles share the same physical node.
    pub fn same(&self, other: &Spe) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The expression's scope (set of variables it defines).
    pub fn scope(&self) -> &BTreeSet<Var> {
        match self.node() {
            Node::Leaf { scope, .. } | Node::Sum { scope, .. } | Node::Product { scope, .. } => {
                scope
            }
        }
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self.node(), Node::Leaf { .. })
    }

    /// Children handles (empty for leaves).
    pub fn children(&self) -> Vec<Spe> {
        match self.node() {
            Node::Leaf { .. } => vec![],
            Node::Sum { children, .. } => children.iter().map(|(c, _)| c.clone()).collect(),
            Node::Product { children, .. } => children.clone(),
        }
    }

    /// The deep, versioned content digest of the expression (see
    /// [`crate::digest`] for the hash and byte-level encoding): equal for
    /// any two expressions with identical content, regardless of which
    /// [`Factory`] built them, in which process, or under which build —
    /// the digest rides the explicit vendored hash, never `std`'s
    /// unstable one. Sum children are folded as `(child digest, weight)`
    /// pairs sorted by that pair and product children as sorted digests
    /// (Merkle-style), so node identity is order-insensitive.
    ///
    /// This is the "model digest" half of the
    /// [`SharedCache`](crate::cache::SharedCache) key, letting sessions
    /// over separately compiled copies of the same model — even in
    /// different processes, via snapshots — share one cache. Each
    /// physical node caches its digest, so repeated calls (and the
    /// factory's digest-ordered sum construction) cost one traversal per
    /// node ever.
    pub fn digest(&self) -> ModelDigest {
        *self.0.digest.get_or_init(|| {
            let mut d = Digester::new();
            d.u8(digest::TAG_NODE_STREAM);
            match self.node() {
                Node::Leaf { var, dist, env, .. } => {
                    d.u8(0);
                    digest::encode_leaf(&mut d, var, dist, env);
                }
                Node::Sum { children, .. } => {
                    d.u8(1);
                    // Pointer order is canonical only within one factory;
                    // fold by sorted (child digest, weight) for
                    // cross-factory stability.
                    let mut parts: Vec<(ModelDigest, u64)> = children
                        .iter()
                        .map(|(c, w)| (c.digest(), w.to_bits()))
                        .collect();
                    parts.sort_unstable();
                    d.len(parts.len());
                    for (cd, w) in parts {
                        d.u128(cd.as_u128());
                        d.u64(w);
                    }
                }
                Node::Product { children, .. } => {
                    d.u8(2);
                    // Factor order is already content-canonical (sorted by
                    // smallest scope variable, scopes disjoint), but sort
                    // digests anyway so the digest never depends on it.
                    let mut parts: Vec<ModelDigest> = children.iter().map(Spe::digest).collect();
                    parts.sort_unstable();
                    d.len(parts.len());
                    for cd in parts {
                        d.u128(cd.as_u128());
                    }
                }
            }
            ModelDigest::from_u128(d.finish())
        })
    }
}

impl fmt::Display for Spe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            Node::Leaf { var, dist, env, .. } => {
                write!(f, "Leaf({var}")?;
                match dist {
                    Distribution::Real(_) => write!(f, " ~ real")?,
                    Distribution::Int(_) => write!(f, " ~ int")?,
                    Distribution::Str(_) => write!(f, " ~ str")?,
                    Distribution::Atomic { loc } => write!(f, " ~ atom({loc})")?,
                }
                for (v, _) in env.entries() {
                    write!(f, ", {v}=f({var})")?;
                }
                write!(f, ")")
            }
            Node::Sum { children, .. } => {
                write!(f, "Sum(")?;
                for (i, (c, w)) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ⊕ ")?;
                    }
                    write!(f, "{:.3}·{}", w.exp(), c)?;
                }
                write!(f, ")")
            }
            Node::Product { children, .. } => {
                write!(f, "Product(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ⊗ ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Options controlling which Sec. 5.1 optimizations the factory applies.
#[derive(Debug, Clone, Copy)]
pub struct FactoryOptions {
    /// Intern structurally identical nodes into one physical node.
    pub dedup: bool,
    /// Hoist pointer-identical factors out of sums of products.
    pub factorize: bool,
    /// Cache `prob`/`condition` results keyed by (node, event).
    pub memoize: bool,
}

impl Default for FactoryOptions {
    fn default() -> Self {
        FactoryOptions {
            dedup: true,
            factorize: true,
            memoize: true,
        }
    }
}

/// Builds and interns SPE nodes; owns the memo tables used by the
/// inference algorithms.
///
/// The memo tables are keyed by physical node address, which is only
/// stable while the node is alive — so each cache entry *pins* its key
/// node (the stored `Spe` handle), making address reuse impossible.
///
/// The factory is `Send + Sync`: the intern table and both memo tables
/// are sharded `ShardedMap`s, and the statistics counters are atomics,
/// so one factory can serve interning and memoized inference from
/// many threads at once (clones of one [`Model`](crate::model::Model) and
/// server workers conditioning one model rely on this).
pub struct Factory {
    options: FactoryOptions,
    intern: ShardedMap<u64, Vec<Spe>>,
    pub(crate) prob_cache: ShardedMap<(usize, Fingerprint), (Spe, f64)>,
    #[allow(clippy::type_complexity)]
    pub(crate) cond_cache: ShardedMap<(usize, Fingerprint), (Spe, Result<Spe, SpplError>)>,
    pub(crate) prob_counters: CacheCounters,
    pub(crate) cond_counters: CacheCounters,
}

/// Hit/miss counters for one factory-level memo table (relaxed atomics —
/// the counts are monitoring data, not synchronization).
#[derive(Debug, Default)]
pub(crate) struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheCounters {
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, entries: usize) -> crate::engine::CacheStats {
        crate::engine::CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl fmt::Debug for Factory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Factory")
            .field("options", &self.options)
            .field("interned", &self.interned_count())
            .finish()
    }
}

impl Default for Factory {
    fn default() -> Self {
        Factory::new()
    }
}

impl Factory {
    /// A factory with all optimizations enabled.
    pub fn new() -> Factory {
        Factory::with_options(FactoryOptions::default())
    }

    /// A factory with explicit optimization settings (used by the Table 1
    /// ablation benchmarks).
    pub fn with_options(options: FactoryOptions) -> Factory {
        Factory {
            options,
            intern: ShardedMap::new(),
            prob_cache: ShardedMap::new(),
            cond_cache: ShardedMap::new(),
            prob_counters: CacheCounters::default(),
            cond_counters: CacheCounters::default(),
        }
    }

    /// The active options.
    pub fn options(&self) -> FactoryOptions {
        self.options
    }

    /// A leaf with no derived variables.
    pub fn leaf(&self, var: Var, dist: Distribution) -> Spe {
        self.leaf_env(var, dist, Env::new())
            .expect("empty environment is always well-formed")
    }

    /// A leaf with derived variables.
    ///
    /// # Errors
    ///
    /// Returns [`SpplError::IllFormed`] when an environment transform
    /// mentions a variable other than the leaf variable (C2), when a
    /// derived variable duplicates the leaf variable or an earlier entry
    /// (C1), or when a derived transform is attached to a nominal leaf.
    pub fn leaf_env(&self, var: Var, dist: Distribution, env: Env) -> Result<Spe, SpplError> {
        let mut seen: BTreeSet<Var> = BTreeSet::new();
        seen.insert(var.clone());
        for (v, t) in env.entries() {
            if !seen.insert(v.clone()) {
                return Err(SpplError::IllFormed {
                    message: format!("duplicate variable {v} in leaf environment (C1)"),
                });
            }
            let tvars = t.vars();
            if !tvars.iter().all(|tv| tv == &var) {
                return Err(SpplError::IllFormed {
                    message: format!("environment transform for {v} must mention only {var} (C2)"),
                });
            }
            if matches!(dist, Distribution::Str(_)) {
                return Err(SpplError::IllFormed {
                    message: format!("numeric transform {v} attached to nominal leaf {var}"),
                });
            }
        }
        let node = Node::Leaf {
            var,
            dist,
            env,
            scope: seen,
        };
        Ok(self.intern(node))
    }

    /// A probabilistic mixture from `(child, log_weight)` pairs. Weights
    /// are normalized; children with log-weight `-∞` are dropped;
    /// pointer-identical children are merged; a singleton mixture
    /// collapses to its child; common factors are hoisted when
    /// factorization is enabled.
    ///
    /// # Errors
    ///
    /// Returns [`SpplError::IllFormed`] when a log-weight is NaN, when no
    /// child has positive weight (C5), or when child scopes differ (C4).
    pub fn sum(&self, children: Vec<(Spe, f64)>) -> Result<Spe, SpplError> {
        let mut kept: Vec<(Spe, f64)> = Vec::with_capacity(children.len());
        for (c, lw) in children {
            if lw == f64::NEG_INFINITY {
                continue;
            }
            if lw.is_nan() {
                return Err(SpplError::IllFormed {
                    message: "sum weight must not be NaN".into(),
                });
            }
            // Merge pointer-identical children (deduplication).
            if let Some(existing) = kept.iter_mut().find(|(k, _)| k.same(&c)) {
                existing.1 = sppl_num::float::logaddexp(existing.1, lw);
            } else {
                kept.push((c, lw));
            }
        }
        if kept.is_empty() {
            return Err(SpplError::IllFormed {
                message: "sum requires at least one positive-weight child (C5)".into(),
            });
        }
        // Normalize.
        let z = logsumexp(&kept.iter().map(|(_, w)| *w).collect::<Vec<_>>());
        for (_, w) in &mut kept {
            *w -= z;
        }
        if kept.len() == 1 {
            return Ok(kept.pop().expect("len checked").0);
        }
        let scope = kept[0].0.scope().clone();
        for (c, _) in &kept[1..] {
            if c.scope() != &scope {
                return Err(SpplError::IllFormed {
                    message: format!(
                        "sum children must have identical scopes (C4): {:?} vs {:?}",
                        scope,
                        c.scope()
                    ),
                });
            }
        }
        if self.options.factorize {
            if let Some(factored) = self.try_factor_sum(&kept)? {
                return Ok(factored);
            }
        }
        // Canonical child order for interning *and* evaluation: sort by
        // (content digest, weight bits) — mixtures are order-insensitive
        // semantically, and a content-derived order makes log-sum-exp
        // evaluate in the same sequence in every factory and process, so
        // separately compiled copies of one model answer bit-identically.
        kept.sort_by_key(|(c, w)| (c.digest(), w.to_bits()));
        Ok(self.intern(Node::Sum {
            children: kept,
            scope,
        }))
    }

    /// Attempts to hoist factors shared (pointer-identical) by every
    /// product child: `(A⊗B₁)w₁ ⊕ (A⊗B₂)w₂ → A ⊗ (B₁w₁ ⊕ B₂w₂)`.
    fn try_factor_sum(&self, children: &[(Spe, f64)]) -> Result<Option<Spe>, SpplError> {
        let products: Option<Vec<&Vec<Spe>>> = children
            .iter()
            .map(|(c, _)| match c.node() {
                Node::Product { children, .. } => Some(children),
                _ => None,
            })
            .collect();
        let Some(products) = products else {
            return Ok(None);
        };
        let first = &products[0];
        let common: Vec<Spe> = first
            .iter()
            .filter(|f| products[1..].iter().all(|p| p.iter().any(|c| c.same(f))))
            .cloned()
            .collect();
        if common.is_empty() {
            return Ok(None);
        }
        let mut rests: Vec<(Vec<Spe>, f64)> = Vec::with_capacity(products.len());
        for (p, (_, w)) in products.iter().zip(children) {
            let rest: Vec<Spe> = p
                .iter()
                .filter(|c| !common.iter().any(|f| f.same(c)))
                .cloned()
                .collect();
            rests.push((rest, *w));
        }
        if rests.iter().all(|(r, _)| r.is_empty()) {
            // All children identical to the shared product; the mixture is
            // degenerate.
            return Ok(Some(self.product(common)?));
        }
        if rests.iter().any(|(r, _)| r.is_empty()) {
            // Scope mismatch would result; cannot factor.
            return Ok(None);
        }
        let inner: Result<Vec<(Spe, f64)>, SpplError> = rests
            .into_iter()
            .map(|(r, w)| Ok((self.product(r)?, w)))
            .collect();
        let mixed = self.sum_unfactored(inner?)?;
        Ok(Some(
            self.product(common.into_iter().chain([mixed]).collect())?,
        ))
    }

    /// `sum` without the factorization attempt (used internally to avoid
    /// re-entering `try_factor_sum` on its own output).
    fn sum_unfactored(&self, mut kept: Vec<(Spe, f64)>) -> Result<Spe, SpplError> {
        if kept.len() == 1 {
            return Ok(kept.pop().expect("len checked").0);
        }
        let scope = kept[0].0.scope().clone();
        kept.sort_by_key(|(c, w)| (c.digest(), w.to_bits()));
        Ok(self.intern(Node::Sum {
            children: kept,
            scope,
        }))
    }

    /// Re-interns a sum read back from the wire format
    /// ([`wire`](crate::wire)). The children arrive already normalized,
    /// merged, and factored — exactly the list a `Node::Sum` held when it
    /// was serialized — so this path must *not* re-run [`Factory::sum`]'s
    /// normalization: subtracting `logsumexp` of already-normalized
    /// weights is not bit-idempotent and would shift the rebuilt digest.
    /// It validates what corruption could break (finite weights, ≥ 2
    /// children, equal scopes — C4) and restores the canonical child
    /// order, which *is* idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`SpplError::IllFormed`] when the child list could not
    /// have come from a well-formed interned sum.
    pub(crate) fn sum_rebuild(&self, mut kept: Vec<(Spe, f64)>) -> Result<Spe, SpplError> {
        if kept.len() < 2 {
            return Err(SpplError::IllFormed {
                message: "serialized sum requires at least two children".into(),
            });
        }
        for (_, w) in &kept {
            if !w.is_finite() || *w > 0.0 {
                return Err(SpplError::IllFormed {
                    message: "serialized sum weights must be finite log-probabilities".into(),
                });
            }
        }
        let scope = kept[0].0.scope().clone();
        for (c, _) in &kept[1..] {
            if c.scope() != &scope {
                return Err(SpplError::IllFormed {
                    message: "serialized sum children must have identical scopes (C4)".into(),
                });
            }
        }
        kept.sort_by_key(|(c, w)| (c.digest(), w.to_bits()));
        Ok(self.intern(Node::Sum {
            children: kept,
            scope,
        }))
    }

    /// A product of independent factors. Nested products are flattened and
    /// a singleton product collapses to its child.
    ///
    /// # Errors
    ///
    /// Returns [`SpplError::IllFormed`] when the factor list is empty or
    /// scopes overlap (C3).
    pub fn product(&self, children: Vec<Spe>) -> Result<Spe, SpplError> {
        let mut flat: Vec<Spe> = Vec::with_capacity(children.len());
        for c in children {
            match c.node() {
                Node::Product {
                    children: inner, ..
                } => flat.extend(inner.iter().cloned()),
                _ => flat.push(c),
            }
        }
        if flat.is_empty() {
            return Err(SpplError::IllFormed {
                message: "product requires at least one factor".into(),
            });
        }
        if flat.len() == 1 {
            return Ok(flat.pop().expect("len checked"));
        }
        // Start from the largest factor's scope and insert the others'
        // variables, so a factor joining a big product costs its own size.
        let largest = (0..flat.len())
            .max_by_key(|&i| flat[i].scope().len())
            .expect("len checked");
        let mut scope = flat[largest].scope().clone();
        for (i, c) in flat.iter().enumerate() {
            if i == largest {
                continue;
            }
            for v in c.scope() {
                if !scope.insert(v.clone()) {
                    return Err(SpplError::IllFormed {
                        message: format!("product scopes must be disjoint (C3): {v}"),
                    });
                }
            }
        }
        // Canonical factor order: by smallest scope variable.
        flat.sort_by(|a, b| {
            let ka = a.scope().iter().next().cloned();
            let kb = b.scope().iter().next().cloned();
            ka.cmp(&kb)
        });
        Ok(self.intern(Node::Product {
            children: flat,
            scope,
        }))
    }

    /// Number of physically distinct nodes interned so far.
    pub fn interned_count(&self) -> usize {
        // Buckets hold hash-colliding nodes; count nodes, not buckets.
        self.intern.fold_values(0, |acc, bucket| acc + bucket.len())
    }

    /// Clears the node-level memoization caches and resets their hit/miss
    /// statistics (the intern table is kept). Sessions over this factory
    /// (see [`Model`](crate::model::Model)) keep their own answers.
    ///
    /// Safe to call while other threads are mid-query: memo values are
    /// pure functions of (node, event), so racing fills that land after
    /// the sweep are still correct — the clear is about memory and
    /// statistics, not semantics.
    pub fn clear_caches(&self) {
        self.prob_cache.clear();
        self.cond_cache.clear();
        self.prob_counters.reset();
        self.cond_counters.reset();
    }

    /// Hit/miss/entry statistics of the persistent node-level probability
    /// cache used by [`Factory::logprob`].
    pub fn prob_cache_stats(&self) -> crate::engine::CacheStats {
        self.prob_counters.snapshot(self.prob_cache.len())
    }

    /// Hit/miss/entry statistics of the persistent node-level conditioning
    /// cache used by [`condition`](crate::condition::condition).
    pub fn cond_cache_stats(&self) -> crate::engine::CacheStats {
        self.cond_counters.snapshot(self.cond_cache.len())
    }

    fn intern(&self, node: Node) -> Spe {
        if !self.options.dedup {
            return Spe::from_node(node);
        }
        let key = shallow_hash(&node);
        // Find-or-insert under the shard's exclusive lock, so two threads
        // interning equal nodes concurrently converge on one physical
        // node — the O(1) pointer-identity invariant survives races.
        self.intern.with_shard_mut(&key, |table| {
            let bucket = table.entry(key).or_default();
            for existing in bucket.iter() {
                if shallow_eq(existing.node(), &node) {
                    return existing.clone();
                }
            }
            let spe = Spe::from_node(node);
            bucket.push(spe.clone());
            spe
        })
    }
}

/// Shallow structural hash for the intern table: children by pointer,
/// payloads by their documented digest encoding. Pointer identities make
/// this a *per-process* hash (which is all interning needs) — the stable
/// cross-process identity is [`Spe::digest`].
fn shallow_hash(node: &Node) -> u64 {
    let mut d = Digester::new();
    match node {
        Node::Leaf { var, dist, env, .. } => {
            d.u8(0);
            digest::encode_leaf(&mut d, var, dist, env);
        }
        Node::Sum { children, .. } => {
            d.u8(1);
            d.len(children.len());
            for (c, w) in children {
                d.u64(c.ptr_id() as u64);
                d.f64(*w);
            }
        }
        Node::Product { children, .. } => {
            d.u8(2);
            d.len(children.len());
            for c in children {
                d.u64(c.ptr_id() as u64);
            }
        }
    }
    d.finish() as u64
}

/// Shallow structural equality matching [`shallow_hash`].
fn shallow_eq(a: &Node, b: &Node) -> bool {
    match (a, b) {
        (
            Node::Leaf {
                var: va,
                dist: da,
                env: ea,
                ..
            },
            Node::Leaf {
                var: vb,
                dist: db,
                env: eb,
                ..
            },
        ) => va == vb && da == db && ea == eb,
        (Node::Sum { children: ca, .. }, Node::Sum { children: cb, .. }) => {
            ca.len() == cb.len()
                && ca
                    .iter()
                    .zip(cb)
                    .all(|((x, wx), (y, wy))| x.same(y) && wx.to_bits() == wy.to_bits())
        }
        (Node::Product { children: ca, .. }, Node::Product { children: cb, .. }) => {
            ca.len() == cb.len() && ca.iter().zip(cb).all(|(x, y)| x.same(y))
        }
        _ => false,
    }
}

/// Helper used by inference: the outcome set of `event` along the leaf's
/// base variable, after substituting derived variables with their
/// transforms (`subsenv`, Lst. 13).
pub(crate) fn leaf_event_outcomes(var: &Var, env: &Env, event: &Event) -> sppl_sets::OutcomeSet {
    let mut e = event.clone();
    // Substitute in reverse insertion order so later derived variables
    // (which may reference earlier ones — they cannot, by C2, but keep the
    // paper's order anyway) resolve first.
    for (v, t) in env.entries().iter().rev() {
        e = e.substitute(v, t);
    }
    e.outcomes_for(var)
}

/// The scope check of every query, posterior and density: the first of
/// `vars` (callers pass them sorted) outside `scope` is an
/// [`SpplError::UnknownVariable`].
pub(crate) fn check_scope<'a>(
    scope: &BTreeSet<Var>,
    vars: impl IntoIterator<Item = &'a Var>,
) -> Result<(), SpplError> {
    match vars.into_iter().find(|v| !scope.contains(v)) {
        Some(v) => Err(SpplError::UnknownVariable {
            var: v.name().into(),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sppl_dists::{Cdf, DistReal, DistStr};
    use sppl_sets::Interval;

    fn normal_leaf(f: &Factory, name: &str) -> Spe {
        f.leaf(
            Var::new(name),
            Distribution::Real(
                DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).expect("positive mass"),
            ),
        )
    }

    #[test]
    fn dedup_interns_identical_leaves() {
        let f = Factory::new();
        let a = normal_leaf(&f, "X");
        let b = normal_leaf(&f, "X");
        assert!(a.same(&b));
        let c = normal_leaf(&f, "Y");
        assert!(!a.same(&c));
    }

    #[test]
    fn dedup_disabled_duplicates() {
        let f = Factory::with_options(FactoryOptions {
            dedup: false,
            factorize: false,
            memoize: false,
        });
        let a = normal_leaf(&f, "X");
        let b = normal_leaf(&f, "X");
        assert!(!a.same(&b));
    }

    #[test]
    fn sum_rejects_nan_weight() {
        // Regression: a NaN log-weight used to abort the process via
        // `assert!`; library callers must get a structured error instead.
        let f = Factory::new();
        let a = normal_leaf(&f, "X");
        let b = f.leaf(
            Var::new("X"),
            Distribution::Real(DistReal::new(Cdf::normal(5.0, 1.0), Interval::all()).unwrap()),
        );
        let err = f.sum(vec![(a, f64::NAN), (b, 0.5f64.ln())]).unwrap_err();
        assert!(matches!(err, SpplError::IllFormed { .. }), "{err:?}");
    }

    #[test]
    fn sum_normalizes_weights() {
        let f = Factory::new();
        let a = normal_leaf(&f, "X");
        let b = f.leaf(
            Var::new("X"),
            Distribution::Real(DistReal::new(Cdf::normal(5.0, 1.0), Interval::all()).unwrap()),
        );
        let s = f.sum(vec![(a, 2.0f64.ln()), (b, 6.0f64.ln())]).unwrap();
        match s.node() {
            Node::Sum { children, .. } => {
                let ws: Vec<f64> = children.iter().map(|(_, w)| w.exp()).collect();
                let total: f64 = ws.iter().sum();
                assert!((total - 1.0).abs() < 1e-12);
                assert!(ws.iter().any(|w| (w - 0.25).abs() < 1e-12));
            }
            other => panic!("expected sum, got {other:?}"),
        }
    }

    #[test]
    fn sum_merges_identical_children() {
        let f = Factory::new();
        let a = normal_leaf(&f, "X");
        let s = f
            .sum(vec![(a.clone(), 0.5f64.ln()), (a.clone(), 0.5f64.ln())])
            .unwrap();
        // Identical children merge, then singleton collapses.
        assert!(s.same(&a));
    }

    #[test]
    fn sum_rejects_scope_mismatch() {
        let f = Factory::new();
        let a = normal_leaf(&f, "X");
        let b = normal_leaf(&f, "Y");
        assert!(matches!(
            f.sum(vec![(a, 0.5f64.ln()), (b, 0.5f64.ln())]),
            Err(SpplError::IllFormed { .. })
        ));
    }

    #[test]
    fn sum_rejects_all_zero_weights() {
        let f = Factory::new();
        let a = normal_leaf(&f, "X");
        assert!(f.sum(vec![(a, f64::NEG_INFINITY)]).is_err());
    }

    #[test]
    fn product_rejects_overlapping_scopes() {
        let f = Factory::new();
        let a = normal_leaf(&f, "X");
        let b = normal_leaf(&f, "X");
        assert!(matches!(
            f.product(vec![a, b]),
            Err(SpplError::IllFormed { .. })
        ));
    }

    #[test]
    fn product_flattens_and_orders() {
        let f = Factory::new();
        let a = normal_leaf(&f, "A");
        let b = normal_leaf(&f, "B");
        let c = normal_leaf(&f, "C");
        let inner = f.product(vec![b.clone(), c.clone()]).unwrap();
        let p = f.product(vec![inner, a.clone()]).unwrap();
        match p.node() {
            Node::Product { children, .. } => {
                assert_eq!(children.len(), 3);
                assert!(children[0].same(&a));
            }
            other => panic!("expected product, got {other:?}"),
        }
        // Same factors in a different order intern to the same node.
        let p2 = f.product(vec![c, f.product(vec![a, b]).unwrap()]).unwrap();
        assert!(p.same(&p2));
    }

    #[test]
    fn factorization_hoists_common_factor() {
        let f = Factory::new();
        let shared = normal_leaf(&f, "S");
        let b1 = normal_leaf(&f, "B");
        let b2 = f.leaf(
            Var::new("B"),
            Distribution::Real(DistReal::new(Cdf::normal(9.0, 1.0), Interval::all()).unwrap()),
        );
        let p1 = f.product(vec![shared.clone(), b1]).unwrap();
        let p2 = f.product(vec![shared.clone(), b2]).unwrap();
        let s = f.sum(vec![(p1, 0.5f64.ln()), (p2, 0.5f64.ln())]).unwrap();
        // Expect Product(shared, Sum(B1, B2)).
        match s.node() {
            Node::Product { children, .. } => {
                assert_eq!(children.len(), 2);
                assert!(children.iter().any(|c| c.same(&shared)));
                assert!(children
                    .iter()
                    .any(|c| matches!(c.node(), Node::Sum { .. })));
            }
            other => panic!("expected factored product, got {other:?}"),
        }
    }

    #[test]
    fn factorization_disabled_keeps_sum() {
        let f = Factory::with_options(FactoryOptions {
            dedup: true,
            factorize: false,
            memoize: true,
        });
        let shared = normal_leaf(&f, "S");
        let b1 = normal_leaf(&f, "B");
        let b2 = f.leaf(
            Var::new("B"),
            Distribution::Real(DistReal::new(Cdf::normal(9.0, 1.0), Interval::all()).unwrap()),
        );
        let p1 = f.product(vec![shared.clone(), b1]).unwrap();
        let p2 = f.product(vec![shared, b2]).unwrap();
        let s = f.sum(vec![(p1, 0.5f64.ln()), (p2, 0.5f64.ln())]).unwrap();
        assert!(matches!(s.node(), Node::Sum { .. }));
    }

    #[test]
    fn leaf_env_enforces_c2() {
        let f = Factory::new();
        let x = Var::new("X");
        let ok = f.leaf_env(
            x.clone(),
            Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
            Env::new().with(Var::new("Z"), Transform::id(x.clone()).pow_int(2)),
        );
        assert!(ok.is_ok());
        assert!(ok.unwrap().scope().contains(&Var::new("Z")));
        let bad = f.leaf_env(
            x.clone(),
            Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
            Env::new().with(Var::new("Z"), Transform::id(Var::new("Other"))),
        );
        assert!(bad.is_err());
    }

    #[test]
    fn leaf_env_rejects_duplicates() {
        let f = Factory::new();
        let x = Var::new("X");
        let bad = f.leaf_env(
            x.clone(),
            Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
            Env::new().with(x.clone(), Transform::id(x.clone())),
        );
        assert!(bad.is_err());
    }

    #[test]
    fn string_leaf_rejects_env() {
        let f = Factory::new();
        let bad = f.leaf_env(
            Var::new("N"),
            Distribution::Str(DistStr::new([("a", 1.0)]).unwrap()),
            Env::new().with(Var::new("Z"), Transform::id(Var::new("N"))),
        );
        assert!(bad.is_err());
    }

    #[test]
    fn leaf_event_outcomes_substitutes_env() {
        let x = Var::new("X");
        let z = Var::new("Z");
        let env = Env::new().with(z.clone(), Transform::id(x.clone()).pow_int(2));
        // Z <= 4  ⇒  X ∈ [-2, 2]
        let e = Event::le(Transform::id(z), 4.0);
        let v = leaf_event_outcomes(&x, &env, &e);
        assert!(v.contains_real(-2.0) && v.contains_real(2.0) && !v.contains_real(3.0));
    }
}
