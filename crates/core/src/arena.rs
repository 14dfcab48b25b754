//! The arena-compiled batch evaluator: a flat, cache-friendly compile
//! target for the exact-inference hot path.
//!
//! [`Spe`] evaluation ([`prob`](crate::prob)) walks a pointer-linked DAG
//! and pays per node, per event: an event fingerprint, a memo-table
//! probe behind a sharded lock, and pointer-chasing dispatch. For wide
//! batches over one fixed model those costs dominate the arithmetic.
//! [`ArenaModel`] removes them by *compiling* the model once:
//!
//! * nodes live in one `Vec` in **topological order** (children strictly
//!   before parents, root last), so a batch evaluates in a single
//!   forward pass with no recursion and no memo table;
//! * children are **contiguous index ranges** into flat edge arrays
//!   (`Vec`-indexed, weights alongside for mixtures), preserving the
//!   digest-canonical child order so accumulation is deterministic and
//!   bit-identical to the tree walker;
//! * a batch is evaluated in **struct-of-arrays layout**: one
//!   `node × lane` value matrix per chunk, filled leaf rows first,
//!   then internal nodes in topo order with a vectorizable log-sum-exp
//!   at every mixture.
//!
//! The arena is crate-private: it is the evaluator behind every
//! [`Model`](crate::Model) query. A session builds its own arena
//! ([`ArenaModel::build`]) on the first query its result store cannot
//! answer, and sends every miss of a call through one
//! [`ArenaModel::logprob_many`] pass.
//!
//! # Bit parity
//!
//! Every answer equals the tree walker's bit for bit (`to_bits`
//! equality), including errors. The node rules are shared with
//! [`prob`](crate::prob), not mirrored: each leaf holds its
//! [`Distribution`] and measures through the one leaf kernel,
//! [`Distribution::log_measure`]; events meet the same scope check
//! ([`check_scope`]) before the same solved-DNF clause decomposition;
//! derived-variable leaves take their literals from the same product
//! router ([`Clause::event_in`]). Mixtures fold their children in the
//! stored order with the exact [`logsumexp`] reduction.
//! `tests/arena_parity.rs` proves this differentially against random
//! models and the paper's golden values.
//!
//! # Example
//!
//! ```
//! use sppl_core::prelude::*;
//!
//! let f = Factory::new();
//! let x = f.leaf(
//!     Var::new("X"),
//!     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
//! );
//! let model = Model::new(f, x);
//! let batch = vec![var("X").le(0.0), var("X").gt(1.0)];
//! // One arena pass answers both misses, bit-identically to the tree walker.
//! let fast = model.logprob_many(&batch).unwrap();
//! for (e, lp) in batch.iter().zip(&fast) {
//!     assert_eq!(lp.to_bits(), model.root().logprob(&e.canonical()).unwrap().to_bits());
//! }
//! ```

use std::collections::{BTreeSet, HashMap};

use sppl_dists::Distribution;
use sppl_num::float::logsumexp;
use sppl_sets::OutcomeSet;

use crate::disjoin::{solve_and_disjoin, Clause};
use crate::error::SpplError;
use crate::event::Event;
use crate::spe::{check_scope, leaf_event_outcomes, Env, Node, Spe};
use crate::var::Var;

/// Lane budget per evaluation chunk: events are grouped until their
/// solved clauses fill about this many lanes, bounding the scratch
/// matrices to `nodes × LANE_BUDGET` while still amortizing the
/// per-chunk setup. An event always keeps all of its lanes in one chunk.
const LANE_BUDGET: usize = 64;

/// A flat arena node; children index lower-numbered nodes only.
#[derive(Debug, Clone, Copy)]
enum ANode {
    /// Index into [`ArenaModel::leaves`].
    Leaf(u32),
    /// Range into [`ArenaModel::sum_edges`] (digest-canonical order).
    Sum { lo: u32, hi: u32 },
    /// Range into [`ArenaModel::prod_edges`] (canonical scope order).
    Product { lo: u32, hi: u32 },
}

/// Per-leaf compile output: the leaf's own parts, plus its place in the
/// arena.
#[derive(Debug, Clone)]
struct LeafSpec {
    /// The arena node this leaf occupies.
    node: u32,
    /// The base variable.
    var: Var,
    /// Arena id of the base variable.
    var_id: u32,
    /// The base variable's distribution.
    dist: Distribution,
    /// Derived-variable transforms (usually empty).
    env: Env,
    /// The leaf's full scope (base + derived).
    scope: BTreeSet<Var>,
}

/// A prepared event: scope-checked and (when the model contains
/// products) solved into disjoint clauses, one lane each.
struct Prep<'e> {
    event: &'e Event,
    clauses: Vec<Clause>,
}

/// Reusable per-batch scratch: the `node × lane` value/touched matrices
/// and the log-sum-exp term buffers.
#[derive(Default)]
struct Scratch {
    vals: Vec<f64>,
    touched: Vec<bool>,
    terms: Vec<f64>,
    full: Vec<f64>,
}

/// A model compiled into a flat, topologically-ordered arena for
/// batched exact inference (see the [module docs](self)). Immutable and
/// `Send + Sync`, so clones of one session query it from many threads.
#[derive(Debug)]
pub(crate) struct ArenaModel {
    scope: BTreeSet<Var>,
    /// Scope variables in sorted order; index = arena variable id.
    vars: Vec<Var>,
    /// Topologically ordered (children first, root last).
    nodes: Vec<ANode>,
    /// `(child index, log-weight)` edges of every mixture, concatenated.
    sum_edges: Vec<(u32, f64)>,
    /// Child-index edges of every product, concatenated.
    prod_edges: Vec<u32>,
    leaves: Vec<LeafSpec>,
    /// Nodes reachable from the root through `Sum` edges only, in topo
    /// order. These see the *full* event; everything below a product
    /// sees routed clause lanes instead.
    spine: Vec<u32>,
    /// Whether the spine contains a product (iff the model contains any
    /// product), i.e. whether events must be solved into clauses.
    spine_has_product: bool,
}

impl ArenaModel {
    /// Exact log-probability of every event, one struct-of-arrays pass
    /// over the arena per chunk of events. The events must already be
    /// [canonical](Event::canonical) (the session route canonicalizes
    /// once, for its memo key); answers then equal [`Spe::logprob`] on
    /// each event bit for bit.
    ///
    /// # Errors
    ///
    /// The first failing event's error, as the tree walker reports it:
    /// [`SpplError::UnknownVariable`] for events over variables outside
    /// the scope, [`SpplError::MultivariateTransform`] for literals
    /// violating restriction R3.
    pub(crate) fn logprob_many(&self, events: &[Event]) -> Result<Vec<f64>, SpplError> {
        let mut out = Vec::with_capacity(events.len());
        let mut scratch = Scratch::default();
        let mut at = 0;
        while at < events.len() {
            let mut preps = Vec::new();
            let mut lane_count = 0;
            while at < events.len() && (preps.is_empty() || lane_count < LANE_BUDGET) {
                let prep = self.prepare(&events[at])?;
                lane_count += prep.clauses.len();
                preps.push(prep);
                at += 1;
            }
            self.eval_chunk(&preps, &mut scratch, &mut out);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Compilation
    // ------------------------------------------------------------------

    /// Compiles `root` into an arena: one iterative post-order walk of
    /// the DAG, linear in its physical node count.
    pub(crate) fn build(root: &Spe) -> ArenaModel {
        let scope = root.scope().clone();
        let vars: Vec<Var> = scope.iter().cloned().collect();

        let mut arena = ArenaModel {
            scope,
            vars,
            nodes: Vec::new(),
            sum_edges: Vec::new(),
            prod_edges: Vec::new(),
            leaves: Vec::new(),
            spine: Vec::new(),
            spine_has_product: false,
        };

        // Iterative post-order over the DAG (explicit stack: models can
        // be deep), memoized by node address so shared subexpressions
        // compile once. Children therefore always index lower slots.
        enum Visit {
            Enter(Spe),
            Exit(Spe),
        }
        let mut index: HashMap<usize, u32> = HashMap::new();
        let mut stack = vec![Visit::Enter(root.clone())];
        while let Some(visit) = stack.pop() {
            match visit {
                Visit::Enter(spe) => {
                    if index.contains_key(&spe.ptr_id()) {
                        continue;
                    }
                    stack.push(Visit::Exit(spe.clone()));
                    for child in spe.children() {
                        stack.push(Visit::Enter(child));
                    }
                }
                Visit::Exit(spe) => {
                    if index.contains_key(&spe.ptr_id()) {
                        continue; // A diamond can queue two exits.
                    }
                    let slot = arena.nodes.len() as u32;
                    let node = match spe.node() {
                        Node::Leaf {
                            var,
                            dist,
                            env,
                            scope,
                        } => {
                            arena.leaves.push(LeafSpec {
                                node: slot,
                                var: var.clone(),
                                var_id: arena.var_id(var),
                                dist: dist.clone(),
                                env: env.clone(),
                                scope: scope.clone(),
                            });
                            ANode::Leaf(arena.leaves.len() as u32 - 1)
                        }
                        Node::Sum { children, .. } => {
                            let lo = arena.sum_edges.len() as u32;
                            for (child, lw) in children {
                                arena.sum_edges.push((index[&child.ptr_id()], *lw));
                            }
                            ANode::Sum {
                                lo,
                                hi: arena.sum_edges.len() as u32,
                            }
                        }
                        Node::Product { children, .. } => {
                            let lo = arena.prod_edges.len() as u32;
                            for child in children {
                                arena.prod_edges.push(index[&child.ptr_id()]);
                            }
                            ANode::Product {
                                lo,
                                hi: arena.prod_edges.len() as u32,
                            }
                        }
                    };
                    arena.nodes.push(node);
                    index.insert(spe.ptr_id(), slot);
                }
            }
        }

        // The spine: nodes the *full* event reaches (through mixtures
        // only). Ascending index order is topological order.
        let root_ix = (arena.nodes.len() - 1) as u32;
        let mut on_spine = vec![false; arena.nodes.len()];
        let mut frontier = vec![root_ix];
        while let Some(n) = frontier.pop() {
            if std::mem::replace(&mut on_spine[n as usize], true) {
                continue;
            }
            if let ANode::Sum { lo, hi } = arena.nodes[n as usize] {
                for &(child, _) in &arena.sum_edges[lo as usize..hi as usize] {
                    frontier.push(child);
                }
            }
        }
        arena.spine = (0..arena.nodes.len() as u32)
            .filter(|&n| on_spine[n as usize])
            .collect();
        arena.spine_has_product = arena
            .spine
            .iter()
            .any(|&n| matches!(arena.nodes[n as usize], ANode::Product { .. }));
        arena
    }

    /// The arena id of a scope variable.
    fn var_id(&self, var: &Var) -> u32 {
        self.vars.binary_search(var).expect("in scope") as u32
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Scope-checks one canonical event; solves it into clause lanes when
    /// the model contains products. Keeps the tree walker's error order:
    /// the scope check (made by every leaf and product on the spine, all
    /// of which share the root's scope by C4) wins over the clause
    /// solver's multivariate-literal check.
    fn prepare<'e>(&self, event: &'e Event) -> Result<Prep<'e>, SpplError> {
        check_scope(&self.scope, &event.vars())?;
        let clauses = if self.spine_has_product {
            solve_and_disjoin(event)?
        } else {
            Vec::new()
        };
        Ok(Prep { event, clauses })
    }

    /// Evaluates one chunk: phase 1 fills the leaf rows of the
    /// `node × lane` matrix through the leaf kernel, phase 2 fills
    /// internal rows in topo order, phase 3 walks the spine once per
    /// event with its full event and clause-lane range, pushing the
    /// root's value.
    fn eval_chunk(&self, preps: &[Prep], scratch: &mut Scratch, out: &mut Vec<f64>) {
        let clauses: Vec<&Clause> = preps.iter().flat_map(|p| &p.clauses).collect();
        let lc = clauses.len();

        if lc > 0 {
            let cells = self.nodes.len() * lc;
            scratch.vals.clear();
            scratch.vals.resize(cells, 0.0);
            scratch.touched.clear();
            scratch.touched.resize(cells, false);

            // Phase 1: every leaf row. Each lane's constraints keyed by
            // arena variable id, sorted (ids follow `Var` order, as the
            // clause's own map does). Looking each leaf's `Var` up in the
            // clause's map instead made the Fig. 3 n = 100 posterior's
            // 199-event cold batch 19% slower (2.69 vs 2.26 ms, median of
            // 8 per-run minima, 2-vCPU box).
            let lanes: Vec<Vec<(u32, &OutcomeSet)>> = clauses
                .iter()
                .map(|c| {
                    let constraints = c.constraints().iter();
                    constraints.map(|(v, set)| (self.var_id(v), set)).collect()
                })
                .collect();
            for leaf in &self.leaves {
                self.leaf_pass(leaf, &clauses, &lanes, scratch);
            }

            // Phase 2: internal nodes, children already filled.
            for (n, node) in self.nodes.iter().enumerate() {
                let row = n * lc;
                match *node {
                    ANode::Leaf(_) => {}
                    ANode::Sum { lo, hi } => {
                        let edges = &self.sum_edges[lo as usize..hi as usize];
                        let first = edges[0].0 as usize * lc;
                        for lane in 0..lc {
                            // C4: mixture children share one scope, so
                            // one child's touch flag decides for all.
                            if !scratch.touched[first + lane] {
                                continue;
                            }
                            scratch.terms.clear();
                            for &(child, lw) in edges {
                                scratch
                                    .terms
                                    .push(lw + scratch.vals[child as usize * lc + lane]);
                            }
                            scratch.vals[row + lane] = logsumexp(&scratch.terms);
                            scratch.touched[row + lane] = true;
                        }
                    }
                    ANode::Product { lo, hi } => {
                        let edges = &self.prod_edges[lo as usize..hi as usize];
                        for lane in 0..lc {
                            let mut total = 0.0;
                            let mut any = false;
                            for &child in edges {
                                let cell = child as usize * lc + lane;
                                if scratch.touched[cell] {
                                    any = true;
                                    total += scratch.vals[cell];
                                    if total == f64::NEG_INFINITY {
                                        break;
                                    }
                                }
                            }
                            if any {
                                scratch.vals[row + lane] = total;
                                scratch.touched[row + lane] = true;
                            }
                        }
                    }
                }
            }
        }

        // Phase 3: per event, fold the spine with the full event and the
        // event's clause-lane range.
        scratch.full.clear();
        scratch.full.resize(self.nodes.len(), 0.0);
        let mut lane_at = 0;
        for prep in preps {
            let lane_range = lane_at..lane_at + prep.clauses.len();
            lane_at = lane_range.end;
            for &n in &self.spine {
                let value = match self.nodes[n as usize] {
                    ANode::Leaf(li) => {
                        let leaf = &self.leaves[li as usize];
                        let outcomes = leaf_event_outcomes(&leaf.var, &leaf.env, prep.event);
                        leaf.dist.log_measure(&outcomes)
                    }
                    ANode::Sum { lo, hi } => {
                        scratch.terms.clear();
                        for &(child, lw) in &self.sum_edges[lo as usize..hi as usize] {
                            scratch.terms.push(lw + scratch.full[child as usize]);
                        }
                        logsumexp(&scratch.terms)
                    }
                    ANode::Product { lo, hi } => {
                        let edges = &self.prod_edges[lo as usize..hi as usize];
                        scratch.terms.clear();
                        for lane in lane_range.clone() {
                            let mut total = 0.0;
                            for &child in edges {
                                let cell = child as usize * lc + lane;
                                if scratch.touched[cell] {
                                    total += scratch.vals[cell];
                                    if total == f64::NEG_INFINITY {
                                        break;
                                    }
                                }
                            }
                            scratch.terms.push(total);
                        }
                        logsumexp(&scratch.terms)
                    }
                };
                scratch.full[n as usize] = value;
            }
            out.push(scratch.full[self.nodes.len() - 1]);
        }
    }

    /// Phase-1 kernel for one leaf: fills its matrix row over all lanes.
    /// A lane touches the leaf iff the clause constrains a variable in
    /// the leaf's scope, exactly the tree walker's routing. The common
    /// no-`env` case measures the clause's constraint set directly
    /// (`Id` preimages are identity, so this is the routed literal's
    /// outcome set, bit for bit); derived-variable leaves take the routed
    /// conjunction from the product router and substitute through the
    /// `env` like the tree walker does.
    fn leaf_pass(
        &self,
        leaf: &LeafSpec,
        clauses: &[&Clause],
        lanes: &[Vec<(u32, &OutcomeSet)>],
        scratch: &mut Scratch,
    ) {
        let row = leaf.node as usize * clauses.len();
        let mut fill = |lane: usize, value: f64| {
            scratch.vals[row + lane] = value;
            scratch.touched[row + lane] = true;
        };
        if leaf.env.is_empty() {
            for (lane, ids) in lanes.iter().enumerate() {
                if let Ok(at) = ids.binary_search_by_key(&leaf.var_id, |&(id, _)| id) {
                    fill(lane, leaf.dist.log_measure(ids[at].1));
                }
            }
        } else {
            for (lane, clause) in clauses.iter().enumerate() {
                if let Some(routed) = clause.event_in(&leaf.scope) {
                    let outcomes = leaf_event_outcomes(&leaf.var, &leaf.env, &routed);
                    fill(lane, leaf.dist.log_measure(&outcomes));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::var;
    use crate::spe::Factory;
    use sppl_dists::{Cdf, DistReal, DistStr};
    use sppl_sets::Interval;

    fn normal_leaf(f: &Factory, name: &str, mean: f64) -> Spe {
        f.leaf(
            Var::new(name),
            Distribution::Real(DistReal::new(Cdf::normal(mean, 1.0), Interval::all()).unwrap()),
        )
    }

    fn mixed_product(f: &Factory) -> Spe {
        let x = f
            .sum(vec![
                (normal_leaf(f, "X", 0.0), 0.3f64.ln()),
                (normal_leaf(f, "X", 5.0), 0.7f64.ln()),
            ])
            .unwrap();
        let label = f.leaf(
            Var::new("L"),
            Distribution::Str(DistStr::new([("a", 0.25), ("b", 0.75)]).unwrap()),
        );
        let atom = f.leaf(Var::new("A"), Distribution::Atomic { loc: 2.0 });
        f.product(vec![x, label, atom]).unwrap()
    }

    #[test]
    fn send_sync_and_registry_identity() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArenaModel>();
    }

    #[test]
    fn matches_tree_walker_on_product_batch() {
        // The arena takes canonical events, exactly what the session
        // route hands it; the tree walker on the same events is the
        // reference.
        let f = Factory::new();
        let m = mixed_product(&f);
        let arena = ArenaModel::build(&m);
        let batch: Vec<Event> = [
            var("X").le(1.0),
            var("X").le(1.0) & var("L").eq("a"),
            (var("X").gt(4.0) & var("A").eq(2.0)) | var("L").eq("b"),
            var("X").le(-50.0) & var("L").eq("a"),
            var("X").le(1.0) | var("X").gt(0.0),
        ]
        .iter()
        .map(Event::canonical)
        .collect();
        let fast = arena.logprob_many(&batch).unwrap();
        for (event, fast) in batch.iter().zip(&fast) {
            let slow = m.logprob(event).unwrap();
            assert_eq!(fast.to_bits(), slow.to_bits(), "{event:?}");
        }
    }

    #[test]
    fn error_parity_with_tree_walker() {
        let f = Factory::new();
        let m = mixed_product(&f);
        let arena = ArenaModel::build(&m);
        let unknown = (var("Nope").le(0.0) & var("X").le(1.0)).canonical();
        let tree = m.logprob(&unknown).unwrap_err();
        let fast = arena
            .logprob_many(&[var("X").le(0.0), unknown])
            .unwrap_err();
        assert_eq!(format!("{tree}"), format!("{fast}"));
        assert!(matches!(fast, SpplError::UnknownVariable { .. }));
    }
}
