//! Semi-naive forward-chaining rule engine with RDFS/OWL-lite axiom rules.
//!
//! This is the reproduction's stand-in for Jena's inference support: rules
//! run to a fixpoint over the [`Graph`], deriving new ground triples.
//! Head-only variables are skolemized per distinct firing (Jena
//! `makeSkolem` semantics), which is what the paper's Rule3 relies on to
//! mint its `move` action individuals.
//!
//! # Evaluation strategy
//!
//! The engine is **delta-driven (semi-naive)**: each fixpoint round only
//! considers derivations that use at least one triple produced in the
//! previous round. A predicate → rule-occurrence index maps every delta
//! triple to the body patterns it can match; the triple is unified into
//! that pattern and the *rest* of the body is solved against the full
//! store (Δ ⋈ rest-of-body). Rules untouched by the delta are never
//! re-evaluated, so a round's cost is proportional to what actually
//! changed instead of to the whole rule set times the whole store.
//!
//! Delta rows are **batched per rule occurrence**: each round groups the
//! delta by predicate and visits every `(rule, premise)` occurrence once
//! with all of its rows, so join planning, binding buffers and premise
//! splitting are paid per occurrence instead of per row. Two-premise
//! rules without builtins or skolems (the entire RDFS core plus the
//! paper's Rule1) run a specialized single-join kernel over the store's
//! sorted posting lists; when the rule additionally has one free variable
//! and one conclusion, novelty is decided by a **sorted-merge set
//! difference** between the candidate posting list and the conclusion's
//! posting list — no hashing at all for the (dominant) already-derived
//! case. Everything else falls back to the general greedy planner.
//!
//! Body solving is shared with [`crate::query::Query::solve`] and uses a
//! greedy join plan: at every step the engine picks the remaining pattern
//! with the fewest matching triples under the current bindings (an exact
//! O(1) count from the store's per-position cardinality stats), and
//! evaluates builtin guards the moment their arguments are bound.
//! Candidate probes run through the store's callback path
//! ([`Store::match_pattern_in_place`]) without allocating per match.
//!
//! Skolem IRIs are derived from the rule name and the bound-variable
//! signature (not from a mint counter), so the closure is bit-identical
//! regardless of evaluation order — the naive reference evaluator
//! ([`Reasoner::materialize_naive`], kept for differential testing and
//! benchmarks) produces exactly the same triples.
//!
//! # Retraction
//!
//! Deletion is first-class: [`Reasoner::retract`] /
//! [`Reasoner::retract_batch`] incrementally maintain the closure when
//! facts disappear, using **DRed** (delete–rederive): conservatively
//! overdelete every stored fact with a derivation through a deleted fact
//! (joining against the pre-deletion store), then rederive the survivors
//! that still have an independent proof. DRed is sound for recursive
//! rules — unlike pure counting, which miscounts cyclic support (a
//! symmetric-property pair derives itself in two steps) — see DESIGN.md
//! §12 for the trade-off. A derivation-count table keyed by derived
//! triple rides along for introspection ([`Reasoner::derivation_count`])
//! and doubles as the single-hash novelty check of the forward pass;
//! facts whose predicate appears in no rule body or head skip DRed
//! entirely (the registry's address/capability churn).

use crate::fx::{FxHashMap, FxHashSet};

use crate::graph::Graph;
use crate::rule::{BuiltinAtom, Rule, RuleAtom};
use crate::store::Store;
use crate::term::{Interner, Term};
use crate::triple::{PatternTerm, Triple, TriplePattern, VarId};
use crate::vocab::{owl, rdf, rdfs};

/// Hard cap on fixpoint rounds; prevents pathological rule sets from
/// spinning forever.
const MAX_ROUNDS: usize = 10_000;

/// Where each body pattern of each rule can be seeded from: predicate term
/// → list of `(rule index, premise index)` whose pattern has that ground
/// predicate, plus a bucket for variable-predicate patterns that any delta
/// triple can feed.
#[derive(Debug, Clone, Default)]
struct OccurrenceIndex {
    by_predicate: FxHashMap<Term, Vec<(usize, usize)>>,
    any_predicate: Vec<(usize, usize)>,
    /// Rules with no body patterns at all (builtin-only or empty bodies);
    /// they are input-independent and fire once per run.
    pattern_free: Vec<usize>,
    /// Precomputed [`Rule::skolem_vars`] per rule.
    skolem_vars: Vec<Vec<VarId>>,
    /// Ground predicates appearing in some rule head. A fact whose
    /// predicate is absent here (and that matches no body occurrence) can
    /// neither be derived nor feed a derivation, so retracting it needs
    /// no DRed pass at all.
    conclusion_predicates: FxHashSet<Term>,
    /// Whether any rule head has a variable in predicate position, which
    /// defeats the [`OccurrenceIndex::conclusion_predicates`] filter.
    any_conclusion_predicate: bool,
}

fn build_occurrences(rules: &[Rule]) -> OccurrenceIndex {
    let mut occ = OccurrenceIndex::default();
    for (ri, rule) in rules.iter().enumerate() {
        let mut has_pattern = false;
        for (ai, atom) in rule.premises.iter().enumerate() {
            if let RuleAtom::Pattern(p) = atom {
                has_pattern = true;
                match p.p {
                    PatternTerm::Ground(pred) => {
                        occ.by_predicate.entry(pred).or_default().push((ri, ai));
                    }
                    PatternTerm::Var(_) => occ.any_predicate.push((ri, ai)),
                }
            }
        }
        if !has_pattern {
            occ.pattern_free.push(ri);
        }
        for conclusion in &rule.conclusions {
            match conclusion.p {
                PatternTerm::Ground(pred) => {
                    occ.conclusion_predicates.insert(pred);
                }
                PatternTerm::Var(_) => occ.any_conclusion_predicate = true,
            }
        }
        occ.skolem_vars.push(rule.skolem_vars());
    }
    occ
}

/// Profiling counters from the most recent semi-naive fixpoint run.
///
/// Collected by [`Reasoner::materialize`] / (see also
/// [`Reasoner::materialize_incremental`]) and read back through
/// [`Reasoner::last_stats`]; telemetry spans attach these to AA decision
/// spans so reasoning cost is visible per decision.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReasonerStats {
    /// Fixpoint rounds executed, including the final round that derived
    /// nothing and closed the fixpoint.
    pub rounds: usize,
    /// Delta size consumed at the start of each round, in round order.
    pub delta_sizes: Vec<usize>,
    /// Distinct rules evaluated, summed over rounds (a rule touched by
    /// the round's delta counts once per round).
    pub rules_evaluated: usize,
    /// Distinct rules the occurrence index proved untouched by the
    /// round's delta, summed over rounds — work the semi-naive engine
    /// skipped relative to naive evaluation.
    pub rules_skipped: usize,
    /// Δ-seeded body joins attempted across all rounds (one per
    /// delta-triple/premise-occurrence hit).
    pub seed_evaluations: usize,
    /// New triples derived over the whole run.
    pub facts_derived: usize,
}

impl ReasonerStats {
    /// Largest single-round delta, or zero for an empty run.
    pub fn max_delta(&self) -> usize {
        self.delta_sizes.iter().copied().max().unwrap_or(0)
    }
}

/// Profiling counters from the most recent [`Reasoner::retract_batch`]
/// run, read back through [`Reasoner::last_retract_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetractStats {
    /// Facts the caller asked to retract.
    pub requested: usize,
    /// Requested facts that were present and lost their base (asserted)
    /// status.
    pub retracted_base: usize,
    /// Requested facts removed without a DRed pass because their
    /// predicate appears in no rule body or head.
    pub fast_exits: usize,
    /// Derived facts conservatively deleted by the overdelete phase.
    pub overdeleted: usize,
    /// Overdeleted or retracted facts restored because an independent
    /// derivation survives.
    pub rederived: usize,
    /// Overdelete propagation waves.
    pub waves: usize,
    /// Net triples removed from the store.
    pub removed: usize,
}

/// A forward-chaining reasoner over a set of [`Rule`]s.
///
/// # Examples
///
/// Run the paper's transitive `locatedIn` rule:
///
/// ```
/// use mdagent_ontology::{Graph, Reasoner, parser::parse_rules};
///
/// let mut g = Graph::new();
/// g.add("imcl:prn", "imcl:locatedIn", "imcl:Office821");
/// g.add("imcl:Office821", "imcl:locatedIn", "imcl:Building8");
/// let rules = parse_rules(
///     "[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]",
///     &mut g,
/// )?;
/// let mut reasoner = Reasoner::new();
/// reasoner.add_rules(rules);
/// let derived = reasoner.materialize(&mut g);
/// assert_eq!(derived, 1);
/// assert!(g.contains("imcl:prn", "imcl:locatedIn", "imcl:Building8"));
/// # Ok::<(), mdagent_ontology::parser::ParseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Reasoner {
    rules: Vec<Rule>,
    /// Memo of skolem terms per (rule index, bound-variable signature).
    /// Purely a cache: names are content-derived, so a cold memo re-mints
    /// the identical IRIs.
    skolems: SkolemMemo,
    /// Lazily (re)built when the rule set changes.
    occurrences: Option<OccurrenceIndex>,
    /// Counters from the most recent semi-naive run.
    last_stats: ReasonerStats,
    /// Known-derivation markers per derived triple: `counts[t] >= 1`
    /// means at least one firing concluding `t` has been discovered.
    /// The value is a discovery count, *not* an exact support
    /// multiplicity: semi-naive evaluation may discover one firing
    /// through several delta premises, and the merge-join fast path
    /// skips discoveries whose conclusion is already stored. Retraction
    /// therefore never trusts the number — it reruns the rules (DRed).
    counts: FxHashMap<Triple, u32>,
    /// Facts this reasoner saw as *inputs* (seeds of [`Reasoner::materialize`]
    /// or deltas of [`Reasoner::materialize_incremental`]) rather than
    /// deriving them. Base facts survive overdeletion — only an explicit
    /// [`Reasoner::retract`] removes their asserted status.
    base: FxHashSet<Triple>,
    /// Counters from the most recent retraction.
    last_retract: RetractStats,
}

/// Memo of skolem terms per (rule index, bound-variable signature).
type SkolemMemo = FxHashMap<(usize, Vec<Term>), Vec<Term>>;

impl Reasoner {
    /// Creates a reasoner with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a reasoner preloaded with the RDFS/OWL-lite axiom rules
    /// (see [`axiom_rules`]).
    pub fn with_axioms(graph: &mut Graph) -> Self {
        let mut r = Reasoner::new();
        r.add_rules(axiom_rules(graph));
        r
    }

    /// Adds many rules.
    pub fn add_rules(&mut self, rules: impl IntoIterator<Item = Rule>) {
        self.rules.extend(rules);
        self.occurrences = None;
    }

    /// The current rule set.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Profiling counters from the most recent [`Reasoner::materialize`]
    /// or [`Reasoner::materialize_incremental`] run. The naive reference
    /// evaluator does not update these.
    pub fn last_stats(&self) -> &ReasonerStats {
        &self.last_stats
    }

    /// Profiling counters from the most recent [`Reasoner::retract`] or
    /// [`Reasoner::retract_batch`] run.
    pub fn last_retract_stats(&self) -> &RetractStats {
        &self.last_retract
    }

    /// Number of known derivations of `t` (zero if never derived). An
    /// upper-bound discovery count — see the field docs on the count
    /// table for why it is not an exact support multiplicity.
    pub fn derivation_count(&self, t: &Triple) -> u32 {
        self.counts.get(t).copied().unwrap_or(0)
    }

    /// Whether `t` was asserted as an input (vs. only ever derived).
    pub fn is_base(&self, t: &Triple) -> bool {
        self.base.contains(t)
    }

    /// Clears the per-graph state: the skolem memo, the derivation-count
    /// table and the base-fact set. Required before reusing one reasoner
    /// against a *different* graph: memoized terms are relative to the
    /// interner they were minted in (and skolem names are content-derived
    /// anyway, so a cold memo re-mints identical IRIs), and the
    /// derivation bookkeeping describes the graph it was built against.
    pub fn reset_skolem_memo(&mut self) {
        self.skolems.clear();
        self.counts.clear();
        self.base.clear();
    }

    /// Runs all rules to fixpoint, inserting derivations into `graph`.
    /// Returns the number of new triples added.
    ///
    /// Every triple present at call time is treated as a *base* (input)
    /// fact for later [`Reasoner::retract`] calls; derivation bookkeeping
    /// restarts from scratch.
    pub fn materialize(&mut self, graph: &mut Graph) -> usize {
        self.counts.clear();
        self.base.clear();
        let seed: Vec<Triple> = graph.store().iter().copied().collect();
        self.base.extend(seed.iter().copied());
        self.run_seminaive(graph, seed)
    }

    /// Extends an already-materialized graph after `delta` is asserted.
    ///
    /// Every delta triple is inserted (if absent), marked as a base fact,
    /// and used to seed the delta-driven fixpoint, so only consequences
    /// of the delta are recomputed. The rest of the store is assumed
    /// closed under the current rules — exactly the state
    /// [`Reasoner::materialize`] leaves behind. Returns the number of
    /// *derived* triples added (delta insertions are not counted).
    pub fn materialize_incremental(
        &mut self,
        graph: &mut Graph,
        delta: impl IntoIterator<Item = Triple>,
    ) -> usize {
        let mut seed = Vec::new();
        for t in delta {
            graph.add_triple(t);
            self.base.insert(t);
            seed.push(t);
        }
        self.run_seminaive(graph, seed)
    }

    fn run_seminaive(&mut self, graph: &mut Graph, mut delta: Vec<Triple>) -> usize {
        let occ = self
            .occurrences
            .take()
            .unwrap_or_else(|| build_occurrences(&self.rules));
        let mut stats = ReasonerStats::default();
        let mut touched = vec![false; self.rules.len()];
        let mut added_total = 0usize;
        let mut fresh: Vec<Triple> = Vec::new();
        // Per-round grouping of delta rows by predicate, in first-seen
        // order, so every (rule, premise) occurrence is planned once and
        // then fed its whole batch of seed rows.
        let mut by_pred: FxHashMap<Term, Vec<Triple>> = FxHashMap::default();
        let mut pred_order: Vec<Term> = Vec::new();
        for round in 0..MAX_ROUNDS {
            stats.rounds += 1;
            stats.delta_sizes.push(delta.len());
            touched.iter_mut().for_each(|t| *t = false);
            fresh.clear();
            {
                let (interner, store) = graph.split_mut_full();
                if round == 0 {
                    for &ri in &occ.pattern_free {
                        touched[ri] = true;
                        stats.seed_evaluations += 1;
                        fire_batch(
                            &self.rules,
                            &mut self.skolems,
                            &mut self.counts,
                            interner,
                            store,
                            ri,
                            &occ.skolem_vars[ri],
                            None,
                            &[],
                            &mut fresh,
                        );
                    }
                }
                pred_order.clear();
                for rows in by_pred.values_mut() {
                    rows.clear();
                }
                for &t in &delta {
                    if occ.by_predicate.contains_key(&t.p) {
                        let rows = by_pred.entry(t.p).or_default();
                        if rows.is_empty() {
                            pred_order.push(t.p);
                        }
                        rows.push(t);
                    }
                }
                for &pred in &pred_order {
                    let (Some(rows), Some(hits)) =
                        (by_pred.get(&pred), occ.by_predicate.get(&pred))
                    else {
                        continue;
                    };
                    for &(ri, ai) in hits {
                        touched[ri] = true;
                        stats.seed_evaluations += rows.len();
                        fire_batch(
                            &self.rules,
                            &mut self.skolems,
                            &mut self.counts,
                            interner,
                            store,
                            ri,
                            &occ.skolem_vars[ri],
                            Some(ai),
                            rows,
                            &mut fresh,
                        );
                    }
                }
                if !delta.is_empty() {
                    for &(ri, ai) in &occ.any_predicate {
                        touched[ri] = true;
                        stats.seed_evaluations += delta.len();
                        fire_batch(
                            &self.rules,
                            &mut self.skolems,
                            &mut self.counts,
                            interner,
                            store,
                            ri,
                            &occ.skolem_vars[ri],
                            Some(ai),
                            &delta,
                            &mut fresh,
                        );
                    }
                }
            }
            let evaluated = touched.iter().filter(|&&t| t).count();
            stats.rules_evaluated += evaluated;
            stats.rules_skipped += self.rules.len() - evaluated;
            if fresh.is_empty() {
                break;
            }
            // Fresh conclusions were inserted into the store eagerly by
            // `fire_batch`; they become the next round's delta here.
            added_total += fresh.len();
            std::mem::swap(&mut delta, &mut fresh);
        }
        self.occurrences = Some(occ);
        stats.facts_derived = added_total;
        self.last_stats = stats;
        added_total
    }

    /// Retracts a single base fact and incrementally repairs the closure.
    /// Equivalent to `retract_batch(graph, [t])`; see there.
    pub fn retract(&mut self, graph: &mut Graph, t: Triple) -> usize {
        self.retract_batch(graph, [t])
    }

    /// Retracts a batch of base facts and incrementally repairs the
    /// closure via DRed (delete–rederive). Returns the net number of
    /// triples removed from the store.
    ///
    /// The graph must be closed under this reasoner's rules *by this
    /// reasoner instance* (so its base/derived bookkeeping matches the
    /// store); that is the state [`Reasoner::materialize`] /
    /// [`Reasoner::materialize_incremental`] leave behind. The result is
    /// set-identical to materializing from scratch without the retracted
    /// facts: retracting a fact that remains derivable from the surviving
    /// base facts only clears its asserted status — the triple itself is
    /// rederived and stays.
    pub fn retract_batch(
        &mut self,
        graph: &mut Graph,
        facts: impl IntoIterator<Item = Triple>,
    ) -> usize {
        let occ = self
            .occurrences
            .take()
            .unwrap_or_else(|| build_occurrences(&self.rules));
        let mut stats = RetractStats::default();
        // Phase 0: clear base marks; peel off facts whose predicate no
        // rule reads or writes — removing those cannot change any other
        // fact, so they skip DRed entirely.
        let mut seeds: Vec<Triple> = Vec::new();
        // Overdeleted facts, kept in a `Store` so the overdelete fast
        // path can run the same sorted-merge difference the forward pass
        // uses (candidates minus already-overdeleted).
        let mut od = Store::new();
        for t in facts {
            stats.requested += 1;
            let was_base = self.base.remove(&t);
            if !graph.store().contains(&t) {
                continue;
            }
            if was_base {
                stats.retracted_base += 1;
            }
            let seeds_rules = occ.by_predicate.contains_key(&t.p) || !occ.any_predicate.is_empty();
            let derivable_pred =
                occ.any_conclusion_predicate || occ.conclusion_predicates.contains(&t.p);
            if !seeds_rules && !derivable_pred {
                graph.store_mut().remove(&t);
                self.counts.remove(&t);
                stats.fast_exits += 1;
                continue;
            }
            if od.insert(t) {
                seeds.push(t);
            }
        }
        // Phase 1: overdelete. Conservatively collect every stored,
        // non-base fact with a derivation through a deleted fact. Bodies
        // join against the *pre-deletion* store (nothing is removed until
        // phase 2) so no dependency is missed even when several premises
        // of one firing are deleted together.
        let mut over_list: Vec<Triple> = Vec::new();
        let mut wave: Vec<Triple> = seeds.clone();
        let mut next: Vec<Triple> = Vec::new();
        let mut by_pred: FxHashMap<Term, Vec<Triple>> = FxHashMap::default();
        let mut pred_order: Vec<Term> = Vec::new();
        while !wave.is_empty() {
            stats.waves += 1;
            next.clear();
            {
                let (interner, store) = graph.split_mut();
                pred_order.clear();
                for rows in by_pred.values_mut() {
                    rows.clear();
                }
                for &t in &wave {
                    if occ.by_predicate.contains_key(&t.p) {
                        let rows = by_pred.entry(t.p).or_default();
                        if rows.is_empty() {
                            pred_order.push(t.p);
                        }
                        rows.push(t);
                    }
                }
                for &pred in &pred_order {
                    let (Some(rows), Some(hits)) =
                        (by_pred.get(&pred), occ.by_predicate.get(&pred))
                    else {
                        continue;
                    };
                    for &(ri, ai) in hits {
                        overdelete_batch(
                            &self.rules,
                            &mut self.skolems,
                            interner,
                            store,
                            ri,
                            &occ.skolem_vars[ri],
                            ai,
                            rows,
                            &self.base,
                            &mut od,
                            &mut next,
                        );
                    }
                }
                for &(ri, ai) in &occ.any_predicate {
                    overdelete_batch(
                        &self.rules,
                        &mut self.skolems,
                        interner,
                        store,
                        ri,
                        &occ.skolem_vars[ri],
                        ai,
                        &wave,
                        &self.base,
                        &mut od,
                        &mut next,
                    );
                }
            }
            over_list.extend(next.iter().copied());
            std::mem::swap(&mut wave, &mut next);
        }
        stats.overdeleted = over_list.len();
        // Phase 2: physically remove the retracted facts and everything
        // overdeleted, in one grouped sweep.
        let candidates: Vec<Triple> = seeds.iter().chain(over_list.iter()).copied().collect();
        let mut removed = graph.store_mut().remove_batch(&candidates);
        for t in &candidates {
            self.counts.remove(t);
        }
        // Phase 3: rederive. A removed fact survives iff some rule still
        // proves it from the current store; every consequence of a
        // rederived fact is itself a candidate (its old derivation went
        // through deleted facts too), so closing over the candidate list
        // is a full fixpoint — no forward pass needed afterwards.
        let mut proven = vec![false; candidates.len()];
        loop {
            let mut progress = false;
            for (i, &c) in candidates.iter().enumerate() {
                if proven[i] {
                    continue;
                }
                let ok = {
                    let (interner, store) = graph.split_mut();
                    derivable(&self.rules, &mut self.skolems, interner, store, &occ, c)
                };
                if ok {
                    graph.add_triple(c);
                    self.counts.insert(c, 1);
                    proven[i] = true;
                    progress = true;
                    stats.rederived += 1;
                    removed = removed.saturating_sub(1);
                }
            }
            if !progress {
                break;
            }
        }
        stats.removed = removed + stats.fast_exits;
        let out = stats.removed;
        self.occurrences = Some(occ);
        self.last_retract = stats;
        out
    }

    /// Reference implementation: the naive evaluate-everything-per-round
    /// fixpoint, joining premises in textual order with `Vec`-scan
    /// deduplication. Kept verbatim from the pre-semi-naive engine for
    /// differential tests and benchmark baselines; derives exactly the
    /// same closure as [`Reasoner::materialize`] (skolem names are
    /// content-derived in both).
    pub fn materialize_naive(&mut self, graph: &mut Graph) -> usize {
        let mut added_total = 0usize;
        for _round in 0..MAX_ROUNDS {
            let mut new_triples: Vec<Triple> = Vec::new();
            for rule_idx in 0..self.rules.len() {
                let bindings = match_rule_textual(graph.store(), &self.rules[rule_idx]);
                let skolem_vars = self.rules[rule_idx].skolem_vars();
                for mut binding in bindings {
                    if !skolem_vars.is_empty() {
                        apply_skolems(
                            &mut self.skolems,
                            rule_idx,
                            &self.rules[rule_idx],
                            graph.interner_mut(),
                            &skolem_vars,
                            &mut binding,
                        );
                    }
                    for conclusion in &self.rules[rule_idx].conclusions {
                        if let Some(t) = conclusion.instantiate(&binding) {
                            if !graph.store().contains(&t) && !new_triples.contains(&t) {
                                new_triples.push(t);
                            }
                        }
                    }
                }
            }
            if new_triples.is_empty() {
                break;
            }
            for t in new_triples {
                if graph.add_triple(t) {
                    added_total += 1;
                }
            }
        }
        added_total
    }
}

/// Per-candidate action at one triple position of a single-join kernel,
/// computed once per batch: positions covered by the probe mask (ground
/// terms and seed-bound variables) need nothing, free variables are
/// written, and repeated free occurrences are consistency-checked. A
/// `Write` for a variable always precedes any `Check` of it within one
/// candidate (first occurrence wins), so no restore step is needed.
#[derive(Debug, Clone, Copy)]
enum CandOp {
    Skip,
    Write(u32),
    Check(u32),
}

/// Compiled form of a two-premise rule occurrence: the seed premise plus
/// exactly one remaining pattern, no builtins, no skolems. Built once per
/// (occurrence, round) batch.
#[derive(Debug)]
struct SingleJoinPlan {
    seed: TriplePattern,
    rem: TriplePattern,
    ops: [CandOp; 3],
    /// `(free position in rem, free position in the conclusion)` when the
    /// sorted-merge difference applies: one free variable occurring once
    /// in the remaining pattern and once in the rule's single conclusion,
    /// all other conclusion variables bound by the seed.
    merge: Option<(usize, usize)>,
}

fn plan_single_join(rule: &Rule, seed: &TriplePattern, rem: TriplePattern) -> SingleJoinPlan {
    let mut seed_vars: Vec<u32> = Vec::new();
    for pt in [seed.s, seed.p, seed.o] {
        if let PatternTerm::Var(v) = pt {
            if !seed_vars.contains(&v.0) {
                seed_vars.push(v.0);
            }
        }
    }
    let mut ops = [CandOp::Skip; 3];
    let mut free: Vec<u32> = Vec::new();
    let mut free_pos = usize::MAX;
    let mut checks = 0usize;
    for (i, pt) in [rem.s, rem.p, rem.o].into_iter().enumerate() {
        if let PatternTerm::Var(v) = pt {
            if seed_vars.contains(&v.0) {
                continue;
            }
            if free.contains(&v.0) {
                ops[i] = CandOp::Check(v.0);
                checks += 1;
            } else {
                free.push(v.0);
                ops[i] = CandOp::Write(v.0);
                free_pos = i;
            }
        }
    }
    let mut merge = None;
    if free.len() == 1 && checks == 0 && rule.conclusions.len() == 1 {
        let v = free[0];
        let c = &rule.conclusions[0];
        let mut concl_free: Vec<usize> = Vec::new();
        let mut bindable = true;
        for (i, pt) in [c.s, c.p, c.o].into_iter().enumerate() {
            if let PatternTerm::Var(cv) = pt {
                if cv.0 == v {
                    concl_free.push(i);
                } else if !seed_vars.contains(&cv.0) {
                    bindable = false;
                }
            }
        }
        if bindable && concl_free.len() == 1 {
            merge = Some((free_pos, concl_free[0]));
        }
    }
    SingleJoinPlan {
        seed: *seed,
        rem,
        ops,
        merge,
    }
}

/// Instantiates every conclusion of one satisfied rule body into `out`,
/// minting skolem terms when the rule has head-only variables.
fn conclude_into(
    rule_idx: usize,
    rule: &Rule,
    skolem_vars: &[VarId],
    memo: &mut SkolemMemo,
    interner: &mut Interner,
    out: &mut Vec<Triple>,
    b: &[Option<Term>],
) {
    if skolem_vars.is_empty() {
        for conclusion in &rule.conclusions {
            if let Some(t) = conclusion.instantiate(b) {
                out.push(t);
            }
        }
    } else {
        let mut full = b.to_vec();
        apply_skolems(memo, rule_idx, rule, interner, skolem_vars, &mut full);
        for conclusion in &rule.conclusions {
            if let Some(t) = conclusion.instantiate(&full) {
                out.push(t);
            }
        }
    }
}

fn resolve_pt(pt: PatternTerm, b: &[Option<Term>]) -> Option<Term> {
    match pt {
        PatternTerm::Ground(t) => Some(t),
        PatternTerm::Var(v) => b.get(v.0 as usize).copied().flatten(),
    }
}

/// The posting list matching a mask with exactly one free position;
/// `None` when the other two positions are not both bound.
// mdlint::hot
fn posting_for<'a>(
    store: &'a Store,
    free_pos: usize,
    mask: &[Option<Term>; 3],
) -> Option<&'a [Term]> {
    match free_pos {
        0 => match (mask[1], mask[2]) {
            (Some(p), Some(o)) => Some(store.subjects_po(p, o)),
            _ => None,
        },
        1 => match (mask[0], mask[2]) {
            (Some(s), Some(o)) => Some(store.predicates_os(o, s)),
            _ => None,
        },
        _ => match (mask[0], mask[1]) {
            (Some(s), Some(p)) => Some(store.objects_sp(s, p)),
            _ => None,
        },
    }
}

/// Calls `f` for every element of `cs` absent from `es`; both slices are
/// sorted by [`Term`]'s total order. Runs a linear two-pointer merge when
/// the lists are comparably sized and switches to per-candidate binary
/// search (galloping) when `es` dwarfs `cs` — overdelete waves hit
/// exactly that shape (a few candidates per seed row against one long
/// overdeleted posting, re-walked once per row).
#[inline]
// mdlint::hot
fn for_each_absent(cs: &[Term], es: &[Term], mut f: impl FnMut(Term)) {
    if es.len() > 16 && es.len() / 4 > cs.len() {
        for &v in cs {
            if es.binary_search(&v).is_err() {
                f(v);
            }
        }
        return;
    }
    let mut j = 0usize;
    for &v in cs {
        while j < es.len() && es[j] < v {
            j += 1;
        }
        if j < es.len() && es[j] == v {
            continue;
        }
        f(v);
    }
}

/// Calls `f` for every element of `cs` that is present in `ins` and
/// absent from `outs`; all three slices sorted by [`Term`]'s total order.
/// The overdelete merge path uses this to fuse the "is the conclusion
/// stored" filter into the sorted walk: `ins` is the store's posting for
/// the conclusion mask, so survivors never hash-probe the full (large)
/// triple set.
#[inline]
// mdlint::hot
fn for_each_present_absent(cs: &[Term], ins: &[Term], outs: &[Term], mut f: impl FnMut(Term)) {
    let (mut ji, mut jo) = (0usize, 0usize);
    for &v in cs {
        while ji < ins.len() && ins[ji] < v {
            ji += 1;
        }
        if ji == ins.len() {
            return;
        }
        if ins[ji] != v {
            continue;
        }
        while jo < outs.len() && outs[jo] < v {
            jo += 1;
        }
        if jo < outs.len() && outs[jo] == v {
            continue;
        }
        f(v);
    }
}

/// Rebuilds a conclusion triple from its two bound positions plus the
/// free-position value `v`.
#[inline]
fn place_free(cmask: &[Option<Term>; 3], concl_free: usize, v: Term) -> Option<Triple> {
    match concl_free {
        0 => match (cmask[1], cmask[2]) {
            (Some(p), Some(o)) => Some(Triple::new(v, p, o)),
            _ => None,
        },
        1 => match (cmask[0], cmask[2]) {
            (Some(s), Some(o)) => Some(Triple::new(s, v, o)),
            _ => None,
        },
        _ => match (cmask[0], cmask[1]) {
            (Some(s), Some(p)) => Some(Triple::new(s, p, v)),
            _ => None,
        },
    }
}

/// Evaluates one rule occurrence against a whole batch of delta rows,
/// inserting novel conclusions into the store *eagerly* — after every
/// seed row — and appending them to `fresh` (the next round's delta).
///
/// Eager insertion is the second half of the merge-join optimization:
/// because each row's conclusions land in the store before the next row
/// runs, the sorted-merge difference filters rediscoveries across rows at
/// a slice comparison each, and the per-discovery hash probe the old
/// dedup set paid is gone. The round structure is unchanged — eagerly
/// inserted facts still seed joins only through the next round's delta —
/// so evaluation stays semi-naive; some firings are merely *filtered*
/// (not re-derived) a round earlier. The closure is the same fixpoint
/// either way, and skolem names are content-derived, so the result is
/// bit-identical to the insert-at-round-end schedule.
///
/// `seed_premise == None` means a pattern-free rule evaluated once (rows
/// are ignored). Dispatches to the single-join kernel — and within it the
/// sorted-merge difference — when the occurrence shape allows, and to the
/// general greedy planner otherwise.
#[allow(clippy::too_many_arguments)]
fn fire_batch(
    rules: &[Rule],
    memo: &mut SkolemMemo,
    counts: &mut FxHashMap<Triple, u32>,
    interner: &mut Interner,
    store: &mut Store,
    rule_idx: usize,
    skolem_vars: &[VarId],
    seed_premise: Option<usize>,
    rows: &[Triple],
    fresh: &mut Vec<Triple>,
) {
    let rule = &rules[rule_idx];
    let mut binding: Vec<Option<Term>> = vec![None; rule.var_count()];
    let mut patterns: Vec<TriplePattern> = Vec::new();
    let mut builtins: Vec<BuiltinAtom> = Vec::new();
    let mut seed_pat: Option<TriplePattern> = None;
    for (ai, atom) in rule.premises.iter().enumerate() {
        match atom {
            RuleAtom::Pattern(p) => {
                if seed_premise == Some(ai) {
                    seed_pat = Some(*p);
                } else {
                    patterns.push(*p);
                }
            }
            RuleAtom::Builtin(b) => builtins.push(*b),
        }
    }
    // Conclusions of the current row, staged while the row's joins hold
    // shared borrows of the store, then flushed into it.
    let mut out: Vec<Triple> = Vec::new();
    let Some(seed_pat) = seed_pat else {
        // Pattern-free rule: solve the whole body once.
        solve_rest(
            store,
            &mut patterns,
            &mut builtins,
            &mut binding,
            &mut |b| {
                conclude_into(rule_idx, rule, skolem_vars, memo, interner, &mut out, b);
            },
        );
        for t in out.drain(..) {
            if store.insert(t) {
                counts.insert(t, 1);
                fresh.push(t);
            }
        }
        return;
    };
    if patterns.len() == 1 && builtins.is_empty() && skolem_vars.is_empty() {
        let plan = plan_single_join(rule, &seed_pat, patterns[0]);
        for &row in rows {
            binding.iter_mut().for_each(|s| *s = None);
            if !unify_pattern(&plan.seed, row, &mut binding) {
                continue;
            }
            let mask = [
                resolve_pt(plan.rem.s, &binding),
                resolve_pt(plan.rem.p, &binding),
                resolve_pt(plan.rem.o, &binding),
            ];
            let mut merged = false;
            if let Some((free_pos, concl_free)) = plan.merge {
                let c = &rule.conclusions[0];
                let cmask = [
                    resolve_pt(c.s, &binding),
                    resolve_pt(c.p, &binding),
                    resolve_pt(c.o, &binding),
                ];
                let cs = posting_for(store, free_pos, &mask);
                let es = posting_for(store, concl_free, &cmask);
                if let (Some(cs), Some(es)) = (cs, es) {
                    // Sorted-merge difference: candidates whose conclusion
                    // is already stored — including conclusions of earlier
                    // rows in this batch — are skipped without hashing.
                    for_each_absent(cs, es, |v| {
                        if let Some(t) = place_free(&cmask, concl_free, v) {
                            out.push(t);
                        }
                    });
                    merged = true;
                }
            }
            if !merged {
                store.for_each_match(mask[0], mask[1], mask[2], |cand| {
                    let vals = [cand.s, cand.p, cand.o];
                    for (i, &v) in vals.iter().enumerate() {
                        match plan.ops[i] {
                            CandOp::Skip => {}
                            CandOp::Write(slot) => binding[slot as usize] = Some(v),
                            CandOp::Check(slot) => {
                                if binding[slot as usize] != Some(v) {
                                    return;
                                }
                            }
                        }
                    }
                    for conclusion in &rule.conclusions {
                        if let Some(t) = conclusion.instantiate(&binding) {
                            out.push(t);
                        }
                    }
                });
            }
            for t in out.drain(..) {
                if store.insert(t) {
                    counts.insert(t, 1);
                    fresh.push(t);
                }
            }
        }
        return;
    }
    for &row in rows {
        binding.iter_mut().for_each(|s| *s = None);
        if !unify_pattern(&seed_pat, row, &mut binding) {
            continue;
        }
        solve_rest(
            store,
            &mut patterns,
            &mut builtins,
            &mut binding,
            &mut |b| {
                conclude_into(rule_idx, rule, skolem_vars, memo, interner, &mut out, b);
            },
        );
        for t in out.drain(..) {
            if store.insert(t) {
                counts.insert(t, 1);
                fresh.push(t);
            }
        }
    }
}

/// Overdelete step of DRed: evaluates one rule occurrence seeded by a
/// batch of just-deleted rows against the *pre-deletion* store, marking
/// every stored, non-base conclusion as overdeleted. Mirrors
/// [`fire_batch`]'s kernel dispatch, with the merge difference running
/// against the overdeleted set instead of the store.
#[allow(clippy::too_many_arguments)]
fn overdelete_batch(
    rules: &[Rule],
    memo: &mut SkolemMemo,
    interner: &mut Interner,
    store: &Store,
    rule_idx: usize,
    skolem_vars: &[VarId],
    seed_premise: usize,
    rows: &[Triple],
    base: &FxHashSet<Triple>,
    od: &mut Store,
    next: &mut Vec<Triple>,
) {
    let rule = &rules[rule_idx];
    let mut binding: Vec<Option<Term>> = vec![None; rule.var_count()];
    let mut patterns: Vec<TriplePattern> = Vec::new();
    let mut builtins: Vec<BuiltinAtom> = Vec::new();
    let mut seed_pat: Option<TriplePattern> = None;
    for (ai, atom) in rule.premises.iter().enumerate() {
        match atom {
            RuleAtom::Pattern(p) => {
                if seed_premise == ai {
                    seed_pat = Some(*p);
                } else {
                    patterns.push(*p);
                }
            }
            RuleAtom::Builtin(b) => builtins.push(*b),
        }
    }
    let Some(seed_pat) = seed_pat else {
        return;
    };
    // On a closed graph every enumerated conclusion is already stored, so
    // the common case is "seen before": filter against the overdeleted
    // set by sorted merge, hash only the survivors.
    if patterns.len() == 1 && builtins.is_empty() && skolem_vars.is_empty() {
        let plan = plan_single_join(rule, &seed_pat, patterns[0]);
        let mut survivors: Vec<Triple> = Vec::new();
        // Conclusion masks proven fully overdeleted stay that way (`od`
        // only grows within a wave), so one cached mask short-circuits
        // the long runs of rows that share a conclusion shape.
        let mut last_dominated: Option<[Option<Term>; 3]> = None;
        for &row in rows {
            binding.iter_mut().for_each(|s| *s = None);
            if !unify_pattern(&plan.seed, row, &mut binding) {
                continue;
            }
            let mask = [
                resolve_pt(plan.rem.s, &binding),
                resolve_pt(plan.rem.p, &binding),
                resolve_pt(plan.rem.o, &binding),
            ];
            let mut merged = false;
            let mut survivors_stored = false;
            if let Some((free_pos, concl_free)) = plan.merge {
                let cs = posting_for(store, free_pos, &mask);
                if let Some(cs) = cs {
                    if cs.is_empty() {
                        // The remaining premise has no matches under this
                        // row's bindings; nothing can fire.
                        continue;
                    }
                    let c = &rule.conclusions[0];
                    let cmask = [
                        resolve_pt(c.s, &binding),
                        resolve_pt(c.p, &binding),
                        resolve_pt(c.o, &binding),
                    ];
                    if last_dominated.as_ref() == Some(&cmask) {
                        continue;
                    }
                    let es = posting_for(od, concl_free, &cmask);
                    let stored = posting_for(store, concl_free, &cmask);
                    if let (Some(es), Some(stored)) = (es, stored) {
                        // Dominance skip: `od` only ever holds stored
                        // facts, so its posting is a subset of the store's
                        // for the same mask — equal lengths mean every
                        // stored conclusion this row could reach is
                        // already overdeleted, and no candidate can
                        // survive the store/base filter below. Late
                        // overdelete waves are usually fully dominated,
                        // making them O(rows) instead of O(candidates).
                        if stored.len() == es.len() {
                            last_dominated = Some(cmask);
                            continue;
                        }
                        for_each_present_absent(cs, stored, es, |v| {
                            if let Some(t) = place_free(&cmask, concl_free, v) {
                                survivors.push(t);
                            }
                        });
                        merged = true;
                        survivors_stored = true;
                    }
                }
            }
            if !merged {
                store.for_each_match(mask[0], mask[1], mask[2], |cand| {
                    let vals = [cand.s, cand.p, cand.o];
                    for (i, &v) in vals.iter().enumerate() {
                        match plan.ops[i] {
                            CandOp::Skip => {}
                            CandOp::Write(slot) => binding[slot as usize] = Some(v),
                            CandOp::Check(slot) => {
                                if binding[slot as usize] != Some(v) {
                                    return;
                                }
                            }
                        }
                    }
                    for conclusion in &rule.conclusions {
                        if let Some(t) = conclusion.instantiate(&binding) {
                            survivors.push(t);
                        }
                    }
                });
            }
            for &t in &survivors {
                if (survivors_stored || store.contains(&t)) && !base.contains(&t) && od.insert(t) {
                    next.push(t);
                }
            }
            survivors.clear();
        }
        return;
    }
    for &row in rows {
        binding.iter_mut().for_each(|s| *s = None);
        if !unify_pattern(&seed_pat, row, &mut binding) {
            continue;
        }
        let mut survivors: Vec<Triple> = Vec::new();
        solve_rest(
            store,
            &mut patterns,
            &mut builtins,
            &mut binding,
            &mut |b| {
                if skolem_vars.is_empty() {
                    for conclusion in &rule.conclusions {
                        if let Some(t) = conclusion.instantiate(b) {
                            survivors.push(t);
                        }
                    }
                } else {
                    let mut full = b.to_vec();
                    apply_skolems(memo, rule_idx, rule, interner, skolem_vars, &mut full);
                    for conclusion in &rule.conclusions {
                        if let Some(t) = conclusion.instantiate(&full) {
                            survivors.push(t);
                        }
                    }
                }
            },
        );
        for &t in &survivors {
            if store.contains(&t) && !base.contains(&t) && od.insert(t) {
                next.push(t);
            }
        }
    }
}

/// Whether `goal` has at least one derivation from the current store: some
/// rule conclusion unifies with it and the rule body is satisfiable under
/// the resulting bindings. For skolemizing rules the skolem terms bound
/// from the goal are treated as *expectations* — the body solution must
/// re-mint exactly those terms (content-derived names make this check
/// exact).
fn derivable(
    rules: &[Rule],
    memo: &mut SkolemMemo,
    interner: &mut Interner,
    store: &Store,
    occ: &OccurrenceIndex,
    goal: Triple,
) -> bool {
    for (ri, rule) in rules.iter().enumerate() {
        let skolem_vars = &occ.skolem_vars[ri];
        for conclusion in &rule.conclusions {
            // Ground-predicate prefilter: skip without allocating when
            // the conclusion cannot match the goal's predicate.
            if let PatternTerm::Ground(p) = conclusion.p {
                if p != goal.p {
                    continue;
                }
            }
            let mut binding: Vec<Option<Term>> = vec![None; rule.var_count()];
            if !unify_pattern(conclusion, goal, &mut binding) {
                continue;
            }
            let mut expected: Vec<(usize, Term)> = Vec::new();
            for v in skolem_vars {
                if let Some(t) = binding.get_mut(v.0 as usize).and_then(|slot| slot.take()) {
                    expected.push((v.0 as usize, t));
                }
            }
            let mut patterns: Vec<TriplePattern> = Vec::new();
            let mut builtins: Vec<BuiltinAtom> = Vec::new();
            for atom in &rule.premises {
                match atom {
                    RuleAtom::Pattern(p) => patterns.push(*p),
                    RuleAtom::Builtin(b) => builtins.push(*b),
                }
            }
            let found = if skolem_vars.is_empty() {
                solve_until(
                    store,
                    &mut patterns,
                    &mut builtins,
                    &mut binding,
                    &mut |_| true,
                )
            } else {
                solve_until(
                    store,
                    &mut patterns,
                    &mut builtins,
                    &mut binding,
                    &mut |b| {
                        let mut full = b.to_vec();
                        apply_skolems(memo, ri, rule, interner, skolem_vars, &mut full);
                        expected
                            .iter()
                            .all(|&(slot, t)| full.get(slot).copied().flatten() == Some(t))
                    },
                )
            };
            if found {
                return true;
            }
        }
    }
    false
}

/// FNV-1a, the 64-bit flavor; tiny and dependency-free, used only to
/// derive skolem IRI names from firing signatures.
#[derive(Debug, Clone, Copy)]
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Binds skolem variables to IRIs derived from the rule name and the
/// rendered bound-variable signature: `skolem:{rule}#{hash16}`. The same
/// firing always mints the same IRI, in any engine, in any evaluation
/// order — which is what makes naive and semi-naive closures identical.
fn apply_skolems(
    memo: &mut FxHashMap<(usize, Vec<Term>), Vec<Term>>,
    rule_idx: usize,
    rule: &Rule,
    interner: &mut Interner,
    skolem_vars: &[VarId],
    binding: &mut [Option<Term>],
) {
    // Signature: the values of all *bound* variables, in table order.
    let signature: Vec<Term> = binding.iter().flatten().copied().collect();
    let key = (rule_idx, signature);
    if let Some(existing) = memo.get(&key) {
        for (var, term) in skolem_vars.iter().zip(existing) {
            binding[var.0 as usize] = Some(*term);
        }
        return;
    }
    let mut minted = Vec::with_capacity(skolem_vars.len());
    for (pos, var) in skolem_vars.iter().enumerate() {
        let mut h = Fnv64::new();
        h.update(rule.name.as_bytes());
        h.update(&[0xff]);
        h.update(&pos.to_le_bytes());
        for &t in &key.1 {
            h.update(&[0xfe]);
            h.update(t.display(interner).to_string().as_bytes());
        }
        let iri = format!("skolem:{}#{:016x}", rule.name, h.finish());
        let term = Term::Iri(interner.intern(&iri));
        binding[var.0 as usize] = Some(term);
        minted.push(term);
    }
    memo.insert(key, minted);
}

/// Unifies a ground triple against a pattern, extending `binding` with the
/// pattern's variables. Returns `false` (leaving `binding` untouched) on a
/// ground-term mismatch, a conflict with an existing binding, or a
/// repeated variable matching two different terms.
pub fn unify_pattern(
    pattern: &TriplePattern,
    triple: Triple,
    binding: &mut [Option<Term>],
) -> bool {
    let mut staged: [(u32, Term); 3] = [(0, triple.s); 3];
    let mut staged_len = 0usize;
    for (pt, actual) in [
        (pattern.s, triple.s),
        (pattern.p, triple.p),
        (pattern.o, triple.o),
    ] {
        match pt {
            PatternTerm::Ground(g) => {
                if g != actual {
                    return false;
                }
            }
            PatternTerm::Var(v) => {
                let earlier = staged[..staged_len]
                    .iter()
                    .find(|(idx, _)| *idx == v.0)
                    .map(|(_, t)| *t)
                    .or_else(|| binding.get(v.0 as usize).copied().flatten());
                match earlier {
                    Some(existing) if existing != actual => return false,
                    Some(_) => {}
                    None => {
                        staged[staged_len] = (v.0, actual);
                        staged_len += 1;
                    }
                }
            }
        }
    }
    for &(idx, t) in &staged[..staged_len] {
        binding[idx as usize] = Some(t);
    }
    true
}

/// Exact number of stored triples matching `pattern` under `binding`
/// (upper bound when the pattern repeats an unbound variable). O(1).
fn pattern_cost(store: &Store, pattern: &TriplePattern, binding: &[Option<Term>]) -> usize {
    let resolve = |pt: PatternTerm| -> Option<Term> {
        match pt {
            PatternTerm::Ground(t) => Some(t),
            PatternTerm::Var(v) => binding.get(v.0 as usize).copied().flatten(),
        }
    };
    store.count_match(resolve(pattern.s), resolve(pattern.p), resolve(pattern.o))
}

fn builtin_ready(b: &BuiltinAtom, binding: &[Option<Term>]) -> bool {
    let bound = |pt: PatternTerm| -> bool {
        match pt {
            PatternTerm::Ground(_) => true,
            PatternTerm::Var(v) => binding.get(v.0 as usize).copied().flatten().is_some(),
        }
    };
    bound(b.lhs) && bound(b.rhs)
}

/// Greedy-ordered join over the remaining body atoms.
///
/// Builtins run the moment both arguments are bound (a false guard prunes
/// the whole branch); otherwise the cheapest remaining pattern — by exact
/// match count under the current bindings — is matched next through the
/// store's in-place callback path. `sink` is called once per satisfying
/// assignment. Builtins whose variables are never bound by any pattern
/// evaluate to false, matching the naive engine's end-of-body check.
fn solve_rest(
    store: &Store,
    patterns: &mut Vec<TriplePattern>,
    builtins: &mut Vec<BuiltinAtom>,
    binding: &mut Vec<Option<Term>>,
    sink: &mut dyn FnMut(&[Option<Term>]),
) {
    solve_until(store, patterns, builtins, binding, &mut |b| {
        sink(b);
        false
    });
}

/// Early-exit variant of [`solve_rest`]: the sink returns `true` to stop
/// the search, and the function reports whether any sink call did. Used by
/// the rederivation step, where one witness derivation suffices.
fn solve_until(
    store: &Store,
    patterns: &mut Vec<TriplePattern>,
    builtins: &mut Vec<BuiltinAtom>,
    binding: &mut Vec<Option<Term>>,
    sink: &mut dyn FnMut(&[Option<Term>]) -> bool,
) -> bool {
    if let Some(pos) = builtins.iter().position(|b| builtin_ready(b, binding)) {
        let guard = builtins.swap_remove(pos);
        let mut done = false;
        if guard.eval(binding) {
            done = solve_until(store, patterns, builtins, binding, sink);
        }
        builtins.push(guard);
        return done;
    }
    if patterns.is_empty() {
        // Any builtin still unresolved here has a forever-unbound variable
        // and can never hold.
        if builtins.is_empty() {
            return sink(binding);
        }
        return false;
    }
    let mut best = 0usize;
    let mut best_cost = usize::MAX;
    for (i, p) in patterns.iter().enumerate() {
        let cost = pattern_cost(store, p, binding);
        if cost < best_cost {
            best_cost = cost;
            best = i;
        }
    }
    if best_cost == 0 {
        return false;
    }
    let pat = patterns.swap_remove(best);
    let mut done = false;
    store.match_pattern_in_place(&pat, binding, |b| {
        if !done {
            done = solve_until(store, patterns, builtins, b, sink);
        }
    });
    patterns.push(pat);
    done
}

/// Computes every satisfying assignment of `rule`'s premises against
/// `store`, joining through the greedy planner (cheapest pattern first,
/// builtins as soon as bound). This is the engine behind
/// [`crate::query::Query::solve`].
pub fn match_rule(store: &Store, rule: &Rule) -> Vec<Vec<Option<Term>>> {
    let mut patterns: Vec<TriplePattern> = Vec::new();
    let mut builtins: Vec<BuiltinAtom> = Vec::new();
    for atom in &rule.premises {
        match atom {
            RuleAtom::Pattern(p) => patterns.push(*p),
            RuleAtom::Builtin(b) => builtins.push(*b),
        }
    }
    let mut binding: Vec<Option<Term>> = vec![None; rule.var_count()];
    let mut results = Vec::new();
    solve_rest(
        store,
        &mut patterns,
        &mut builtins,
        &mut binding,
        &mut |b| {
            results.push(b.to_vec());
        },
    );
    results
}

/// The pre-planner join: premises in textual order, builtins checked after
/// all patterns, one `Vec` allocation per intermediate binding. Feeds
/// [`Reasoner::materialize_naive`] only.
fn match_rule_textual(store: &Store, rule: &Rule) -> Vec<Vec<Option<Term>>> {
    let patterns: Vec<_> = rule
        .premises
        .iter()
        .filter_map(|a| match a {
            RuleAtom::Pattern(p) => Some(*p),
            RuleAtom::Builtin(_) => None,
        })
        .collect();
    let builtins: Vec<_> = rule
        .premises
        .iter()
        .filter_map(|a| match a {
            RuleAtom::Builtin(b) => Some(*b),
            RuleAtom::Pattern(_) => None,
        })
        .collect();

    let mut results = Vec::new();
    let initial = vec![None; rule.var_count()];
    join_textual(store, &patterns, 0, initial, &mut |binding: Vec<
        Option<Term>,
    >| {
        if builtins.iter().all(|b| b.eval(&binding)) {
            results.push(binding);
        }
    });
    results
}

fn join_textual(
    store: &Store,
    patterns: &[TriplePattern],
    idx: usize,
    binding: Vec<Option<Term>>,
    sink: &mut impl FnMut(Vec<Option<Term>>),
) {
    if idx == patterns.len() {
        sink(binding);
        return;
    }
    store.match_pattern(&patterns[idx], &binding, |next| {
        join_textual(store, patterns, idx + 1, next, sink);
    });
}

/// Builds the RDFS/OWL-lite axiom rule set:
///
/// * `rdfs9`/`rdfs11` — `subClassOf` inheritance and transitivity.
/// * `rdfs5`/`rdfs7` — `subPropertyOf` transitivity and inheritance.
/// * `rdfs2`/`rdfs3` — `domain`/`range` typing.
/// * `owl-trans` — `TransitiveProperty`.
/// * `owl-sym` — `SymmetricProperty`.
/// * `owl-inv` — `inverseOf` (both directions).
/// * `owl-eqc` — `equivalentClass` implies mutual `subClassOf`.
/// * `owl-sameas-sym`/`owl-sameas-trans` — `sameAs` symmetry/transitivity.
pub fn axiom_rules(graph: &mut Graph) -> Vec<Rule> {
    let text = format!(
        "[rdfs9: (?c {sub} ?d), (?x {ty} ?c) -> (?x {ty} ?d)]\n\
         [rdfs11: (?c {sub} ?d), (?d {sub} ?e) -> (?c {sub} ?e)]\n\
         [rdfs5: (?p {subp} ?q), (?q {subp} ?r) -> (?p {subp} ?r)]\n\
         [rdfs7: (?p {subp} ?q), (?x ?p ?y) -> (?x ?q ?y)]\n\
         [rdfs2: (?p {dom} ?c), (?x ?p ?y) -> (?x {ty} ?c)]\n\
         [rdfs3: (?p {rng} ?c), (?x ?p ?y), (?y {ty} ?anyclass) -> (?y {ty} ?c)]\n\
         [owl-trans: (?p {ty} {tp}), (?x ?p ?y), (?y ?p ?z) -> (?x ?p ?z)]\n\
         [owl-sym: (?p {ty} {sp}), (?x ?p ?y) -> (?y ?p ?x)]\n\
         [owl-inv1: (?p {inv} ?q), (?x ?p ?y) -> (?y ?q ?x)]\n\
         [owl-inv2: (?p {inv} ?q), (?x ?q ?y) -> (?y ?p ?x)]\n\
         [owl-eqc1: (?c {eqc} ?d) -> (?c {sub} ?d), (?d {sub} ?c)]\n\
         [owl-sameas-sym: (?x {same} ?y) -> (?y {same} ?x)]\n\
         [owl-sameas-trans: (?x {same} ?y), (?y {same} ?z) -> (?x {same} ?z)]",
        sub = rdfs::SUB_CLASS_OF,
        subp = rdfs::SUB_PROPERTY_OF,
        dom = rdfs::DOMAIN,
        rng = rdfs::RANGE,
        ty = rdf::TYPE,
        tp = owl::TRANSITIVE_PROPERTY,
        sp = owl::SYMMETRIC_PROPERTY,
        inv = owl::INVERSE_OF,
        eqc = owl::EQUIVALENT_CLASS,
        same = owl::SAME_AS,
    );
    crate::parser::parse_rules(&text, graph).expect("axiom rules are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;
    use std::collections::BTreeSet;

    /// Renders a graph's triples to sorted strings so closures from
    /// different graphs (whose interners may have assigned ids in a
    /// different order) can be compared.
    fn rendered(g: &Graph) -> BTreeSet<String> {
        g.store()
            .iter()
            .map(|t| t.display(g.interner()).to_string())
            .collect()
    }

    #[test]
    fn subclass_inheritance_and_transitivity() {
        let mut g = Graph::new();
        g.add("imcl:hpLaserJet", rdfs::SUB_CLASS_OF, "imcl:Printer");
        g.add("imcl:Printer", rdfs::SUB_CLASS_OF, "imcl:Resource");
        g.add("imcl:thePrinter", rdf::TYPE, "imcl:hpLaserJet");
        let mut r = Reasoner::with_axioms(&mut g);
        r.materialize(&mut g);
        assert!(g.contains("imcl:hpLaserJet", rdfs::SUB_CLASS_OF, "imcl:Resource"));
        assert!(g.contains("imcl:thePrinter", rdf::TYPE, "imcl:Printer"));
        assert!(g.contains("imcl:thePrinter", rdf::TYPE, "imcl:Resource"));
    }

    #[test]
    fn transitive_property_axiom() {
        let mut g = Graph::new();
        g.add("imcl:locatedIn", rdf::TYPE, owl::TRANSITIVE_PROPERTY);
        g.add("ex:prn", "imcl:locatedIn", "ex:room");
        g.add("ex:room", "imcl:locatedIn", "ex:building");
        g.add("ex:building", "imcl:locatedIn", "ex:campus");
        let mut r = Reasoner::with_axioms(&mut g);
        r.materialize(&mut g);
        assert!(g.contains("ex:prn", "imcl:locatedIn", "ex:building"));
        assert!(g.contains("ex:prn", "imcl:locatedIn", "ex:campus"));
        assert!(g.contains("ex:room", "imcl:locatedIn", "ex:campus"));
    }

    #[test]
    fn symmetric_and_inverse_axioms() {
        let mut g = Graph::new();
        g.add("ex:adjacentTo", rdf::TYPE, owl::SYMMETRIC_PROPERTY);
        g.add("ex:a", "ex:adjacentTo", "ex:b");
        g.add("ex:contains", owl::INVERSE_OF, "imcl:locatedIn");
        g.add("ex:room", "ex:contains", "ex:prn");
        let mut r = Reasoner::with_axioms(&mut g);
        r.materialize(&mut g);
        assert!(g.contains("ex:b", "ex:adjacentTo", "ex:a"));
        assert!(g.contains("ex:prn", "imcl:locatedIn", "ex:room"));
    }

    #[test]
    fn equivalent_class_gives_mutual_subclass() {
        let mut g = Graph::new();
        g.add("ex:Laptop", owl::EQUIVALENT_CLASS, "ex:NotebookComputer");
        g.add("ex:mine", rdf::TYPE, "ex:Laptop");
        let mut r = Reasoner::with_axioms(&mut g);
        r.materialize(&mut g);
        assert!(g.contains("ex:mine", rdf::TYPE, "ex:NotebookComputer"));
    }

    #[test]
    fn domain_typing() {
        let mut g = Graph::new();
        g.add("ex:plays", rdfs::DOMAIN, "ex:MediaPlayer");
        g.add("ex:app1", "ex:plays", "ex:track1");
        let mut r = Reasoner::with_axioms(&mut g);
        r.materialize(&mut g);
        assert!(g.contains("ex:app1", rdf::TYPE, "ex:MediaPlayer"));
    }

    #[test]
    fn materialization_is_idempotent() {
        let mut g = Graph::new();
        g.add("a", rdfs::SUB_CLASS_OF, "b");
        g.add("b", rdfs::SUB_CLASS_OF, "c");
        let mut r = Reasoner::with_axioms(&mut g);
        let first = r.materialize(&mut g);
        assert!(first > 0);
        let second = r.materialize(&mut g);
        assert_eq!(second, 0, "second run derives nothing new");
    }

    #[test]
    fn skolemization_is_stable_across_rounds() {
        let mut g = Graph::new();
        g.add("ex:x", "ex:p", "ex:y");
        let rules = parse_rules("[mk: (?a ex:p ?b) -> (?act ex:about ?a)]", &mut g).unwrap();
        let mut r = Reasoner::new();
        r.add_rules(rules);
        let added = r.materialize(&mut g);
        // Exactly one skolem triple; re-running adds nothing.
        assert_eq!(added, 1);
        assert_eq!(r.materialize(&mut g), 0);
        let actions = g
            .store()
            .iter()
            .filter(|t| g.term_to_string(t.p) == "ex:about")
            .count();
        assert_eq!(actions, 1);
    }

    #[test]
    fn skolem_names_are_content_derived() {
        // Two independent reasoners over independently built graphs mint
        // the identical skolem IRI for the same firing.
        let build = || {
            let mut g = Graph::new();
            g.add("ex:x", "ex:p", "ex:y");
            let rules = parse_rules("[mk: (?a ex:p ?b) -> (?act ex:about ?a)]", &mut g).unwrap();
            let mut r = Reasoner::new();
            r.add_rules(rules);
            r.materialize(&mut g);
            rendered(&g)
        };
        assert_eq!(build(), build());
        // And the memo is a pure cache: a fresh reasoner re-derives the
        // same name on an already-materialized graph, adding nothing.
        let mut g = Graph::new();
        g.add("ex:x", "ex:p", "ex:y");
        let rules = parse_rules("[mk: (?a ex:p ?b) -> (?act ex:about ?a)]", &mut g).unwrap();
        let mut r1 = Reasoner::new();
        r1.add_rules(rules.clone());
        assert_eq!(r1.materialize(&mut g), 1);
        let mut r2 = Reasoner::new();
        r2.add_rules(rules);
        assert_eq!(r2.materialize(&mut g), 0, "cold memo mints identical IRIs");
    }

    #[test]
    fn builtin_guard_prunes_firings() {
        let mut g = Graph::new();
        let fast = g.int_lit(300);
        let slow = g.int_lit(3000);
        g.add_with_object("ex:linkA", "ex:rt", fast);
        g.add_with_object("ex:linkB", "ex:rt", slow);
        let rules = parse_rules(
            "[ok: (?l ex:rt ?t), lessThan(?t, '1000'^^xsd:double) -> (?l ex:usable 'yes')]",
            &mut g,
        )
        .unwrap();
        let mut r = Reasoner::new();
        r.add_rules(rules);
        r.materialize(&mut g);
        assert!(
            g.contains("ex:linkA", "ex:usable", "'yes'") || {
                // 'yes' is a string literal, check via objects_of
                let o = g.objects_of("ex:linkA", "ex:usable");
                !o.is_empty()
            }
        );
        assert!(g.objects_of("ex:linkB", "ex:usable").is_empty());
    }

    #[test]
    fn derived_closure_is_sound_for_chains() {
        // locatedIn chain of length n: closure adds n*(n-1)/2 - (n-1) pairs... just
        // verify every derived pair respects reachability.
        let mut g = Graph::new();
        let n = 6;
        for i in 0..n {
            g.add(
                &format!("ex:n{i}"),
                "imcl:locatedIn",
                &format!("ex:n{}", i + 1),
            );
        }
        let rules = parse_rules(
            "[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]",
            &mut g,
        )
        .unwrap();
        let mut r = Reasoner::new();
        r.add_rules(rules);
        r.materialize(&mut g);
        // All pairs (i, j) with i < j must now be present: (n+1) nodes.
        for i in 0..=n {
            for j in (i + 1)..=n {
                assert!(
                    g.contains(&format!("ex:n{i}"), "imcl:locatedIn", &format!("ex:n{j}")),
                    "missing ({i},{j})"
                );
            }
        }
        let expected = (n + 1) * n / 2;
        let actual = g
            .store()
            .iter()
            .filter(|t| Some(t.p) == g.try_iri("imcl:locatedIn"))
            .count();
        assert_eq!(
            actual, expected,
            "closure is exactly the reachability relation"
        );
    }

    /// Builds a mixed workload exercising every axiom family plus a
    /// skolemizing custom rule and a builtin guard.
    fn mixed_workload() -> (Graph, Vec<Rule>) {
        let mut g = Graph::new();
        for i in 0..5 {
            g.add(
                &format!("ex:C{i}"),
                rdfs::SUB_CLASS_OF,
                &format!("ex:C{}", i + 1),
            );
            g.add(&format!("ex:inst{i}"), rdf::TYPE, &format!("ex:C{i}"));
        }
        g.add("imcl:locatedIn", rdf::TYPE, owl::TRANSITIVE_PROPERTY);
        for i in 0..6 {
            g.add(
                &format!("ex:s{i}"),
                "imcl:locatedIn",
                &format!("ex:s{}", i + 1),
            );
        }
        g.add("ex:near", rdf::TYPE, owl::SYMMETRIC_PROPERTY);
        g.add("ex:s0", "ex:near", "ex:s3");
        g.add("ex:hosts", owl::INVERSE_OF, "imcl:locatedIn");
        g.add("ex:plays", rdfs::DOMAIN, "ex:MediaPlayer");
        g.add("ex:app", "ex:plays", "ex:track");
        let rt = g.int_lit(120);
        g.add_with_object("ex:link", "ex:rt", rt);
        let mut rules = axiom_rules(&mut g);
        rules.extend(
            parse_rules(
                "[mk: (?x imcl:locatedIn ?y), (?x ex:near ?z) -> (?act ex:visits ?z)]\n\
                 [guard: (?l ex:rt ?t), lessThan(?t, '1000'^^xsd:double) -> (?l ex:fast 'y')]",
                &mut g,
            )
            .unwrap(),
        );
        (g, rules)
    }

    #[test]
    fn seminaive_closure_equals_naive_closure() {
        let (g, rules) = mixed_workload();
        let mut g_fast = g.clone();
        let mut g_slow = g;
        let mut fast = Reasoner::new();
        fast.add_rules(rules.clone());
        let mut slow = Reasoner::new();
        slow.add_rules(rules);
        let added_fast = fast.materialize(&mut g_fast);
        let added_slow = slow.materialize_naive(&mut g_slow);
        assert_eq!(added_fast, added_slow, "same number of derivations");
        assert_eq!(
            rendered(&g_fast),
            rendered(&g_slow),
            "bit-identical closure"
        );
    }

    #[test]
    fn incremental_matches_full_rematerialization() {
        let (g, rules) = mixed_workload();
        let mut g_inc = g.clone();
        let mut r_inc = Reasoner::new();
        r_inc.add_rules(rules.clone());
        r_inc.materialize(&mut g_inc);

        // Assert a new fact that interacts with the transitive chain.
        let mut g_full = g;
        let delta = {
            let s = g_inc.iri("ex:s7");
            let p = g_inc.iri("imcl:locatedIn");
            let o = g_inc.iri("ex:s8");
            Triple::new(s, p, o)
        };
        let inc_added = r_inc.materialize_incremental(&mut g_inc, [delta]);
        assert!(inc_added > 0, "delta has consequences");

        g_full.add("ex:s7", "imcl:locatedIn", "ex:s8");
        let mut r_full = Reasoner::new();
        r_full.add_rules(rules);
        r_full.materialize(&mut g_full);
        assert_eq!(rendered(&g_inc), rendered(&g_full));
    }

    #[test]
    fn incremental_on_closed_graph_is_a_noop() {
        let (mut g, rules) = mixed_workload();
        let mut r = Reasoner::new();
        r.add_rules(rules);
        r.materialize(&mut g);
        // Re-asserting an existing triple derives nothing new.
        let existing = *g.store().iter().next().unwrap();
        assert_eq!(r.materialize_incremental(&mut g, [existing]), 0);
    }

    #[test]
    fn planner_join_matches_textual_join() {
        let (mut g, rules) = mixed_workload();
        let mut r = Reasoner::new();
        r.add_rules(rules.clone());
        r.materialize(&mut g);
        for rule in &rules {
            let mut planned = match_rule(g.store(), rule);
            let mut textual = match_rule_textual(g.store(), rule);
            planned.sort();
            textual.sort();
            assert_eq!(planned, textual, "rule {}", rule.name);
        }
    }

    #[test]
    fn variable_predicate_rules_chain_incrementally() {
        // rdfs7-style rule where the delta's predicate position is a
        // variable: must be seeded via the any-predicate bucket.
        let mut g = Graph::new();
        g.add("ex:p", rdfs::SUB_PROPERTY_OF, "ex:q");
        let rules = axiom_rules(&mut g);
        let mut r = Reasoner::new();
        r.add_rules(rules);
        r.materialize(&mut g);
        let delta = {
            let s = g.iri("ex:a");
            let p = g.iri("ex:p");
            let o = g.iri("ex:b");
            Triple::new(s, p, o)
        };
        r.materialize_incremental(&mut g, [delta]);
        assert!(g.contains("ex:a", "ex:q", "ex:b"), "rdfs7 fired on delta");
    }

    #[test]
    fn stats_track_rounds_and_skips() {
        let mut g = Graph::new();
        g.add("imcl:prn", "imcl:locatedIn", "imcl:Office821");
        g.add("imcl:Office821", "imcl:locatedIn", "imcl:Building8");
        g.add("imcl:Building8", "imcl:locatedIn", "imcl:Campus");
        let rules = crate::parser::parse_rules(
            "[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]\
             [Idle: (?x imcl:neverSeen ?y) -> (?y imcl:neverSeen ?x)]",
            &mut g,
        )
        .unwrap();
        let mut r = Reasoner::new();
        r.add_rules(rules);
        let derived = r.materialize(&mut g);
        let stats = r.last_stats().clone();
        assert_eq!(stats.facts_derived, derived);
        assert!(derived > 0);
        assert!(stats.rounds >= 2, "transitive closure needs 2+ rounds");
        assert_eq!(stats.delta_sizes.len(), stats.rounds);
        assert_eq!(stats.delta_sizes[0], 3, "round 0 delta is the whole store");
        assert!(stats.rules_evaluated >= 1);
        assert!(
            stats.rules_skipped >= 1,
            "occurrence index must skip the idle rule in later rounds"
        );
        assert!(stats.seed_evaluations >= stats.rules_evaluated);
        assert_eq!(stats.max_delta(), 3);

        // Incremental run resets the counters.
        let delta = {
            let s = g.iri("imcl:Campus");
            let p = g.iri("imcl:locatedIn");
            let o = g.iri("imcl:Earth");
            Triple::new(s, p, o)
        };
        r.materialize_incremental(&mut g, [delta]);
        let stats2 = r.last_stats();
        assert_eq!(stats2.delta_sizes[0], 1);
        assert!(stats2.facts_derived >= 3, "closure extends to imcl:Earth");
    }

    #[test]
    fn unify_pattern_rejects_conflicts() {
        let mut g = Graph::new();
        let p = g.iri("ex:p");
        let a = g.iri("ex:a");
        let b = g.iri("ex:b");
        // (?x ex:p ?x) vs (a p b): repeated var mismatch.
        let pat = TriplePattern::new(VarId(0), p, VarId(0));
        let mut binding = vec![None];
        assert!(!unify_pattern(&pat, Triple::new(a, p, b), &mut binding));
        assert_eq!(binding, vec![None], "failed unify leaves binding untouched");
        // (?x ex:p ?x) vs (a p a): binds.
        assert!(unify_pattern(&pat, Triple::new(a, p, a), &mut binding));
        assert_eq!(binding, vec![Some(a)]);
        // Existing binding conflicts.
        let pat2 = TriplePattern::new(VarId(0), p, VarId(1));
        let mut binding2 = vec![Some(b), None];
        assert!(!unify_pattern(&pat2, Triple::new(a, p, b), &mut binding2));
        // Ground mismatch.
        let pat3 = TriplePattern::new(a, p, b);
        assert!(!unify_pattern(&pat3, Triple::new(b, p, b), &mut []));
    }

    /// Builds the transitive `locatedIn` chain `n0 → n1 → … → n{len}`,
    /// closes it, and returns the graph/reasoner pair.
    fn closed_chain(len: usize) -> (Graph, Reasoner) {
        let mut g = Graph::new();
        g.add("imcl:locatedIn", rdf::TYPE, owl::TRANSITIVE_PROPERTY);
        for i in 0..len {
            g.add(
                &format!("ex:n{i}"),
                "imcl:locatedIn",
                &format!("ex:n{}", i + 1),
            );
        }
        let mut r = Reasoner::with_axioms(&mut g);
        r.materialize(&mut g);
        (g, r)
    }

    /// The closure a fresh reasoner computes over `g`'s base triples after
    /// dropping `skip`, rendered for comparison.
    fn from_scratch_without(base: &[(String, String, String)], skip: &[usize]) -> BTreeSet<String> {
        let mut g = Graph::new();
        for (i, (s, p, o)) in base.iter().enumerate() {
            if !skip.contains(&i) {
                g.add(s, p, o);
            }
        }
        let mut r = Reasoner::with_axioms(&mut g);
        r.materialize(&mut g);
        rendered(&g)
    }

    #[test]
    fn retract_chain_edge_matches_from_scratch() {
        let (mut g, mut r) = closed_chain(6);
        let base: Vec<(String, String, String)> = std::iter::once((
            "imcl:locatedIn".to_owned(),
            rdf::TYPE.to_owned(),
            owl::TRANSITIVE_PROPERTY.to_owned(),
        ))
        .chain((0..6).map(|i| {
            (
                format!("ex:n{i}"),
                "imcl:locatedIn".to_owned(),
                format!("ex:n{}", i + 1),
            )
        }))
        .collect();
        // Retract the middle edge n2 → n3: every path crossing it dies,
        // everything strictly left or right of the cut survives.
        let t = {
            let s = g.iri("ex:n2");
            let p = g.iri("imcl:locatedIn");
            let o = g.iri("ex:n3");
            Triple::new(s, p, o)
        };
        let removed = r.retract(&mut g, t);
        assert!(removed > 1, "cut edge takes derived paths with it");
        assert_eq!(rendered(&g), from_scratch_without(&base, &[3]));
        let stats = r.last_retract_stats();
        assert_eq!(stats.requested, 1);
        assert_eq!(stats.retracted_base, 1);
        assert_eq!(stats.removed, removed);
        assert!(stats.waves >= 1);
    }

    #[test]
    fn retract_derived_fact_is_a_net_noop() {
        let (mut g, mut r) = closed_chain(4);
        // n0 → n2 is derived, not base: retracting it clears nothing
        // because the chain still proves it.
        let t = {
            let s = g.iri("ex:n0");
            let p = g.iri("imcl:locatedIn");
            let o = g.iri("ex:n2");
            Triple::new(s, p, o)
        };
        assert!(!r.is_base(&t));
        let before = rendered(&g);
        let removed = r.retract(&mut g, t);
        assert_eq!(removed, 0);
        assert_eq!(rendered(&g), before, "rederivation restores the closure");
        assert!(r.last_retract_stats().rederived >= 1);
    }

    #[test]
    fn retract_fact_that_is_both_base_and_derived() {
        let mut g = Graph::new();
        g.add("imcl:locatedIn", rdf::TYPE, owl::TRANSITIVE_PROPERTY);
        g.add("ex:a", "imcl:locatedIn", "ex:b");
        g.add("ex:b", "imcl:locatedIn", "ex:c");
        // Also asserted directly, so it is base *and* derivable.
        g.add("ex:a", "imcl:locatedIn", "ex:c");
        let mut r = Reasoner::with_axioms(&mut g);
        r.materialize(&mut g);
        let t = {
            let s = g.iri("ex:a");
            let p = g.iri("imcl:locatedIn");
            let o = g.iri("ex:c");
            Triple::new(s, p, o)
        };
        assert!(r.is_base(&t));
        let removed = r.retract(&mut g, t);
        assert_eq!(removed, 0, "still derivable from the surviving chain");
        assert!(g.contains("ex:a", "imcl:locatedIn", "ex:c"));
        assert!(!r.is_base(&t), "asserted status is gone regardless");
        // Now cut the chain: the fact loses its last support and dies.
        let edge = {
            let s = g.iri("ex:b");
            let p = g.iri("imcl:locatedIn");
            let o = g.iri("ex:c");
            Triple::new(s, p, o)
        };
        let removed = r.retract(&mut g, edge);
        assert_eq!(removed, 2, "chain edge and the no-longer-derivable a→c");
        assert!(!g.contains("ex:a", "imcl:locatedIn", "ex:c"));
    }

    #[test]
    fn retract_cyclic_support_dies_together() {
        // Symmetric property: a↔b support each other in a 2-cycle. A
        // pure counting scheme would leave both alive (each counts the
        // other as support); DRed must delete both.
        let mut g = Graph::new();
        g.add("ex:adjacentTo", rdf::TYPE, owl::SYMMETRIC_PROPERTY);
        g.add("ex:a", "ex:adjacentTo", "ex:b");
        let mut r = Reasoner::with_axioms(&mut g);
        r.materialize(&mut g);
        assert!(g.contains("ex:b", "ex:adjacentTo", "ex:a"));
        let t = {
            let s = g.iri("ex:a");
            let p = g.iri("ex:adjacentTo");
            let o = g.iri("ex:b");
            Triple::new(s, p, o)
        };
        let removed = r.retract(&mut g, t);
        assert_eq!(removed, 2, "both directions die: no external support");
        assert!(!g.contains("ex:a", "ex:adjacentTo", "ex:b"));
        assert!(!g.contains("ex:b", "ex:adjacentTo", "ex:a"));
    }

    #[test]
    fn retract_unreferenced_predicate_takes_fast_exit() {
        // The axiom set has variable-predicate rules (every fact seeds
        // them), so the fast exit needs a ground-predicate rule set.
        let mut g = Graph::new();
        g.add("ex:a", "imcl:locatedIn", "ex:b");
        let rules = parse_rules(
            "[tr: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]",
            &mut g,
        )
        .unwrap();
        let mut r = Reasoner::new();
        r.add_rules(rules);
        r.materialize(&mut g);
        g.add("ex:n0", "ex:label", "ex:tag");
        let t = {
            let s = g.iri("ex:n0");
            let p = g.iri("ex:label");
            let o = g.iri("ex:tag");
            Triple::new(s, p, o)
        };
        r.materialize_incremental(&mut g, [t]);
        let removed = r.retract(&mut g, t);
        assert_eq!(removed, 1);
        assert!(!g.contains("ex:n0", "ex:label", "ex:tag"));
        let stats = r.last_retract_stats();
        assert_eq!(stats.fast_exits, 1, "no rule reads or writes ex:label");
        assert_eq!(stats.waves, 0, "no DRed pass ran");
    }

    #[test]
    fn retract_batch_matches_sequential_retracts() {
        let build = || closed_chain(8);
        let edges = |g: &mut Graph| -> Vec<Triple> {
            [(1usize, 2usize), (4, 5), (6, 7)]
                .iter()
                .map(|&(i, j)| {
                    let s = g.iri(&format!("ex:n{i}"));
                    let p = g.iri("imcl:locatedIn");
                    let o = g.iri(&format!("ex:n{j}"));
                    Triple::new(s, p, o)
                })
                .collect()
        };
        let (mut g1, mut r1) = build();
        let ts = edges(&mut g1);
        r1.retract_batch(&mut g1, ts.iter().copied());
        let (mut g2, mut r2) = build();
        let ts2 = edges(&mut g2);
        for t in ts2 {
            r2.retract(&mut g2, t);
        }
        assert_eq!(rendered(&g1), rendered(&g2));
        assert_eq!(r1.last_retract_stats().requested, 3);
    }

    #[test]
    fn retract_missing_fact_is_harmless() {
        let (mut g, mut r) = closed_chain(3);
        let before = rendered(&g);
        let t = {
            let s = g.iri("ex:ghost");
            let p = g.iri("imcl:locatedIn");
            let o = g.iri("ex:nowhere");
            Triple::new(s, p, o)
        };
        assert_eq!(r.retract(&mut g, t), 0);
        assert_eq!(rendered(&g), before);
    }

    #[test]
    fn retract_then_rematerialize_round_trip() {
        // After a retraction the reasoner's bookkeeping must still accept
        // new increments and produce the same closure a fresh run would.
        let (mut g, mut r) = closed_chain(5);
        let t = {
            let s = g.iri("ex:n1");
            let p = g.iri("imcl:locatedIn");
            let o = g.iri("ex:n2");
            Triple::new(s, p, o)
        };
        r.retract(&mut g, t);
        // Re-assert the same edge incrementally: full closure returns.
        g.add_triple(t);
        r.materialize_incremental(&mut g, [t]);
        let (g2, _) = closed_chain(5);
        assert_eq!(rendered(&g), rendered(&g2));
    }
}
