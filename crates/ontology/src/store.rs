//! Indexed triple store.

use crate::fx::{FxHashMap, FxHashSet};

use crate::term::Term;
use crate::triple::{PatternTerm, Triple, TriplePattern};

/// Leaf of a two-level index: a posting list kept sorted by [`Term`]'s
/// total order. Sorted `Vec`s iterate in exactly the order the previous
/// `BTreeSet` representation did (so closures and query results are
/// bit-identical), scan contiguously, and — crucially for the reasoner's
/// batch joins — support sorted-merge set difference against another
/// posting list without any hashing.
type Posting = Vec<Term>;

/// One tier of a two-level index: terms mapped to sorted posting lists,
/// plus the total number of leaf entries across them. Caching the total
/// here gives the planner its O(1) per-position cardinalities from data
/// already touched by every insert/remove — no separate counter maps.
#[derive(Debug, Clone, Default)]
struct Level2 {
    map: FxHashMap<Term, Posting>,
    total: usize,
}

type TwoLevel = FxHashMap<Term, Level2>;

const EMPTY_POSTING: &[Term] = &[];

/// An in-memory triple store with SPO, POS and OSP indexes.
///
/// All three indexes are maintained on every insert/remove so any pattern
/// with at least one ground position scans a narrow slice. Per-position
/// cardinality counters ride along with the indexes, giving the join
/// planner (see [`Reasoner`](crate::Reasoner)) O(1) exact counts for every match mask
/// via [`Store::count_match`]. Index leaves are sorted posting lists
/// ([`Store::objects_sp`] and friends expose them as slices), which is
/// what the reasoner's merge-join fast path iterates.
///
/// # Examples
///
/// ```
/// use mdagent_ontology::{Interner, Store, Term, Triple};
///
/// let mut interner = Interner::default();
/// let mut store = Store::new();
/// let s = Term::Iri(interner.intern("imcl:hpLaserJet"));
/// let p = Term::Iri(interner.intern("rdf:type"));
/// let o = Term::Iri(interner.intern("imcl:Printer"));
/// assert!(store.insert(Triple::new(s, p, o)));
/// assert!(!store.insert(Triple::new(s, p, o)), "duplicate insert is a no-op");
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.match_spo(Some(s), None, None).len(), 1);
/// assert_eq!(store.count_match(None, Some(p), None), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Store {
    all: FxHashSet<Triple>,
    spo: TwoLevel,
    pos: TwoLevel,
    osp: TwoLevel,
}

fn index_insert(index: &mut TwoLevel, a: Term, b: Term, c: Term) {
    let level2 = index.entry(a).or_default();
    let posting = level2.map.entry(b).or_default();
    if let Err(pos) = posting.binary_search(&c) {
        posting.insert(pos, c);
        level2.total += 1;
    }
}

/// Removes a batch of `(a, b, c)` entries — given as triples rearranged
/// through `key` into this index's component order and sorted by that
/// order — sharing level-1/level-2 probes across runs with equal keys and
/// rewriting each touched posting in one two-pointer pass.
fn index_remove_batch(
    index: &mut TwoLevel,
    sorted: &[Triple],
    key: impl Fn(&Triple) -> (Term, Term, Term),
) {
    let mut i = 0;
    while i < sorted.len() {
        let a = key(&sorted[i]).0;
        let mut end_a = i + 1;
        while end_a < sorted.len() && key(&sorted[end_a]).0 == a {
            end_a += 1;
        }
        if let Some(level2) = index.get_mut(&a) {
            // Batch entries are distinct and were all present, so a run
            // as long as the level's total covers every entry under this
            // key: drop the whole level without touching its postings.
            if end_a - i == level2.total {
                index.remove(&a);
                i = end_a;
                continue;
            }
            let mut j = i;
            while j < end_a {
                let b = key(&sorted[j]).1;
                let mut end_b = j + 1;
                while end_b < end_a && key(&sorted[end_b]).1 == b {
                    end_b += 1;
                }
                if let Some(posting) = level2.map.get_mut(&b) {
                    // Same coverage argument, one posting down.
                    if end_b - j == posting.len() {
                        level2.total -= posting.len();
                        level2.map.remove(&b);
                        j = end_b;
                        continue;
                    }
                    // Few removals from a long posting: binary-search each
                    // (removing near the tail shifts little). Dense
                    // removals: one retain pass over the posting.
                    if (end_b - j) * 8 < posting.len() {
                        for t in &sorted[j..end_b] {
                            let c = key(t).2;
                            // Tail check first: churn retracts recently
                            // interned terms, which sort last — `pop`
                            // touches one cache line where a binary
                            // search over a cold posting touches ~log n.
                            if posting.last() == Some(&c) {
                                posting.pop();
                                level2.total -= 1;
                            } else if let Ok(pos) = posting.binary_search(&c) {
                                posting.remove(pos);
                                level2.total -= 1;
                            }
                        }
                    } else {
                        let before = posting.len();
                        let mut k = j;
                        posting.retain(|&c| {
                            while k < end_b && key(&sorted[k]).2 < c {
                                k += 1;
                            }
                            !(k < end_b && key(&sorted[k]).2 == c)
                        });
                        level2.total -= before - posting.len();
                    }
                    if posting.is_empty() {
                        level2.map.remove(&b);
                    }
                }
                j = end_b;
            }
            if level2.map.is_empty() {
                index.remove(&a);
            }
        }
        i = end_a;
    }
}

fn index_remove(index: &mut TwoLevel, a: Term, b: Term, c: Term) {
    if let Some(level2) = index.get_mut(&a) {
        if let Some(level3) = level2.map.get_mut(&b) {
            if let Ok(pos) = level3.binary_search(&c) {
                level3.remove(pos);
                level2.total -= 1;
            }
            if level3.is_empty() {
                level2.map.remove(&b);
            }
        }
        if level2.map.is_empty() {
            index.remove(&a);
        }
    }
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a triple; returns `false` if it was already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        if !self.all.insert(t) {
            return false;
        }
        index_insert(&mut self.spo, t.s, t.p, t.o);
        index_insert(&mut self.pos, t.p, t.o, t.s);
        index_insert(&mut self.osp, t.o, t.s, t.p);
        true
    }

    /// Removes a triple; returns `false` if it was absent.
    pub fn remove(&mut self, t: &Triple) -> bool {
        if !self.all.remove(t) {
            return false;
        }
        index_remove(&mut self.spo, t.s, t.p, t.o);
        index_remove(&mut self.pos, t.p, t.o, t.s);
        index_remove(&mut self.osp, t.o, t.s, t.p);
        true
    }

    /// Removes a batch of triples; returns how many were present.
    ///
    /// Equivalent to calling [`Store::remove`] per triple, but sorts the
    /// batch once per index so runs with equal level-1/level-2 keys share
    /// their hash probes and each touched posting is rewritten in a
    /// single pass instead of shifting per element. Retraction removes
    /// hundreds of triples clustered around a few predicates and objects;
    /// grouped removal takes that well below the per-triple cost.
    pub fn remove_batch(&mut self, triples: &[Triple]) -> usize {
        let mut present: Vec<Triple> = Vec::with_capacity(triples.len());
        for t in triples {
            if self.all.remove(t) {
                present.push(*t);
            }
        }
        let spo_key = |t: &Triple| (t.s, t.p, t.o);
        let pos_key = |t: &Triple| (t.p, t.o, t.s);
        let osp_key = |t: &Triple| (t.o, t.s, t.p);
        present.sort_unstable_by_key(spo_key);
        index_remove_batch(&mut self.spo, &present, spo_key);
        present.sort_unstable_by_key(pos_key);
        index_remove_batch(&mut self.pos, &present, pos_key);
        present.sort_unstable_by_key(osp_key);
        index_remove_batch(&mut self.osp, &present, osp_key);
        present.len()
    }

    /// Whether the triple is present.
    pub fn contains(&self, t: &Triple) -> bool {
        self.all.contains(t)
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Iterates over every triple (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.all.iter()
    }

    /// Number of triples whose subject is `s` (O(1)).
    pub fn subject_cardinality(&self, s: Term) -> usize {
        self.spo.get(&s).map_or(0, |l| l.total)
    }

    /// Number of triples whose predicate is `p` (O(1)).
    pub fn predicate_cardinality(&self, p: Term) -> usize {
        self.pos.get(&p).map_or(0, |l| l.total)
    }

    /// Number of triples whose object is `o` (O(1)).
    pub fn object_cardinality(&self, o: Term) -> usize {
        self.osp.get(&o).map_or(0, |l| l.total)
    }

    /// Exact number of triples matching a `(s?, p?, o?)` mask, in O(1) for
    /// every mask shape (the join planner's cost oracle).
    pub fn count_match(&self, s: Option<Term>, p: Option<Term>, o: Option<Term>) -> usize {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.contains(&Triple::new(s, p, o))),
            (Some(s), Some(p), None) => self.objects_sp(s, p).len(),
            (Some(s), None, Some(o)) => self.predicates_os(o, s).len(),
            (None, Some(p), Some(o)) => self.subjects_po(p, o).len(),
            (Some(s), None, None) => self.subject_cardinality(s),
            (None, Some(p), None) => self.predicate_cardinality(p),
            (None, None, Some(o)) => self.object_cardinality(o),
            (None, None, None) => self.len(),
        }
    }

    /// The objects of every `(s, p, ?o)` triple, as a slice sorted by
    /// [`Term`]'s total order. Empty if none.
    pub fn objects_sp(&self, s: Term, p: Term) -> &[Term] {
        self.spo
            .get(&s)
            .and_then(|l| l.map.get(&p))
            .map_or(EMPTY_POSTING, Vec::as_slice)
    }

    /// The subjects of every `(?s, p, o)` triple, sorted. Empty if none.
    pub fn subjects_po(&self, p: Term, o: Term) -> &[Term] {
        self.pos
            .get(&p)
            .and_then(|l| l.map.get(&o))
            .map_or(EMPTY_POSTING, Vec::as_slice)
    }

    /// The predicates of every `(s, ?p, o)` triple, sorted. Empty if none.
    pub fn predicates_os(&self, o: Term, s: Term) -> &[Term] {
        self.osp
            .get(&o)
            .and_then(|l| l.map.get(&s))
            .map_or(EMPTY_POSTING, Vec::as_slice)
    }

    /// Calls `f` for every triple matching a `(s?, p?, o?)` mask, picking
    /// the best index. This is the allocation-free probe underlying
    /// [`Store::match_spo`]; join evaluation uses it directly.
    pub fn for_each_match(
        &self,
        s: Option<Term>,
        p: Option<Term>,
        o: Option<Term>,
        mut f: impl FnMut(Triple),
    ) {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let t = Triple::new(s, p, o);
                if self.contains(&t) {
                    f(t);
                }
            }
            (Some(s), Some(p), None) => {
                if let Some(objects) = self.spo.get(&s).and_then(|l| l.map.get(&p)) {
                    for &o in objects {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (Some(s), None, Some(o)) => {
                if let Some(preds) = self.osp.get(&o).and_then(|l| l.map.get(&s)) {
                    for &p in preds {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (None, Some(p), Some(o)) => {
                if let Some(subjects) = self.pos.get(&p).and_then(|l| l.map.get(&o)) {
                    for &s in subjects {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (Some(s), None, None) => {
                if let Some(l) = self.spo.get(&s) {
                    for (&p, objects) in &l.map {
                        for &o in objects {
                            f(Triple::new(s, p, o));
                        }
                    }
                }
            }
            (None, Some(p), None) => {
                if let Some(l) = self.pos.get(&p) {
                    for (&o, subjects) in &l.map {
                        for &s in subjects {
                            f(Triple::new(s, p, o));
                        }
                    }
                }
            }
            (None, None, Some(o)) => {
                if let Some(l) = self.osp.get(&o) {
                    for (&s, preds) in &l.map {
                        for &p in preds {
                            f(Triple::new(s, p, o));
                        }
                    }
                }
            }
            (None, None, None) => {
                for &t in &self.all {
                    f(t);
                }
            }
        }
    }

    /// Matches a `(s?, p?, o?)` mask, collecting into a `Vec`.
    ///
    /// Convenience wrapper over [`Store::for_each_match`] for callers that
    /// want owned results; hot paths should prefer the callback form.
    pub fn match_spo(&self, s: Option<Term>, p: Option<Term>, o: Option<Term>) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(s, p, o, |t| out.push(t));
        out
    }

    /// Calls `f` for every stored triple matching `pattern` under
    /// `bindings`, passing the triple itself. Bound variables are
    /// substituted into the probe mask; `f` must itself check positions
    /// occupied by repeated variables — use
    /// [`crate::reason::unify_pattern`] or [`Store::match_pattern`] when
    /// full unification is wanted.
    fn for_each_pattern_candidate(
        &self,
        pattern: &TriplePattern,
        bindings: &[Option<Term>],
        f: impl FnMut(Triple),
    ) {
        let resolve = |pt: PatternTerm| -> Option<Term> {
            match pt {
                PatternTerm::Ground(t) => Some(t),
                PatternTerm::Var(v) => bindings.get(v.0 as usize).copied().flatten(),
            }
        };
        self.for_each_match(
            resolve(pattern.s),
            resolve(pattern.p),
            resolve(pattern.o),
            f,
        );
    }

    /// Matches a pattern under partial bindings, extending them per match.
    ///
    /// For every stored triple matching the pattern (with bound variables
    /// substituted), calls `sink` with the bindings extended by the
    /// pattern's own variables. `bindings` must be at least as long as the
    /// highest variable index used.
    pub fn match_pattern(
        &self,
        pattern: &TriplePattern,
        bindings: &[Option<Term>],
        mut sink: impl FnMut(Vec<Option<Term>>),
    ) {
        self.for_each_pattern_candidate(pattern, bindings, |triple| {
            let mut next = bindings.to_vec();
            let mut consistent = true;
            for (pt, actual) in [
                (pattern.s, triple.s),
                (pattern.p, triple.p),
                (pattern.o, triple.o),
            ] {
                if let PatternTerm::Var(v) = pt {
                    let slot = &mut next[v.0 as usize];
                    match slot {
                        Some(existing) if *existing != actual => {
                            consistent = false;
                            break;
                        }
                        _ => *slot = Some(actual),
                    }
                }
            }
            if consistent {
                sink(next);
            }
        });
    }

    /// In-place variant of [`Store::match_pattern`]: binds the pattern's
    /// variables directly in `bindings`, calls `sink`, then restores the
    /// previous state — no per-match allocation.
    pub fn match_pattern_in_place(
        &self,
        pattern: &TriplePattern,
        bindings: &mut Vec<Option<Term>>,
        mut sink: impl FnMut(&mut Vec<Option<Term>>),
    ) {
        // The probe mask borrows `bindings` only to build three Options.
        let resolve = |pt: PatternTerm, b: &[Option<Term>]| -> Option<Term> {
            match pt {
                PatternTerm::Ground(t) => Some(t),
                PatternTerm::Var(v) => b.get(v.0 as usize).copied().flatten(),
            }
        };
        let (ms, mp, mo) = (
            resolve(pattern.s, bindings),
            resolve(pattern.p, bindings),
            resolve(pattern.o, bindings),
        );
        self.for_each_match(ms, mp, mo, |triple| {
            let mut touched = [None::<u32>; 3];
            let mut touched_len = 0;
            let mut consistent = true;
            for (pt, actual) in [
                (pattern.s, triple.s),
                (pattern.p, triple.p),
                (pattern.o, triple.o),
            ] {
                if let PatternTerm::Var(v) = pt {
                    let slot = &mut bindings[v.0 as usize];
                    match slot {
                        Some(existing) if *existing != actual => {
                            consistent = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            *slot = Some(actual);
                            touched[touched_len] = Some(v.0);
                            touched_len += 1;
                        }
                    }
                }
            }
            if consistent {
                sink(bindings);
            }
            for idx in touched.iter().flatten() {
                bindings[*idx as usize] = None;
            }
        });
    }
}

impl Extend<Triple> for Store {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl FromIterator<Triple> for Store {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut store = Store::new();
        store.extend(iter);
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Interner, Literal};
    use crate::triple::VarId;

    struct Fixture {
        store: Store,
        alice: Term,
        bob: Term,
        knows: Term,
        age: Term,
    }

    fn fixture() -> Fixture {
        let mut i = Interner::new();
        let alice = Term::Iri(i.intern("ex:alice"));
        let bob = Term::Iri(i.intern("ex:bob"));
        let knows = Term::Iri(i.intern("ex:knows"));
        let age = Term::Iri(i.intern("ex:age"));
        let mut store = Store::new();
        store.insert(Triple::new(alice, knows, bob));
        store.insert(Triple::new(bob, knows, alice));
        store.insert(Triple::new(alice, age, Term::Literal(Literal::Int(30))));
        Fixture {
            store,
            alice,
            bob,
            knows,
            age,
        }
    }

    #[test]
    fn all_masks_agree() {
        let f = fixture();
        assert_eq!(f.store.len(), 3);
        assert_eq!(f.store.match_spo(Some(f.alice), None, None).len(), 2);
        assert_eq!(f.store.match_spo(None, Some(f.knows), None).len(), 2);
        assert_eq!(f.store.match_spo(None, None, Some(f.bob)).len(), 1);
        assert_eq!(
            f.store
                .match_spo(Some(f.alice), Some(f.knows), Some(f.bob))
                .len(),
            1
        );
        assert_eq!(f.store.match_spo(Some(f.bob), Some(f.age), None).len(), 0);
        assert_eq!(f.store.match_spo(None, None, None).len(), 3);
        assert_eq!(f.store.match_spo(Some(f.alice), None, Some(f.bob)).len(), 1);
        assert_eq!(
            f.store.match_spo(None, Some(f.knows), Some(f.alice)).len(),
            1
        );
    }

    #[test]
    fn count_match_agrees_with_match_spo_on_every_mask() {
        let f = fixture();
        let choices = [None, Some(f.alice), Some(f.bob), Some(f.knows), Some(f.age)];
        for s in choices {
            for p in choices {
                for o in choices {
                    assert_eq!(
                        f.store.count_match(s, p, o),
                        f.store.match_spo(s, p, o).len(),
                        "mask ({s:?} {p:?} {o:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn cardinalities_track_inserts_and_removes() {
        let mut f = fixture();
        assert_eq!(f.store.subject_cardinality(f.alice), 2);
        assert_eq!(f.store.predicate_cardinality(f.knows), 2);
        assert_eq!(f.store.object_cardinality(f.bob), 1);
        let t = Triple::new(f.alice, f.knows, f.bob);
        f.store.remove(&t);
        assert_eq!(f.store.subject_cardinality(f.alice), 1);
        assert_eq!(f.store.predicate_cardinality(f.knows), 1);
        assert_eq!(f.store.object_cardinality(f.bob), 0);
        // Re-insert restores the counts.
        f.store.insert(t);
        assert_eq!(f.store.predicate_cardinality(f.knows), 2);
    }

    #[test]
    fn remove_cleans_indexes() {
        let mut f = fixture();
        let t = Triple::new(f.alice, f.knows, f.bob);
        assert!(f.store.remove(&t));
        assert!(!f.store.remove(&t));
        assert_eq!(f.store.len(), 2);
        assert!(f
            .store
            .match_spo(Some(f.alice), Some(f.knows), None)
            .is_empty());
        assert_eq!(f.store.match_spo(None, Some(f.knows), None).len(), 1);
    }

    #[test]
    fn pattern_matching_extends_bindings() {
        let f = fixture();
        // (?x knows ?y)
        let pat = TriplePattern::new(VarId(0), f.knows, VarId(1));
        let mut results = Vec::new();
        f.store
            .match_pattern(&pat, &[None, None], |b| results.push(b));
        assert_eq!(results.len(), 2);
        // (?x knows ?x) matches nothing: nobody knows themselves.
        let self_pat = TriplePattern::new(VarId(0), f.knows, VarId(0));
        let mut hits = 0;
        f.store.match_pattern(&self_pat, &[None], |_| hits += 1);
        assert_eq!(hits, 0);
    }

    #[test]
    fn in_place_matching_binds_and_restores() {
        let f = fixture();
        let pat = TriplePattern::new(VarId(0), f.knows, VarId(1));
        let mut bindings = vec![None, None];
        let mut seen = Vec::new();
        f.store.match_pattern_in_place(&pat, &mut bindings, |b| {
            seen.push((b[0], b[1]));
        });
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|(a, b)| a.is_some() && b.is_some()));
        // Bindings restored after iteration.
        assert_eq!(bindings, vec![None, None]);
        // Repeated-variable pattern must reject inconsistent triples.
        let self_pat = TriplePattern::new(VarId(0), f.knows, VarId(0));
        let mut hits = 0;
        f.store
            .match_pattern_in_place(&self_pat, &mut vec![None], |_| hits += 1);
        assert_eq!(hits, 0);
    }

    #[test]
    fn pattern_respects_existing_bindings() {
        let f = fixture();
        let pat = TriplePattern::new(VarId(0), f.knows, VarId(1));
        let mut results = Vec::new();
        f.store
            .match_pattern(&pat, &[Some(f.bob), None], |b| results.push(b));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0][1], Some(f.alice));
    }

    #[test]
    fn from_iterator_collects() {
        let f = fixture();
        let copy: Store = f.store.iter().copied().collect();
        assert_eq!(copy.len(), f.store.len());
    }

    #[test]
    fn remove_batch_matches_sequential_removes() {
        // A dense little grid so whole-posting and whole-level drops, the
        // per-element fast path and the retain path all get exercised.
        let mut i = Interner::new();
        let nodes: Vec<Term> = (0..8)
            .map(|k| Term::Iri(i.intern(&format!("ex:n{k}"))))
            .collect();
        let preds: Vec<Term> = (0..3)
            .map(|k| Term::Iri(i.intern(&format!("ex:p{k}"))))
            .collect();
        let mut store = Store::new();
        for &p in &preds {
            for &s in &nodes {
                for &o in &nodes {
                    store.insert(Triple::new(s, p, o));
                }
            }
        }
        // Victims mix: one whole (s, p) group, a diagonal, an absent
        // triple, and duplicates of an earlier victim.
        let absent = Triple::new(nodes[0], Term::Iri(i.intern("ex:q")), nodes[0]);
        let mut victims: Vec<Triple> = nodes
            .iter()
            .map(|&o| Triple::new(nodes[2], preds[1], o))
            .collect();
        victims.extend((0..8).map(|k| Triple::new(nodes[k], preds[0], nodes[k])));
        victims.push(absent);
        victims.push(victims[0]);
        victims.push(victims[3]);

        let mut batch = store.clone();
        let mut sequential = store;
        let removed = batch.remove_batch(&victims);
        let mut removed_seq = 0;
        for t in &victims {
            if sequential.remove(t) {
                removed_seq += 1;
            }
        }
        assert_eq!(removed, removed_seq, "duplicates and absents count once");
        assert_eq!(batch.len(), sequential.len());
        for t in sequential.iter() {
            assert!(batch.contains(t));
        }
        // Index consistency on every single-bound mask.
        for &x in nodes.iter().chain(preds.iter()) {
            assert_eq!(
                batch.match_spo(Some(x), None, None).len(),
                sequential.match_spo(Some(x), None, None).len()
            );
            assert_eq!(
                batch.match_spo(None, Some(x), None).len(),
                sequential.match_spo(None, Some(x), None).len()
            );
            assert_eq!(
                batch.match_spo(None, None, Some(x)).len(),
                sequential.match_spo(None, None, Some(x)).len()
            );
        }
    }
}
