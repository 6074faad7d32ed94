//! The [`Graph`] facade: a triple store plus its interner.

use crate::store::Store;
use crate::term::{Interner, Literal, SymbolId, Term};
use crate::triple::Triple;

/// A knowledge base: an interner and a store that share a lifetime.
///
/// Every higher layer (registry, autonomous agents) talks to a `Graph`; raw
/// [`Store`]/[`Interner`] access remains available for the engine internals.
///
/// # Examples
///
/// ```
/// use mdagent_ontology::{Graph, vocab};
///
/// let mut g = Graph::new();
/// g.add("imcl:hpLaserJet", vocab::rdf::TYPE, "imcl:Printer");
/// g.add("imcl:Printer", vocab::rdfs::SUB_CLASS_OF, "imcl:Resource");
/// assert_eq!(g.len(), 2);
/// assert!(g.contains("imcl:hpLaserJet", vocab::rdf::TYPE, "imcl:Printer"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    interner: Interner,
    store: Store,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an IRI and returns it as a term.
    pub fn iri(&mut self, name: &str) -> Term {
        Term::Iri(self.interner.intern(name))
    }

    /// Looks up an IRI without interning. Returns `None` if never seen.
    pub fn try_iri(&self, name: &str) -> Option<Term> {
        self.interner.get(name).map(Term::Iri)
    }

    /// Interns a string literal and returns it as a term.
    pub fn str_lit(&mut self, value: &str) -> Term {
        Term::Literal(Literal::Str(self.interner.intern(value)))
    }

    /// An integer literal term.
    #[cfg(test)]
    pub fn int_lit(&self, value: i64) -> Term {
        Term::Literal(Literal::Int(value))
    }

    /// A double literal term.
    pub fn double_lit(&self, value: f64) -> Term {
        Term::Literal(Literal::double(value))
    }

    /// A boolean literal term.
    #[cfg(test)]
    pub fn bool_lit(&self, value: bool) -> Term {
        Term::Literal(Literal::Bool(value))
    }

    /// Adds a triple of IRIs given by name. Returns `true` if new.
    pub fn add(&mut self, s: &str, p: &str, o: &str) -> bool {
        let t = Triple::new(self.iri(s), self.iri(p), self.iri(o));
        self.store.insert(t)
    }

    /// Adds a triple whose object is an arbitrary term. Returns `true` if new.
    pub fn add_with_object(&mut self, s: &str, p: &str, o: Term) -> bool {
        let t = Triple::new(self.iri(s), self.iri(p), o);
        self.store.insert(t)
    }

    /// Adds a ground triple. Returns `true` if new.
    pub fn add_triple(&mut self, t: Triple) -> bool {
        self.store.insert(t)
    }

    /// Whether the named triple is present.
    pub fn contains(&self, s: &str, p: &str, o: &str) -> bool {
        let (Some(s), Some(p), Some(o)) = (self.try_iri(s), self.try_iri(p), self.try_iri(o))
        else {
            return false;
        };
        self.store.contains(&Triple::new(s, p, o))
    }

    /// All objects of `(s, p, ?o)` by name.
    pub fn objects_of(&self, s: &str, p: &str) -> Vec<Term> {
        let (Some(s), Some(p)) = (self.try_iri(s), self.try_iri(p)) else {
            return Vec::new();
        };
        self.store
            .match_spo(Some(s), Some(p), None)
            .into_iter()
            .map(|t| t.o)
            .collect()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Shared view of the store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable view of the store.
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Shared view of the interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable view of the interner.
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Borrows the interner mutably and the store immutably at once.
    ///
    /// Rule evaluation needs exactly this split: it probes the store while
    /// minting skolem IRIs through the interner.
    pub fn split_mut(&mut self) -> (&mut Interner, &Store) {
        (&mut self.interner, &self.store)
    }

    /// Borrows the interner and the store mutably at once.
    ///
    /// The semi-naive engine needs this split: it inserts derived triples
    /// into the store between seed rows (so the merge-difference kernels
    /// can filter against them) while minting skolem IRIs through the
    /// interner.
    pub fn split_mut_full(&mut self) -> (&mut Interner, &mut Store) {
        (&mut self.interner, &mut self.store)
    }

    /// Resolves a symbol back to its lexical form.
    pub fn resolve(&self, id: SymbolId) -> &str {
        self.interner.resolve(id)
    }

    /// Renders a term to a string.
    pub fn term_to_string(&self, t: Term) -> String {
        t.display(&self.interner).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab;

    #[test]
    fn add_and_query_by_name() {
        let mut g = Graph::new();
        assert!(g.add("ex:a", vocab::rdf::TYPE, "ex:T"));
        assert!(!g.add("ex:a", vocab::rdf::TYPE, "ex:T"));
        assert!(g.contains("ex:a", vocab::rdf::TYPE, "ex:T"));
        assert!(!g.contains("ex:a", vocab::rdf::TYPE, "ex:Other"));
        assert!(!g.contains("never", "seen", "names"));
    }

    #[test]
    fn literals_as_objects() {
        let mut g = Graph::new();
        let lit = g.int_lit(42);
        g.add_with_object("ex:net", vocab::imcl::RESPONSE_TIME, lit);
        let objects = g.objects_of("ex:net", vocab::imcl::RESPONSE_TIME);
        assert_eq!(objects, vec![lit]);
        assert_eq!(g.term_to_string(lit), "'42'^^xsd:integer");
    }

    #[test]
    fn objects_of_unknown_names_is_empty() {
        let g = Graph::new();
        assert!(g.objects_of("ex:a", "ex:p").is_empty());
        assert!(g.is_empty());
    }

    #[test]
    fn distinct_literal_kinds_are_distinct_terms() {
        let mut g = Graph::new();
        assert_ne!(g.int_lit(1), g.double_lit(1.0));
        assert_ne!(g.bool_lit(true), g.str_lit("true"));
    }
}
