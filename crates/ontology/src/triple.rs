//! Triples and patterns over them.

use crate::term::{Interner, Term};
use std::fmt;

/// A ground RDF statement `(subject, predicate, object)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject node.
    pub s: Term,
    /// Predicate node (always an IRI in well-formed data).
    pub p: Term,
    /// Object node.
    pub o: Term,
}

impl Triple {
    /// Creates a triple.
    pub fn new(s: Term, p: Term, o: Term) -> Self {
        Triple { s, p, o }
    }

    /// Renders the triple with an interner.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> TripleDisplay<'a> {
        TripleDisplay {
            triple: self,
            interner,
        }
    }
}

/// Helper implementing [`fmt::Display`] for a triple + interner pair.
#[derive(Debug)]
pub struct TripleDisplay<'a> {
    triple: &'a Triple,
    interner: &'a Interner,
}

impl fmt::Display for TripleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({} {} {})",
            self.triple.s.display(self.interner),
            self.triple.p.display(self.interner),
            self.triple.o.display(self.interner)
        )
    }
}

/// Identifier of a variable within one rule or query (index into its
/// variable table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// One position of a pattern: a variable or a ground term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternTerm {
    /// A variable such as `?p`.
    Var(VarId),
    /// A ground term.
    Ground(Term),
}

impl PatternTerm {
    /// The ground term, if this position is ground.
    #[cfg(test)]
    pub fn ground(&self) -> Option<Term> {
        match self {
            PatternTerm::Ground(t) => Some(*t),
            PatternTerm::Var(_) => None,
        }
    }

    /// The variable, if this position is a variable.
    pub fn var(&self) -> Option<VarId> {
        match self {
            PatternTerm::Var(v) => Some(*v),
            PatternTerm::Ground(_) => None,
        }
    }
}

impl From<Term> for PatternTerm {
    fn from(t: Term) -> Self {
        PatternTerm::Ground(t)
    }
}

impl From<VarId> for PatternTerm {
    fn from(v: VarId) -> Self {
        PatternTerm::Var(v)
    }
}

/// A triple pattern `(s p o)` whose positions may be variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject position.
    pub s: PatternTerm,
    /// Predicate position.
    pub p: PatternTerm,
    /// Object position.
    pub o: PatternTerm,
}

impl TriplePattern {
    /// Creates a pattern.
    #[cfg(test)]
    pub fn new(
        s: impl Into<PatternTerm>,
        p: impl Into<PatternTerm>,
        o: impl Into<PatternTerm>,
    ) -> Self {
        TriplePattern {
            s: s.into(),
            p: p.into(),
            o: o.into(),
        }
    }

    /// All variables mentioned, in position order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        [self.s, self.p, self.o].into_iter().filter_map(|t| t.var())
    }

    /// Instantiates the pattern under `bindings`; `None` if any variable is
    /// unbound.
    pub fn instantiate(&self, bindings: &[Option<Term>]) -> Option<Triple> {
        let resolve = |pt: PatternTerm| match pt {
            PatternTerm::Ground(t) => Some(t),
            PatternTerm::Var(v) => bindings.get(v.0 as usize).copied().flatten(),
        };
        Some(Triple::new(
            resolve(self.s)?,
            resolve(self.p)?,
            resolve(self.o)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    fn terms() -> (Interner, Term, Term, Term) {
        let mut i = Interner::new();
        let s = Term::Iri(i.intern("ex:s"));
        let p = Term::Iri(i.intern("ex:p"));
        let o = Term::Literal(Literal::Int(1));
        (i, s, p, o)
    }

    #[test]
    fn triple_display() {
        let (i, s, p, o) = terms();
        let t = Triple::new(s, p, o);
        assert_eq!(t.display(&i).to_string(), "(ex:s ex:p '1'^^xsd:integer)");
    }

    #[test]
    fn pattern_vars_and_groundness() {
        let (_i, s, p, _o) = terms();
        let pat = TriplePattern::new(VarId(0), p, VarId(1));
        assert_eq!(pat.vars().collect::<Vec<_>>(), [VarId(0), VarId(1)]);
        let ground = TriplePattern::new(s, p, s);
        assert!(ground.vars().next().is_none());
    }

    #[test]
    fn instantiation_requires_all_bindings() {
        let (_i, s, p, o) = terms();
        let pat = TriplePattern::new(VarId(0), p, VarId(1));
        assert_eq!(pat.instantiate(&[Some(s), None]), None);
        assert_eq!(
            pat.instantiate(&[Some(s), Some(o)]),
            Some(Triple::new(s, p, o))
        );
        // Out-of-range variable index is treated as unbound, not a panic.
        let wild = TriplePattern::new(VarId(7), p, o);
        assert_eq!(wild.instantiate(&[]), None);
    }
}
