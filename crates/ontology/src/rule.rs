//! Horn rules in the style of Jena's general-purpose rule engine.

use std::fmt;

use crate::term::Term;
use crate::triple::{PatternTerm, TriplePattern, VarId};

/// Comparison builtins available in rule bodies (Jena's `lessThan` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinOp {
    /// `lessThan(a, b)` — numeric `a < b`.
    LessThan,
    /// `greaterThan(a, b)` — numeric `a > b`.
    GreaterThan,
    /// `le(a, b)` — numeric `a <= b`.
    LessOrEqual,
    /// `ge(a, b)` — numeric `a >= b`.
    GreaterOrEqual,
    /// `equal(a, b)` — term equality (numeric-aware for literals).
    Equal,
    /// `notEqual(a, b)` — negation of `equal`.
    NotEqual,
}

impl BuiltinOp {
    /// Parses a builtin name as it appears in rule text.
    pub fn from_name(name: &str) -> Option<BuiltinOp> {
        Some(match name {
            "lessThan" => BuiltinOp::LessThan,
            "greaterThan" => BuiltinOp::GreaterThan,
            "le" => BuiltinOp::LessOrEqual,
            "ge" => BuiltinOp::GreaterOrEqual,
            "equal" => BuiltinOp::Equal,
            "notEqual" => BuiltinOp::NotEqual,
            _ => return None,
        })
    }

    /// The rule-text name.
    pub fn name(self) -> &'static str {
        match self {
            BuiltinOp::LessThan => "lessThan",
            BuiltinOp::GreaterThan => "greaterThan",
            BuiltinOp::LessOrEqual => "le",
            BuiltinOp::GreaterOrEqual => "ge",
            BuiltinOp::Equal => "equal",
            BuiltinOp::NotEqual => "notEqual",
        }
    }

    /// Evaluates the builtin over two ground terms.
    ///
    /// Numeric comparisons require numeric literals; `Equal`/`NotEqual`
    /// compare numerically when both sides are numeric, structurally
    /// otherwise. Non-numeric operands make ordering builtins `false`.
    pub fn eval(self, a: Term, b: Term) -> bool {
        match self {
            BuiltinOp::LessThan
            | BuiltinOp::GreaterThan
            | BuiltinOp::LessOrEqual
            | BuiltinOp::GreaterOrEqual => {
                let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                    return false;
                };
                match self {
                    BuiltinOp::LessThan => x < y,
                    BuiltinOp::GreaterThan => x > y,
                    BuiltinOp::LessOrEqual => x <= y,
                    // The outer arm admits only the four ordering ops.
                    _ => x >= y,
                }
            }
            BuiltinOp::Equal => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => a == b,
            },
            BuiltinOp::NotEqual => !BuiltinOp::Equal.eval(a, b),
        }
    }
}

impl fmt::Display for BuiltinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A builtin call with its (possibly variable) arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltinAtom {
    /// Which comparison to run.
    pub op: BuiltinOp,
    /// Left argument.
    pub lhs: PatternTerm,
    /// Right argument.
    pub rhs: PatternTerm,
}

impl BuiltinAtom {
    /// Evaluates under bindings; unbound variables make the atom `false`.
    pub fn eval(&self, bindings: &[Option<Term>]) -> bool {
        let resolve = |pt: PatternTerm| -> Option<Term> {
            match pt {
                PatternTerm::Ground(t) => Some(t),
                PatternTerm::Var(v) => bindings.get(v.0 as usize).copied().flatten(),
            }
        };
        match (resolve(self.lhs), resolve(self.rhs)) {
            (Some(a), Some(b)) => self.op.eval(a, b),
            _ => false,
        }
    }
}

/// One atom of a rule body: a triple pattern or a builtin call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleAtom {
    /// A triple pattern to join against the store.
    Pattern(TriplePattern),
    /// A guard evaluated once its arguments are bound.
    Builtin(BuiltinAtom),
}

/// A forward-chaining Horn rule: `premises -> conclusions`.
///
/// Variables are identified by index into the rule's own variable table
/// ([`Rule::var_names`]); [`VarId`]s are rule-local.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name, e.g. `"Rule1"`.
    pub name: String,
    /// Body atoms, evaluated left to right.
    pub premises: Vec<RuleAtom>,
    /// Head patterns instantiated for every satisfying binding.
    pub conclusions: Vec<TriplePattern>,
    /// Variable names by [`VarId`] index (without the leading `?`).
    pub var_names: Vec<String>,
}

impl Rule {
    /// Creates a rule.
    pub fn new(
        name: impl Into<String>,
        premises: Vec<RuleAtom>,
        conclusions: Vec<TriplePattern>,
        var_names: Vec<String>,
    ) -> Rule {
        Rule {
            name: name.into(),
            premises,
            conclusions,
            var_names,
        }
    }

    /// Head variables never bound by a body pattern.
    ///
    /// The paper's Rule3 introduces `?action` only in its head; like Jena's
    /// `makeSkolem`, the engine mints a fresh IRI for each such variable per
    /// rule firing.
    pub fn skolem_vars(&self) -> Vec<VarId> {
        let mut bound = vec![false; self.var_names.len()];
        for atom in &self.premises {
            if let RuleAtom::Pattern(p) = atom {
                for v in p.vars() {
                    if let Some(slot) = bound.get_mut(v.0 as usize) {
                        *slot = true;
                    }
                }
            }
        }
        let mut skolems = Vec::new();
        for conclusion in &self.conclusions {
            for v in conclusion.vars() {
                if !bound.get(v.0 as usize).copied().unwrap_or(false) && !skolems.contains(&v) {
                    skolems.push(v);
                }
            }
        }
        skolems
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Id of a named variable, if the rule uses it.
    #[cfg(test)]
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Interner, Literal};

    #[test]
    fn builtin_numeric_comparisons() {
        let three = Term::Literal(Literal::Int(3));
        let pi = Term::Literal(Literal::double(3.25));
        assert!(BuiltinOp::LessThan.eval(three, pi));
        assert!(!BuiltinOp::GreaterThan.eval(three, pi));
        assert!(BuiltinOp::LessOrEqual.eval(three, three));
        assert!(BuiltinOp::GreaterOrEqual.eval(pi, three));
        // Mixed int/double equality is numeric.
        assert!(BuiltinOp::Equal.eval(three, Term::Literal(Literal::double(3.0))));
        assert!(BuiltinOp::NotEqual.eval(three, pi));
    }

    #[test]
    fn builtin_on_non_numeric_terms() {
        let mut i = Interner::new();
        let a = Term::Iri(i.intern("ex:a"));
        let b = Term::Iri(i.intern("ex:b"));
        assert!(!BuiltinOp::LessThan.eval(a, b));
        assert!(BuiltinOp::Equal.eval(a, a));
        assert!(BuiltinOp::NotEqual.eval(a, b));
    }

    #[test]
    fn builtin_atom_requires_bound_vars() {
        let atom = BuiltinAtom {
            op: BuiltinOp::Equal,
            lhs: PatternTerm::Var(VarId(0)),
            rhs: PatternTerm::Ground(Term::Literal(Literal::Int(1))),
        };
        assert!(!atom.eval(&[None]));
        assert!(atom.eval(&[Some(Term::Literal(Literal::Int(1)))]));
        assert!(!atom.eval(&[Some(Term::Literal(Literal::Int(2)))]));
    }

    #[test]
    fn head_only_vars_are_skolems() {
        let mut i = Interner::new();
        let p = Term::Iri(i.intern("ex:p"));
        // Conclusion uses ?y which never appears in a premise pattern.
        let rule = Rule::new(
            "skolemized",
            vec![RuleAtom::Pattern(TriplePattern::new(VarId(0), p, VarId(0)))],
            vec![TriplePattern::new(VarId(0), p, VarId(1))],
            vec!["x".into(), "y".into()],
        );
        assert_eq!(rule.skolem_vars(), [VarId(1)]);
    }

    #[test]
    fn builtin_binding_does_not_make_var_bound() {
        let mut i = Interner::new();
        let p = Term::Iri(i.intern("ex:p"));
        let rule = Rule::new(
            "builtin-only",
            vec![RuleAtom::Builtin(BuiltinAtom {
                op: BuiltinOp::Equal,
                lhs: PatternTerm::Var(VarId(0)),
                rhs: PatternTerm::Var(VarId(0)),
            })],
            vec![TriplePattern::new(VarId(0), p, VarId(0))],
            vec!["x".into()],
        );
        assert_eq!(rule.skolem_vars(), [VarId(0)]);
    }

    #[test]
    fn fully_bound_rules_have_no_skolems() {
        let mut i = Interner::new();
        let p = Term::Iri(i.intern("ex:p"));
        let rule = Rule::new(
            "safe",
            vec![RuleAtom::Pattern(TriplePattern::new(VarId(0), p, VarId(1)))],
            vec![TriplePattern::new(VarId(1), p, VarId(0))],
            vec!["x".into(), "y".into()],
        );
        assert!(rule.skolem_vars().is_empty());
    }

    #[test]
    fn var_lookup() {
        let rule = Rule::new("r", vec![], vec![], vec!["p".into(), "q".into()]);
        assert_eq!(rule.var("q"), Some(VarId(1)));
        assert_eq!(rule.var("zz"), None);
        assert_eq!(rule.var_count(), 2);
    }

    #[test]
    fn builtin_names_roundtrip() {
        for op in [
            BuiltinOp::LessThan,
            BuiltinOp::GreaterThan,
            BuiltinOp::LessOrEqual,
            BuiltinOp::GreaterOrEqual,
            BuiltinOp::Equal,
            BuiltinOp::NotEqual,
        ] {
            assert_eq!(BuiltinOp::from_name(op.name()), Some(op));
        }
        assert_eq!(BuiltinOp::from_name("bogus"), None);
    }
}
