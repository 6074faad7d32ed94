//! RDF terms: interned IRIs and typed literals.
//!
//! Terms are small `Copy` values so the triple store and the rule engine can
//! join on them cheaply; the lexical forms live in an [`Interner`].

use crate::fx::FxHashMap;
use std::fmt;

/// Interned identifier of an IRI or literal lexical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub(crate) u32);

/// String interner shared by a knowledge base.
///
/// # Examples
///
/// ```
/// use mdagent_ontology::Interner;
///
/// let mut interner = Interner::default();
/// let a = interner.intern("imcl:Printer");
/// let b = interner.intern("imcl:Printer");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "imcl:Printer");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<String>,
    ids: FxHashMap<String, SymbolId>,
}

impl Interner {
    /// Creates an empty interner.
    #[cfg(test)]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a string, returning its stable id.
    pub fn intern(&mut self, s: &str) -> SymbolId {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = SymbolId(self.strings.len() as u32);
        self.strings.push(s.to_owned());
        self.ids.insert(s.to_owned(), id);
        id
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<SymbolId> {
        self.ids.get(s).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// Ids minted by a different interner resolve to the empty string,
    /// which no interned symbol can alias (interned strings are non-empty
    /// identifiers and IRIs).
    pub fn resolve(&self, id: SymbolId) -> &str {
        self.strings.get(id.0 as usize).map_or("", String::as_str)
    }

    /// Number of distinct interned strings.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// An `f64` wrapper with total ordering and bitwise equality so literals can
/// live in hash maps and B-trees.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wraps a float, canonicalizing NaN to a single bit pattern.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            OrderedF64(f64::NAN)
        } else if v == 0.0 {
            // Collapse -0.0 and +0.0.
            OrderedF64(0.0)
        } else {
            OrderedF64(v)
        }
    }

    /// The wrapped value.
    pub fn value(self) -> f64 {
        self.0
    }

    fn key(self) -> u64 {
        // Total order trick: flip sign bit for positives, all bits for negatives.
        let bits = self.0.to_bits();
        if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        }
    }
}

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// A typed RDF literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Literal {
    /// `xsd:string` — the lexical form is interned.
    Str(SymbolId),
    /// `xsd:integer`.
    Int(i64),
    /// `xsd:double`.
    Double(OrderedF64),
    /// `xsd:boolean`.
    Bool(bool),
}

impl Literal {
    /// Creates a double literal.
    pub fn double(v: f64) -> Literal {
        Literal::Double(OrderedF64::new(v))
    }

    /// Numeric view of the literal, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Literal::Int(i) => Some(*i as f64),
            Literal::Double(d) => Some(d.value()),
            _ => None,
        }
    }
}

/// A node in the RDF graph: an IRI (or prefixed name) or a literal.
///
/// Blank nodes are represented as IRIs in a reserved `_:` namespace; the
/// reproduction never needs standalone bnode semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI or prefixed name such as `imcl:hpLaserJet`.
    Iri(SymbolId),
    /// A typed literal.
    Literal(Literal),
}

impl Term {
    /// Whether the term is a literal.
    #[cfg(test)]
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// Numeric view, if the term is a numeric literal.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::Literal(l) => l.as_f64(),
            _ => None,
        }
    }

    /// Renders the term with an interner.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> TermDisplay<'a> {
        TermDisplay {
            term: self,
            interner,
        }
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Term {
        Term::Literal(l)
    }
}

/// Helper implementing [`fmt::Display`] for a term + interner pair.
#[derive(Debug)]
pub struct TermDisplay<'a> {
    term: &'a Term,
    interner: &'a Interner,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.term {
            Term::Iri(id) => f.write_str(self.interner.resolve(*id)),
            Term::Literal(Literal::Str(id)) => {
                write!(f, "'{}'", self.interner.resolve(*id))
            }
            Term::Literal(Literal::Int(i)) => write!(f, "'{i}'^^xsd:integer"),
            Term::Literal(Literal::Double(d)) => write!(f, "'{}'^^xsd:double", d.value()),
            Term::Literal(Literal::Bool(b)) => write!(f, "'{b}'^^xsd:boolean"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_dedupes() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        let a = i.intern("x");
        let b = i.intern("y");
        assert_ne!(a, b);
        assert_eq!(i.intern("x"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.get("y"), Some(b));
        assert_eq!(i.get("z"), None);
    }

    #[test]
    fn ordered_f64_total_order() {
        let values = [-1.0, -0.0, 0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY];
        let mut wrapped: Vec<_> = values.iter().map(|&v| OrderedF64::new(v)).collect();
        wrapped.sort();
        let sorted: Vec<f64> = wrapped.iter().map(|w| w.value()).collect();
        assert_eq!(sorted[0], f64::NEG_INFINITY);
        assert_eq!(*sorted.last().unwrap(), f64::INFINITY);
        assert_eq!(OrderedF64::new(0.0), OrderedF64::new(-0.0));
        assert_eq!(OrderedF64::new(f64::NAN), OrderedF64::new(f64::NAN));
    }

    #[test]
    fn literal_numeric_views() {
        assert_eq!(Literal::Int(3).as_f64(), Some(3.0));
        assert_eq!(Literal::double(2.5).as_f64(), Some(2.5));
        assert_eq!(Literal::Bool(true).as_f64(), None);
        let mut i = Interner::new();
        assert_eq!(Literal::Str(i.intern("s")).as_f64(), None);
    }

    #[test]
    fn term_display() {
        let mut i = Interner::new();
        let iri = Term::Iri(i.intern("imcl:Printer"));
        assert_eq!(iri.display(&i).to_string(), "imcl:Printer");
        let s = Term::Literal(Literal::Str(i.intern("hello")));
        assert_eq!(s.display(&i).to_string(), "'hello'");
        assert_eq!(
            Term::Literal(Literal::Int(7)).display(&i).to_string(),
            "'7'^^xsd:integer"
        );
        assert!(!iri.is_literal());
        assert!(s.is_literal());
    }
}
