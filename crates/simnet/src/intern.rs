//! String interning for hot identifiers.
//!
//! City-scale worlds repeat the same handful of strings — agent type names,
//! space names — across hundreds of thousands of records. Interning maps
//! each distinct string to a dense [`Symbol`] once, so records store a
//! 4-byte copyable key instead of their own heap `String`, and lookups hash
//! 4 bytes instead of the whole string.

use mdagent_fx::FxHashMap;

/// Dense handle to an interned string. `Copy`, 4 bytes, cheap to hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

/// A deterministic string interner: the first occurrence of each string
/// gets the next dense [`Symbol`], so identical insertion orders yield
/// identical symbols across runs.
///
/// # Examples
///
/// ```
/// use mdagent_simnet::Interner;
///
/// let mut names = Interner::new();
/// let a = names.intern("sentinel");
/// let b = names.intern("walker");
/// assert_eq!(a, names.intern("sentinel"));
/// assert_ne!(a, b);
/// assert_eq!(names.resolve(b), "walker");
/// ```
#[derive(Debug, Default)]
pub struct Interner {
    strings: Vec<String>,
    index: FxHashMap<String, Symbol>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Returns the symbol for `s`, interning it on first sight.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.index.get(s) {
            return sym;
        }
        let sym = Symbol(self.strings.len() as u32);
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), sym);
        sym
    }

    /// The string behind a symbol. Symbols come only from this interner's
    /// [`intern`](Self::intern), so resolution cannot miss; a foreign
    /// symbol resolves to `""` rather than panicking.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.strings.get(sym.0 as usize).map_or("", String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_eq!((a, b), (Symbol(0), Symbol(1)));
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.strings.len(), 2);
        assert_eq!(i.resolve(a), "alpha");
    }

    #[test]
    fn foreign_symbol_resolves_empty() {
        let mut other = Interner::new();
        other.intern("x");
        other.intern("y");
        let sym = other.intern("z");
        let i = Interner::new();
        assert_eq!(i.resolve(sym), "");
    }
}
