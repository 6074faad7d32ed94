//! Conjunctive (basic-graph-pattern) queries — the OWL-QL stand-in.
//!
//! The paper's autonomous agents retrieve destination resources "in the
//! standard OWL Query Language"; this module provides the equivalent
//! operation: solve a conjunction of triple patterns plus builtin filters
//! against a graph and return variable bindings.

use crate::fx::FxHashMap;
use std::sync::Arc;

use crate::graph::Graph;
use crate::parser::{syntax_error, tokenize, ParseError};
use crate::rule::Rule;
use crate::store::Store;
use crate::term::Term;

/// A compiled conjunctive query.
///
/// # Examples
///
/// ```
/// use mdagent_ontology::{Graph, Query};
///
/// let mut g = Graph::new();
/// g.add("imcl:prn1", "rdf:type", "imcl:Printer");
/// g.add("imcl:prn1", "imcl:locatedIn", "imcl:Office821");
/// g.add("imcl:prn2", "rdf:type", "imcl:Printer");
///
/// let q = Query::parse("(?x rdf:type imcl:Printer), (?x imcl:locatedIn ?where)", &mut g)?;
/// let rows = q.solve(g.store());
/// assert_eq!(rows.len(), 1);
/// assert_eq!(rows[0].get("x"), g.try_iri("imcl:prn1"));
/// # Ok::<(), mdagent_ontology::parser::ParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    rule: Rule,
    schema: Arc<RowSchema>,
}

/// Shared variable-name table of a query's result rows: the names in
/// first-mention order plus a sorted permutation for binary-search lookup.
/// Built once per query and shared by every row, so [`Row::get`] needs no
/// linear scan and rows don't each own a copy of the names.
#[derive(Debug, PartialEq)]
struct RowSchema {
    names: Vec<String>,
    /// Indices into `names`, ordered so the referenced names ascend.
    sorted: Vec<u32>,
}

impl RowSchema {
    fn new(names: Vec<String>) -> Self {
        let mut sorted: Vec<u32> = (0..names.len() as u32).collect();
        sorted.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
        RowSchema { names, sorted }
    }

    /// Index of a named variable, by binary search over the permutation.
    fn index_of(&self, name: &str) -> Option<usize> {
        self.sorted
            .binary_search_by(|&i| self.names[i as usize].as_str().cmp(name))
            .ok()
            .map(|pos| self.sorted[pos] as usize)
    }
}

/// One solution row: variable name → term.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    schema: Arc<RowSchema>,
    values: Vec<Option<Term>>,
}

impl Row {
    /// The binding of a named variable.
    pub fn get(&self, name: &str) -> Option<Term> {
        let idx = self.schema.index_of(name)?;
        self.values.get(idx).copied().flatten()
    }

    /// The binding of a variable by its rule-local id — O(1), no name
    /// lookup. Ids come from [`Query::var_names`] positions.
    #[cfg(test)]
    pub fn get_var(&self, var: crate::triple::VarId) -> Option<Term> {
        self.values.get(var.0 as usize).copied().flatten()
    }
}

impl Query {
    /// Parses query text: comma-separated atoms in rule-body syntax, e.g.
    /// `"(?x rdf:type imcl:Printer), lessThan(?t, 1000)"`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed text.
    pub fn parse(text: &str, graph: &mut Graph) -> Result<Query, ParseError> {
        // Reuse the rule parser by wrapping the atoms in a dummy rule with an
        // empty head marker pattern that we strip.
        let tokens = tokenize(text)?;
        if tokens.is_empty() {
            return Err(syntax_error("query", None));
        }
        let wrapped = format!("[q: {text} -> (?q_dummy_s ?q_dummy_p ?q_dummy_o)]");
        let mut rules = crate::parser::parse_rules(&wrapped, graph)?;
        let Some(mut rule) = rules.pop() else {
            return Err(syntax_error("query", None));
        };
        rule.conclusions.clear();
        // Drop the three dummy head vars from the table tail (they were the
        // last ones introduced and are referenced nowhere after clearing).
        for _ in 0..3 {
            if rule
                .var_names
                .last()
                .is_some_and(|n| n.starts_with("q_dummy_"))
            {
                rule.var_names.pop();
            }
        }
        let schema = Arc::new(RowSchema::new(rule.var_names.clone()));
        Ok(Query { rule, schema })
    }

    /// The variable names, in first-mention order.
    #[cfg(test)]
    pub fn var_names(&self) -> &[String] {
        &self.rule.var_names
    }

    /// Solves the query, returning all rows.
    pub fn solve(&self, store: &Store) -> Vec<Row> {
        crate::reason::match_rule(store, &self.rule)
            .into_iter()
            .map(|values| Row {
                schema: Arc::clone(&self.schema),
                values,
            })
            .collect()
    }

    /// Whether at least one solution exists (ASK-style).
    #[cfg(test)]
    pub fn ask(&self, store: &Store) -> bool {
        !self.solve(store).is_empty()
    }

    /// Solves and projects one variable, deduplicated, in stable order.
    pub fn select(&self, store: &Store, var: &str) -> Vec<Term> {
        let mut seen = FxHashMap::default();
        let mut out = Vec::new();
        for row in self.solve(store) {
            if let Some(t) = row.get(var) {
                if seen.insert(t, ()).is_none() {
                    out.push(t);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::VarId;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.add("imcl:prn1", "rdf:type", "imcl:Printer");
        g.add("imcl:prn1", "imcl:locatedIn", "imcl:Office821");
        g.add("imcl:prn2", "rdf:type", "imcl:Printer");
        g.add("imcl:prn2", "imcl:locatedIn", "imcl:Office822");
        g.add("imcl:scanner", "rdf:type", "imcl:Scanner");
        let rt = g.double_lit(120.0);
        g.add_with_object("imcl:net1", "imcl:responseTime", rt);
        g
    }

    #[test]
    fn join_across_patterns() {
        let mut g = sample();
        let q = Query::parse(
            "(?x rdf:type imcl:Printer), (?x imcl:locatedIn imcl:Office821)",
            &mut g,
        )
        .unwrap();
        let rows = q.solve(g.store());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("x"), g.try_iri("imcl:prn1"));
        assert!(q.ask(g.store()));
    }

    #[test]
    fn select_projects_and_dedups() {
        let mut g = sample();
        let q = Query::parse("(?x rdf:type imcl:Printer)", &mut g).unwrap();
        let printers = q.select(g.store(), "x");
        assert_eq!(printers.len(), 2);
        assert!(q.select(g.store(), "nope").is_empty());
    }

    #[test]
    fn builtin_filters_apply() {
        let mut g = sample();
        let q = Query::parse(
            "(?n imcl:responseTime ?t), lessThan(?t, '1000'^^xsd:double)",
            &mut g,
        )
        .unwrap();
        assert!(q.ask(g.store()));
        let q2 = Query::parse(
            "(?n imcl:responseTime ?t), greaterThan(?t, '1000'^^xsd:double)",
            &mut g,
        )
        .unwrap();
        assert!(!q2.ask(g.store()));
    }

    #[test]
    fn no_match_returns_empty() {
        let mut g = sample();
        let q = Query::parse("(?x rdf:type imcl:Projector)", &mut g).unwrap();
        assert!(q.solve(g.store()).is_empty());
        assert!(!q.ask(g.store()));
    }

    #[test]
    fn var_names_exclude_dummies() {
        let mut g = sample();
        let q = Query::parse("(?a rdf:type ?b)", &mut g).unwrap();
        assert_eq!(q.var_names(), ["a", "b"]);
    }

    #[test]
    fn get_var_agrees_with_named_get() {
        let mut g = sample();
        let q = Query::parse(
            "(?x rdf:type imcl:Printer), (?x imcl:locatedIn ?where)",
            &mut g,
        )
        .unwrap();
        let rows = q.solve(g.store());
        assert!(!rows.is_empty());
        for row in &rows {
            for (i, name) in q.var_names().iter().enumerate() {
                assert_eq!(row.get_var(VarId(i as u32)), row.get(name), "var {name}");
            }
        }
        // Out-of-range ids and unknown names are both just unbound.
        assert_eq!(rows[0].get_var(VarId(99)), None);
        assert_eq!(rows[0].get("no-such-var"), None);
    }

    #[test]
    fn schema_lookup_handles_many_vars() {
        // Enough variables that the sorted permutation actually matters
        // (first-mention order differs from lexicographic order).
        let mut g = Graph::new();
        for (s, p) in [("ex:s", "ex:zz"), ("ex:s", "ex:aa"), ("ex:s", "ex:mm")] {
            g.add(s, p, &format!("{p}-val"));
        }
        let q = Query::parse("(?zebra ex:zz ?apple), (?zebra ex:aa ?mango)", &mut g).unwrap();
        assert_eq!(q.var_names(), ["zebra", "apple", "mango"]);
        let rows = q.solve(g.store());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("zebra"), g.try_iri("ex:s"));
        assert_eq!(rows[0].get("apple"), g.try_iri("ex:zz-val"));
        assert_eq!(rows[0].get("mango"), g.try_iri("ex:aa-val"));
    }

    #[test]
    fn empty_query_is_an_error() {
        let mut g = Graph::new();
        assert!(Query::parse("", &mut g).is_err());
        assert!(Query::parse("   # only a comment", &mut g).is_err());
    }
}
