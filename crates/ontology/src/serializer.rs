//! Serialization of graphs back to text.
//!
//! A graph renders as Turtle-lite text that the triple parser reads back,
//! giving the parse ⇄ render round trip the property tests lean on. The
//! tests also render rules back to the Jena syntax they were parsed from.

use crate::graph::Graph;
use crate::term::{Literal, Term};

/// Renders the whole graph as Turtle-lite text, one statement per line,
/// sorted lexicographically for deterministic output. The result parses
/// back via [`parse_triples`](crate::parser::parse_triples).
pub fn write_triples(graph: &Graph) -> String {
    let mut lines: Vec<String> = graph
        .store()
        .iter()
        .map(|t| {
            format!(
                "{} {} {} .",
                graph.term_to_string(t.s),
                graph.term_to_string(t.p),
                render_object(graph, t.o),
            )
        })
        .collect();
    lines.sort();
    let mut out = String::new();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn render_object(graph: &Graph, term: Term) -> String {
    match term {
        Term::Iri(_) => graph.term_to_string(term),
        Term::Literal(Literal::Str(id)) => format!("'{}'", escape(graph.resolve(id))),
        Term::Literal(Literal::Int(i)) => format!("'{i}'^^xsd:integer"),
        Term::Literal(Literal::Double(d)) => format!("'{}'^^xsd:double", d.value()),
        Term::Literal(Literal::Bool(b)) => format!("'{b}'^^xsd:boolean"),
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\'', "\\'")
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use super::*;
    use crate::parser::{parse_rules, parse_triples};
    use crate::rule::{BuiltinAtom, Rule, RuleAtom};
    use crate::triple::{PatternTerm, TriplePattern};

    fn render_pattern_term(graph: &Graph, rule: &Rule, pt: PatternTerm) -> String {
        match pt {
            PatternTerm::Var(v) => format!(
                "?{}",
                rule.var_names
                    .get(v.0 as usize)
                    .map(String::as_str)
                    .unwrap_or("_")
            ),
            PatternTerm::Ground(t) => render_object(graph, t),
        }
    }

    fn render_pattern(graph: &Graph, rule: &Rule, p: &TriplePattern) -> String {
        format!(
            "({} {} {})",
            render_pattern_term(graph, rule, p.s),
            render_pattern_term(graph, rule, p.p),
            render_pattern_term(graph, rule, p.o)
        )
    }

    fn render_builtin(graph: &Graph, rule: &Rule, b: &BuiltinAtom) -> String {
        format!(
            "{}({}, {})",
            b.op.name(),
            render_pattern_term(graph, rule, b.lhs),
            render_pattern_term(graph, rule, b.rhs)
        )
    }

    /// Renders one rule in Jena syntax; the result parses back via
    /// [`parse_rules`](crate::parser::parse_rules) to an equivalent rule.
    fn write_rule(graph: &Graph, rule: &Rule) -> String {
        let mut out = String::new();
        // Writing into a String cannot fail; ignore the Result.
        let _ = write!(out, "[{}: ", rule.name);
        let body: Vec<String> = rule
            .premises
            .iter()
            .map(|a| match a {
                RuleAtom::Pattern(p) => render_pattern(graph, rule, p),
                RuleAtom::Builtin(b) => render_builtin(graph, rule, b),
            })
            .collect();
        out.push_str(&body.join(", "));
        out.push_str(" -> ");
        let head: Vec<String> = rule
            .conclusions
            .iter()
            .map(|p| render_pattern(graph, rule, p))
            .collect();
        out.push_str(&head.join(", "));
        out.push(']');
        out
    }

    /// Renders a whole rule set, one rule per line.
    fn write_rules(graph: &Graph, rules: &[Rule]) -> String {
        rules
            .iter()
            .map(|r| write_rule(graph, r))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn triples_roundtrip_through_text() {
        let mut g = Graph::new();
        g.add("imcl:prn", "rdf:type", "imcl:Printer");
        let lit = g.str_lit("hp color printer");
        g.add_with_object("imcl:prn", "rdfs:comment", lit);
        let rt = g.double_lit(350.5);
        g.add_with_object("imcl:net", "imcl:responseTime", rt);
        let n = g.int_lit(-3);
        g.add_with_object("imcl:net", "imcl:hops", n);
        let b = g.bool_lit(true);
        g.add_with_object("imcl:net", "imcl:up", b);

        let text = write_triples(&g);
        let mut g2 = Graph::new();
        let added = parse_triples(&text, &mut g2).unwrap();
        assert_eq!(added, g.len());
        // Re-render from the reparse: identical text (canonical form).
        assert_eq!(write_triples(&g2), text);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut g = Graph::new();
        let tricky = g.str_lit("it's a \\ test");
        g.add_with_object("ex:s", "ex:p", tricky);
        let text = write_triples(&g);
        let mut g2 = Graph::new();
        parse_triples(&text, &mut g2).unwrap();
        let objects = g2.objects_of("ex:s", "ex:p");
        assert_eq!(g2.term_to_string(objects[0]), "'it's a \\ test'");
    }

    const FIXTURE: &str = "\
        [Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]\n\
        [Rule2: (?ptr imcl:printerObj 'printer'), (?srcRsc rdf:type ?ptr), (?destRsc rdf:type ?ptr) \
         -> (?srcRsc imcl:compatible ?destRsc)]\n\
        [Rule3: (?n imcl:responseTime ?t), lessThan(?t, '1000'^^xsd:double) \
         -> (?action imcl:actName 'move')]";

    #[test]
    fn paper_rules_roundtrip_through_text() {
        let mut g = Graph::new();
        let rules = parse_rules(FIXTURE, &mut g).unwrap();
        let text = write_rules(&g, &rules);
        let mut g2 = Graph::new();
        let reparsed = parse_rules(&text, &mut g2).unwrap();
        assert_eq!(reparsed.len(), rules.len());
        for (a, b) in rules.iter().zip(&reparsed) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.premises.len(), b.premises.len());
            assert_eq!(a.conclusions.len(), b.conclusions.len());
            assert_eq!(a.var_names, b.var_names);
        }
        // And the canonical text is a fixpoint.
        assert_eq!(write_rules(&g2, &reparsed), text);
    }
}
