//! Property tests for the triple store and the forward-chaining reasoner.

use mdagent_ontology::{parser::parse_rules, Graph, Literal, Reasoner, Store, Term, Triple};
use proptest::prelude::*;

/// Strategy: a small universe of node names.
fn node() -> impl Strategy<Value = String> {
    (0u8..12).prop_map(|i| format!("ex:n{i}"))
}

fn pred() -> impl Strategy<Value = String> {
    (0u8..4).prop_map(|i| format!("ex:p{i}"))
}

proptest! {
    /// Insert + remove leaves the store exactly where it started, and all
    /// index-backed masks agree with a linear scan at every step.
    #[test]
    fn store_indexes_stay_consistent(
        ops in proptest::collection::vec((node(), pred(), node(), any::<bool>()), 1..80),
    ) {
        let mut g = Graph::new();
        let mut reference: Vec<(String, String, String)> = Vec::new();
        for (s, p, o, insert) in &ops {
            if *insert {
                g.add(s, p, o);
                if !reference.contains(&(s.clone(), p.clone(), o.clone())) {
                    reference.push((s.clone(), p.clone(), o.clone()));
                }
            } else {
                let (Some(st), Some(pt), Some(ot)) = (g.try_iri(s), g.try_iri(p), g.try_iri(o)) else {
                    continue;
                };
                g.store_mut().remove(&Triple::new(st, pt, ot));
                reference.retain(|(a, b, c)| !(a == s && b == p && c == o));
            }
        }
        prop_assert_eq!(g.len(), reference.len());
        for (s, p, o) in &reference {
            prop_assert!(g.contains(s, p, o));
            // Single-position masks must each find this triple.
            let st = g.try_iri(s).unwrap();
            let pt = g.try_iri(p).unwrap();
            let ot = g.try_iri(o).unwrap();
            let t = Triple::new(st, pt, ot);
            prop_assert!(g.store().match_spo(Some(st), None, None).contains(&t));
            prop_assert!(g.store().match_spo(None, Some(pt), None).contains(&t));
            prop_assert!(g.store().match_spo(None, None, Some(ot)).contains(&t));
        }
    }

    /// The transitive-closure rule derives exactly graph reachability:
    /// sound (every derived edge is a real path) and complete (every
    /// reachable pair is derived).
    #[test]
    fn transitive_rule_equals_reachability(
        edges in proptest::collection::vec((0u8..8, 0u8..8), 1..20),
    ) {
        let mut g = Graph::new();
        for (a, b) in &edges {
            g.add(&format!("ex:n{a}"), "ex:edge", &format!("ex:n{b}"));
        }
        let rules = parse_rules(
            "[tc: (?x ex:edge ?y), (?y ex:edge ?z) -> (?x ex:edge ?z)]",
            &mut g,
        ).unwrap();
        let mut reasoner = Reasoner::new();
        reasoner.add_rules(rules);
        reasoner.materialize(&mut g);

        // Floyd–Warshall reference over the 8-node universe.
        let mut reach = [[false; 8]; 8];
        for (a, b) in &edges {
            reach[*a as usize][*b as usize] = true;
        }
        for k in 0..8 {
            for i in 0..8 {
                for j in 0..8 {
                    if reach[i][k] && reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
        for (i, row) in reach.iter().enumerate() {
            for (j, expected) in row.iter().enumerate() {
                let has = g.contains(&format!("ex:n{i}"), "ex:edge", &format!("ex:n{j}"));
                prop_assert_eq!(has, *expected, "mismatch at ({}, {})", i, j);
            }
        }
    }

    /// Materialization is monotone (never removes triples) and idempotent.
    #[test]
    fn materialization_monotone_idempotent(
        triples in proptest::collection::vec((node(), pred(), node()), 1..30),
    ) {
        let mut g = Graph::new();
        for (s, p, o) in &triples {
            g.add(s, p, o);
        }
        // Give some structure: p0 is transitive, p1 subPropertyOf p2.
        g.add("ex:p0", "rdf:type", "owl:TransitiveProperty");
        g.add("ex:p1", "rdfs:subPropertyOf", "ex:p2");
        let before: Vec<Triple> = g.store().iter().copied().collect();
        let mut reasoner = Reasoner::with_axioms(&mut g);
        reasoner.materialize(&mut g);
        for t in &before {
            prop_assert!(g.store().contains(t), "materialization dropped a base triple");
        }
        let after = g.len();
        reasoner.materialize(&mut g);
        prop_assert_eq!(g.len(), after, "second materialization changed the graph");
    }

    /// Pattern matching with a fully-ground pattern agrees with `contains`.
    #[test]
    fn ground_match_equals_contains(
        triples in proptest::collection::vec((node(), pred(), node()), 1..20),
        probe in (node(), pred(), node()),
    ) {
        let mut store = Store::new();
        let mut g = Graph::new();
        let mut terms = |s: &str| -> Term { g.iri(s) };
        for (s, p, o) in &triples {
            let t = Triple::new(terms(s), terms(p), terms(o));
            store.insert(t);
        }
        let t = Triple::new(terms(&probe.0), terms(&probe.1), terms(&probe.2));
        let matched = store.match_spo(Some(t.s), Some(t.p), Some(t.o));
        prop_assert_eq!(matched.len() == 1, store.contains(&t));
    }
}

proptest! {
    /// write_triples ∘ parse_triples is the identity on graph content, and
    /// the canonical text is a fixpoint of the roundtrip.
    #[test]
    fn serializer_roundtrip(
        triples in proptest::collection::vec((node(), pred(), node()), 1..40),
        lits in proptest::collection::vec((node(), -1000i64..1000), 0..10),
    ) {
        use mdagent_ontology::{parser::parse_triples, write_triples};
        let mut g = Graph::new();
        for (s, p, o) in &triples {
            g.add(s, p, o);
        }
        for (s, v) in &lits {
            let lit = Term::Literal(Literal::Int(*v));
            g.add_with_object(s, "ex:value", lit);
        }
        let text = write_triples(&g);
        let mut g2 = Graph::new();
        let added = parse_triples(&text, &mut g2).unwrap();
        prop_assert_eq!(added, g.len());
        prop_assert_eq!(write_triples(&g2), text);
    }
}
