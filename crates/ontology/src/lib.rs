//! # mdagent-ontology — RDF store, OWL-lite reasoning, Jena-style rules
//!
//! The paper models pervasive resources and their relations in OWL and lets
//! autonomous agents reason over them with Jena rules (Figs. 5–6). No
//! ontology stack exists in the offline crate set, so this crate implements
//! the needed slice from scratch:
//!
//! * [`Term`]/[`Triple`]/[`Store`] — interned terms and an SPO/POS/OSP
//!   indexed triple store; [`Graph`] bundles store + interner.
//! * [`parser`] — Jena-style rule text and Turtle-lite triple text.
//! * [`Rule`]/[`Reasoner`] — forward chaining to fixpoint with comparison
//!   builtins (`lessThan`, …) and skolemized head-only variables.
//! * [`axiom_rules`] — RDFS + OWL-lite semantics (`subClassOf`,
//!   `TransitiveProperty`, `SymmetricProperty`, `inverseOf`, …).
//! * [`Query`] — conjunctive queries with filters (the OWL-QL stand-in).
//! * [`ClassDescription`] — builder emitting Fig. 5-style descriptions.
//!
//! # Examples
//!
//! The paper's compatibility reasoning end to end:
//!
//! ```
//! use mdagent_ontology::{Graph, Reasoner, parser::parse_rules};
//!
//! let mut g = Graph::new();
//! // Source and destination each have a printer of the same class.
//! let marker = g.str_lit("printer");
//! g.add_with_object("imcl:PrinterCls", "imcl:printerObj", marker);
//! g.add("imcl:srcPrn", "rdf:type", "imcl:PrinterCls");
//! g.add("imcl:dstPrn", "rdf:type", "imcl:PrinterCls");
//! let rules = parse_rules(
//!     "[Rule2: (?ptr imcl:printerObj 'printer'), (?srcRsc rdf:type ?ptr), (?destRsc rdf:type ?ptr) \
//!      -> (?srcRsc imcl:compatible ?destRsc)]",
//!     &mut g,
//! )?;
//! let mut reasoner = Reasoner::new();
//! reasoner.add_rules(rules);
//! reasoner.materialize(&mut g);
//! assert!(g.contains("imcl:srcPrn", "imcl:compatible", "imcl:dstPrn"));
//! # Ok::<(), mdagent_ontology::parser::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod describe;
pub mod fx;
mod graph;
pub mod parser;
mod query;
mod reason;
mod rule;
mod serializer;
mod store;
mod term;
mod triple;
pub mod vocab;

pub use describe::ClassDescription;
pub use graph::Graph;
pub use query::{Query, Row};
pub use reason::{axiom_rules, match_rule, unify_pattern, Reasoner, ReasonerStats, RetractStats};
pub use rule::{BuiltinAtom, BuiltinOp, Rule, RuleAtom};
pub use serializer::write_triples;
pub use store::Store;
pub use term::{Interner, Literal, OrderedF64, SymbolId, Term};
pub use triple::{PatternTerm, Triple, TriplePattern, VarId};
