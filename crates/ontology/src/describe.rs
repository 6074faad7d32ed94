//! Programmatic OWL descriptions (paper Fig. 5).
//!
//! The paper describes resources as OWL classes with properties such as
//! `locatedIn`; [`ClassDescription`] is the builder the registry layer uses
//! to emit those triples without writing text.

use crate::graph::Graph;
use crate::vocab::{owl, rdf, rdfs};

/// Builder for an OWL class description.
///
/// # Examples
///
/// The paper's `hpLaserJet` printer (Fig. 5):
///
/// ```
/// use mdagent_ontology::{ClassDescription, Graph, vocab};
///
/// let mut g = Graph::new();
/// ClassDescription::new("imcl:hpLaserJet")
///     .comment("hp color printer")
///     .sub_class_of("imcl:Printer")
///     .sub_class_of("imcl:Substitutable")
///     .sub_class_of("imcl:UnTransferable")
///     .transitive_object_property("imcl:locatedIn", "imcl:Office821")
///     .apply(&mut g);
/// assert!(g.contains("imcl:hpLaserJet", vocab::rdf::TYPE, vocab::owl::CLASS));
/// assert!(g.contains("imcl:hpLaserJet", vocab::rdfs::SUB_CLASS_OF, "imcl:Printer"));
/// assert!(g.contains("imcl:locatedIn", vocab::rdf::TYPE, vocab::owl::TRANSITIVE_PROPERTY));
/// ```
#[derive(Debug, Clone)]
pub struct ClassDescription {
    id: String,
    comment: Option<String>,
    super_classes: Vec<String>,
    /// Transitive object properties as `(property, range)` pairs.
    transitive_properties: Vec<(String, String)>,
}

impl ClassDescription {
    /// Starts a description of the named class.
    pub fn new(id: impl Into<String>) -> Self {
        ClassDescription {
            id: id.into(),
            comment: None,
            super_classes: Vec::new(),
            transitive_properties: Vec::new(),
        }
    }

    /// Sets an `rdfs:comment`.
    pub fn comment(mut self, text: impl Into<String>) -> Self {
        self.comment = Some(text.into());
        self
    }

    /// Adds an `rdfs:subClassOf` axiom.
    pub fn sub_class_of(mut self, class: impl Into<String>) -> Self {
        self.super_classes.push(class.into());
        self
    }

    /// Declares a *transitive* object property (like `imcl:locatedIn`).
    pub fn transitive_object_property(
        mut self,
        property: impl Into<String>,
        range: impl Into<String>,
    ) -> Self {
        self.transitive_properties
            .push((property.into(), range.into()));
        self
    }

    /// Emits all triples into the graph. Returns the number of new triples.
    pub fn apply(&self, graph: &mut Graph) -> usize {
        let mut added = 0usize;
        let mut count = |b: bool| {
            if b {
                added += 1
            }
        };
        count(graph.add(&self.id, rdf::TYPE, owl::CLASS));
        if let Some(c) = &self.comment {
            let lit = graph.str_lit(c);
            count(graph.add_with_object(&self.id, rdfs::COMMENT, lit));
        }
        for class in &self.super_classes {
            count(graph.add(&self.id, rdfs::SUB_CLASS_OF, class));
        }
        for (property, range) in &self.transitive_properties {
            count(graph.add(property, rdf::TYPE, owl::OBJECT_PROPERTY));
            count(graph.add(property, rdfs::RANGE, range));
            count(graph.add(&self.id, property, range));
            count(graph.add(property, rdf::TYPE, owl::TRANSITIVE_PROPERTY));
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_builder_emits_expected_triples() {
        let mut g = Graph::new();
        let added = ClassDescription::new("imcl:hpLaserJet")
            .comment("hp color printer")
            .sub_class_of("imcl:Printer")
            .transitive_object_property("imcl:locatedIn", "imcl:Office821")
            .apply(&mut g);
        assert_eq!(added, 7);
        assert!(g.contains("imcl:hpLaserJet", rdf::TYPE, owl::CLASS));
        assert!(g.contains("imcl:hpLaserJet", "imcl:locatedIn", "imcl:Office821"));
        assert!(g.contains("imcl:locatedIn", rdfs::RANGE, "imcl:Office821"));
    }

    #[test]
    fn reapplying_is_idempotent() {
        let mut g = Graph::new();
        let desc = ClassDescription::new("ex:T").sub_class_of("ex:Base");
        let first = desc.apply(&mut g);
        let second = desc.apply(&mut g);
        assert!(first > 0);
        assert_eq!(second, 0);
    }
}
