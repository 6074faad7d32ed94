//! Programmatic OWL descriptions (paper Fig. 5).
//!
//! The paper describes resources as OWL classes with properties such as
//! `locatedIn`; [`ClassDescription`] is the builder the registry layer uses
//! to emit those triples without writing text.

use crate::graph::Graph;
use crate::term::Term;
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
    object_properties: Vec<ObjectPropertyDecl>,
    data_properties: Vec<(String, DataValue)>,
}

#[derive(Debug, Clone)]
struct ObjectPropertyDecl {
    property: String,
    range: String,
    transitive: bool,
    symmetric: bool,
}

#[derive(Debug, Clone)]
enum DataValue {
    Str(String),
    Int(i64),
    Double(f64),
    Bool(bool),
}

impl ClassDescription {
    /// Starts a description of the named class.
    pub fn new(id: impl Into<String>) -> Self {
        ClassDescription {
            id: id.into(),
            comment: None,
            super_classes: Vec::new(),
            object_properties: Vec::new(),
            data_properties: Vec::new(),
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
        self.object_properties.push(ObjectPropertyDecl {
            property: property.into(),
            range: range.into(),
            transitive: true,
            symmetric: false,
        });
        self
    }

    /// Declares a *symmetric* object property.
    pub fn symmetric_object_property(
        mut self,
        property: impl Into<String>,
        range: impl Into<String>,
    ) -> Self {
        self.object_properties.push(ObjectPropertyDecl {
            property: property.into(),
            range: range.into(),
            transitive: false,
            symmetric: true,
        });
        self
    }

    /// Attaches a string-valued data property.
    pub fn data_str(mut self, property: impl Into<String>, value: impl Into<String>) -> Self {
        self.data_properties
            .push((property.into(), DataValue::Str(value.into())));
        self
    }

    /// Attaches an integer-valued data property.
    pub fn data_int(mut self, property: impl Into<String>, value: i64) -> Self {
        self.data_properties
            .push((property.into(), DataValue::Int(value)));
        self
    }

    /// Attaches a double-valued data property.
    pub fn data_double(mut self, property: impl Into<String>, value: f64) -> Self {
        self.data_properties
            .push((property.into(), DataValue::Double(value)));
        self
    }

    /// Attaches a boolean-valued data property.
    pub fn data_bool(mut self, property: impl Into<String>, value: bool) -> Self {
        self.data_properties
            .push((property.into(), DataValue::Bool(value)));
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
        for decl in &self.object_properties {
            count(graph.add(&decl.property, rdf::TYPE, owl::OBJECT_PROPERTY));
            count(graph.add(&decl.property, rdfs::RANGE, &decl.range));
            count(graph.add(&self.id, &decl.property, &decl.range));
            if decl.transitive {
                count(graph.add(&decl.property, rdf::TYPE, owl::TRANSITIVE_PROPERTY));
            }
            if decl.symmetric {
                count(graph.add(&decl.property, rdf::TYPE, owl::SYMMETRIC_PROPERTY));
            }
        }
        for (property, value) in &self.data_properties {
            count(graph.add(property, rdf::TYPE, owl::DATATYPE_PROPERTY));
            let lit: Term = match value {
                DataValue::Str(s) => graph.str_lit(s),
                DataValue::Int(i) => graph.int_lit(*i),
                DataValue::Double(d) => graph.double_lit(*d),
                DataValue::Bool(b) => graph.bool_lit(*b),
            };
            count(graph.add_with_object(&self.id, property, lit));
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
            .data_int("imcl:pagesPerMinute", 20)
            .data_double("imcl:dpi", 600.0)
            .data_bool("imcl:color", true)
            .data_str("imcl:vendor", "hp")
            .apply(&mut g);
        assert!(added >= 10);
        assert!(g.contains("imcl:hpLaserJet", rdf::TYPE, owl::CLASS));
        assert!(g.contains("imcl:hpLaserJet", "imcl:locatedIn", "imcl:Office821"));
        assert!(g.contains("imcl:locatedIn", rdfs::RANGE, "imcl:Office821"));
        assert_eq!(
            g.objects_of("imcl:hpLaserJet", "imcl:pagesPerMinute")[0].as_f64(),
            Some(20.0)
        );
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

    #[test]
    fn symmetric_property_flag() {
        let mut g = Graph::new();
        ClassDescription::new("ex:RoomA")
            .symmetric_object_property("ex:adjacentTo", "ex:RoomB")
            .apply(&mut g);
        assert!(g.contains("ex:adjacentTo", rdf::TYPE, owl::SYMMETRIC_PROPERTY));
    }
}
