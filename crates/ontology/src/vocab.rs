//! Well-known vocabulary names (RDF, RDFS, OWL, XSD and the paper's `imcl`
//! namespace).

/// `rdf:` names.
pub mod rdf {
    /// `rdf:type`.
    pub const TYPE: &str = "rdf:type";
}

/// `rdfs:` names.
pub mod rdfs {
    /// `rdfs:subClassOf`.
    pub const SUB_CLASS_OF: &str = "rdfs:subClassOf";
    /// `rdfs:subPropertyOf`.
    pub const SUB_PROPERTY_OF: &str = "rdfs:subPropertyOf";
    /// `rdfs:domain`.
    pub const DOMAIN: &str = "rdfs:domain";
    /// `rdfs:range`.
    pub const RANGE: &str = "rdfs:range";
    /// `rdfs:comment`.
    pub const COMMENT: &str = "rdfs:comment";
}

/// `owl:` names.
pub mod owl {
    /// `owl:Class`.
    pub const CLASS: &str = "owl:Class";
    /// `owl:ObjectProperty`.
    pub const OBJECT_PROPERTY: &str = "owl:ObjectProperty";
    /// `owl:DatatypeProperty`.
    pub const DATATYPE_PROPERTY: &str = "owl:DatatypeProperty";
    /// `owl:TransitiveProperty`.
    pub const TRANSITIVE_PROPERTY: &str = "owl:TransitiveProperty";
    /// `owl:SymmetricProperty`.
    pub const SYMMETRIC_PROPERTY: &str = "owl:SymmetricProperty";
    /// `owl:inverseOf`.
    pub const INVERSE_OF: &str = "owl:inverseOf";
    /// `owl:equivalentClass`.
    pub const EQUIVALENT_CLASS: &str = "owl:equivalentClass";
    /// `owl:sameAs`.
    pub const SAME_AS: &str = "owl:sameAs";
}

/// `imcl:` names — the paper's own namespace (Internet and Mobile Computing
/// Lab), used by its Fig. 5/6 examples.
pub mod imcl {
    /// `imcl:locatedIn` — transitive containment of places.
    pub const LOCATED_IN: &str = "imcl:locatedIn";
    /// `imcl:responseTime` — measured network response time (ms).
    pub const RESPONSE_TIME: &str = "imcl:responseTime";
    /// `imcl:address` — host address of a resource.
    pub const ADDRESS: &str = "imcl:address";
    /// `imcl:Transferable` — resources that may be shipped.
    pub const TRANSFERABLE: &str = "imcl:Transferable";
    /// `imcl:UnTransferable` — resources that must stay put.
    pub const UNTRANSFERABLE: &str = "imcl:UnTransferable";
    /// `imcl:Substitutable` — resources with acceptable local stand-ins.
    pub const SUBSTITUTABLE: &str = "imcl:Substitutable";
    /// `imcl:UnSubstitutable` — resources without stand-ins.
    pub const UNSUBSTITUTABLE: &str = "imcl:UnSubstitutable";
}
