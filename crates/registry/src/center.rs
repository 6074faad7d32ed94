//! The per-space application & resource registry center.
//!
//! The paper uses Juddi + MySQL; this center keeps records in memory and
//! mirrors resource facts into an ontology graph so lookups can be
//! *semantic* (class subsumption via the reasoner) rather than merely
//! syntactic name matching (§3.3).
//!
//! Registration and deregistration mirror facts into a **signed
//! pending-delta queue**: assertions and retractions are recorded in
//! arrival order and the first lookup afterwards flushes the queue in
//! consecutive same-signed runs — assert runs through
//! [`Reasoner::materialize_incremental`], retract runs through
//! [`Reasoner::retract_batch`] (DRed overdelete/rederive) — so only the
//! consequences of the changed facts are re-derived instead of re-running
//! the whole rule set over the whole graph. Retracted facts stay in the
//! store until their queue entry flushes, keeping the store closed between
//! lookups. Every edit of the registry's graph goes through the queue, so
//! no lookup ever re-materializes the whole graph.

use mdagent_fx::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;

use mdagent_ontology::{Graph, Reasoner, Term, Triple};
use mdagent_simnet::SpaceId;

use crate::matching::{MatchQuality, ResourceMatch};
use crate::record::{ApplicationRecord, ResourceRecord};

/// Registry center for one smart space.
///
/// # Examples
///
/// ```
/// use mdagent_registry::{RegistryCenter, ApplicationRecord, ResourceRecord};
/// use mdagent_simnet::{SpaceId, HostId};
///
/// let mut center = RegistryCenter::new(SpaceId(0));
/// center.register_application(
///     ApplicationRecord::new("media-player", SpaceId(0), HostId(0)).with_component("presentation"),
/// );
/// assert!(center.application("media-player").is_some());
/// center.declare_subclass("imcl:hpLaserJet", "imcl:Printer");
/// center.register_resource(
///     ResourceRecord::new("imcl:prn-821", "imcl:hpLaserJet", SpaceId(0), HostId(0)),
/// );
/// let matches = center.find_resources("imcl:Printer");
/// assert_eq!(matches.len(), 1);
/// ```
#[derive(Debug)]
pub struct RegistryCenter {
    space: SpaceId,
    applications: BTreeMap<String, ApplicationRecord>,
    resources: BTreeMap<String, ResourceRecord>,
    graph: Graph,
    reasoner: Reasoner,
    /// Signed facts changed since the last materialization, in arrival
    /// order, awaiting an incremental flush.
    pending: Vec<PendingDelta>,
    /// Facts with an unflushed `Retract` entry in `pending`. Guards
    /// against double-retracting and lets a re-assertion of a
    /// pending-retracted fact queue correctly even though the store still
    /// holds the triple.
    pending_retracted: FxHashSet<Triple>,
    /// `sub → {super}` over every derived `rdfs:subClassOf` triple,
    /// rebuilt after each materialization so `find_resources` does pure
    /// hash lookups.
    subclass_closure: Option<FxHashMap<Term, FxHashSet<Term>>>,
    incremental_materializations: usize,
    /// Retract runs flushed through [`Reasoner::retract_batch`].
    retraction_flushes: usize,
    /// Base facts retracted through the queue (requested, not net removed).
    retracted_facts: usize,
}

/// One entry of the signed pending-delta queue: a fact asserted or
/// retracted since the last materialization, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingDelta {
    /// The fact was added to the store and awaits incremental derivation.
    Assert(Triple),
    /// The fact awaits removal; the store keeps it until the flush so the
    /// closure stays consistent between lookups.
    Retract(Triple),
}

impl RegistryCenter {
    /// Creates a registry for a space, preloaded with the OWL axiom rules.
    pub fn new(space: SpaceId) -> Self {
        let mut graph = Graph::new();
        let reasoner = Reasoner::with_axioms(&mut graph);
        RegistryCenter {
            space,
            applications: BTreeMap::new(),
            resources: BTreeMap::new(),
            graph,
            reasoner,
            pending: Vec::new(),
            pending_retracted: FxHashSet::default(),
            subclass_closure: None,
            incremental_materializations: 0,
            retraction_flushes: 0,
            retracted_facts: 0,
        }
    }

    /// The space this registry serves.
    pub fn space(&self) -> SpaceId {
        self.space
    }

    /// Registers (or replaces) an application record.
    pub fn register_application(&mut self, record: ApplicationRecord) {
        self.applications.insert(record.name.clone(), record);
    }

    /// Removes an application record. Returns whether it existed.
    pub fn deregister_application(&mut self, name: &str) -> bool {
        self.applications.remove(name).is_some()
    }

    /// Looks up an application by name.
    pub fn application(&self, name: &str) -> Option<&ApplicationRecord> {
        self.applications.get(name)
    }

    /// All registered applications, name-ordered.
    pub fn applications(&self) -> impl Iterator<Item = &ApplicationRecord> {
        self.applications.values()
    }

    /// Asserts one named fact, queueing it for incremental derivation.
    fn assert_fact(&mut self, s: &str, p: &str, o: &str) {
        let t = Triple::new(self.graph.iri(s), self.graph.iri(p), self.graph.iri(o));
        self.assert_triple(t);
    }

    /// Asserts a fact with an arbitrary object term.
    fn assert_fact_with_object(&mut self, s: &str, p: &str, o: Term) {
        let t = Triple::new(self.graph.iri(s), self.graph.iri(p), o);
        self.assert_triple(t);
    }

    fn assert_triple(&mut self, t: Triple) {
        // Queue when the fact is new — and also when the store already
        // holds it but it is not (or soon no longer) an asserted base
        // fact: behind a pending retraction arrival order must win, and a
        // fact so far only *derived* must still gain base status, or
        // retracting its supporting facts would take it along.
        if self.graph.add_triple(t)
            || self.pending_retracted.remove(&t)
            || !self.reasoner.is_base(&t)
        {
            self.pending.push(PendingDelta::Assert(t));
        }
    }

    /// Queues a fact for retraction at the next flush. Returns `false` if
    /// the fact is absent or already pending retraction.
    fn retract_triple(&mut self, t: Triple) -> bool {
        if self.graph.store().contains(&t) && self.pending_retracted.insert(t) {
            self.pending.push(PendingDelta::Retract(t));
            true
        } else {
            false
        }
    }

    /// Retracts one named fact, queueing it for incremental removal
    /// (DRed delete–rederive) at the next lookup. Returns whether the
    /// fact was present and newly queued.
    pub fn retract_fact(&mut self, s: &str, p: &str, o: &str) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.graph.try_iri(s),
            self.graph.try_iri(p),
            self.graph.try_iri(o),
        ) else {
            return false;
        };
        self.retract_triple(Triple::new(s, p, o))
    }

    /// Declares a `rdfs:subClassOf` axiom in this registry's ontology
    /// (e.g. `hpLaserJet ⊑ Printer`); future semantic lookups use it.
    pub fn declare_subclass(&mut self, class: &str, super_class: &str) {
        self.assert_fact(
            class,
            mdagent_ontology::vocab::rdfs::SUB_CLASS_OF,
            super_class,
        );
    }

    /// Registers (or replaces) a resource, mirroring its facts into the
    /// ontology graph (`rdf:type`, `imcl:locatedIn`, transferability
    /// markers and address). Replacing a record first retracts the
    /// facts mirrored for the old one, so stale classes or markers do
    /// not linger in the ontology.
    pub fn register_resource(&mut self, record: ResourceRecord) {
        use mdagent_ontology::vocab::{imcl, rdf};
        if let Some(old) = self.resources.remove(&record.name) {
            self.retract_record_facts(&old);
        }
        self.assert_fact(&record.name, rdf::TYPE, &record.class);
        let space_iri = format!("imcl:space-{}", record.space.0);
        self.assert_fact(&record.name, imcl::LOCATED_IN, &space_iri);
        let marker = if record.transferable {
            imcl::TRANSFERABLE
        } else {
            imcl::UNTRANSFERABLE
        };
        self.assert_fact(&record.name, rdf::TYPE, marker);
        let marker = if record.substitutable {
            imcl::SUBSTITUTABLE
        } else {
            imcl::UNSUBSTITUTABLE
        };
        self.assert_fact(&record.name, rdf::TYPE, marker);
        if !record.address.is_empty() {
            let addr = self.graph.str_lit(&record.address);
            self.assert_fact_with_object(&record.name, imcl::ADDRESS, addr);
        }
        self.resources.insert(record.name.clone(), record);
    }

    /// Removes a resource record and queues retraction of its mirrored
    /// ontology facts; the next lookup repairs the closure incrementally.
    pub fn deregister_resource(&mut self, name: &str) -> bool {
        let Some(record) = self.resources.remove(name) else {
            return false;
        };
        self.retract_record_facts(&record);
        true
    }

    /// Queues retraction of every fact [`RegistryCenter::register_resource`]
    /// mirrored for `record`.
    fn retract_record_facts(&mut self, record: &ResourceRecord) {
        use mdagent_ontology::vocab::{imcl, rdf};
        self.retract_fact(&record.name, rdf::TYPE, &record.class);
        let space_iri = format!("imcl:space-{}", record.space.0);
        self.retract_fact(&record.name, imcl::LOCATED_IN, &space_iri);
        let marker = if record.transferable {
            imcl::TRANSFERABLE
        } else {
            imcl::UNTRANSFERABLE
        };
        self.retract_fact(&record.name, rdf::TYPE, marker);
        let marker = if record.substitutable {
            imcl::SUBSTITUTABLE
        } else {
            imcl::UNSUBSTITUTABLE
        };
        self.retract_fact(&record.name, rdf::TYPE, marker);
        if !record.address.is_empty() {
            // The address literal was interned at registration; re-intern
            // is a lookup, not an allocation.
            let addr = self.graph.str_lit(&record.address);
            if let (Some(s), Some(p)) = (
                self.graph.try_iri(&record.name),
                self.graph.try_iri(imcl::ADDRESS),
            ) {
                self.retract_triple(Triple::new(s, p, addr));
            }
        }
    }

    /// Deregisters every resource whose lease lapsed at or before `now`,
    /// retracting its mirrored facts through the incremental path.
    /// Returns the number of records expired.
    ///
    /// The boundary is [`ResourceRecord::lease_active`]'s: a lease expiring
    /// exactly at `now` is already lapsed.
    pub fn expire_leases(&mut self, now: u64) -> usize {
        let expired: Vec<String> = self
            .resources
            .values()
            .filter(|r| !r.lease_active(now))
            .map(|r| r.name.clone())
            .collect();
        for name in &expired {
            self.deregister_resource(name);
        }
        expired.len()
    }

    /// Looks up a resource by individual name.
    #[cfg(test)]
    pub fn resource(&self, name: &str) -> Option<&ResourceRecord> {
        self.resources.get(name)
    }

    /// All registered resources, name-ordered.
    pub fn resources(&self) -> impl Iterator<Item = &ResourceRecord> {
        self.resources.values()
    }

    /// Number of full materialization runs so far: always 0, because
    /// every graph edit goes through the delta queue and no code path
    /// re-materializes the whole graph. Kept as the zero the benchmark's
    /// registry row reports.
    pub fn full_materializations(&self) -> usize {
        0
    }

    /// Number of incremental (delta-driven) materialization runs so far.
    #[cfg(test)]
    pub fn incremental_materializations(&self) -> usize {
        self.incremental_materializations
    }

    /// Number of retract runs flushed through the incremental
    /// delete–rederive path so far.
    pub fn retraction_flushes(&self) -> usize {
        self.retraction_flushes
    }

    /// Number of base facts retracted through the queue so far.
    #[cfg(test)]
    pub fn retracted_facts(&self) -> usize {
        self.retracted_facts
    }

    /// Profiling counters from the most recent retract flush.
    pub fn last_retract_stats(&self) -> &mdagent_ontology::RetractStats {
        self.reasoner.last_retract_stats()
    }

    /// Flushes any queued deltas now (lookups do this lazily).
    pub fn flush_deltas(&mut self) {
        self.ensure_materialized();
    }

    /// Brings the graph up to date: the signed delta queue is flushed in
    /// arrival order as consecutive same-signed runs — assert runs
    /// through [`Reasoner::materialize_incremental`], retract runs
    /// through [`Reasoner::retract_batch`]. Rebuilds the
    /// subclass-closure cache as needed.
    fn ensure_materialized(&mut self) {
        if !self.pending.is_empty() {
            let deltas = std::mem::take(&mut self.pending);
            self.pending_retracted.clear();
            let mut i = 0;
            while i < deltas.len() {
                match deltas[i] {
                    PendingDelta::Assert(_) => {
                        let mut batch = Vec::new();
                        while let Some(PendingDelta::Assert(t)) = deltas.get(i) {
                            batch.push(*t);
                            i += 1;
                        }
                        self.reasoner
                            .materialize_incremental(&mut self.graph, batch);
                        self.incremental_materializations += 1;
                    }
                    PendingDelta::Retract(_) => {
                        let mut batch = Vec::new();
                        while let Some(PendingDelta::Retract(t)) = deltas.get(i) {
                            batch.push(*t);
                            i += 1;
                        }
                        self.retracted_facts += batch.len();
                        self.reasoner.retract_batch(&mut self.graph, batch);
                        self.retraction_flushes += 1;
                    }
                }
            }
            self.subclass_closure = None;
        }
        if self.subclass_closure.is_none() {
            self.subclass_closure = Some(build_subclass_closure(&self.graph));
        }
    }

    /// Semantic resource lookup: all resources whose class satisfies
    /// `required_class`, ranked best-first (see [`MatchQuality`]).
    ///
    /// A resource matches *exactly* when its class equals the requirement,
    /// and *by subsumption* when its class is a (derived) subclass. A
    /// resource marked substitutable whose class shares the requirement
    /// only through substitution still matches, ranked last.
    pub fn find_resources(&mut self, required_class: &str) -> Vec<ResourceMatch> {
        self.ensure_materialized();
        // `ensure_materialized` populates the closure; an empty registry
        // yields no matches rather than assuming.
        let Some(closure) = self.subclass_closure.as_ref() else {
            return Vec::new();
        };
        let required = self.graph.try_iri(required_class);
        let is_subclass = |sub: Option<Term>, sup: Option<Term>| -> bool {
            let (Some(sub), Some(sup)) = (sub, sup) else {
                return false;
            };
            closure
                .get(&sub)
                .is_some_and(|supers| supers.contains(&sup))
        };
        let mut out = Vec::new();
        for record in self.resources.values() {
            let class = self.graph.try_iri(&record.class);
            let quality = if record.class == required_class {
                Some(MatchQuality::Exact)
            } else if is_subclass(class, required) {
                Some(MatchQuality::Subsumed)
            } else if record.substitutable && is_subclass(required, class) {
                // The requirement is more specific than what we have, but
                // the resource is declared an acceptable stand-in.
                Some(MatchQuality::Substitutable)
            } else {
                None
            };
            if let Some(quality) = quality {
                out.push(ResourceMatch {
                    resource: record.clone(),
                    quality,
                });
            }
        }
        out.sort_by(|a, b| {
            a.quality
                .cmp(&b.quality)
                .then_with(|| a.resource.name.cmp(&b.resource.name))
        });
        out
    }

    /// Lease-aware semantic lookup: [`RegistryCenter::find_resources`]
    /// restricted to records whose lease is still active at simulated
    /// time `now` (µs). A record lapsing exactly at `now` is excluded —
    /// the same boundary [`RegistryCenter::expire_leases`] uses — so a
    /// lookup between sweeps never serves an advertisement the next sweep
    /// would have deregistered.
    #[cfg(test)]
    pub fn find_resources_at(&mut self, required_class: &str, now: u64) -> Vec<ResourceMatch> {
        let mut out = self.find_resources(required_class);
        out.retain(|m| m.resource.lease_active(now));
        out
    }

    /// Purely syntactic lookup for comparison (the paper argues this is
    /// too strict): exact class-name equality only.
    pub fn find_resources_syntactic(&self, required_class: &str) -> Vec<ResourceMatch> {
        self.resources
            .values()
            .filter(|r| r.class == required_class)
            .map(|r| ResourceMatch {
                resource: r.clone(),
                quality: MatchQuality::Exact,
            })
            .collect()
    }

    /// Read access to the underlying ontology graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

/// Collects every `(sub, super)` pair of the materialized
/// `rdfs:subClassOf` relation into a hash map for O(1) subsumption checks.
fn build_subclass_closure(graph: &Graph) -> FxHashMap<Term, FxHashSet<Term>> {
    let mut closure: FxHashMap<Term, FxHashSet<Term>> = FxHashMap::default();
    let Some(p) = graph.try_iri(mdagent_ontology::vocab::rdfs::SUB_CLASS_OF) else {
        return closure;
    };
    graph.store().for_each_match(None, Some(p), None, |t| {
        closure.entry(t.s).or_default().insert(t.o);
    });
    closure
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdagent_simnet::HostId;

    fn center() -> RegistryCenter {
        let mut c = RegistryCenter::new(SpaceId(0));
        c.declare_subclass("imcl:hpLaserJet", "imcl:Printer");
        c.declare_subclass("imcl:Printer", "imcl:Resource");
        c.register_resource(
            ResourceRecord::new("imcl:prn-821", "imcl:hpLaserJet", SpaceId(0), HostId(0))
                .address("host-0:9100"),
        );
        c.register_resource(ResourceRecord::new(
            "imcl:proj-821",
            "imcl:Projector",
            SpaceId(0),
            HostId(0),
        ));
        c
    }

    #[test]
    fn semantic_match_uses_subsumption() {
        let mut c = center();
        let matches = c.find_resources("imcl:Printer");
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].resource.name, "imcl:prn-821");
        assert_eq!(matches[0].quality, MatchQuality::Subsumed);
        // Transitively: an hpLaserJet is also a Resource.
        let matches = c.find_resources("imcl:Resource");
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn syntactic_match_misses_subclasses() {
        let c = center();
        assert!(c.find_resources_syntactic("imcl:Printer").is_empty());
        assert_eq!(c.find_resources_syntactic("imcl:hpLaserJet").len(), 1);
    }

    #[test]
    fn exact_match_ranks_before_subsumed() {
        let mut c = center();
        c.register_resource(ResourceRecord::new(
            "imcl:generic-prn",
            "imcl:Printer",
            SpaceId(0),
            HostId(0),
        ));
        let matches = c.find_resources("imcl:Printer");
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].quality, MatchQuality::Exact);
        assert_eq!(matches[0].resource.name, "imcl:generic-prn");
        assert_eq!(matches[1].quality, MatchQuality::Subsumed);
    }

    #[test]
    fn substitutable_super_class_matches_last() {
        let mut c = RegistryCenter::new(SpaceId(0));
        c.declare_subclass("imcl:hpLaserJet", "imcl:Printer");
        // Only a generic printer is available but an hpLaserJet is requested.
        c.register_resource(
            ResourceRecord::new("imcl:generic-prn", "imcl:Printer", SpaceId(0), HostId(0))
                .substitutable(true),
        );
        let matches = c.find_resources("imcl:hpLaserJet");
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].quality, MatchQuality::Substitutable);
        // If not substitutable, no match.
        c.register_resource(
            ResourceRecord::new("imcl:generic-prn", "imcl:Printer", SpaceId(0), HostId(0))
                .substitutable(false),
        );
        assert!(c.find_resources("imcl:hpLaserJet").is_empty());
    }

    #[test]
    fn application_lifecycle() {
        let mut c = center();
        c.register_application(
            ApplicationRecord::new("player", SpaceId(0), HostId(0)).with_component("presentation"),
        );
        assert!(c
            .application("player")
            .unwrap()
            .has_component("presentation"));
        assert_eq!(c.applications().count(), 1);
        assert!(c.deregister_application("player"));
        assert!(!c.deregister_application("player"));
        assert!(c.application("player").is_none());
    }

    #[test]
    fn resource_facts_land_in_ontology() {
        use mdagent_ontology::vocab::{imcl, rdf};
        let mut c = center();
        c.ensure_materialized();
        assert!(c
            .graph()
            .contains("imcl:prn-821", rdf::TYPE, "imcl:hpLaserJet"));
        assert!(
            c.graph()
                .contains("imcl:prn-821", rdf::TYPE, "imcl:Printer"),
            "derived"
        );
        assert!(c
            .graph()
            .contains("imcl:prn-821", imcl::LOCATED_IN, "imcl:space-0"));
        assert!(c
            .graph()
            .contains("imcl:prn-821", rdf::TYPE, imcl::UNTRANSFERABLE));
        assert!(c
            .graph()
            .contains("imcl:prn-821", rdf::TYPE, imcl::SUBSTITUTABLE));
    }

    #[test]
    fn deregistered_resources_stop_matching() {
        let mut c = center();
        assert!(c.deregister_resource("imcl:prn-821"));
        assert!(c.find_resources("imcl:Printer").is_empty());
        assert!(c.resource("imcl:prn-821").is_none());
    }

    #[test]
    fn single_registration_runs_incremental_path() {
        let mut c = center();
        c.find_resources("imcl:Printer"); // flush the initial batch
        let full_before = c.full_materializations();
        let inc_before = c.incremental_materializations();
        c.register_resource(ResourceRecord::new(
            "imcl:prn-new",
            "imcl:hpLaserJet",
            SpaceId(0),
            HostId(3),
        ));
        let matches = c.find_resources("imcl:Printer");
        assert!(matches.iter().any(|m| m.resource.name == "imcl:prn-new"));
        assert_eq!(
            c.incremental_materializations(),
            inc_before + 1,
            "one registration flushes through the incremental path"
        );
        assert_eq!(
            c.full_materializations(),
            full_before,
            "no full re-materialization for a tracked delta"
        );
    }

    #[test]
    fn one_at_a_time_equals_batch_registration() {
        let records = |space| {
            vec![
                ResourceRecord::new("imcl:prn-a", "imcl:hpLaserJet", space, HostId(0))
                    .address("host-0:9100"),
                ResourceRecord::new("imcl:prn-b", "imcl:Printer", space, HostId(1)),
                ResourceRecord::new("imcl:scn-a", "imcl:Scanner", space, HostId(1))
                    .substitutable(true),
            ]
        };
        let mut stepwise = RegistryCenter::new(SpaceId(0));
        let mut batch = RegistryCenter::new(SpaceId(0));
        for c in [&mut stepwise, &mut batch] {
            c.declare_subclass("imcl:hpLaserJet", "imcl:Printer");
            c.declare_subclass("imcl:Printer", "imcl:Resource");
            c.declare_subclass("imcl:Scanner", "imcl:Resource");
        }
        // Stepwise: materialize between every registration.
        for r in records(SpaceId(0)) {
            stepwise.register_resource(r);
            stepwise.find_resources("imcl:Resource");
        }
        // Batch: register everything, then materialize once.
        for r in records(SpaceId(0)) {
            batch.register_resource(r);
        }
        for class in ["imcl:Resource", "imcl:Printer", "imcl:hpLaserJet"] {
            let a: Vec<_> = stepwise
                .find_resources(class)
                .into_iter()
                .map(|m| (m.resource.name.clone(), m.quality))
                .collect();
            let b: Vec<_> = batch
                .find_resources(class)
                .into_iter()
                .map(|m| (m.resource.name.clone(), m.quality))
                .collect();
            assert_eq!(a, b, "lookup for {class}");
        }
        // The derived graphs agree triple-for-triple.
        let rendered = |c: &RegistryCenter| {
            let mut v: Vec<String> = c
                .graph()
                .store()
                .iter()
                .map(|t| t.display(c.graph().interner()).to_string())
                .collect();
            v.sort();
            v
        };
        assert_eq!(rendered(&stepwise), rendered(&batch));
        assert!(stepwise.incremental_materializations() > batch.incremental_materializations());
    }

    #[test]
    fn retraction_flows_through_incremental_path() {
        use mdagent_ontology::vocab::rdfs;
        let mut c = center();
        c.find_resources("imcl:Printer");
        let full_before = c.full_materializations();
        // Retract the subclass axiom through the tracked queue: no full
        // re-materialization, one retract flush.
        assert!(c.retract_fact("imcl:hpLaserJet", rdfs::SUB_CLASS_OF, "imcl:Printer"));
        // Absent or already-queued facts don't queue again.
        assert!(!c.retract_fact("imcl:hpLaserJet", rdfs::SUB_CLASS_OF, "imcl:Printer"));
        assert!(!c.retract_fact("imcl:never", "imcl:seen", "imcl:fact"));
        assert!(
            c.find_resources("imcl:Printer").is_empty(),
            "subsumption gone"
        );
        assert_eq!(c.full_materializations(), full_before);
        assert_eq!(c.retraction_flushes(), 1);
        assert_eq!(c.retracted_facts(), 1);
        // The derived consequences are gone too, not just the axiom.
        assert!(!c.graph().contains(
            "imcl:prn-821",
            mdagent_ontology::vocab::rdf::TYPE,
            "imcl:Printer"
        ));
        // The delta queue keeps working after a retract flush.
        let inc_before = c.incremental_materializations();
        c.register_resource(ResourceRecord::new(
            "imcl:prn-late",
            "imcl:hpLaserJet",
            SpaceId(0),
            HostId(4),
        ));
        c.find_resources("imcl:hpLaserJet");
        assert_eq!(c.incremental_materializations(), inc_before + 1);
        assert_eq!(c.full_materializations(), full_before);
    }

    #[test]
    fn deregistration_retracts_mirrored_facts() {
        use mdagent_ontology::vocab::{imcl, rdf};
        let mut c = center();
        c.find_resources("imcl:Printer");
        assert!(c.deregister_resource("imcl:prn-821"));
        assert!(!c.deregister_resource("imcl:prn-821"));
        let full_before = c.full_materializations();
        assert!(c.find_resources("imcl:Printer").is_empty());
        assert_eq!(c.full_materializations(), full_before, "incremental");
        assert!(c.retraction_flushes() >= 1);
        // Every mirrored fact is gone, including the derived type and the
        // address literal.
        for (p, o) in [
            (rdf::TYPE, "imcl:hpLaserJet"),
            (rdf::TYPE, "imcl:Printer"),
            (imcl::LOCATED_IN, "imcl:space-0"),
            (rdf::TYPE, imcl::UNTRANSFERABLE),
            (rdf::TYPE, imcl::SUBSTITUTABLE),
        ] {
            assert!(!c.graph().contains("imcl:prn-821", p, o), "{p} {o}");
        }
        let addr = c.graph().interner().get("host-0:9100").unwrap();
        let addr = Term::Literal(mdagent_ontology::Literal::Str(addr));
        let s = c.graph().try_iri("imcl:prn-821").unwrap();
        let p = c.graph().try_iri(imcl::ADDRESS).unwrap();
        assert!(!c.graph().store().contains(&Triple::new(s, p, addr)));
    }

    #[test]
    fn reassert_after_pending_retract_respects_arrival_order() {
        let mut c = center();
        c.find_resources("imcl:Printer");
        let record = c.resource("imcl:prn-821").unwrap().clone();
        // Deregister and re-register before any lookup flushes: the
        // re-assertion queues behind the pending retraction and wins.
        c.deregister_resource("imcl:prn-821");
        c.register_resource(record);
        let matches = c.find_resources("imcl:Printer");
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].resource.name, "imcl:prn-821");
        assert!(c.graph().contains(
            "imcl:prn-821",
            mdagent_ontology::vocab::rdf::TYPE,
            "imcl:hpLaserJet"
        ));
    }

    #[test]
    fn replacement_retracts_stale_facts() {
        use mdagent_ontology::vocab::rdf;
        let mut c = center();
        c.find_resources("imcl:Printer");
        // Same name, different class: the hpLaserJet facts must go.
        c.register_resource(ResourceRecord::new(
            "imcl:prn-821",
            "imcl:Projector",
            SpaceId(0),
            HostId(0),
        ));
        assert!(c.find_resources("imcl:Printer").is_empty());
        assert!(!c
            .graph()
            .contains("imcl:prn-821", rdf::TYPE, "imcl:hpLaserJet"));
        assert!(c
            .graph()
            .contains("imcl:prn-821", rdf::TYPE, "imcl:Projector"));
    }

    #[test]
    fn lease_expiry_deregisters_through_retraction() {
        let mut c = RegistryCenter::new(SpaceId(0));
        c.declare_subclass("imcl:hpLaserJet", "imcl:Printer");
        c.register_resource(
            ResourceRecord::new("imcl:prn-lease", "imcl:hpLaserJet", SpaceId(0), HostId(0))
                .lease_until(5_000),
        );
        c.register_resource(ResourceRecord::new(
            "imcl:prn-keep",
            "imcl:hpLaserJet",
            SpaceId(0),
            HostId(1),
        ));
        assert_eq!(c.find_resources("imcl:Printer").len(), 2);
        assert_eq!(c.expire_leases(4_999), 0);
        assert_eq!(c.expire_leases(5_000), 1);
        assert_eq!(c.expire_leases(5_000), 0, "already expired");
        let full_before = c.full_materializations();
        let matches = c.find_resources("imcl:Printer");
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].resource.name, "imcl:prn-keep");
        assert_eq!(c.full_materializations(), full_before);
        assert!(c.retraction_flushes() >= 1);
    }

    #[test]
    fn lease_boundary_consistent_between_sweep_and_lookup() {
        // Pin the lease-endpoint semantics: `lease_until(t)` is active
        // strictly before `t`. The sweep and lookup-time filtering must
        // agree at every instant around the boundary — in particular a
        // lookup must never serve a record the sweep at the same `now`
        // would deregister.
        let mut c = RegistryCenter::new(SpaceId(0));
        c.declare_subclass("imcl:hpLaserJet", "imcl:Printer");
        c.register_resource(
            ResourceRecord::new("imcl:prn-lease", "imcl:hpLaserJet", SpaceId(0), HostId(0))
                .lease_until(5_000),
        );
        // One tick before expiry: live for both consumers.
        assert_eq!(c.find_resources_at("imcl:Printer", 4_999).len(), 1);
        assert_eq!(c.expire_leases(4_999), 0);
        // Exactly at expiry: lapsed for both consumers — the lookup
        // filters the record out even though no sweep has run yet.
        assert_eq!(c.find_resources_at("imcl:Printer", 5_000).len(), 0);
        assert_eq!(
            c.find_resources("imcl:Printer").len(),
            1,
            "time-blind lookup still sees the unswept record"
        );
        assert_eq!(c.expire_leases(5_000), 1);
        assert_eq!(c.find_resources_at("imcl:Printer", 5_000).len(), 0);
        // Unleased records are always active.
        c.register_resource(ResourceRecord::new(
            "imcl:prn-keep",
            "imcl:hpLaserJet",
            SpaceId(0),
            HostId(1),
        ));
        assert_eq!(c.find_resources_at("imcl:Printer", u64::MAX).len(), 1);
    }

    #[test]
    fn subclass_cache_reflects_new_axioms() {
        let mut c = RegistryCenter::new(SpaceId(0));
        c.register_resource(ResourceRecord::new(
            "imcl:dev",
            "imcl:Gadget",
            SpaceId(0),
            HostId(0),
        ));
        assert!(c.find_resources("imcl:Device").is_empty());
        // A later axiom must invalidate the cached closure.
        c.declare_subclass("imcl:Gadget", "imcl:Device");
        let matches = c.find_resources("imcl:Device");
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].quality, MatchQuality::Subsumed);
    }
}
