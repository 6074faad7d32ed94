//! The MDAgent middleware: the world that ties all four layers together.

use mdagent_agent::{
    AclMessage, Agent, AgentId, ContainerId, Performative, Platform, PlatformEnv, PlatformHost,
};
use mdagent_context::{
    BadgeId, BadgePosition, ContextData, ContextEvent, ContextKernel, SensorField, SubscriberId,
    UserId,
};
use mdagent_fx::FxHashMap;
use mdagent_registry::{ApplicationRecord, RegistryFederation, ResourceRecord};
use mdagent_simnet::{
    CpuFactor, EventData, FaultInjector, FaultOptions, HostId, LinkKind, SimDuration, SimRng,
    SimTime, Simulator, SloMonitor, SpaceId, SpanId, Telemetry, Topology, TraceCategory,
    TraceEvent,
};
use mdagent_wire::Wire;

use crate::adaptor::{adapt, AdaptationReport};
use crate::app::{AppId, AppState, Application};
use crate::binding::{rebind, BindingTarget, RebindOutcome};
use crate::component::{ComponentKind, ComponentSet};
use crate::datapath::DataPathOptions;
use crate::error::CoreError;
use crate::layers::datapath::{self, DataPath};
use crate::layers::telemetry::{self, Installed};
use crate::layers::{exactly_once, fault_retry, slo, InFlight};
use crate::messages::{ontologies, Cargo, ContextNotice, SyncUpdate};
use crate::mobility::{BindingPolicy, DataStrategy, MigrationPlan, MobilityMode};
use crate::observability::ObservabilityOptions;
use crate::profile::{DeviceProfile, UserProfile};
use crate::snapshot::SnapshotManager;
use crate::timing::{CostModel, HostClock, PhaseTimes};

/// A completed migration, as recorded for the benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// The migrated (or cloned) application.
    pub app: AppId,
    /// Application name.
    pub app_name: String,
    /// Follow-me or clone-dispatch.
    pub mode: MobilityMode,
    /// Binding policy in force.
    pub policy: BindingPolicy,
    /// Per-phase durations.
    pub phases: PhaseTimes,
    /// Bytes shipped inside the agent.
    pub shipped_bytes: u64,
    /// Bytes left behind for remote streaming.
    pub remote_bytes: u64,
    /// Destination host.
    pub dest_host: HostId,
    /// Completion instant.
    pub completed_at: SimTime,
    /// Adaptations applied on arrival.
    pub adaptation: AdaptationReport,
}

/// The middleware world: platform + context kernel + registries +
/// applications, driven by one deterministic simulator.
///
/// Construct it through [`MiddlewareBuilder`]; drive scenarios with the
/// associated functions that take `(&mut Middleware, &mut Simulator<_>)`.
pub struct Middleware {
    pub(crate) platform: Platform<Middleware>,
    pub(crate) env: PlatformEnv,
    /// The context layer.
    pub kernel: ContextKernel,
    /// Per-space registries.
    pub federation: RegistryFederation,
    /// Snapshot manager (base level of every application).
    pub snapshots: SnapshotManager,
    /// Cost constants.
    pub(crate) cost_model: CostModel,
    /// Deterministic randomness.
    pub rng: SimRng,
    pub(crate) apps: Vec<Application>,
    containers: FxHashMap<HostId, ContainerId>,
    device_profiles: FxHashMap<HostId, DeviceProfile>,
    user_profiles: FxHashMap<UserId, UserProfile>,
    space_primary: FxHashMap<SpaceId, HostId>,
    subscriber_agents: FxHashMap<SubscriberId, AgentId>,
    host_clocks: FxHashMap<HostId, HostClock>,
    /// Preinstalled components per app name, then host (raw id): keyed by
    /// name first, so a lookup borrows the name.
    preinstalled: FxHashMap<String, FxHashMap<u32, ComponentSet>>,
    pub(crate) in_flight: FxHashMap<AgentId, InFlight>,
    /// Opt-in observability pipeline configuration.
    pub(crate) observability: ObservabilityOptions,
    /// SLO monitor, present iff [`ObservabilityOptions::slo`] was set.
    pub(crate) slo: Option<SloMonitor>,
    /// The exactly-once guard: capture sequence of the cargo last
    /// deployed per app (raw id).
    pub(crate) deployed: FxHashMap<u32, u64>,
    /// The data path's caches and content store, present iff the builder
    /// turned it on. Boxed: one pointer when off, so the world's layout
    /// does not grow by three hash maps.
    pub(crate) data_path: Option<Box<DataPath>>,
    migration_log: Vec<MigrationReport>,
    rule_bases: FxHashMap<String, String>,
    sense_period: SimDuration,
    sensing: bool,
    /// Registered recurring probe rounds: `(host pairs, period)`. The
    /// recurring probe event carries only an index into this table, so
    /// each round schedules allocation-free.
    probe_sets: Vec<(Vec<(HostId, HostId)>, SimDuration)>,
}

impl std::fmt::Debug for Middleware {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Middleware")
            .field("apps", &self.apps.len())
            .field("hosts", &self.containers.len())
            .field("migrations", &self.migration_log.len())
            .finish()
    }
}

impl PlatformHost for Middleware {
    fn platform(&self) -> &Platform<Middleware> {
        &self.platform
    }
    fn platform_mut(&mut self) -> &mut Platform<Middleware> {
        &mut self.platform
    }
    fn env(&self) -> &PlatformEnv {
        &self.env
    }
    fn env_mut(&mut self) -> &mut PlatformEnv {
        &mut self.env
    }
    fn deferred_op_failed(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        id: &AgentId,
        failure: mdagent_agent::DeferredFailure,
    ) {
        Middleware::deferred_departure_failed(world, sim, id, failure);
    }
}

/// Builder assembling the environment: spaces, hosts, links, sensors.
#[derive(Debug)]
pub struct MiddlewareBuilder {
    topology: Topology,
    sensor_noise_m: f64,
    beacons: Vec<(SpaceId, f64)>,
    device_profiles: FxHashMap<HostId, DeviceProfile>,
    space_primary: FxHashMap<SpaceId, HostId>,
    host_clock_skews: FxHashMap<HostId, i64>,
    seed: u64,
    sense_period: SimDuration,
    data_path: DataPathOptions,
    faults: FaultOptions,
    observability: ObservabilityOptions,
}

impl Default for MiddlewareBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MiddlewareBuilder {
    /// Starts an empty environment.
    pub fn new() -> Self {
        MiddlewareBuilder {
            topology: Topology::new(),
            sensor_noise_m: 0.08,
            beacons: Vec::new(),
            device_profiles: FxHashMap::default(),
            space_primary: FxHashMap::default(),
            host_clock_skews: FxHashMap::default(),
            seed: 42,
            sense_period: SimDuration::from_millis(200),
            data_path: DataPathOptions::default(),
            faults: FaultOptions::default(),
            observability: ObservabilityOptions::default(),
        }
    }

    /// Adds a smart space.
    pub fn space(&mut self, name: &str) -> SpaceId {
        self.topology.add_space(name)
    }

    /// Adds a host; the first host of each space becomes its primary. A
    /// beacon is mounted automatically at position 2 m.
    pub fn host(
        &mut self,
        name: &str,
        space: SpaceId,
        cpu: CpuFactor,
        profile_for: fn(HostId) -> DeviceProfile,
    ) -> HostId {
        let host = self.topology.add_host(name, space, cpu);
        self.device_profiles.insert(host, profile_for(host));
        self.space_primary.entry(space).or_insert(host);
        if !self.beacons.iter().any(|(s, _)| *s == space) {
            self.beacons.push((space, 2.0));
        }
        host
    }

    /// Connects two same-space hosts with the paper's 10 Mbps Ethernet
    /// (1 ms latency, 80% efficiency).
    ///
    /// # Errors
    ///
    /// Propagates topology errors.
    pub fn ethernet(&mut self, a: HostId, b: HostId) -> Result<(), CoreError> {
        self.topology
            .add_lan_link(a, b, SimDuration::from_millis(1), 10_000_000, 0.8)?;
        Ok(())
    }

    /// Connects two spaces' hosts with a gateway link (5 ms latency, 70%
    /// efficiency at 10 Mbps).
    ///
    /// # Errors
    ///
    /// Propagates topology errors.
    pub fn gateway(&mut self, a: HostId, b: HostId) -> Result<(), CoreError> {
        self.topology
            .add_gateway_link(a, b, SimDuration::from_millis(5), 10_000_000, 0.7)?;
        Ok(())
    }

    /// Adds a link with explicit parameters. `gateway` links must cross a
    /// space boundary; LAN links must not.
    ///
    /// # Errors
    ///
    /// Propagates topology errors.
    pub fn link(
        &mut self,
        a: HostId,
        b: HostId,
        latency: SimDuration,
        bandwidth_bps: u64,
        efficiency: f64,
        gateway: bool,
    ) -> Result<(), CoreError> {
        if gateway {
            self.topology
                .add_gateway_link(a, b, latency, bandwidth_bps, efficiency)?;
        } else {
            self.topology
                .add_lan_link(a, b, latency, bandwidth_bps, efficiency)?;
        }
        Ok(())
    }

    /// Gives a host a skewed wall clock (µs; used to exercise Fig. 7's
    /// measurement method).
    pub fn clock_skew(&mut self, host: HostId, skew_micros: i64) -> &mut Self {
        self.host_clock_skews.insert(host, skew_micros);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the sensing period.
    pub fn sense_period(&mut self, period: SimDuration) -> &mut Self {
        self.sense_period = period;
        self
    }

    /// Enables the migration data-path optimizations (component cache,
    /// delta snapshots) with [`DataPathOptions::all`]: the world then
    /// holds the data path's caches and content store. Off by default.
    pub fn data_path(&mut self, options: DataPathOptions) -> &mut Self {
        self.data_path = options;
        self
    }

    /// Enables network fault injection (per-link drops, outages). Off by
    /// default; when off, nothing in the migration path changes.
    pub fn faults(&mut self, options: FaultOptions) -> &mut Self {
        self.faults = options;
        self
    }

    /// Enables the observability pipeline (tail-based span sampling,
    /// wire trace-context propagation, SLO burn-rate monitoring). Off by
    /// default; when off, telemetry, wire bytes and trace output are
    /// identical to a build without this call.
    pub fn observability(&mut self, options: ObservabilityOptions) -> &mut Self {
        self.observability = options;
        self
    }

    /// Finalizes the world and a simulator to drive it.
    pub fn build(self) -> (Middleware, Simulator<Middleware>) {
        let mut field = SensorField::new(self.sensor_noise_m);
        for (space, pos) in &self.beacons {
            field.add_beacon(*space, *pos);
        }
        let mut platform = Platform::new("mdagent");
        let mut containers = FxHashMap::default();
        for host in self.topology.hosts() {
            let container = platform.create_container(host.name().to_owned(), host.id());
            containers.insert(host.id(), container);
        }
        platform.register_factory(
            "mobile-agent",
            Box::new(|bytes| {
                mdagent_wire::from_bytes::<crate::agents::MobileAgent>(bytes)
                    .map(|a| Box::new(a) as Box<dyn Agent<Middleware>>)
            }),
        );
        platform.register_factory(
            "autonomous-agent",
            Box::new(|bytes| {
                mdagent_wire::from_bytes::<crate::agents::AutonomousAgent>(bytes)
                    .map(|a| Box::new(a) as Box<dyn Agent<Middleware>>)
            }),
        );
        let mut federation = RegistryFederation::new();
        let mut host_clocks = FxHashMap::default();
        for host in self.topology.hosts() {
            let skew = self.host_clock_skews.get(&host.id()).copied().unwrap_or(0);
            host_clocks.insert(host.id(), HostClock::with_skew(skew));
        }
        for idx in 0..self.topology.space_count() {
            federation.add_center(SpaceId(idx as u32));
        }
        let mut env = PlatformEnv::new(self.topology);
        env.faults = FaultInjector::new(self.faults, self.seed ^ 0xFAD7_5EED);
        if let Some(sampler) = self.observability.sampler {
            env.telemetry = Telemetry::sampled(sampler);
        }
        let slo = self.observability.slo.map(|opts| opts.build_monitor());
        let world = Middleware {
            platform,
            env,
            kernel: ContextKernel::new(field),
            federation,
            snapshots: SnapshotManager::new(8),
            cost_model: CostModel::default(),
            rng: SimRng::seed_from(self.seed),
            apps: Vec::new(),
            containers,
            device_profiles: self.device_profiles,
            user_profiles: FxHashMap::default(),
            space_primary: self.space_primary,
            subscriber_agents: FxHashMap::default(),
            host_clocks,
            preinstalled: FxHashMap::default(),
            in_flight: FxHashMap::default(),
            observability: self.observability,
            slo,
            deployed: FxHashMap::default(),
            data_path: self.data_path.enabled.then(Box::default),
            migration_log: Vec::new(),
            rule_bases: FxHashMap::from_iter([(
                "default".to_owned(),
                crate::rules::PAPER_RULES.to_owned(),
            )]),
            sense_period: self.sense_period,
            sensing: false,
            probe_sets: Vec::new(),
        };
        (world, Simulator::new())
    }
}

impl Middleware {
    /// Starts building an environment.
    pub fn builder() -> MiddlewareBuilder {
        MiddlewareBuilder::new()
    }

    // ---- accessors ---------------------------------------------------------

    /// The application with the given id.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownApp`] for bad ids.
    pub fn app(&self, id: AppId) -> Result<&Application, CoreError> {
        self.apps
            .get(id.0 as usize)
            .ok_or(CoreError::UnknownApp(id))
    }

    /// Mutable application access.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownApp`] for bad ids.
    pub fn app_mut(&mut self, id: AppId) -> Result<&mut Application, CoreError> {
        self.apps
            .get_mut(id.0 as usize)
            .ok_or(CoreError::UnknownApp(id))
    }

    /// All applications.
    pub fn apps(&self) -> impl Iterator<Item = &Application> {
        self.apps.iter()
    }

    /// The agent container on a host.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoContainer`] when the host has none.
    pub fn container_on(&self, host: HostId) -> Result<ContainerId, CoreError> {
        self.containers
            .get(&host)
            .copied()
            .ok_or(CoreError::NoContainer(host))
    }

    /// The primary (migration-target) host of a space.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoHostInSpace`] when the space has no hosts.
    pub fn primary_host(&self, space: SpaceId) -> Result<HostId, CoreError> {
        self.space_primary
            .get(&space)
            .copied()
            .ok_or(CoreError::NoHostInSpace(space))
    }

    /// The space a host belongs to.
    ///
    /// # Errors
    ///
    /// Propagates topology errors.
    pub fn space_of(&self, host: HostId) -> Result<SpaceId, CoreError> {
        Ok(self.env.topology.host(host)?.space())
    }

    /// The device profile of a host (PC default when not configured).
    pub fn device_profile(&self, host: HostId) -> DeviceProfile {
        self.device_profiles
            .get(&host)
            .cloned()
            .unwrap_or_else(|| DeviceProfile::pc(host))
    }

    /// The wall clock of a host (synchronized default).
    pub fn host_clock(&self, host: HostId) -> HostClock {
        self.host_clocks
            .get(&host)
            .copied()
            .unwrap_or_else(HostClock::synchronized)
    }

    /// All completed migrations, oldest first.
    pub fn migration_log(&self) -> &[MigrationReport] {
        &self.migration_log
    }

    /// The shared trace.
    pub fn trace(&self) -> &mdagent_simnet::Trace {
        &self.env.trace
    }

    /// The shared metrics.
    pub fn metrics(&self) -> &mdagent_simnet::MetricsRegistry {
        &self.env.metrics
    }

    /// Mutable fault-injector access (schedule outages mid-run).
    pub fn faults_mut(&mut self) -> &mut FaultInjector {
        &mut self.env.faults
    }

    /// Number of migrations currently in flight (should drain to zero).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the registry of `space` is reachable from `from` under the
    /// current fault regime. With faults off this is always true; a
    /// gateway outage severs every inter-space registry.
    pub fn registry_reachable(&self, from: HostId, space: SpaceId) -> bool {
        if !self.env.faults.enabled() {
            return true;
        }
        let Ok(primary) = self.primary_host(space) else {
            return false;
        };
        let Ok(links) = self.env.topology.route(from, primary) else {
            return false;
        };
        if self.env.faults.gateway_outage() {
            let crosses_gateway = links.iter().any(|l| {
                self.env
                    .topology
                    .link(*l)
                    .is_some_and(|link| link.kind() == LinkKind::Gateway)
            });
            if crosses_gateway {
                return false;
            }
        }
        true
    }

    /// The shared telemetry collector.
    pub fn telemetry(&self) -> &mdagent_simnet::Telemetry {
        &self.env.telemetry
    }

    /// The SLO monitor, present iff SLO monitoring was enabled.
    pub fn slo_monitor(&self) -> Option<&SloMonitor> {
        self.slo.as_ref()
    }

    /// Installs a named rule base after validating that it parses (the AA
    /// manager's rule-manager role, §4.1). Autonomous agents reference
    /// rule bases by name via
    /// [`AutonomousAgent::with_rule_base`](crate::AutonomousAgent::with_rule_base).
    ///
    /// # Errors
    ///
    /// Propagates rule parse errors; nothing is installed on failure.
    pub fn install_rule_base(
        &mut self,
        name: impl Into<String>,
        text: impl Into<String>,
    ) -> Result<(), mdagent_ontology::parser::ParseError> {
        let text = text.into();
        let mut scratch = mdagent_ontology::Graph::new();
        mdagent_ontology::parser::parse_rules(&text, &mut scratch)?;
        self.rule_bases.insert(name.into(), text);
        Ok(())
    }

    /// The text of a named rule base; unknown names fall back to the
    /// shipped Fig. 6 default.
    pub fn rule_base(&self, name: &str) -> &str {
        self.rule_bases
            .get(name)
            .map(String::as_str)
            .unwrap_or(crate::rules::PAPER_RULES)
    }

    /// A stored user profile (empty default).
    pub fn user_profile(&self, user: UserId) -> UserProfile {
        self.user_profiles
            .get(&user)
            .cloned()
            .unwrap_or_else(|| UserProfile::new(user))
    }

    // ---- environment setup --------------------------------------------------

    /// Registers a user: profile, badge binding and initial placement.
    // mdlint::entry
    pub fn attach_user(
        &mut self,
        profile: UserProfile,
        badge: BadgeId,
        space: SpaceId,
        position_m: f64,
    ) {
        let user = profile.user();
        self.kernel.fusion.bind_badge(badge, user);
        self.kernel
            .field
            .place_badge(badge, BadgePosition { space, position_m });
        self.user_profiles.insert(user, profile);
    }

    /// Moves a user's badge (scenario ground truth); the sensing loop will
    /// notice within a few rounds.
    // mdlint::entry
    pub fn move_user(&mut self, badge: BadgeId, space: SpaceId, position_m: f64) {
        self.kernel
            .field
            .place_badge(badge, BadgePosition { space, position_m });
    }

    /// Declares that `host` has `components` of application `app_name`
    /// preinstalled, and registers that fact in the host's space registry.
    ///
    /// # Errors
    ///
    /// Propagates topology errors for unknown hosts.
    // mdlint::entry
    pub fn provision(
        &mut self,
        host: HostId,
        app_name: &str,
        components: ComponentSet,
    ) -> Result<(), CoreError> {
        let space = self.space_of(host)?;
        let mut record = ApplicationRecord::new(app_name, space, host);
        for kind in [
            ComponentKind::Logic,
            ComponentKind::Presentation,
            ComponentKind::Data,
            ComponentKind::Resource,
        ] {
            if components.has_kind(kind) {
                record = record.with_component(kind.tag());
            }
        }
        // The data path advertises the digests and seeds the host's cache.
        if let Some(data_path) = self.data_path.as_deref_mut() {
            datapath::advertise(&mut record, &components);
            data_path.seed_host(host, &components);
        }
        self.federation
            .add_center(space)
            .register_application(record);
        let hosts = match self.preinstalled.get_mut(app_name) {
            Some(hosts) => hosts,
            None => self.preinstalled.entry(app_name.to_owned()).or_default(),
        };
        hosts.insert(host.0, components);
        Ok(())
    }

    /// Registers a shareable resource in its space's registry center
    /// (creating the center if needed). Its ontology facts flush lazily
    /// at the next semantic lookup.
    // mdlint::entry
    pub fn register_space_resource(&mut self, record: ResourceRecord) {
        self.federation
            .add_center(record.space)
            .register_resource(record);
    }

    /// Deregisters a resource from `space`'s registry and repairs the
    /// ontology closure incrementally (no full re-materialization),
    /// under an `aa.retract` telemetry span; the modeled repair cost
    /// lands in the `reasoner.retract_latency` histogram.
    // mdlint::entry
    pub fn deregister_space_resource(&mut self, space: SpaceId, name: &str, now: SimTime) -> bool {
        let Some(center) = self.federation.center_mut(space) else {
            return false;
        };
        if !center.deregister_resource(name) {
            return false;
        }
        self.record_retract_flush(space, now);
        true
    }

    /// Expires lapsed resource leases in every space registry. Each space
    /// with expiries gets one incremental repair and one `aa.retract`
    /// span. Returns the number of records expired.
    ///
    /// A lease expiring exactly at `now` is already lapsed: the sweep
    /// applies `ResourceRecord::lease_active`'s endpoint-exclusive
    /// boundary.
    // mdlint::entry
    pub fn expire_resource_leases(&mut self, now: SimTime) -> usize {
        let mut expired = 0;
        for space in self.federation.spaces() {
            let Some(center) = self.federation.center_mut(space) else {
                continue;
            };
            let n = center.expire_leases(now.as_micros());
            if n > 0 {
                expired += n;
                self.record_retract_flush(space, now);
            }
        }
        expired
    }

    /// Flushes `space`'s pending deltas now and emits the `aa.retract`
    /// span plus latency histogram from the reasoner's repair counters.
    fn record_retract_flush(&mut self, space: SpaceId, now: SimTime) {
        let Some(center) = self.federation.center_mut(space) else {
            return;
        };
        center.flush_deltas();
        let stats = center.last_retract_stats().clone();
        let cost = self.cost_model.retraction;
        let tel = &mut self.env.telemetry;
        let span = tel.record_span("aa.retract", None, now, now + cost);
        tel.attr(span, "space", space.0);
        tel.attr(span, "requested", stats.requested);
        tel.attr(span, "retracted_base", stats.retracted_base);
        tel.attr(span, "overdeleted", stats.overdeleted);
        tel.attr(span, "rederived", stats.rederived);
        tel.attr(span, "waves", stats.waves);
        tel.attr(span, "removed", stats.removed);
        self.env.metrics.incr_static("aa.retract");
        self.env
            .metrics
            .observe_hist_static("reasoner.retract_latency", cost);
    }

    /// Components of `app_name` preinstalled on `host` (empty default).
    pub fn preinstalled_components(&self, host: HostId, app_name: &str) -> ComponentSet {
        self.preinstalled
            .get(app_name)
            .and_then(|hosts| hosts.get(&host.0))
            .cloned()
            .unwrap_or_default()
    }

    // ---- application deployment ---------------------------------------------

    /// Deploys an application on a host and spawns its mobile agent.
    ///
    /// # Errors
    ///
    /// Container/topology/agent errors.
    // mdlint::entry
    pub fn deploy_app(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        name: &str,
        host: HostId,
        components: ComponentSet,
        profile: UserProfile,
    ) -> Result<AppId, CoreError> {
        let container = world.container_on(host)?;
        let id = AppId(world.apps.len() as u32);
        let mut app = Application::new(id, name, host);
        app.components = components;
        app.user_profile = profile;
        world.apps.push(app);
        let local_name = format!("ma-{name}-{}", id.0);
        let ma = Platform::spawn(
            world,
            sim,
            container,
            &local_name,
            Box::new(crate::agents::MobileAgent::new(id)),
        )?;
        match world.apps.get_mut(id.0 as usize) {
            Some(app) => app.mobile_agent = Some(ma),
            None => return Err(CoreError::UnknownApp(id)),
        }
        Middleware::register_app_record(world, id)?;
        let now = sim.now();
        world.env.trace.record_event(
            now,
            TraceCategory::Application,
            TraceEvent::Deployed {
                app_name: name.to_owned(),
                app: id.to_string(),
                host: host.to_string(),
            },
        );
        Ok(id)
    }

    fn register_app_record(world: &mut Middleware, id: AppId) -> Result<(), CoreError> {
        // Split borrows: the data path reads the live component set in
        // place.
        let Middleware {
            apps,
            env,
            federation,
            data_path,
            ..
        } = &mut *world;
        let app = apps.get(id.0 as usize).ok_or(CoreError::UnknownApp(id))?;
        let space = env.topology.host(app.host)?.space();
        let mut record = ApplicationRecord::new(&app.name, space, app.host);
        for tag in app.component_tags() {
            record = record.with_component(tag);
        }
        for (k, v) in &app.requirements {
            record = record.with_requirement(k.clone(), v.clone());
        }
        if data_path.is_some() {
            datapath::advertise(&mut record, &app.components);
        }
        federation.add_center(space).register_application(record);
        Ok(())
    }

    /// Sets an application's minimum device requirements and refreshes its
    /// registry record. The AA refuses destinations whose device profile
    /// does not satisfy them (paper §4.3: the AA checks "whether the
    /// devices are compatible").
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownApp`] for bad ids.
    pub fn set_app_requirements(
        world: &mut Middleware,
        id: AppId,
        requirements: Vec<(String, String)>,
    ) -> Result<(), CoreError> {
        world.app_mut(id)?.requirements = requirements;
        Middleware::register_app_record(world, id)
    }

    /// Spawns an autonomous agent watching a user on behalf of an app.
    ///
    /// # Errors
    ///
    /// Container/agent errors.
    // mdlint::entry
    pub fn spawn_autonomous_agent(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        host: HostId,
        agent: crate::agents::AutonomousAgent,
    ) -> Result<AgentId, CoreError> {
        let container = world.container_on(host)?;
        let local_name = format!("aa-u{}-a{}", agent.user_raw, agent.app_raw);
        let user = UserId(agent.user_raw);
        let id = Platform::spawn(world, sim, container, &local_name, Box::new(agent))?;
        // The AA reasons for one user, so it hears only that user's context.
        let sub = world.kernel.bus.subscribe_user(user, "context.*");
        world.subscriber_agents.insert(sub, id.clone());
        Ok(id)
    }

    // ---- sensing loop ---------------------------------------------------------

    /// Starts the recurring sensing loop (idempotent).
    // mdlint::entry
    pub fn start_sensing(world: &mut Middleware, sim: &mut Simulator<Middleware>) {
        if world.sensing {
            return;
        }
        world.sensing = true;
        sim.schedule_fn_in(world.sense_period, Middleware::sense_event);
    }

    /// One round of the recurring sensing loop. A plain function-pointer
    /// event (the period lives in the world), so each round is
    /// allocation-free no matter how many sensors fire.
    fn sense_event(world: &mut Middleware, sim: &mut Simulator<Middleware>) {
        Middleware::sense_once(world, sim);
        sim.schedule_fn_in(world.sense_period, Middleware::sense_event);
    }

    fn sense_once(world: &mut Middleware, sim: &mut Simulator<Middleware>) {
        let now = sim.now();
        let mut rng = world.rng.fork(now.as_micros());
        let results = world.kernel.sense_round(now, &mut rng);
        for (event, outcome) in results {
            world.env.trace.record_event(
                now,
                TraceCategory::Context,
                TraceEvent::ContextEvent {
                    description: format!("{:?}", event.data),
                    subscribers: outcome.subscribers.len(),
                },
            );
            Middleware::route_event(world, sim, &event, &outcome.subscribers);
        }
        world
            .env
            .metrics
            .set_gauge_static("sim.event_queue", "scheduler", sim.pending() as u64);
    }

    /// Publishes an externally produced context event (user indications,
    /// probes) and routes it to subscribed agents.
    // mdlint::entry
    pub fn publish_context(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        data: ContextData,
    ) {
        let now = sim.now();
        // Preference context also updates the stored (static) user profile.
        if let ContextData::Preference { user, key, value } = &data {
            world
                .user_profiles
                .entry(*user)
                .or_insert_with(|| UserProfile::new(*user))
                .set_preference(key.clone(), value.clone());
        }
        let event = ContextEvent::new(now, data);
        world.env.trace.record_event(
            now,
            TraceCategory::Context,
            TraceEvent::Published {
                description: format!("{:?}", event.data),
            },
        );
        // Trace and notice are derived before publish so the event moves
        // into the kernel without a clone.
        let notice = ContextNotice::from_event(&event);
        let outcome = world.kernel.publish(event);
        Middleware::route_notice(world, sim, notice, &outcome.subscribers);
    }

    fn route_event(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        event: &ContextEvent,
        subscribers: &[SubscriberId],
    ) {
        let notice = ContextNotice::from_event(event);
        Middleware::route_notice(world, sim, notice, subscribers);
    }

    fn route_notice(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        notice: ContextNotice,
        subscribers: &[SubscriberId],
    ) {
        let kernel_id = AgentId::new("context-kernel", world.platform.name().to_owned());
        for sub in subscribers {
            let Some(agent) = world.subscriber_agents.get(sub).cloned() else {
                continue;
            };
            let msg = AclMessage::new(Performative::Inform, kernel_id.clone(), agent)
                .with_ontology(ontologies::CONTEXT)
                .with_payload(&notice);
            Platform::send(world, sim, msg);
        }
    }

    // ---- network utilities ------------------------------------------------------

    /// Measured round-trip time between two hosts for a 1 kB probe, in
    /// milliseconds. Also published as a context event by callers that
    /// probe explicitly.
    pub fn response_time_ms(&self, from: HostId, to: HostId) -> f64 {
        match self
            .env
            .topology
            .transfer_time(from, to, CostModel::PROBE_PAYLOAD_BYTES)
        {
            Ok(one_way) => one_way.as_millis_f64() * 2.0,
            Err(_) => f64::INFINITY,
        }
    }

    /// Starts recurring network probes between the given host pairs; each
    /// round measures the response time and publishes it as a context
    /// event (the "network connectivity, latency" sensors of §4.1).
    // mdlint::entry
    pub fn start_network_probes(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        pairs: Vec<(HostId, HostId)>,
        period: SimDuration,
    ) {
        let idx = world.probe_sets.len() as u64;
        world.probe_sets.push((pairs, period));
        sim.schedule_data_in(period, Middleware::probe_event, EventData::one(idx));
    }

    /// One probe round for the registered pair set `d.a`. The pair list is
    /// taken out of the world while probing (publishing needs `&mut`), then
    /// restored — no per-round clone.
    fn probe_event(world: &mut Middleware, sim: &mut Simulator<Middleware>, d: EventData) {
        let idx = d.a as usize;
        let Some(entry) = world.probe_sets.get_mut(idx) else {
            return;
        };
        let pairs = std::mem::take(&mut entry.0);
        let period = entry.1;
        for &(from, to) in &pairs {
            let millis = world.response_time_ms(from, to);
            if millis.is_finite() {
                Middleware::publish_context(
                    world,
                    sim,
                    ContextData::ResponseTime { from, to, millis },
                );
                world.env.metrics.incr_static("probe.rounds");
            }
        }
        if let Some(entry) = world.probe_sets.get_mut(idx) {
            entry.0 = pairs;
        }
        sim.schedule_data_in(period, Middleware::probe_event, EventData::one(d.a));
    }

    // ---- state updates & replica sync ---------------------------------------------

    /// Updates application state through the coordinator; local observers
    /// are notified synchronously and replica apps receive sync messages.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownApp`] for bad ids.
    // mdlint::entry
    pub fn update_app_state(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        id: AppId,
        key: &str,
        value: &str,
    ) -> Result<u64, CoreError> {
        let (version, links) = {
            let app = world.app_mut(id)?;
            let version = app.coordinator.set_state(key, value);
            // Local observers see it immediately (observer pattern).
            let names: Vec<String> = app.coordinator.stale_observers();
            for name in names {
                app.coordinator.mark_seen(&name, version);
            }
            if app.mobile_agent.is_none() {
                return Ok(version);
            }
            (version, app.coordinator.sync_links())
        };
        for link in links {
            // Looked up per link: sending needs the world mutably.
            let (Ok(app), Ok(linked)) = (world.app(id), world.app(link)) else {
                continue;
            };
            let (Some(sender), Some(receiver)) = (&app.mobile_agent, &linked.mobile_agent) else {
                continue;
            };
            let update = SyncUpdate {
                app_raw: link.0,
                key: key.to_owned(),
                value: value.to_owned(),
                version,
            };
            let msg = AclMessage::new(Performative::Inform, sender.clone(), receiver.clone())
                .with_ontology(ontologies::SYNC)
                .with_payload(&update);
            Platform::send(world, sim, msg);
        }
        world.env.metrics.incr_static("sync.updates_sent");
        Ok(version)
    }

    /// Applies a replica sync update (invoked by the receiving MA).
    // mdlint::entry
    pub(crate) fn apply_sync(world: &mut Middleware, update: &SyncUpdate) {
        let Ok(app) = world.app_mut(AppId(update.app_raw)) else {
            return;
        };
        if app
            .coordinator
            .apply_remote(&update.key, &update.value, update.version)
        {
            let names: Vec<String> = app.coordinator.stale_observers();
            let version = app.coordinator.version();
            for name in names {
                app.coordinator.mark_seen(&name, version);
            }
            world.env.metrics.incr_static("sync.updates_applied");
        } else {
            world.env.metrics.incr_static("sync.updates_stale");
        }
    }

    /// Pre-stages an application's logic and presentation components at a
    /// host ahead of a predicted migration (§3.4: "prediction
    /// functionalities should also be provided to improve the
    /// performance"). The copy travels at normal network cost in the
    /// background; once landed it counts as preinstalled, so a later
    /// adaptive migration ships only the application states.
    ///
    /// Returns the simulated transfer duration.
    ///
    /// # Errors
    ///
    /// Unknown apps/hosts or unreachable destinations.
    // mdlint::entry
    pub fn prestage(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        app_id: AppId,
        dest_host: HostId,
    ) -> Result<SimDuration, CoreError> {
        let (name, src_host, staged) = {
            let app = world.app(app_id)?;
            let staged: ComponentSet = app
                .components
                .iter()
                .filter(|c| matches!(c.kind(), ComponentKind::Logic | ComponentKind::Presentation))
                .cloned()
                .collect();
            (app.name.clone(), app.host, staged)
        };
        if staged.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let bytes = staged.encoded_len() as u64;
        let cost = world
            .env
            .topology
            .transfer_time(src_host, dest_host, bytes)?;
        let now = sim.now();
        world.env.trace.record_event(
            now,
            TraceCategory::Agent,
            TraceEvent::PreStage {
                bytes,
                app_name: name.clone(),
                dest_host: dest_host.to_string(),
            },
        );
        world.env.metrics.incr_static("prestage.transfers");
        world.env.metrics.incr_by_static("prestage.bytes", bytes);
        sim.schedule_in(cost, move |w, _sim| {
            let mut existing = w.preinstalled_components(dest_host, &name);
            existing.merge(staged);
            let _ = w.provision(dest_host, &name, existing);
        });
        Ok(cost)
    }

    /// Plans and starts a migration immediately, bypassing the AA's
    /// context trigger (used by scenario drivers and the benchmarks; the
    /// pipeline from suspension onward is identical).
    ///
    /// # Errors
    ///
    /// [`CoreError::Registry`] when no plan can be built, plus the
    /// pipeline's own errors.
    // mdlint::entry
    pub fn migrate_now(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        app: AppId,
        dest_host: HostId,
        mode: MobilityMode,
        policy: BindingPolicy,
    ) -> Result<(), CoreError> {
        let plan = crate::agents::plan_migration(world, app, dest_host, mode, policy)
            .ok_or_else(|| CoreError::Registry("no migration plan could be built".into()))?;
        let ma = world
            .app(app)?
            .mobile_agent
            .clone()
            .ok_or(CoreError::NoMobileAgent(app))?;
        Middleware::suspend_and_wrap(world, sim, plan, ma)
    }

    // ---- the migration pipeline -----------------------------------------------------

    /// Phase 1 (paper Fig. 4): the coordinator suspends the application,
    /// the snapshot manager records its states, and after the simulated
    /// suspension cost the wrapped cargo is handed to the mobile agent.
    ///
    /// For clone-dispatch the application keeps running; the snapshot is
    /// taken from the live state ("the application clone first").
    ///
    /// # Errors
    ///
    /// [`CoreError`] variants for unknown apps/hosts or bad states.
    // mdlint::entry
    pub fn suspend_and_wrap(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        plan: MigrationPlan,
        ma: AgentId,
    ) -> Result<(), CoreError> {
        let app_id = plan.app();
        let now = sim.now();
        // Validate reachability up front: failing here leaves the
        // application untouched instead of stranding it suspended.
        {
            let src_host = world.app(app_id)?.host;
            world.env.topology.transfer_time(
                src_host,
                plan.dest_host(),
                CostModel::CONTROL_PAYLOAD_BYTES,
            )?;
            world.container_on(plan.dest_host())?;
        }
        let (snapshot, components, remote_bytes, src_host) = {
            // Split borrows so the snapshot is captured straight from the
            // live application instead of a full clone of it.
            let Middleware {
                snapshots, apps, ..
            } = &mut *world;
            let app = apps
                .get(app_id.0 as usize)
                .ok_or(CoreError::UnknownApp(app_id))?;
            if app.state != AppState::Running {
                return Err(CoreError::BadAppState(app_id, "running"));
            }
            let src_host = app.host;
            let shipped = app.components.subset(&plan.ship_components);
            let remote_bytes = match plan.data_strategy {
                DataStrategy::RemoteStream => app.components.bytes_of_kind(ComponentKind::Data),
                _ => 0,
            };
            (snapshots.capture(app), shipped, remote_bytes, src_host)
        };

        if plan.mode == MobilityMode::FollowMe {
            let app = world.app_mut(app_id)?;
            app.state = AppState::Suspended;
            world.env.trace.record_event(
                now,
                TraceCategory::Application,
                TraceEvent::Suspend {
                    app: app_id.to_string(),
                },
            );
        } else {
            world.env.trace.record_event(
                now,
                TraceCategory::Application,
                TraceEvent::SnapshotClone {
                    app: app_id.to_string(),
                },
            );
        }

        let dest_host = plan.dest_host();
        let mut cargo = Cargo {
            plan,
            snapshot,
            components,
            remote_bytes,
            elided: Vec::new(),
            snapshot_delta: None,
            trace_ctx: None,
        };
        // The data path elides cached components and swaps the snapshot
        // for a delta.
        let saved = datapath::wrap(world, &mut cargo);
        // Priced on the cargo before hand-over stamps its trace context:
        // the suspension ends before the stamp exists. Hand-over refreshes
        // the flight's shipped bytes from the stamped cargo.
        let wrapped_bytes = cargo.encoded_len() as u64;
        let cpu = world.env.topology.host(src_host)?.cpu();
        let suspend_cost = cpu.scale(world.cost_model.suspend_cost(wrapped_bytes));
        world
            .env
            .metrics
            .observe_static("migration.suspend", suspend_cost);
        // Depart: telemetry opens the migration root, fault retry sizes
        // the watchdog window, and the flight record carries both until
        // resume; a follow-me flight is guarded from the start.
        let span = telemetry::depart(
            world,
            now,
            &cargo,
            src_host,
            wrapped_bytes,
            suspend_cost,
            saved,
        );
        let timeout = fault_retry::transfer_timeout(world, src_host, dest_host, wrapped_bytes);
        let flight = InFlight::new(
            &cargo,
            src_host,
            wrapped_bytes,
            suspend_cost,
            span,
            timeout,
            now,
        );
        world.in_flight.insert(ma.clone(), flight);
        fault_retry::arm_follow_me(world, sim, &ma);
        let kernel_name = world.platform.name().to_owned();
        sim.schedule_in(suspend_cost, move |w, sim| {
            let mut cargo = cargo;
            let now = sim.now();
            if let Some(flight) = w.in_flight.get_mut(&ma) {
                flight.departed_at = now;
            }
            // Hand-over: telemetry records the wrap span, opens the
            // migrate span and stamps the trace context onto the wire.
            telemetry::hand_over(w, now, &ma, &mut cargo);
            w.env.trace.record_event(
                now,
                TraceCategory::Agent,
                TraceEvent::Wrap {
                    bytes: wrapped_bytes,
                },
            );
            let msg = AclMessage::new(
                Performative::Inform,
                AgentId::new("middleware", kernel_name),
                ma.clone(),
            )
            .with_ontology(ontologies::CARGO)
            .with_payload(&cargo);
            Platform::send(w, sim, msg);
        });
        Ok(())
    }

    /// Phase 3: the MA has checked in at the destination. Follow-me
    /// restores the application there, then rebinds, adapts and
    /// re-registers it; clone-dispatch installs a replica, linked for
    /// synchronization with its original, which keeps running. Returns the
    /// replica a clone-dispatch arrival installed.
    // mdlint::entry
    pub(crate) fn arrive(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        mut cargo: Cargo,
    ) -> Option<AppId> {
        let mode = cargo.plan.mode;
        let app_id = cargo.plan.app();
        let dest = cargo.plan.dest_host();
        let now = sim.now();
        // Exactly-once drops duplicate and orphan check-ins.
        if !exactly_once::admit(world, now, ma, &cargo) {
            return None;
        }
        let flight = world.in_flight.remove(ma);
        let (suspend, migrate, root) = match (&flight, mode) {
            (Some(f), _) => (f.suspend, now.saturating_since(f.departed_at), f.span),
            // Without a bookkeeping record there is nothing to deploy
            // against (exactly-once normally drops it first).
            (None, MobilityMode::FollowMe) => return None,
            // A replica still installs; telemetry counts the orphan.
            (None, MobilityMode::CloneDispatch) => {
                (SimDuration::ZERO, SimDuration::ZERO, SpanId::DISABLED)
            }
        };
        telemetry::checkin(world, now, &cargo, flight.as_ref());

        // Both modes bill the flight record's bytes, which hand-over
        // refreshed from the cargo the platform shipped. An orphan replica
        // has no record: it reads the cargo as it travelled, before the
        // snapshot leaves it.
        let shipped = flight
            .as_ref()
            .map_or_else(|| cargo.encoded_len() as u64, |f| f.shipped_bytes);
        // The data path resolves a delta and the elided components;
        // otherwise the cargo's own snapshot deploys, taken out of it with
        // its header left behind. The destination inventory is what was
        // preinstalled there plus the cargo (shipped bytes and cache-elided
        // components alike).
        let (resolved, elided) = datapath::checkin(world, now, &cargo);
        let mut snapshot = resolved.unwrap_or_else(|| {
            let header = cargo.snapshot.header();
            std::mem::replace(&mut cargo.snapshot, header)
        });
        let mut inventory = world.preinstalled_components(dest, &snapshot.app_name);
        inventory.merge(cargo.components.clone());
        for component in elided {
            inventory.insert(component);
        }
        let src_host = world.app(app_id).map(|a| a.host).unwrap_or(dest);
        let cpu = world
            .env
            .topology
            .host(dest)
            .map(|h| h.cpu())
            .unwrap_or(CpuFactor::REFERENCE);
        let (landed, shipped_bytes, remote_bytes, resume_cost, adaptation, install) = match mode {
            MobilityMode::FollowMe => {
                world
                    .env
                    .metrics
                    .observe_static("migration.migrate", migrate);
                let Ok(app) = world.app_mut(app_id) else {
                    // Destination rejected the check-in: telemetry closes
                    // the root instead of leaking an open span and a dead
                    // flight.
                    world.env.metrics.incr_static("migration.arrival_failures");
                    telemetry::rejected(world, now, flight.as_ref());
                    return None;
                };
                // Move the application record to the destination; data
                // left behind is rebound to remote URLs below.
                app.host = dest;
                app.state = AppState::Migrating;
                app.components = inventory;
                let _ = SnapshotManager::restore_by_move(&mut snapshot, app);
                let mut rebind_cost = SimDuration::ZERO;
                let rebind_outcomes = Middleware::rebind_app(world, app_id, &cargo, src_host);
                for outcome in &rebind_outcomes {
                    rebind_cost += match outcome {
                        RebindOutcome::RebindLocal | RebindOutcome::Carried => {
                            world.cost_model.rebind_local
                        }
                        RebindOutcome::StreamRemote => SimDuration::ZERO, // costed below
                    };
                }
                let src_profile = world.device_profile(src_host);
                let dst_profile = world.device_profile(dest);
                let user_profile = world
                    .app(app_id)
                    .map(|a| a.user_profile.clone())
                    .unwrap_or_default();
                let adaptation = adapt(800, 600, &src_profile, &dst_profile, &user_profile);
                let adapt_cost = if adaptation.actions.is_empty() {
                    SimDuration::ZERO
                } else {
                    world.cost_model.adapt
                };
                let remote = flight.as_ref().map_or(0, |f| f.remote_bytes);
                let resume_cost = cpu.scale(
                    world.cost_model.resume_cost(shipped, remote) + rebind_cost + adapt_cost,
                );
                world
                    .env
                    .metrics
                    .observe_static("migration.resume", resume_cost);
                let install = Installed::FollowMe {
                    rebind_cost,
                    adapt_cost,
                    bindings: rebind_outcomes.len(),
                    actions: adaptation.actions.len(),
                };
                (app_id, shipped, remote, resume_cost, adaptation, install)
            }
            MobilityMode::CloneDispatch => {
                let replica_id = AppId(world.apps.len() as u32);
                let mut replica = Application::new(replica_id, snapshot.app_name.clone(), dest);
                replica.components = inventory;
                replica.state = AppState::Migrating;
                replica.mobile_agent = Some(ma.clone());
                replica.cloned_from = Some(app_id);
                let _ = SnapshotManager::restore_by_move(&mut snapshot, &mut replica);
                // The replica links back to its source, and the source to
                // the new replica.
                replica.coordinator.add_sync_link(app_id);
                world.apps.push(replica);
                if let Ok(src) = world.app_mut(app_id) {
                    src.coordinator.add_sync_link(replica_id);
                }
                let resume_cost = cpu.scale(world.cost_model.resume_cost(shipped, 0));
                let (remote, adaptation) = (cargo.remote_bytes, AdaptationReport::default());
                let install = Installed::Replica(replica_id);
                (
                    replica_id,
                    shipped,
                    remote,
                    resume_cost,
                    adaptation,
                    install,
                )
            }
        };
        // After install: the data path notes what the destination now
        // holds (the state moved into the application; the snapshot's
        // header is left), exactly-once records the sequence, and
        // telemetry records the rebind, adapt and resume spans.
        datapath::landed(world, &cargo, &snapshot);
        exactly_once::record(world, &cargo);
        telemetry::installed(world, now, root, cpu, resume_cost, install);
        let (installed, running, completed) = match mode {
            MobilityMode::FollowMe => (
                TraceEvent::Restore {
                    app: app_id.to_string(),
                    dest: dest.to_string(),
                },
                TraceEvent::Resumed {
                    app: app_id.to_string(),
                    dest: dest.to_string(),
                },
                "migration.completed",
            ),
            MobilityMode::CloneDispatch => (
                TraceEvent::ReplicaInstalled {
                    replica: landed.to_string(),
                    source: app_id.to_string(),
                    dest: dest.to_string(),
                },
                TraceEvent::ReplicaRunning {
                    replica: landed.to_string(),
                },
                "migration.clones_completed",
            ),
        };
        world
            .env
            .trace
            .record_event(now, TraceCategory::Agent, installed);

        // Registry check-out at the source space (follow-me only: the
        // original of a clone stays registered), check-in here.
        if mode == MobilityMode::FollowMe {
            if let (Ok(src_space), Ok(dest_space)) =
                (world.space_of(src_host), world.space_of(dest))
            {
                if src_space != dest_space {
                    if let Some(center) = world.federation.center_mut(src_space) {
                        center.deregister_application(&cargo.snapshot.app_name);
                    }
                }
            }
        }
        let _ = Middleware::register_app_record(world, landed);

        let report = MigrationReport {
            app: landed,
            app_name: cargo.snapshot.app_name.clone(),
            mode,
            policy: cargo.plan.policy,
            phases: PhaseTimes {
                suspend,
                migrate,
                resume: resume_cost,
            },
            shipped_bytes,
            remote_bytes,
            dest_host: dest,
            completed_at: now + resume_cost,
            adaptation,
        };
        sim.schedule_in(resume_cost, move |w, sim| {
            let now = sim.now();
            if let Ok(app) = w.app_mut(landed) {
                app.state = AppState::Running;
            }
            let latency = report.phases.suspend + report.phases.migrate + report.phases.resume;
            // Resume: telemetry ends the root, the driver records the
            // outcome, and the SLO concern feeds completion and latency.
            w.env.telemetry.end(root, now);
            w.env
                .trace
                .record_event(now, TraceCategory::Application, running);
            w.migration_log.push(report);
            w.env.metrics.incr_static(completed);
            slo::migration_completed(w, now, latency);
        });
        (mode == MobilityMode::CloneDispatch).then_some(landed)
    }

    // mdlint::entry
    fn rebind_app(
        world: &mut Middleware,
        app_id: AppId,
        cargo: &Cargo,
        src_host: HostId,
    ) -> Vec<RebindOutcome> {
        let data_strategy = cargo.plan.data_strategy;
        let Ok(app) = world.app_mut(app_id) else {
            return Vec::new();
        };
        let mut outcomes = Vec::new();
        for binding in &mut app.bindings {
            let outcome = match data_strategy {
                DataStrategy::AlreadyPresent => rebind(true, false),
                DataStrategy::Carry => rebind(false, true),
                DataStrategy::RemoteStream => rebind(false, false),
            };
            if outcome == RebindOutcome::StreamRemote {
                binding.target = BindingTarget::RemoteUrl {
                    url: format!("mdagent://host-{}/{}", src_host.0, binding.name),
                    host_raw: src_host.0,
                };
            }
            outcomes.push(outcome);
        }
        outcomes
    }

    /// Drops an MA's in-flight bookkeeping once its cargo has expired
    /// (after a clone dispatch or a rollback) or its retry is obsolete.
    pub(crate) fn remove_in_flight(&mut self, ma: &AgentId) {
        self.in_flight.remove(ma);
    }
}
