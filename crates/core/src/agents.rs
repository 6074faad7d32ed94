//! The two agent kinds of the paper's agent layer: the mobile agent (MA)
//! that wraps and carries application components, and the autonomous agent
//! (AA) that watches context and decides migrations.

use mdagent_agent::{AclMessage, Agent, Cx, Journey, Performative, Platform, PlatformHost};
use mdagent_context::topics;
use mdagent_simnet::{SimDuration, SpaceId, SpanId, TraceCategory, TraceEvent};
use mdagent_wire::{impl_wire_struct, to_bytes};

use crate::app::{AppId, AppState};
use crate::component::ComponentKind;
use crate::messages::{ontologies, Cargo, ContextNotice};
use crate::middleware::Middleware;
use crate::mobility::{BindingPolicy, DataStrategy, MigrationPlan, MobilityMode};

pub(crate) const TAG_CLEAR_CARGO: u64 = 1;

/// Builds a migration plan for an application: which components to ship
/// (those the destination registry lacks, or everything under static
/// binding) and how data is handled. This is the AA's planning procedure,
/// exposed so scenario drivers and benchmarks can migrate directly.
pub fn plan_migration(
    world: &mut Middleware,
    app_id: AppId,
    dest_host: mdagent_simnet::HostId,
    mode: MobilityMode,
    policy: BindingPolicy,
) -> Option<MigrationPlan> {
    let (app_name, src_host) = {
        let app = world.app(app_id).ok()?;
        (app.name.clone(), app.host)
    };
    let src_space = world.space_of(src_host).ok()?;
    let dest_space = world.space_of(dest_host).ok()?;
    let inter_space = src_space != dest_space;
    // Degraded planning: when the destination registry is unreachable the
    // AA cannot learn what is already present there, so it falls back to
    // static binding — ship everything, assume nothing.
    let registry_ok = !inter_space || world.registry_reachable(src_host, dest_space);
    let policy = if registry_ok {
        policy
    } else {
        world.env_mut().metrics.incr_static("aa.registry_degraded");
        BindingPolicy::Static
    };
    let dest_record = if registry_ok {
        world
            .federation
            .find_application(src_space, dest_space, &app_name)
            .ok()
            .and_then(|f| f.value)
    } else {
        None
    };
    let dest_has = |tag: &str| -> bool {
        dest_record
            .as_ref()
            .is_some_and(|r| r.host == dest_host && r.has_component(tag))
    };

    let app = world.app(app_id).ok()?;
    let mut ship = Vec::new();
    for component in app.components.iter() {
        let ship_it = match (policy, component.kind()) {
            (BindingPolicy::Static, _) => true,
            // Adaptive follow-me leaves data behind (remote URL); a clone
            // must carry data the destination lacks — the paper's slide
            // show "MAs just need to carry the slides".
            (BindingPolicy::Adaptive, ComponentKind::Data) => {
                mode == MobilityMode::CloneDispatch && !dest_has(ComponentKind::Data.tag())
            }
            (BindingPolicy::Adaptive, kind) => !dest_has(kind.tag()),
        };
        if ship_it {
            ship.push(component.name().to_owned());
        }
    }
    let data_strategy = match policy {
        BindingPolicy::Static => DataStrategy::Carry,
        BindingPolicy::Adaptive => {
            if dest_has(ComponentKind::Data.tag()) {
                DataStrategy::AlreadyPresent
            } else if mode == MobilityMode::CloneDispatch {
                DataStrategy::Carry
            } else {
                DataStrategy::RemoteStream
            }
        }
    };
    Some(MigrationPlan {
        app_raw: app_id.0,
        mode,
        policy,
        dest_host_raw: dest_host.0,
        ship_components: ship,
        data_strategy,
        inter_space,
    })
}

/// The mobile agent: "not bounded to a specific component of applications;
/// instead it can wrap any serializable part and migrate to the
/// destination" (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct MobileAgent {
    /// The application instance this MA manages (raw id).
    pub app_raw: u32,
    cargo: Option<Cargo>,
}

impl_wire_struct!(MobileAgent { app_raw, cargo });

impl MobileAgent {
    /// Creates the MA for an application.
    pub fn new(app: AppId) -> Self {
        MobileAgent {
            app_raw: app.0,
            cargo: None,
        }
    }

    /// The managed application.
    pub fn app(&self) -> AppId {
        AppId(self.app_raw)
    }

    /// Dispatches the cargo currently held: moves (follow-me) or clones
    /// the agent toward the plan's destination. Shared by the initial
    /// CARGO hand-off and the watchdog's RETRY nudge.
    fn dispatch_cargo(&mut self, cx: &mut Cx<'_, Middleware>) {
        let Some(cargo) = self.cargo.as_ref() else {
            cx.world.env_mut().metrics.incr_static("ma.no_cargo");
            return;
        };
        let dest_host = cargo.plan.dest_host();
        let mode = cargo.plan.mode;
        let Ok(container) = cx.world.container_on(dest_host) else {
            cx.world
                .env_mut()
                .metrics
                .incr_static("ma.no_dest_container");
            return;
        };
        match mode {
            MobilityMode::FollowMe => {
                // Deferred until this handler returns (we are the agent
                // being moved). A link-down refusal leaves us active at
                // the source; the watchdog's retry picks us up again.
                let _ = Platform::move_agent(cx.world, cx.sim, cx.id, container, 0);
            }
            MobilityMode::CloneDispatch => {
                let id = cx.id.clone();
                match Platform::clone_agent(cx.world, cx.sim, &id, container, 0) {
                    Ok((clone_id, _)) => {
                        Middleware::note_clone_dispatched(cx.world, cx.sim, &id, clone_id);
                        // Drop the cargo copy once the (deferred) clone
                        // snapshot has been taken.
                        Platform::set_timer(
                            cx.world,
                            cx.sim,
                            &id,
                            SimDuration::ZERO,
                            TAG_CLEAR_CARGO,
                        );
                    }
                    Err(_) => {
                        // A refused clone leaves the original running; the
                        // source flight must not linger as a leaked record
                        // with an unclosed root span.
                        cx.world.env_mut().metrics.incr_static("ma.clone_failed");
                        Middleware::abort_departure(cx.world, cx.sim, &id);
                        self.cargo = None;
                    }
                }
            }
        }
    }
}

impl Agent<Middleware> for MobileAgent {
    fn type_name(&self) -> &'static str {
        "mobile-agent"
    }

    fn snapshot(&self) -> Vec<u8> {
        to_bytes(self)
    }

    fn on_start(&mut self, journey: Journey, cx: Cx<'_, Middleware>) {
        match journey {
            Journey::Born => {}
            Journey::Moved { .. } | Journey::Cloned { .. } => {
                if let Some(cargo) = self.cargo.take() {
                    if let Some(replica) = Middleware::arrive(cx.world, cx.sim, cx.id, cargo) {
                        self.app_raw = replica.0;
                    }
                }
            }
        }
    }

    fn on_message(&mut self, msg: &AclMessage, mut cx: Cx<'_, Middleware>) {
        match msg.ontology.as_str() {
            ontologies::MIGRATE | ontologies::CLONE => {
                let Ok(plan) = msg.payload::<MigrationPlan>() else {
                    cx.world.env_mut().metrics.incr_static("ma.bad_plan");
                    return;
                };
                let now = cx.sim.now();
                cx.world.env_mut().trace.record(
                    now,
                    TraceCategory::Agent,
                    format!(
                        "MA {} received {} plan to {}",
                        cx.id,
                        plan.mode,
                        plan.dest_host()
                    ),
                );
                if let Err(e) = Middleware::suspend_and_wrap(cx.world, cx.sim, plan, cx.id.clone())
                {
                    cx.world.env_mut().metrics.incr_static("ma.plan_rejected");
                    let now = cx.sim.now();
                    cx.world.env_mut().trace.record(
                        now,
                        TraceCategory::Agent,
                        format!("MA {} rejected plan: {e}", cx.id),
                    );
                }
            }
            ontologies::CARGO => {
                let Ok(cargo) = msg.payload::<Cargo>() else {
                    cx.world.env_mut().metrics.incr_static("ma.bad_cargo");
                    return;
                };
                self.cargo = Some(cargo);
                self.dispatch_cargo(&mut cx);
            }
            ontologies::RETRY => {
                if msg.payload::<crate::messages::RetryNotice>().is_err() {
                    cx.world.env_mut().metrics.incr_static("ma.bad_retry");
                    return;
                }
                let Some(cargo) = self.cargo.as_ref() else {
                    cx.world
                        .env_mut()
                        .metrics
                        .incr_static("ma.retry_without_cargo");
                    return;
                };
                let dest = cargo.plan.dest_host();
                let app_id = cargo.plan.app();
                // A slow transfer may have landed after the watchdog fired:
                // the retry is then obsolete — drop the stale cargo instead
                // of deploying the application a second time.
                if cx.world.app(app_id).map(|a| a.host) == Ok(dest) {
                    self.cargo = None;
                    cx.world.env_mut().metrics.incr_static("ma.retry_obsolete");
                    cx.world.remove_in_flight(cx.id);
                    return;
                }
                cx.world
                    .env_mut()
                    .metrics
                    .incr_static("ma.retry_dispatched");
                self.dispatch_cargo(&mut cx);
            }
            ontologies::SYNC => {
                if let Ok(update) = msg.payload::<crate::messages::SyncUpdate>() {
                    Middleware::apply_sync(cx.world, &update);
                }
            }
            _ => {
                cx.world
                    .env_mut()
                    .metrics
                    .incr_static("ma.unknown_ontology");
            }
        }
    }

    fn on_timer(&mut self, tag: u64, cx: Cx<'_, Middleware>) {
        if tag == TAG_CLEAR_CARGO {
            self.cargo = None;
            cx.world.remove_in_flight(cx.id);
        }
    }
}

/// A lazily built [`crate::rules::DecisionEngine`], rebuilt when the
/// installed rule base changes. Pure cache: excluded from equality and not
/// serialized (a migrated AA recompiles on first decision at the
/// destination).
#[derive(Debug, Clone, Default)]
struct EngineCache(Option<crate::rules::DecisionEngine>);

impl PartialEq for EngineCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl EngineCache {
    /// The engine compiled for `rule_text`, (re)compiling if the cache is
    /// cold or was built from different text.
    fn for_rules(&mut self, rule_text: &str) -> &mut crate::rules::DecisionEngine {
        let stale = self.0.as_ref().is_none_or(|e| e.rule_text() != rule_text);
        if stale {
            self.0 = None;
        }
        self.0
            .get_or_insert_with(|| crate::rules::DecisionEngine::new(rule_text))
    }
}

/// The autonomous agent: "responsible for reasoning and decision-making
/// according to the data received from context layer" (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct AutonomousAgent {
    /// The watched user (raw id).
    pub user_raw: u32,
    /// The managed application (raw id).
    pub app_raw: u32,
    policy: BindingPolicy,
    resource_marker: String,
    auto_follow: bool,
    prestage: bool,
    rule_base: String,
    engine: EngineCache,
}

impl_wire_struct!(AutonomousAgent {
    user_raw,
    app_raw,
    policy,
    resource_marker,
    auto_follow,
    prestage,
    rule_base
} skip { engine });

impl AutonomousAgent {
    /// Creates an AA that follows `user` and manages `app` under the given
    /// binding policy.
    pub fn new(user: mdagent_context::UserId, app: AppId, policy: BindingPolicy) -> Self {
        AutonomousAgent {
            user_raw: user.0,
            app_raw: app.0,
            policy,
            resource_marker: "printer".to_owned(),
            auto_follow: true,
            prestage: false,
            rule_base: "default".to_owned(),
            engine: EngineCache::default(),
        }
    }

    /// Disables automatic follow-me on location change (the AA still
    /// handles explicit indications).
    pub fn manual_only(mut self) -> Self {
        self.auto_follow = false;
        self
    }

    /// Enables predictive pre-staging: after each migration decision the
    /// AA consults the location predictor and copies logic/UI components
    /// to the likely *next* room in the background.
    pub fn with_prestaging(mut self) -> Self {
        self.prestage = true;
        self
    }

    /// Uses a named rule base installed through
    /// [`Middleware::install_rule_base`] instead of the shipped default.
    pub fn with_rule_base(mut self, name: impl Into<String>) -> Self {
        self.rule_base = name.into();
        self
    }

    /// The managed application.
    pub fn app(&self) -> AppId {
        AppId(self.app_raw)
    }

    /// Builds the migration plan for the given destination, consulting the
    /// destination registry for already-present components (adaptive
    /// binding) or shipping everything (static binding).
    fn build_plan(
        &self,
        world: &mut Middleware,
        dest_host: mdagent_simnet::HostId,
        mode: MobilityMode,
    ) -> Option<MigrationPlan> {
        plan_migration(world, self.app(), dest_host, mode, self.policy)
    }

    fn handle_location(&mut self, space: SpaceId, cx: &mut Cx<'_, Middleware>) {
        if !self.auto_follow {
            return;
        }
        let Ok(app) = cx.world.app(self.app()) else {
            return;
        };
        if app.state != AppState::Running {
            return; // already migrating or stopped
        }
        let src_host = app.host;
        let app_name = app.name.clone();
        let Ok(app_space) = cx.world.space_of(src_host) else {
            return;
        };
        if app_space == space {
            return; // the application is already where the user is
        }
        let Ok(dest_host) = cx.world.primary_host(space) else {
            let now = cx.sim.now();
            cx.world.env_mut().trace.record_event(
                now,
                TraceCategory::Agent,
                TraceEvent::NoHost {
                    space: space.to_string(),
                },
            );
            return;
        };

        // Device compatibility first (§4.3: "whether the devices are
        // compatible").
        let dest_profile = cx.world.device_profile(dest_host);
        let compatible = cx
            .world
            .app(self.app())
            .map(|a| a.device_compatible(&dest_profile))
            .unwrap_or(false);
        if !compatible {
            let now = cx.sim.now();
            cx.world
                .env_mut()
                .metrics
                .incr_static("aa.device_incompatible");
            cx.world.env_mut().trace.record_event(
                now,
                TraceCategory::Agent,
                TraceEvent::DeclineDevice {
                    app_name: app_name.clone(),
                    dest_host: dest_host.to_string(),
                },
            );
            return;
        }

        // Reasoning per the paper's Fig. 6 pipeline: compatibility +
        // response-time guard.
        let rt_ms = cx.world.response_time_ms(src_host, dest_host);
        let rule_text = cx.world.rule_base(&self.rule_base).to_owned();
        let decision_at = cx.sim.now();
        let decision_span = {
            let env = cx.world.env_mut();
            // Detached: the decision span closes inside the deliberation
            // closure scheduled by `send_plan_after_deliberation`.
            let span = env
                .telemetry
                .open("aa.decision", None, decision_at)
                .detach();
            // Raw host ids as integers: this fires on every location event,
            // so keep it free of formatting allocations.
            env.telemetry.attr(span, "app", u64::from(self.app_raw));
            env.telemetry.attr(span, "trigger", "location");
            env.telemetry.attr(span, "src_host", u64::from(src_host.0));
            env.telemetry
                .attr(span, "dest_host", u64::from(dest_host.0));
            env.telemetry.attr(span, "response_time_ms", rt_ms);
            span
        };
        let (decision, stats) = {
            let engine = self.engine.for_rules(&rule_text);
            let decision = engine.decide(src_host, dest_host, &self.resource_marker, rt_ms);
            (decision, engine.last_stats().clone())
        };
        let reason_cost = cx.world.cost_model.reasoning;
        {
            let env = cx.world.env_mut();
            let reason = env.telemetry.record_span(
                "aa.reason",
                Some(decision_span),
                decision_at,
                decision_at + reason_cost,
            );
            env.telemetry.attr(reason, "rounds", stats.rounds);
            env.telemetry
                .attr(reason, "rules_evaluated", stats.rules_evaluated);
            env.telemetry
                .attr(reason, "rules_skipped", stats.rules_skipped);
            env.telemetry
                .attr(reason, "seed_evaluations", stats.seed_evaluations);
            env.telemetry
                .attr(reason, "facts_derived", stats.facts_derived);
            env.telemetry.attr(reason, "max_delta", stats.max_delta());
        }
        let now = cx.sim.now();
        if decision.is_none() {
            let env = cx.world.env_mut();
            env.metrics.incr_static("aa.migration_declined");
            env.telemetry.attr(decision_span, "outcome", "decline");
            env.telemetry.end(decision_span, now + reason_cost);
            env.trace.record_event(
                now,
                TraceCategory::Agent,
                TraceEvent::DeclineNoMove {
                    app_name: app_name.clone(),
                    response_time_ms: rt_ms,
                },
            );
            return;
        }
        let Some(plan) = self.build_plan(cx.world, dest_host, MobilityMode::FollowMe) else {
            cx.world.env_mut().telemetry.end(decision_span, now);
            return;
        };
        {
            let env = cx.world.env_mut();
            env.telemetry.attr(decision_span, "outcome", "follow-me");
            env.trace.record_event(
                now,
                TraceCategory::Agent,
                TraceEvent::DecideFollowMe {
                    app_name: app_name.clone(),
                    dest_host: dest_host.to_string(),
                    components: plan.ship_components.len(),
                    data_strategy: format!("{:?}", plan.data_strategy),
                },
            );
        }
        self.send_plan_after_deliberation(plan, ontologies::MIGRATE, rt_ms, decision_span, cx);

        // Predictive pre-staging: copy logic/UI toward the likely next hop.
        if self.prestage {
            let user = mdagent_context::UserId(self.user_raw);
            if let Some(next_space) = cx.world.kernel.predictor.predict_next(user, space) {
                if next_space != space {
                    if let Ok(next_host) = cx.world.primary_host(next_space) {
                        if next_host != dest_host {
                            let _ = Middleware::prestage(cx.world, cx.sim, self.app(), next_host);
                        }
                    }
                }
            }
        }
    }

    fn handle_indication(&mut self, notice: &ContextNotice, cx: &mut Cx<'_, Middleware>) {
        if notice.command != "dispatch" {
            return;
        }
        for arg in &notice.args {
            let Ok(space_raw) = arg.parse::<u32>() else {
                continue;
            };
            let Ok(dest_host) = cx.world.primary_host(SpaceId(space_raw)) else {
                continue;
            };
            let Ok(app) = cx.world.app(self.app()) else {
                return;
            };
            if app.host == dest_host {
                continue;
            }
            let src_host = app.host;
            let rt_ms = cx.world.response_time_ms(src_host, dest_host);
            let Some(plan) = self.build_plan(cx.world, dest_host, MobilityMode::CloneDispatch)
            else {
                continue;
            };
            let now = cx.sim.now();
            let decision_span = {
                let env = cx.world.env_mut();
                // Detached: closed by the deliberation closure, like the
                // follow-me decision span above.
                let span = env.telemetry.open("aa.decision", None, now).detach();
                env.telemetry.attr(span, "trigger", "indication");
                env.telemetry.attr(span, "src_host", u64::from(src_host.0));
                env.telemetry
                    .attr(span, "dest_host", u64::from(dest_host.0));
                env.telemetry.attr(span, "outcome", "clone-dispatch");
                env.trace.record_event(
                    now,
                    TraceCategory::Agent,
                    TraceEvent::DecideClone {
                        dest_host: dest_host.to_string(),
                    },
                );
                span
            };
            self.send_plan_after_deliberation(plan, ontologies::CLONE, rt_ms, decision_span, cx);
        }
    }

    /// Charges the simulated reasoning + registry-lookup latency, then
    /// sends the plan to the application's MA.
    fn send_plan_after_deliberation(
        &self,
        plan: MigrationPlan,
        ontology: &'static str,
        rt_ms: f64,
        decision_span: SpanId,
        cx: &mut Cx<'_, Middleware>,
    ) {
        let now = cx.sim.now();
        let Ok(app) = cx.world.app(self.app()) else {
            cx.world.env_mut().telemetry.end(decision_span, now);
            return;
        };
        let Some(ma) = app.mobile_agent.clone() else {
            cx.world.env_mut().telemetry.end(decision_span, now);
            return;
        };
        let mut lookup = cx.world.cost_model.registry_lookup;
        if plan.inter_space {
            // The destination registry is queried across the gateway.
            lookup += SimDuration::from_millis_f64(rt_ms);
        }
        let latency = cx.world.cost_model.reasoning + lookup;
        Middleware::slo_observe_lookup(cx.world, now, lookup);
        cx.world
            .env_mut()
            .metrics
            .observe_static("aa.deliberation", latency);
        let aa = cx.id.clone();
        cx.sim.schedule_in(latency, move |w, sim| {
            let now = sim.now();
            w.env_mut().telemetry.end(decision_span, now);
            let msg = AclMessage::new(Performative::Request, aa, ma)
                .with_ontology(ontology)
                .with_payload(&plan);
            Platform::send(w, sim, msg);
        });
    }
}

impl Agent<Middleware> for AutonomousAgent {
    fn type_name(&self) -> &'static str {
        "autonomous-agent"
    }

    fn snapshot(&self) -> Vec<u8> {
        to_bytes(self)
    }

    fn on_message(&mut self, msg: &AclMessage, mut cx: Cx<'_, Middleware>) {
        if msg.ontology != ontologies::CONTEXT {
            return;
        }
        let Ok(notice) = msg.payload::<ContextNotice>() else {
            cx.world.env_mut().metrics.incr_static("aa.bad_notice");
            return;
        };
        if notice.topic == topics::LOCATION && notice.user_raw == self.user_raw {
            self.handle_location(SpaceId(notice.space_raw), &mut cx);
        } else if notice.topic == topics::USER_INDICATION && notice.user_raw == self.user_raw {
            self.handle_indication(&notice, &mut cx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdagent_context::UserId;

    #[test]
    fn agent_wire_roundtrips() {
        let ma = MobileAgent::new(AppId(3));
        let back: MobileAgent = mdagent_wire::from_bytes(&to_bytes(&ma)).unwrap();
        assert_eq!(back, ma);
        assert_eq!(back.app(), AppId(3));

        let aa = AutonomousAgent::new(UserId(1), AppId(3), BindingPolicy::Adaptive);
        let back: AutonomousAgent = mdagent_wire::from_bytes(&to_bytes(&aa)).unwrap();
        assert_eq!(back, aa);
        assert_eq!(back.app(), AppId(3));
    }

    #[test]
    fn manual_only_disables_follow() {
        let aa = AutonomousAgent::new(UserId(1), AppId(0), BindingPolicy::Static).manual_only();
        assert!(!aa.auto_follow);
    }
}
