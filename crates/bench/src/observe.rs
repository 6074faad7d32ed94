//! Observability artifacts: end-to-end scenario traces, exported as JSONL
//! and as Chrome trace-event JSON for Perfetto / `chrome://tracing`.
//!
//! The exporters read a finished run through `Telemetry`'s public span
//! API and write through `mdagent-json`; the simulation crates keep no
//! export format.

use mdagent_context::{BadgeId, ContextData, UserId};
use mdagent_core::{
    AutonomousAgent, BindingPolicy, Component, ComponentKind, DeviceProfile, Middleware,
    ObservabilityOptions, UserProfile,
};
use mdagent_json::Value;
use mdagent_simnet::{AttrValue, CpuFactor, SimDuration, SimTime, SpanId, Telemetry, Trace};

/// Scenario names accepted by [`trace_scenario`].
pub const TRACE_SCENARIOS: [&str; 2] = ["follow-me", "clone"];

/// The exported artifacts of one traced scenario run.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Scenario name as passed to [`trace_scenario`].
    pub scenario: String,
    /// One JSON object per line: every span, then every trace event.
    pub jsonl: String,
    /// Chrome trace-event document (open in Perfetto or `chrome://tracing`).
    pub chrome: String,
    /// One-line human summary of what was captured.
    pub summary: String,
}

/// Runs the named scenario with telemetry enabled and exports its spans
/// and trace events. Returns `None` for unknown scenario names (see
/// [`TRACE_SCENARIOS`]).
pub fn trace_scenario(name: &str) -> Option<TraceArtifacts> {
    // Observability stays at its defaults here so the committed TRACE_*
    // artifacts remain bit-identical to the pre-sampler format.
    let world = match name {
        "follow-me" => follow_me_world(ObservabilityOptions::default()),
        "clone" => clone_world(ObservabilityOptions::default()),
        _ => return None,
    };
    let tel = world.telemetry();
    let migrations = tel.spans_named("migration").count();
    let decisions = tel.spans_named("aa.decision").count();
    let summary = format!(
        "{}: {} span(s), {} migration(s), {} AA decision(s), {} trace event(s)",
        name,
        tel.spans().len(),
        migrations,
        decisions,
        world.trace().entries().len(),
    );
    Some(TraceArtifacts {
        scenario: name.to_owned(),
        jsonl: export_jsonl(tel, world.trace()),
        chrome: export_chrome(tel, world.trace()),
        summary,
    })
}

/// An AA-driven follow-me tour: the user walks office → lab → studio and
/// the autonomous agent reasons about and migrates the application behind
/// them. Exercises AA decision spans (with reasoner stats) and full
/// migration span trees. The observability options are applied at build
/// time: pass the default for the committed trace artifacts, or an
/// enabled pipeline for `OBS_report.json`.
pub(crate) fn follow_me_world(obs: ObservabilityOptions) -> Middleware {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let lab = b.space("lab");
    let studio = b.space("studio");
    let pc0 = b.host("pc0", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pc1 = b.host("pc1", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pc2 = b.host("pc2", studio, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.gateway(pc0, pc1).expect("gateway");
    b.gateway(pc1, pc2).expect("gateway");
    b.seed(11);
    b.observability(obs);
    let (mut world, mut sim) = b.build();
    world.attach_user(UserProfile::new(UserId(0)), BadgeId(0), office, 2.0);
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "smart-media-player",
        pc0,
        [
            Component::synthetic("codec", ComponentKind::Logic, 180_000),
            Component::synthetic("player-ui", ComponentKind::Presentation, 60_000),
            Component::synthetic("music-file", ComponentKind::Data, 2_000_000),
        ]
        .into_iter()
        .collect(),
        UserProfile::new(UserId(0)),
    )
    .expect("deploy");
    let aa = AutonomousAgent::new(UserId(0), app, BindingPolicy::Adaptive);
    Middleware::spawn_autonomous_agent(&mut world, &mut sim, pc0, aa).expect("aa");
    Middleware::start_sensing(&mut world, &mut sim);
    sim.run_until(&mut world, SimTime::from_secs(2));
    for space in [lab, studio] {
        world.move_user(BadgeId(0), space, 2.0);
        let deadline = sim.now() + SimDuration::from_secs(15);
        // run_until, not run: the sensing loop reschedules itself forever.
        sim.run_until(&mut world, deadline);
    }
    world
}

/// A clone-dispatch lecture: the speaker indicates "dispatch to the lab"
/// and the manual-only AA clones the slide show there. Exercises the
/// clone-side migration span handoff and replica trace events. Like
/// [`follow_me_world`], observability is whatever the caller passes.
pub(crate) fn clone_world(obs: ObservabilityOptions) -> Middleware {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let lab = b.space("lab");
    let pc0 = b.host(
        "speaker-pc",
        office,
        CpuFactor::REFERENCE,
        DeviceProfile::pc,
    );
    let pc1 = b.host("lab-pc", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.gateway(pc0, pc1).expect("gateway");
    b.seed(12);
    b.observability(obs);
    let (mut world, mut sim) = b.build();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "ubiquitous-slide-show",
        pc0,
        [
            Component::synthetic("impress-logic", ComponentKind::Logic, 400_000),
            Component::synthetic("impress-ui", ComponentKind::Presentation, 150_000),
            Component::synthetic("slides", ComponentKind::Data, 1_200_000),
        ]
        .into_iter()
        .collect(),
        UserProfile::new(UserId(0)),
    )
    .expect("deploy");
    world
        .provision(
            pc1,
            "ubiquitous-slide-show",
            [
                Component::synthetic("impress-logic", ComponentKind::Logic, 400_000),
                Component::synthetic("impress-ui", ComponentKind::Presentation, 150_000),
            ]
            .into_iter()
            .collect(),
        )
        .expect("provision");
    let aa = AutonomousAgent::new(UserId(0), app, BindingPolicy::Adaptive).manual_only();
    Middleware::spawn_autonomous_agent(&mut world, &mut sim, pc0, aa).expect("aa");
    sim.run_until(&mut world, SimTime::from_secs(1));
    Middleware::publish_context(
        &mut world,
        &mut sim,
        ContextData::UserIndication {
            user: UserId(0),
            command: "dispatch".into(),
            args: vec![lab.0.to_string()],
        },
    );
    sim.run(&mut world);
    world
}

/// Exports spans and trace events as a JSONL event log: one JSON object
/// per line, spans first (creation order), then trace events (recording
/// order). A sampled collector appends one final `{"type":"sampler",...}`
/// accounting line, so truncation is visible in the artifact itself.
pub fn export_jsonl(tel: &Telemetry, trace: &Trace) -> String {
    let spans = tel.spans().iter().map(|span| {
        Value::object([
            ("type", "span".into()),
            ("id", span.id.raw().into()),
            ("parent", span.parent.map(SpanId::raw).into()),
            ("name", span.name.as_ref().into()),
            ("start_us", span.start.as_micros().into()),
            ("end_us", span.end.map(SimTime::as_micros).into()),
            ("attrs", attrs(&span.attrs)),
        ])
    });
    let events = trace.entries().iter().map(|entry| {
        Value::object([
            ("type", "event".into()),
            ("at_us", entry.at.as_micros().into()),
            ("category", entry.category.to_string().into()),
            ("kind", entry.event.kind().into()),
            ("message", entry.message().into()),
        ])
    });
    let footer = sampler_accounting(tel)
        .map(|pairs| Value::object([("type", "sampler".into())].into_iter().chain(pairs)));
    let mut out = String::new();
    for line in spans.chain(events).chain(footer) {
        out.push_str(&line.compact());
        out.push('\n');
    }
    out
}

/// Exports spans and trace events as one Chrome trace-event document.
///
/// Spans become complete events (`"ph":"X"`, microsecond `ts`/`dur`) and
/// trace entries become instant events (`"ph":"i"`). Each span tree gets
/// its own track: `tid` is the root ancestor's span id, so concurrent
/// migrations render on separate rows.
pub fn export_chrome(tel: &Telemetry, trace: &Trace) -> String {
    let spans = tel.spans().iter().map(|span| {
        Value::object([
            ("name", span.name.as_ref().into()),
            ("cat", "span".into()),
            ("ph", "X".into()),
            ("ts", span.start.as_micros().into()),
            ("dur", span.duration_micros().into()),
            ("pid", 1u64.into()),
            ("tid", tel.root_of(span.id).raw().into()),
            ("args", attrs(&span.attrs)),
        ])
    });
    let events = trace.entries().iter().map(|entry| {
        Value::object([
            ("name", entry.message().into()),
            ("cat", entry.category.to_string().into()),
            ("ph", "i".into()),
            ("s", "g".into()),
            ("ts", entry.at.as_micros().into()),
            ("pid", 1u64.into()),
            ("tid", 0u64.into()),
            ("args", Value::object([("kind", entry.event.kind().into())])),
        ])
    });
    Value::object([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Value::array(spans.chain(events))),
    ])
    .compact()
}

/// A span's attributes as one JSON object, in attachment order.
fn attrs(pairs: &[(&'static str, AttrValue)]) -> Value {
    Value::object(pairs.iter().map(|(key, value)| {
        let value = match value {
            AttrValue::Str(s) => s.as_ref().into(),
            AttrValue::U64(v) => (*v).into(),
            AttrValue::I64(v) => (*v).into(),
            AttrValue::F64(v) => (*v).into(),
            AttrValue::Bool(b) => (*b).into(),
        };
        (*key, value)
    }))
}

/// A sampled collector's exact span and trace accounting; `None` when the
/// collector does not sample. The same members make the JSONL footer and
/// the `sampler` section of `OBS_report.json`.
pub(crate) fn sampler_accounting(tel: &Telemetry) -> Option<Vec<(&'static str, Value)>> {
    let stats = tel.sampler_stats()?;
    let ring_capacity = tel.sampler_options().map_or(0, |o| o.ring_capacity);
    Some(vec![
        ("spans_opened", stats.spans_opened.into()),
        ("spans_kept", stats.spans_kept.into()),
        ("spans_dropped", stats.spans_dropped.into()),
        ("spans_buffered", stats.spans_buffered.into()),
        ("buffered_peak", stats.buffered_peak.into()),
        ("ring_capacity", ring_capacity.into()),
        ("traces_started", stats.traces_started.into()),
        ("traces_kept", stats.traces_kept.into()),
        ("traces_dropped", stats.traces_dropped.into()),
        ("traces_evicted", stats.traces_evicted.into()),
        ("unaccounted", stats.unaccounted().into()),
    ])
}

#[cfg(test)]
mod tests {
    use mdagent_json::parse;
    use mdagent_simnet::{SamplerOptions, TraceCategory};

    use super::*;

    #[test]
    fn follow_me_trace_has_full_span_tree() {
        let art = trace_scenario("follow-me").expect("known scenario");
        // The JSONL carries every migration phase child and an AA decision
        // with nonzero reasoner stats.
        for needle in [
            "\"name\":\"migration\"",
            "\"name\":\"migration.suspend\"",
            "\"name\":\"migration.wrap\"",
            "\"name\":\"migration.migrate\"",
            "\"name\":\"migration.rebind\"",
            "\"name\":\"migration.resume\"",
            "\"name\":\"aa.decision\"",
            "\"name\":\"aa.reason\"",
            "\"rounds\":",
        ] {
            assert!(art.jsonl.contains(needle), "JSONL missing {needle}");
        }
        assert!(!art.jsonl.contains("\"rounds\":0"), "stats must be nonzero");
        // Chrome document shape.
        assert!(art.chrome.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(art.chrome.contains("\"ph\":\"X\""));
        assert!(art.chrome.ends_with("]}\n") || art.chrome.ends_with("]}"));
    }

    #[test]
    fn clone_trace_hands_span_to_replica() {
        let art = trace_scenario("clone").expect("known scenario");
        assert!(art.jsonl.contains("\"name\":\"migration\""));
        assert!(art.jsonl.contains("replica_installed"));
        assert!(art.jsonl.contains("replica_running"));
        assert!(trace_scenario("no-such-scenario").is_none());
    }

    #[test]
    fn trace_artifacts_are_well_formed() {
        for scenario in TRACE_SCENARIOS {
            let art = trace_scenario(scenario).expect("known scenario");
            let mut migrations = 0;
            for line in art.jsonl.lines() {
                let obj = parse(line).expect("each line is one JSON object");
                match obj["type"].as_str() {
                    Some("span") => {
                        let start = obj["start_us"].as_u64().expect("start_us");
                        let end = obj["end_us"].as_u64().expect("closed span");
                        assert!(end >= start, "{scenario}: {line}");
                        migrations += usize::from(obj["name"].as_str() == Some("migration"));
                    }
                    Some("event") => {}
                    _ => panic!("{scenario}: neither span nor event: {line}"),
                }
            }
            assert!(migrations > 0, "{scenario} has a migration span");
            let doc = parse(&art.chrome).expect("the Chrome document parses");
            assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
            let events = doc["traceEvents"].as_arr().expect("traceEvents");
            assert!(!events.is_empty());
            for e in events {
                assert!(
                    e["ph"].as_str().is_some() && e["ts"].as_u64().is_some(),
                    "{e:?}"
                );
            }
        }
    }

    #[test]
    fn jsonl_export_has_one_object_per_line() {
        let mut tel = Telemetry::new();
        let root = tel.open("migration", None, SimTime::ZERO);
        tel.attr(root.id(), "app", "app-0".to_owned());
        root.close(&mut tel, SimTime::from_millis(2));
        let mut trace = Trace::new();
        trace.record(
            SimTime::from_millis(1),
            TraceCategory::Agent,
            "hi \"there\"",
        );
        let jsonl = export_jsonl(&tel, &trace);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"span\""));
        assert!(lines[0].contains("\"name\":\"migration\""));
        assert!(lines[0].contains("\"app\":\"app-0\""));
        assert!(lines[1].contains("\"type\":\"event\""));
        assert!(lines[1].contains("hi \\\"there\\\""));
    }

    #[test]
    fn chrome_export_uses_root_track() {
        let mut tel = Telemetry::new();
        let root = tel.open("migration", None, SimTime::ZERO).detach();
        let _ = tel.record_span(
            "migration.suspend",
            Some(root),
            SimTime::ZERO,
            SimTime::from_millis(1),
        );
        tel.end(root, SimTime::from_millis(2));
        let json = export_chrome(&tel, &Trace::new());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        // Both spans share the root's track id.
        assert_eq!(json.matches(&format!("\"tid\":{}", root.raw())).count(), 2);
    }

    #[test]
    fn sampled_jsonl_has_accounting_footer() {
        let mut tel = Telemetry::sampled(SamplerOptions {
            keep_fraction: 0.0,
            latency_threshold: SimDuration::from_millis(60_000),
            ring_capacity: 16,
            seed: 7,
        });
        let root = tel.open("migration", None, SimTime::ZERO).detach();
        for (name, ms) in [("migration.suspend", 1), ("migration.resume", 2)] {
            let _ = tel.record_span(name, Some(root), SimTime::ZERO, SimTime::from_millis(ms));
        }
        tel.end(root, SimTime::from_millis(2));
        let jsonl = export_jsonl(&tel, &Trace::new());
        let footer = parse(jsonl.lines().last().unwrap()).unwrap();
        assert_eq!(footer["type"].as_str(), Some("sampler"));
        assert_eq!(footer["spans_dropped"].as_u64(), Some(3));
        assert_eq!(footer["ring_capacity"].as_u64(), Some(16));
        assert_eq!(footer["unaccounted"].as_u64(), Some(0));
    }
}
