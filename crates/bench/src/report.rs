//! `OBS_report.json`: the aggregated observability report behind
//! `figures -- report`.
//!
//! Runs the follow-me and clone trace scenarios with the full pipeline
//! enabled (sampler, wire trace context, SLO monitor), plus a high-churn
//! fault scenario at a 1% keep rate that exercises ring eviction, and
//! folds spans, metrics and SLO state into one machine-readable document:
//! per-phase latency breakdown over the *kept* spans, sampler accounting
//! (drops are first-class, never silent), SLO compliance and burn-rate
//! alert counts, and exemplar trace ids for the slowest and every aborted
//! migration.

use mdagent_context::UserId;
use mdagent_core::{
    BindingPolicy, Component, ComponentKind, DeviceProfile, FaultOptions, Middleware, MobilityMode,
    ObservabilityOptions, SamplerOptions, SloOptions, UserProfile,
};
use mdagent_json::Value;
use mdagent_simnet::{AttrValue, CpuFactor, DurationStats, SimDuration, SpanId};

use crate::observe::{clone_world, follow_me_world, sampler_accounting};

/// The observability configuration the report scenarios run under: keep
/// everything in the showcase scenarios so the phase breakdown is
/// complete, propagate trace context, monitor SLOs.
fn full_keep() -> ObservabilityOptions {
    ObservabilityOptions {
        sampler: Some(SamplerOptions {
            keep_fraction: 1.0,
            ..SamplerOptions::default()
        }),
        propagate_trace_ctx: true,
        slo: Some(SloOptions::default()),
    }
}

/// The churn configuration: 1% keep rate and a small ring, so healthy
/// traces are overwhelmingly dropped and peak buffering stays bounded
/// while aborted migrations must still come through complete.
fn churn_keep() -> ObservabilityOptions {
    ObservabilityOptions {
        sampler: Some(SamplerOptions {
            keep_fraction: 0.01,
            ring_capacity: 512,
            ..SamplerOptions::default()
        }),
        propagate_trace_ctx: true,
        slo: Some(SloOptions::default()),
    }
}

/// A 2-hop lossy world shuttling one app between two spaces until it has
/// attempted `migrations` follow-me moves. Transfer drops trigger the
/// retry watchdog; exhausted retries roll back — aborted traces the
/// sampler must retain.
fn churn_world(migrations: usize) -> Middleware {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let away = b.space("away");
    let src = b.host("src-pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let gw = b.host("gw-pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let dest = b.host("away-pc", away, CpuFactor::new(0.94), DeviceProfile::pc);
    b.ethernet(src, gw).expect("ethernet");
    b.gateway(gw, dest).expect("gateway");
    b.seed(23);
    b.faults(FaultOptions::with_drop_probability(0.30));
    b.observability(churn_keep());
    let (mut world, mut sim) = b.build();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "churned-player",
        src,
        [
            Component::synthetic("codec", ComponentKind::Logic, 180_000),
            Component::synthetic("player-ui", ComponentKind::Presentation, 60_000),
            Component::synthetic("music-file", ComponentKind::Data, 250_000),
        ]
        .into_iter()
        .collect(),
        UserProfile::new(UserId(0)),
    )
    .expect("deploy");
    sim.run(&mut world);
    for _ in 0..migrations {
        let here = world.app(app).expect("app").host;
        let target = if here == src { dest } else { src };
        Middleware::migrate_now(
            &mut world,
            &mut sim,
            app,
            target,
            MobilityMode::FollowMe,
            BindingPolicy::Adaptive,
        )
        .expect("migrate");
        sim.run(&mut world);
    }
    world
}

/// `{"p50_ms": .., "p99_ms": .., "count": ..}` over the durations of the
/// kept spans with this name.
fn phase(world: &Middleware, name: &str) -> Value {
    let mut stats = DurationStats::new();
    for span in world.telemetry().spans_named(name) {
        stats.record(SimDuration::from_micros(span.duration_micros()));
    }
    let ms = |q| Value::fixed(stats.quantile(q).as_millis_f64(), 3);
    Value::object([
        ("p50_ms", ms(0.5)),
        ("p99_ms", ms(0.99)),
        ("count", stats.count().into()),
    ])
}

/// Root span ids of kept `migration` traces, with the slowest first and
/// every aborted root listed — the exemplars a human starts from when
/// reading the exported trace files.
fn exemplars(world: &Middleware) -> (Option<SpanId>, Vec<SpanId>) {
    let tel = world.telemetry();
    let slowest = tel
        .spans_named("migration")
        .max_by_key(|s| s.duration_micros())
        .map(|s| s.id);
    let aborted: Vec<SpanId> = tel
        .spans_named("migration")
        .filter(|s| s.attr("status") == Some(&AttrValue::Str("aborted".into())))
        .map(|s| s.id)
        .collect();
    (slowest, aborted)
}

/// One scenario section of the report.
fn scenario(name: &str, world: &Middleware) -> Value {
    let sampler = sampler_accounting(world.telemetry()).expect("report scenarios run sampled");
    let phases = Value::object([
        ("suspend", phase(world, "migration.suspend")),
        ("migrate", phase(world, "migration.migrate")),
        ("resume", phase(world, "migration.resume")),
        ("total", phase(world, "migration")),
    ]);
    let metrics = world.metrics();
    let migrations = Value::object([
        ("completed", metrics.counter("migration.completed").into()),
        (
            "clones_completed",
            metrics.counter("migration.clones_completed").into(),
        ),
        ("rollbacks", metrics.counter("migration.rollbacks").into()),
        ("retries", metrics.counter("migration.retries").into()),
    ]);
    let slos = world.slo_monitor().map_or(&[][..], |m| m.slos()).iter();
    let slos = slos.map(|slo| {
        Value::object([
            ("name", slo.spec().name.into()),
            ("objective", slo.spec().objective.into()),
            ("good", slo.good_total().into()),
            ("bad", slo.bad_total().into()),
            ("compliance", Value::fixed(slo.compliance(), 4)),
            ("alerting", slo.is_alerting().into()),
        ])
    });
    let alerts = Value::object([
        ("fired", metrics.counter("slo.alerts_fired").into()),
        ("recovered", metrics.counter("slo.alerts_recovered").into()),
    ]);
    let (slowest, aborted) = exemplars(world);
    let exemplars = Value::object([
        ("slowest_trace", slowest.map(SpanId::raw).into()),
        (
            "aborted_traces",
            Value::array(aborted.iter().map(|s| s.raw())),
        ),
    ]);
    Value::object([
        ("scenario", name.into()),
        ("sampler", Value::object(sampler)),
        ("phases", phases),
        ("migrations", migrations),
        ("slos", Value::array(slos)),
        ("alerts", alerts),
        ("exemplars", exemplars),
    ])
}

/// Number of follow-me attempts in the churn scenario. High enough that
/// a 30% per-link drop probability yields both rollbacks and retried
/// successes, and that a 1% keep rate demonstrably drops most traces.
pub const CHURN_MIGRATIONS: usize = 40;

/// Builds the `OBS_report.json` document (see the module docs).
pub fn obs_report_json() -> String {
    let scenarios = [
        ("follow-me", follow_me_world(full_keep())),
        ("clone", clone_world(full_keep())),
        ("churn", churn_world(CHURN_MIGRATIONS)),
    ];
    let scenarios = scenarios.iter().map(|(name, world)| scenario(name, world));
    Value::object([
        ("schema", "mdagent-bench/obs-report/v1".into()),
        (
            "command",
            "cargo run -p mdagent-bench --bin figures -- report".into(),
        ),
        (
            "note",
            "sampled observability pipeline over the trace scenarios plus a lossy churn run \
             (30% drop, 1% keep, ring 512); latencies are simulated milliseconds over kept \
             spans; exemplar ids refer to span ids in the sampled collector"
                .into(),
        ),
        ("scenarios", Value::array(scenarios)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accounts_exactly_and_keeps_aborts() {
        let report = mdagent_json::parse(&obs_report_json()).expect("the report parses");
        assert_eq!(
            report["schema"].as_str(),
            Some("mdagent-bench/obs-report/v1")
        );
        let scenarios = report["scenarios"].as_arr().expect("scenario list");
        let names: Vec<_> = scenarios.iter().map(|s| s["scenario"].as_str()).collect();
        assert_eq!(names, [Some("follow-me"), Some("clone"), Some("churn")]);
        let n = |v: &Value| v.as_u64().unwrap_or_else(|| panic!("{v:?} is a count"));
        for (s, name) in scenarios.iter().zip(names) {
            let sampler = &s["sampler"];
            // Drop accounting is exact: every span opened is kept,
            // dropped, or still buffered — never silently lost.
            assert_eq!(n(&sampler["unaccounted"]), 0, "{name:?}");
            assert_eq!(
                n(&sampler["spans_kept"])
                    + n(&sampler["spans_dropped"])
                    + n(&sampler["spans_buffered"]),
                n(&sampler["spans_opened"]),
                "{name:?}"
            );
            assert!(n(&sampler["traces_kept"]) > 0, "{name:?} kept traces");
            assert!(
                n(&sampler["buffered_peak"]) <= n(&sampler["ring_capacity"]),
                "{name:?} peak buffering bounded by the ring"
            );
            for phase in ["suspend", "migrate", "resume", "total"] {
                let p = &s["phases"][phase];
                let ms = |key: &str| p[key].as_f64().expect("a latency");
                assert!(
                    ms("p99_ms") >= ms("p50_ms") && ms("p50_ms") >= 0.0,
                    "{name:?} {phase}"
                );
            }
        }
        // The churn run under 30% drop probability must produce aborted
        // migrations and keep every one of them as an exemplar, and at a
        // 1% keep rate it must actually drop most healthy traces.
        let churn = &scenarios[2];
        let rollbacks = n(&churn["migrations"]["rollbacks"]);
        assert!(rollbacks > 0, "lossy churn must roll back some migrations");
        assert_eq!(
            churn["exemplars"]["aborted_traces"]
                .as_arr()
                .map(<[_]>::len),
            Some(rollbacks as usize),
            "every rolled-back migration kept as an exemplar"
        );
        assert!(n(&churn["sampler"]["traces_dropped"]) > 0);
        assert!(n(&churn["alerts"]["fired"]) >= 1);
    }

    #[test]
    fn churn_completions_and_rollbacks_cover_all_attempts() {
        let world = churn_world(CHURN_MIGRATIONS);
        let metrics = world.metrics();
        let completed = metrics.counter("migration.completed");
        let rollbacks = metrics.counter("migration.rollbacks");
        assert_eq!(
            completed + rollbacks,
            CHURN_MIGRATIONS as u64,
            "every attempt either completed or rolled back"
        );
        assert!(completed > 0 && rollbacks > 0, "the mix exercises both");
        // All three SLOs saw the churn; completion compliance reflects
        // the rollbacks.
        let slo = world
            .slo_monitor()
            .and_then(|m| m.get(mdagent_core::SLO_MIGRATION_COMPLETION))
            .expect("completion slo");
        assert_eq!(slo.good_total(), completed);
        assert_eq!(slo.bad_total(), rollbacks);
    }
}
