//! The benchmark's contract: workloads, metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repository root is rendered from here
//! (`--write-spec`), and the self-test fails if the two disagree or if a
//! workload emits anything else.

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "city-day",
        "the paper's whole follow-me path at city size (64 spaces, 512 users): every layer does work, context fan-out dominates",
    ),
    (
        "migration-burst",
        "Fig. 8 players shuttling with migrate_now, cache+delta on, 10% link drops: MA wrap, wire, retry and rollback do the work, context none",
    ),
    (
        "churn-grid",
        "bare-platform diurnal churn on a 1024-space grid: the scheduler, Topology::route and the agent arena dominate",
    ),
];

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// Printed with `--trace 0`, on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("migrations_per_s", "1/s", true, 0.24),
    e2e("peak_rss_mb", "MiB", false, 0.2),
    e2e("follow_p50_sim_ms", "sim_ms", false, 0.15),
    e2e("follow_p99_sim_ms", "sim_ms", false, 0.15),
    e2e("migration_p50_sim_ms", "sim_ms", false, 0.15),
    e2e("migration_p99_sim_ms", "sim_ms", false, 0.15),
    e2e("shipped_kb_per_migration", "KiB", false, 0.15),
];

/// Printed with `--trace 1`, on every workload; a layer that does no work
/// on a workload reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("context.sense_rounds", "count", false),
    layer("context.raw_readings", "count", false),
    layer("context.published", "count", false),
    layer("context.notices", "count", false),
    layer("context.notice_useful_ratio", "ratio", true),
    layer("context.self_s", "s", false),
    layer("context.sense_round_us", "us", false),
    layer("agent.acl_sent", "count", false),
    layer("agent.acl_delivered", "count", false),
    layer("agent.acl_bytes", "B", false),
    layer("agent.moves", "count", false),
    layer("agent.move_bytes", "B", false),
    layer("agent.self_s", "s", false),
    layer("agent.ns_per_delivery", "ns", false),
    layer("aa.decisions", "count", false),
    layer("aa.declined", "count", false),
    layer("aa.self_s", "s", false),
    layer("aa.decide_us", "us", false),
    layer("reasoner.facts_derived", "count", false),
    layer("registry.lookups", "count", false),
    layer("registry.app_writes", "count", false),
    layer("registry.full_materializations", "count", false),
    layer("registry.find_application_us", "us", false),
    layer("registry.register_us", "us", false),
    layer("ma.completed", "count", true),
    layer("ma.retries", "count", false),
    layer("ma.rollbacks", "count", false),
    layer("ma.shipped_bytes", "B", false),
    layer("ma.bytes_saved_cache", "B", true),
    layer("ma.cache_hit_ratio", "ratio", true),
    layer("ma.self_s", "s", false),
    layer("migration_failed_share", "ratio", false),
    layer("wire.bytes_encoded", "B", false),
    layer("wire.encode_mb_per_s", "MB/s", true),
    layer("wire.decode_mb_per_s", "MB/s", true),
    layer("sim.events", "count", false),
    layer("sim.queue_peak", "count", false),
    layer("sim.ns_per_event", "ns", false),
    layer("topology.distinct_pairs", "count", false),
    layer("topology.route_cold_us", "us", false),
    layer("topology.route_warm_ns", "ns", false),
    layer("obs.trace_events", "count", false),
    layer("obs.spans", "count", false),
    layer("obs.counter_series", "count", false),
    layer("unattributed_s", "s", false),
    layer("unattributed_share", "ratio", false),
    layer("tracing_overhead_share", "ratio", false),
];

/// The metric list a run in the given trace mode must print.
pub fn metrics_for(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `BENCHMARK.json`, rendered from this module.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"bench-city/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"bench-city\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        out.push_str(&format!("  \"{key}\": [\n"));
        let rows: Vec<String> = list.iter().map(metric_json).collect();
        out.push_str(&rows.join(",\n"));
        out.push_str(if key == "end_to_end" {
            "\n  ],\n"
        } else {
            "\n  ]\n"
        });
    }
    out.push_str("}\n");
    out
}

fn metric_json(m: &Metric) -> String {
    let better = if m.higher_is_better {
        "higher"
    } else {
        "lower"
    };
    let bound = m
        .bound
        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        m.name, m.unit
    )
}
