//! Migration data-path benchmark: shipped bytes and time under static
//! binding, adaptive binding, and adaptive binding with the
//! content-addressed component cache + delta snapshots, plus the chunked
//! pipelined transfer against plain store-and-forward on a multi-hop path.

use mdagent_context::UserId;
use mdagent_core::{
    AppState, BindingPolicy, Component, ComponentKind, DataPathOptions, DeviceProfile, Middleware,
    MobilityMode, UserProfile,
};
use mdagent_json::Value;
use mdagent_simnet::{CpuFactor, SimDuration, Topology, DEFAULT_CHUNK_BYTES};

/// Round trips of the shuttle scenario (app migrates back and forth, so
/// repeat visits exercise the cache and delta mechanisms).
pub const SHUTTLE_TRIPS: usize = 6;

/// Music file size of the shuttle scenario: the paper's 4.3 MB midpoint.
pub const SHUTTLE_FILE_BYTES: usize = 4_300_000;

/// Aggregate outcome of one shuttle run under one configuration.
#[derive(Debug, Clone)]
pub struct ShuttleRun {
    /// Human label, e.g. `"adaptive+cache+delta"`.
    pub label: String,
    /// Completed migrations (must equal the requested trips).
    pub trips: usize,
    /// Total bytes carried by the mobile agent across all trips.
    pub total_shipped_bytes: u64,
    /// Total simulated migration time (suspend + migrate + resume).
    pub total_ms: f64,
    /// Bytes elided because the destination already held the content.
    pub bytes_saved_cache: u64,
    /// Bytes elided by shipping snapshot deltas instead of full snapshots.
    pub bytes_saved_delta: u64,
    /// Component cache hits across all wraps.
    pub cache_hits: u64,
    /// Component cache misses across all wraps.
    pub cache_misses: u64,
}

/// Pipelined vs. store-and-forward on a two-hop path (LAN then gateway).
#[derive(Debug, Clone)]
pub struct PipelineComparison {
    /// Hops on the measured route.
    pub hops: usize,
    /// Payload size.
    pub bytes: u64,
    /// Plain per-link store-and-forward time.
    pub store_and_forward_ms: f64,
    /// Chunked cut-through time at the default chunk size.
    pub pipelined_ms: f64,
    /// Bottleneck (most utilized) link's busy fraction, 0..=1.
    pub bottleneck_utilization: f64,
}

/// Everything `BENCH_migration.json` reports.
#[derive(Debug, Clone)]
pub struct MigrationBench {
    /// One shuttle run per configuration, in comparison order.
    pub runs: Vec<ShuttleRun>,
    /// The multi-hop transfer comparison.
    pub pipeline: PipelineComparison,
}

/// Runs the paper's Fig. 8 testbed as a shuttle: the media player migrates
/// p4 → pm → p4 → … for [`SHUTTLE_TRIPS`] trips. Repeat visits make the
/// destination hold earlier content, which the cache and delta mechanisms
/// (when enabled) turn into elided bytes.
///
/// # Panics
///
/// Panics on scenario construction failures (the topology is static).
pub fn run_shuttle(
    label: &str,
    policy: BindingPolicy,
    data_path: Option<DataPathOptions>,
    seed: u64,
) -> ShuttleRun {
    let mut b = Middleware::builder();
    let room_a = b.space("room-a");
    let room_b = b.space("room-b");
    let p4 = b.host("p4-1.7ghz", room_a, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pm = b.host("pm-1.6ghz", room_b, CpuFactor::new(0.94), DeviceProfile::pc);
    b.link(p4, pm, SimDuration::from_millis(1), 10_000_000, 0.8, true)
        .expect("link");
    b.seed(seed);
    if let Some(options) = data_path {
        b.data_path(options);
    }
    let (mut world, mut sim) = b.build();

    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "smart-media-player",
        p4,
        [
            Component::synthetic("codec", ComponentKind::Logic, 180_000),
            Component::synthetic("player-ui", ComponentKind::Presentation, 60_000),
            Component::synthetic("music-file", ComponentKind::Data, SHUTTLE_FILE_BYTES),
        ]
        .into_iter()
        .collect(),
        UserProfile::new(UserId(0)),
    )
    .expect("deploy");
    world
        .provision(
            pm,
            "smart-media-player",
            [Component::synthetic(
                "player-ui",
                ComponentKind::Presentation,
                60_000,
            )]
            .into_iter()
            .collect(),
        )
        .expect("provision");
    sim.run(&mut world);

    // Realistic application state: a playlist that stays put and a playback
    // position that advances between trips. The delta encoder should ship
    // only the moving parts on repeat visits.
    {
        let coordinator = &mut world.app_mut(app).expect("app").coordinator;
        for i in 0..64 {
            coordinator.set_state(format!("playlist-{i:02}"), format!("track-{i:02}.mp3"));
        }
    }

    for trip in 0..SHUTTLE_TRIPS {
        world
            .app_mut(app)
            .expect("app")
            .coordinator
            .set_state("position-ms", format!("{}", trip * 184_000));
        let dest = if trip % 2 == 0 { pm } else { p4 };
        Middleware::migrate_now(
            &mut world,
            &mut sim,
            app,
            dest,
            MobilityMode::FollowMe,
            policy,
        )
        .expect("migrate");
        sim.run(&mut world);
        assert_eq!(
            world.app(app).expect("app").state,
            AppState::Running,
            "trip {trip} must complete"
        );
    }

    let total_shipped_bytes = world.migration_log().iter().map(|r| r.shipped_bytes).sum();
    let total_ms = world
        .migration_log()
        .iter()
        .map(|r| r.phases.total().as_millis_f64())
        .sum();
    ShuttleRun {
        label: label.to_owned(),
        trips: world.migration_log().len(),
        total_shipped_bytes,
        total_ms,
        bytes_saved_cache: world.metrics().counter("migration.bytes_saved_cache"),
        bytes_saved_delta: world.metrics().counter("migration.bytes_saved_delta"),
        cache_hits: world.metrics().counter("migration.cache_hits"),
        cache_misses: world.metrics().counter("migration.cache_misses"),
    }
}

/// Measures store-and-forward vs. chunked pipelined transfer of the
/// shuttle payload over a two-hop path: 10 Mbps LAN into a 10 Mbps
/// gateway (the slide-show dispatch shape — office LAN, then a gateway
/// into the overflow room).
///
/// # Panics
///
/// Panics on topology construction failures.
pub fn compare_pipeline() -> PipelineComparison {
    let mut topo = Topology::new();
    let office = topo.add_space("office");
    let overflow = topo.add_space("overflow");
    let src = topo.add_host("speaker-pc", office, CpuFactor::REFERENCE);
    let gw = topo.add_host("office-gw", office, CpuFactor::REFERENCE);
    let dst = topo.add_host("room-pc", overflow, CpuFactor::REFERENCE);
    topo.add_lan_link(src, gw, SimDuration::from_millis(1), 10_000_000, 0.8)
        .expect("lan");
    topo.add_gateway_link(gw, dst, SimDuration::from_millis(5), 10_000_000, 0.7)
        .expect("gateway");

    let bytes = SHUTTLE_FILE_BYTES as u64;
    let saf = topo.transfer_time(src, dst, bytes).expect("route");
    let pipe = topo
        .pipelined_transfer(src, dst, bytes, DEFAULT_CHUNK_BYTES)
        .expect("route");
    let bottleneck = pipe
        .links
        .iter()
        .map(|l| l.utilization)
        .fold(0.0_f64, f64::max);
    PipelineComparison {
        hops: pipe.links.len(),
        bytes,
        store_and_forward_ms: saf.as_millis_f64(),
        pipelined_ms: pipe.elapsed.as_millis_f64(),
        bottleneck_utilization: bottleneck,
    }
}

/// Runs the three shuttle configurations plus the pipeline comparison.
pub fn bench_migration() -> MigrationBench {
    let runs = vec![
        run_shuttle("static", BindingPolicy::Static, None, 1),
        run_shuttle("adaptive", BindingPolicy::Adaptive, None, 1),
        run_shuttle(
            "adaptive+cache+delta",
            BindingPolicy::Adaptive,
            Some(DataPathOptions::all()),
            1,
        ),
    ];
    MigrationBench {
        runs,
        pipeline: compare_pipeline(),
    }
}

/// Renders [`bench_migration`] as the machine-readable
/// `BENCH_migration.json` document.
pub fn bench_migration_json() -> String {
    let bench = bench_migration();
    let configurations = bench.runs.iter().map(|r| {
        Value::object([
            ("label", r.label.as_str().into()),
            ("trips", r.trips.into()),
            ("total_shipped_bytes", r.total_shipped_bytes.into()),
            ("total_ms", Value::fixed(r.total_ms, 3)),
            ("bytes_saved_cache", r.bytes_saved_cache.into()),
            ("bytes_saved_delta", r.bytes_saved_delta.into()),
            ("cache_hits", r.cache_hits.into()),
            ("cache_misses", r.cache_misses.into()),
        ])
    });
    let p = &bench.pipeline;
    let pipeline = Value::object([
        ("hops", p.hops.into()),
        ("bytes", p.bytes.into()),
        (
            "store_and_forward_ms",
            Value::fixed(p.store_and_forward_ms, 3),
        ),
        ("pipelined_ms", Value::fixed(p.pipelined_ms, 3)),
        (
            "speedup",
            Value::fixed(p.store_and_forward_ms / p.pipelined_ms, 3),
        ),
        (
            "bottleneck_utilization",
            Value::fixed(p.bottleneck_utilization, 3),
        ),
    ]);
    Value::object([
        ("schema", "mdagent-bench/migration/v1".into()),
        (
            "command",
            "cargo run --release -p mdagent-bench --bin figures -- bench-migration".into(),
        ),
        (
            "note",
            format!(
                "Fig. 8 testbed shuttled {SHUTTLE_TRIPS} trips at {:.1} MB; bytes are the \
                 mobile agent's wire payload; the pipeline section transfers the same file \
                 over a two-hop LAN+gateway path",
                SHUTTLE_FILE_BYTES as f64 / 1e6,
            )
            .into(),
        ),
        ("trips", SHUTTLE_TRIPS.into()),
        ("file_bytes", SHUTTLE_FILE_BYTES.into()),
        ("configurations", Value::array(configurations)),
        ("pipeline", pipeline),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_and_delta_strictly_beat_plain_adaptive() {
        let adaptive = run_shuttle("adaptive", BindingPolicy::Adaptive, None, 1);
        let optimized = run_shuttle(
            "adaptive+cache+delta",
            BindingPolicy::Adaptive,
            Some(DataPathOptions::all()),
            1,
        );
        assert_eq!(adaptive.trips, SHUTTLE_TRIPS);
        assert_eq!(optimized.trips, SHUTTLE_TRIPS);
        assert!(
            optimized.total_shipped_bytes < adaptive.total_shipped_bytes,
            "cache+delta must ship strictly fewer bytes: {} vs {}",
            optimized.total_shipped_bytes,
            adaptive.total_shipped_bytes
        );
        assert!(optimized.bytes_saved_cache > 0, "cache must save bytes");
        assert!(optimized.bytes_saved_delta > 0, "delta must save bytes");
        assert!(optimized.cache_hits > 0);
        // Optimized time does not regress either (fewer bytes, same path).
        assert!(optimized.total_ms <= adaptive.total_ms);
    }

    /// The `BENCH_migration.json` document: its schema, and the claims it
    /// exists to show — static binding ships the most, each mechanism
    /// after it ships less, and pipelining wins on a multi-hop path.
    #[test]
    fn static_binding_ships_the_most() {
        let doc = mdagent_json::parse(&bench_migration_json()).expect("the artifact parses");
        assert_eq!(doc["schema"].as_str(), Some("mdagent-bench/migration/v1"));
        let configs = doc["configurations"].as_arr().expect("configurations");
        let labels: Vec<_> = configs.iter().map(|c| c["label"].as_str()).collect();
        assert_eq!(
            labels,
            [
                Some("static"),
                Some("adaptive"),
                Some("adaptive+cache+delta")
            ]
        );
        let n = |v: &Value| v.as_f64().unwrap_or_else(|| panic!("{v:?} is a number"));
        for c in configs {
            assert_eq!(c["trips"], doc["trips"], "{c:?}");
        }
        let shipped: Vec<f64> = configs
            .iter()
            .map(|c| n(&c["total_shipped_bytes"]))
            .collect();
        assert!(
            shipped[0] > shipped[1] && shipped[1] > shipped[2],
            "static > adaptive > cache+delta: {shipped:?}"
        );
        assert!(n(&configs[2]["bytes_saved_cache"]) > 0.0);
        assert!(n(&configs[2]["bytes_saved_delta"]) > 0.0);
        let pipe = &doc["pipeline"];
        assert!(n(&pipe["hops"]) >= 2.0);
        assert!(n(&pipe["pipelined_ms"]) < n(&pipe["store_and_forward_ms"]));
    }

    #[test]
    fn pipelined_beats_store_and_forward_on_two_hops() {
        let p = compare_pipeline();
        assert_eq!(p.hops, 2);
        assert!(
            p.pipelined_ms < p.store_and_forward_ms,
            "pipelining must win on a multi-hop path: {} vs {}",
            p.pipelined_ms,
            p.store_and_forward_ms
        );
        assert!(p.bottleneck_utilization > 0.9, "bottleneck stays busy");
    }

    #[test]
    fn cache_behavior_is_deterministic_across_seeds() {
        // The shuttle is event-driven, so the sensing seed must not change
        // what the cache does.
        let a = run_shuttle(
            "a",
            BindingPolicy::Adaptive,
            Some(DataPathOptions::all()),
            1,
        );
        let b = run_shuttle(
            "b",
            BindingPolicy::Adaptive,
            Some(DataPathOptions::all()),
            99,
        );
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_misses, b.cache_misses);
        assert_eq!(a.total_shipped_bytes, b.total_shipped_bytes);
        assert_eq!(a.bytes_saved_delta, b.bytes_saved_delta);
    }
}
