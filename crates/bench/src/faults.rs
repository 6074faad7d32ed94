//! Fault-tolerance benchmark: follow-me migrations over the 2-hop
//! LAN+gateway path under seeded per-link drop schedules. Reports, per
//! drop probability, the completion rate, the retry traffic the watchdog
//! generated, and the latency of rollbacks when retries ran out.

use mdagent_context::UserId;
use mdagent_core::{
    BindingPolicy, Component, ComponentKind, ComponentSet, DeviceProfile, FaultOptions, Middleware,
    MobilityMode, UserProfile,
};
use mdagent_json::Value;
use mdagent_simnet::{CpuFactor, HostId, Simulator};

/// Drop probabilities swept, including the fault-free control point.
pub const FAULT_SWEEP: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

/// Independent migrations attempted per sweep point (one seed each).
pub const FAULT_RUNS: u64 = 32;

/// Aggregate outcome of one sweep point.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Per-link drop probability of this point.
    pub drop_probability: f64,
    /// Migrations attempted.
    pub attempted: u64,
    /// Migrations that completed at the destination.
    pub completed: u64,
    /// Migrations rolled back at the source after exhausting retries.
    pub rolled_back: u64,
    /// Retry nudges the watchdog issued across all runs.
    pub retries: u64,
    /// Transfers the network dropped across all runs.
    pub transfer_drops: u64,
    /// completed / attempted.
    pub completion_rate: f64,
    /// Mean rollback latency (request to resumed-at-source), ms; 0 when
    /// nothing rolled back.
    pub rollback_latency_mean_ms: f64,
    /// Worst rollback latency, ms.
    pub rollback_latency_max_ms: f64,
}

/// The whole sweep, in [`FAULT_SWEEP`] order.
#[derive(Debug, Clone)]
pub struct FaultBench {
    /// One aggregate per drop probability.
    pub points: Vec<FaultPoint>,
}

/// The 2-hop inter-space topology the proptest pins: src — gw on the
/// office Ethernet, gw — dest across the gateway.
fn world_2hop(
    seed: u64,
    drop_probability: f64,
) -> (Middleware, Simulator<Middleware>, HostId, HostId) {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let away = b.space("away");
    let src = b.host("src", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let gw = b.host("gw", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let dest = b.host("dest", away, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.ethernet(src, gw).expect("lan");
    b.gateway(gw, dest).expect("gateway");
    b.seed(seed)
        .faults(FaultOptions::with_drop_probability(drop_probability));
    let (world, sim) = b.build();
    (world, sim, src, dest)
}

fn components() -> ComponentSet {
    [
        Component::synthetic("codec", ComponentKind::Logic, 180_000),
        Component::synthetic("player-ui", ComponentKind::Presentation, 60_000),
        Component::synthetic("music-file", ComponentKind::Data, 250_000),
    ]
    .into_iter()
    .collect()
}

/// Runs [`FAULT_RUNS`] independent migrations at one drop probability and
/// aggregates their counters.
///
/// # Panics
///
/// Panics on scenario construction failures (the topology is static).
pub fn run_fault_point(drop_probability: f64) -> FaultPoint {
    let mut completed = 0u64;
    let mut rolled_back = 0u64;
    let mut retries = 0u64;
    let mut transfer_drops = 0u64;
    let mut latency_sum_ms = 0.0f64;
    let mut latency_max_ms = 0.0f64;
    let mut latency_count = 0usize;
    for seed in 0..FAULT_RUNS {
        let (mut world, mut sim, src, dest) = world_2hop(seed, drop_probability);
        let app = Middleware::deploy_app(
            &mut world,
            &mut sim,
            "faulted-player",
            src,
            components(),
            UserProfile::new(UserId(0)),
        )
        .expect("deploy");
        sim.run(&mut world);
        Middleware::migrate_now(
            &mut world,
            &mut sim,
            app,
            dest,
            MobilityMode::FollowMe,
            BindingPolicy::Adaptive,
        )
        .expect("migrate");
        sim.run(&mut world);
        completed += world.metrics().counter("migration.completed");
        rolled_back += world.metrics().counter("migration.rollbacks");
        retries += world.metrics().counter("migration.retries");
        transfer_drops += world.metrics().counter("platform.transfer_drops");
        if let Some(stats) = world.metrics().durations("migration.rollback_latency") {
            latency_sum_ms += stats.total().as_millis_f64();
            latency_max_ms = latency_max_ms.max(stats.max().as_millis_f64());
            latency_count += stats.count();
        }
        assert_eq!(world.in_flight_count(), 0, "seed {seed} left a flight");
    }
    FaultPoint {
        drop_probability,
        attempted: FAULT_RUNS,
        completed,
        rolled_back,
        retries,
        transfer_drops,
        completion_rate: completed as f64 / FAULT_RUNS as f64,
        rollback_latency_mean_ms: if latency_count > 0 {
            latency_sum_ms / latency_count as f64
        } else {
            0.0
        },
        rollback_latency_max_ms: latency_max_ms,
    }
}

/// Runs the whole sweep.
pub fn bench_faults() -> FaultBench {
    FaultBench {
        points: FAULT_SWEEP.iter().map(|p| run_fault_point(*p)).collect(),
    }
}

/// Renders [`bench_faults`] as the machine-readable `BENCH_faults.json`
/// document.
pub fn bench_faults_json() -> String {
    let points = bench_faults().points.into_iter().map(|p| {
        Value::object([
            ("drop_probability", Value::fixed(p.drop_probability, 2)),
            ("attempted", p.attempted.into()),
            ("completed", p.completed.into()),
            ("rolled_back", p.rolled_back.into()),
            ("completion_rate", Value::fixed(p.completion_rate, 4)),
            ("retries", p.retries.into()),
            ("transfer_drops", p.transfer_drops.into()),
            (
                "rollback_latency_mean_ms",
                Value::fixed(p.rollback_latency_mean_ms, 3),
            ),
            (
                "rollback_latency_max_ms",
                Value::fixed(p.rollback_latency_max_ms, 3),
            ),
        ])
    });
    Value::object([
        ("schema", "mdagent-bench/faults/v1".into()),
        (
            "command",
            "cargo run --release -p mdagent-bench --bin figures -- bench-faults".into(),
        ),
        (
            "note",
            format!(
                "{FAULT_RUNS} follow-me migrations per point over the 2-hop LAN+gateway path; \
                 per-link drops with bounded-backoff retries (3 attempts) and rollback on \
                 exhaustion; latencies are simulated ms"
            )
            .into(),
        ),
        ("runs_per_point", FAULT_RUNS.into()),
        ("points", Value::array(points)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_point_completes_everything() {
        let p = run_fault_point(0.0);
        assert_eq!(p.completed, FAULT_RUNS);
        assert_eq!(p.rolled_back, 0);
        assert_eq!(p.retries, 0);
        assert_eq!(p.transfer_drops, 0);
        assert!((p.completion_rate - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn every_migration_is_accounted_for() {
        for p in [0.1, 0.3] {
            let point = run_fault_point(p);
            assert_eq!(
                point.completed + point.rolled_back,
                point.attempted,
                "exactly-once or rollback at p={p}"
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_fault_point(0.2);
        let b = run_fault_point(0.2);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.rolled_back, b.rolled_back);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.transfer_drops, b.transfer_drops);
        assert_eq!(a.rollback_latency_max_ms, b.rollback_latency_max_ms);
    }

    /// The `BENCH_faults.json` document: its schema and sweep, and exact
    /// accounting at every point.
    #[test]
    fn artifact_accounts_for_every_attempt() {
        let doc = mdagent_json::parse(&bench_faults_json()).expect("the artifact parses");
        assert_eq!(doc["schema"].as_str(), Some("mdagent-bench/faults/v1"));
        let points = doc["points"].as_arr().expect("points");
        let sweep: Vec<_> = points
            .iter()
            .map(|p| p["drop_probability"].as_f64())
            .collect();
        assert_eq!(sweep, FAULT_SWEEP.map(Some));
        let n = |p: &Value, key: &str| p[key].as_u64().unwrap_or_else(|| panic!("{key} count"));
        for p in points {
            // Exactly-once or rollback: every attempt is accounted for.
            assert_eq!(
                n(p, "completed") + n(p, "rolled_back"),
                n(p, "attempted"),
                "{p:?}"
            );
        }
        let clean = &points[0];
        assert_eq!(clean["completion_rate"].as_f64(), Some(1.0));
        for key in ["retries", "transfer_drops", "rolled_back"] {
            assert_eq!(n(clean, key), 0, "clean point {key}");
        }
        assert!(n(&points[points.len() - 1], "transfer_drops") > 0);
    }

    #[test]
    fn drops_rise_with_probability() {
        let low = run_fault_point(0.05);
        let high = run_fault_point(0.3);
        assert!(high.transfer_drops > low.transfer_drops);
        assert!(high.completion_rate <= low.completion_rate);
    }
}
