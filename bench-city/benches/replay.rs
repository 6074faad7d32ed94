//! Timings of layers that never own a simulator step: the run's recorded
//! inputs are fed again to each layer's public entry point, outside the
//! simulation, and timed with the bench's clock.

use std::hint::black_box;
use std::time::Instant;

use mdagent_context::{BadgeId, ContextKernel, SensorField};
use mdagent_core::Middleware;
use mdagent_registry::{ApplicationRecord, RegistryCenter, RegistryFederation};
use mdagent_simnet::{HostId, SimRng, SimTime, SpaceId, Topology};
use mdagent_wire::{from_bytes, to_bytes, Wire};

use crate::city::SENSE_PERIOD;
use crate::common::{median, per_call_s, ratio, Row, REPLAY_REPEATS};

/// `RegistryFederation::find_application` over the run's lookups
/// `(origin, target, destination host, app name)`, and
/// `RegistryCenter::register_application` of the records the run's
/// check-ins wrote, into a fresh center.
pub fn registry_rows(
    federation: &RegistryFederation,
    lookups: &[(SpaceId, SpaceId, HostId, &str)],
) -> Vec<Row> {
    let find_s = per_call_s(lookups.len(), || {
        for (from, to, _, name) in lookups {
            let _ = black_box(federation.find_application(*from, *to, name));
        }
    });
    let records: Vec<ApplicationRecord> = lookups
        .iter()
        .map(|(_, to, host, name)| {
            ["logic", "presentation", "data"]
                .into_iter()
                .fold(ApplicationRecord::new(*name, *to, *host), |r, tag| {
                    r.with_component(tag)
                })
        })
        .collect();
    let register_s = per_call_s(records.len(), || {
        let mut center = RegistryCenter::new(SpaceId(0));
        for r in &records {
            center.register_application(r.clone());
        }
        black_box(&center);
    });
    vec![
        ("registry.find_application_us", find_s * 1e6),
        ("registry.register_us", register_s * 1e6),
    ]
}

/// `mdagent_wire::to_bytes` / `from_bytes` throughput over the run's
/// wire values, in MB/s.
pub fn wire_rows<T: Wire>(sets: &[&T]) -> Vec<Row> {
    let encoded: Vec<Vec<u8>> = sets.iter().map(|s| to_bytes(*s)).collect();
    let mb = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let encode_s = per_call_s(1, || {
        for s in sets {
            black_box(to_bytes(*s));
        }
    });
    let decode_s = per_call_s(1, || {
        for e in &encoded {
            let _ = black_box(from_bytes::<T>(e));
        }
    });
    vec![
        ("wire.encode_mb_per_s", ratio(mb, encode_s)),
        ("wire.decode_mb_per_s", ratio(mb, decode_s)),
    ]
}

/// `Topology::route` over the run's distinct host pairs on a fresh
/// topology (cold cache), then `Topology::transfer_time` over the same
/// pairs once cached (warm).
pub fn route_rows(pairs: &[(HostId, HostId)], fresh: impl Fn() -> Option<Topology>) -> Vec<Row> {
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..REPLAY_REPEATS {
        let Some(topo) = fresh() else {
            return Vec::new();
        };
        let t = Instant::now();
        for &(a, b) in pairs {
            let _ = black_box(topo.route(a, b));
        }
        cold.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for &(a, b) in pairs {
            let _ = black_box(topo.transfer_time(a, b, 4_096));
        }
        warm.push(t.elapsed().as_secs_f64());
    }
    let n = pairs.len() as f64;
    vec![
        ("topology.route_cold_us", ratio(median(&cold), n) * 1e6),
        ("topology.route_warm_ns", ratio(median(&warm), n) * 1e9),
    ]
}

/// Seconds per `ContextKernel::sense_round` on a fresh kernel holding the
/// world's beacons, badge placements and subscriber count.
pub fn sense_round_s(w: &Middleware) -> f64 {
    const ROUNDS: usize = 25;
    let mut field = SensorField::new(0.08);
    for b in w.kernel.field.beacons() {
        field.add_beacon(b.space, b.position_m);
    }
    let mut k = ContextKernel::new(field);
    let mut badge = 0;
    while let Some(user) = w.kernel.fusion.user_of(BadgeId(badge)) {
        if let Some(pos) = w.kernel.field.badge_position(BadgeId(badge)) {
            k.field.place_badge(BadgeId(badge), pos);
        }
        k.fusion.bind_badge(BadgeId(badge), user);
        badge += 1;
    }
    for _ in 0..w.kernel.bus.subscriber_count() {
        k.bus.subscribe("context.*");
    }
    let mut rng = SimRng::seed_from(7);
    let mut at = SimTime::ZERO;
    per_call_s(ROUNDS, || {
        for _ in 0..ROUNDS {
            at += SENSE_PERIOD;
            black_box(k.sense_round(at, &mut rng));
        }
    })
}
