//! Property tests for the context layer: fusion correctness, debounce
//! bounds, bus determinism, the bus against a filter-list oracle, and
//! predictor sanity.

use mdagent_context::{
    BadgeId, BeaconId, ContextBus, ContextData, ContextEvent, LocationFusion, LocationPredictor,
    SubscriberId, UserId,
};
use mdagent_simnet::{HostId, SimTime, SpaceId};
use proptest::prelude::*;

fn reading(badge: u32, beacon: u32, space: u32, meters: f64) -> ContextEvent {
    ContextEvent::new(
        SimTime::ZERO,
        ContextData::RawDistance {
            badge: BadgeId(badge),
            beacon: BeaconId(beacon),
            space: SpaceId(space),
            meters,
        },
    )
}

/// Topic patterns the bus oracle test subscribes with.
const PATTERNS: [&str; 7] = [
    "context.*",
    "context.location",
    "context.indication",
    "context.preference",
    "context.response-time",
    "sensor.*",
    "*",
];

/// An event of one of the five `ContextData` kinds, about `user` where the
/// kind has a subject.
fn event_of(kind: u8, user: u32) -> ContextEvent {
    let data = match kind % 5 {
        0 => ContextData::RawDistance {
            badge: BadgeId(user),
            beacon: BeaconId(0),
            space: SpaceId(0),
            meters: 1.0,
        },
        1 => ContextData::Location {
            user: UserId(user),
            space: SpaceId(1),
        },
        2 => ContextData::UserIndication {
            user: UserId(user),
            command: "dispatch".into(),
            args: Vec::new(),
        },
        3 => ContextData::ResponseTime {
            from: HostId(0),
            to: HostId(1),
            millis: 2.0,
        },
        _ => ContextData::Preference {
            user: UserId(user),
            key: "handedness".into(),
            value: "left".into(),
        },
    };
    ContextEvent::new(SimTime::ZERO, data)
}

fn pattern_matches(pattern: &str, topic: &str) -> bool {
    pattern
        .strip_suffix('*')
        .map_or(pattern == topic, |prefix| topic.starts_with(prefix))
}

proptest! {
    /// The fused candidate is always the space of the minimum-distance
    /// reading, independent of reading order.
    #[test]
    fn nearest_beacon_wins_in_any_order(
        mut distances in proptest::collection::vec((0u32..5, 0.1f64..50.0), 1..10),
        seed in any::<u64>(),
    ) {
        // Deduplicate beacons (one reading per beacon per round).
        distances.sort_by_key(|(b, _)| *b);
        distances.dedup_by_key(|(b, _)| *b);
        // Shuffle deterministically by rotating.
        let rot = (seed as usize) % distances.len().max(1);
        distances.rotate_left(rot);

        let mut fusion = LocationFusion::new(1);
        fusion.bind_badge(BadgeId(1), UserId(1));
        let readings: Vec<ContextEvent> = distances
            .iter()
            .map(|(beacon, d)| reading(1, *beacon, *beacon, *d)) // space id = beacon id
            .collect();
        let events = fusion.ingest_round(&readings);
        let best_space = distances
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(b, _)| SpaceId(*b))
            .unwrap();
        prop_assert_eq!(events.len(), 1);
        prop_assert_eq!(fusion.location_of(UserId(1)), Some(best_space));
    }

    /// With debounce k, a location change is reported only after at least
    /// k consecutive agreeing rounds — never sooner.
    #[test]
    fn debounce_lower_bound(k in 1u32..5, flips in proptest::collection::vec(any::<bool>(), 1..24)) {
        let mut fusion = LocationFusion::new(k);
        fusion.bind_badge(BadgeId(1), UserId(1));
        let mut consecutive: u32 = 0;
        let mut last_space: Option<u32> = None;
        for &in_space_one in &flips {
            let space = u32::from(in_space_one);
            let events = fusion.ingest_round(&[reading(1, space, space, 1.0)]);
            if last_space == Some(space) {
                consecutive += 1;
            } else {
                consecutive = 1;
                last_space = Some(space);
            }
            if !events.is_empty() {
                prop_assert!(
                    consecutive >= k,
                    "change reported after only {consecutive} agreeing rounds (k={k})"
                );
            }
        }
    }

    /// Bus delivery is deterministic and complete: every matching
    /// subscriber is returned exactly once, in stable order.
    #[test]
    fn bus_delivery_is_deterministic(patterns in proptest::collection::vec(0u8..3, 1..12)) {
        let mut bus = ContextBus::new();
        let mut subs = Vec::new();
        for p in &patterns {
            let pattern = match p {
                0 => "context.location",
                1 => "context.*",
                _ => "sensor.*",
            };
            subs.push((bus.subscribe(pattern), pattern));
        }
        let event = ContextEvent::new(
            SimTime::ZERO,
            ContextData::Location { user: UserId(1), space: SpaceId(0) },
        );
        let first = bus.publish(&event);
        let second = bus.publish(&event);
        prop_assert_eq!(&first, &second, "same subscribers every time");
        for (id, pattern) in &subs {
            let should_match = *pattern != "sensor.*";
            prop_assert_eq!(first.contains(id), should_match);
        }
        // No duplicates.
        let mut sorted = first.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), first.len());
    }

    /// Under any interleaving of subscribe / subscribe_user / unsubscribe
    /// / publish, the bus agrees with a plain list of `(id, pattern,
    /// subject)` filters: `publish` returns exactly the matching ids,
    /// ascending and once each, `unsubscribe` reports whether the id was
    /// live, and `subscriber_count` is the list's length.
    #[test]
    fn bus_agrees_with_a_filter_list(
        ops in proptest::collection::vec((0u8..4, 0u8..7, 0u32..4, any::<u64>()), 1..80),
    ) {
        let mut bus = ContextBus::new();
        let mut oracle: Vec<(SubscriberId, &str, Option<UserId>)> = Vec::new();
        let mut issued: Vec<SubscriberId> = Vec::new();
        for (op, arg, user, pick) in ops {
            let pattern = PATTERNS[usize::from(arg)];
            match op {
                0 => {
                    let id = bus.subscribe(pattern);
                    oracle.push((id, pattern, None));
                    issued.push(id);
                }
                1 => {
                    let id = bus.subscribe_user(UserId(user), pattern);
                    oracle.push((id, pattern, Some(UserId(user))));
                    issued.push(id);
                }
                2 => {
                    // Any id ever issued, so some are already gone.
                    let Some(&id) = issued.get(pick as usize % issued.len().max(1)) else {
                        continue;
                    };
                    let live = oracle.iter().position(|(s, ..)| *s == id);
                    prop_assert_eq!(bus.unsubscribe(id), live.is_some());
                    if let Some(i) = live {
                        oracle.remove(i);
                    }
                }
                _ => {
                    let event = event_of(arg, user);
                    let expected: Vec<SubscriberId> = oracle
                        .iter()
                        .filter(|(_, p, subject)| {
                            pattern_matches(p, event.topic())
                                && subject.is_none_or(|u| event.data.subject() == Some(u))
                        })
                        .map(|(id, ..)| *id)
                        .collect();
                    let hits = bus.publish(&event);
                    prop_assert!(hits.windows(2).all(|w| w[0] < w[1]), "{hits:?}");
                    prop_assert_eq!(hits, expected, "{:?}", event.data);
                }
            }
            prop_assert_eq!(bus.subscriber_count(), oracle.len());
        }
    }

    /// The predictor's probabilities over successors of a state sum to 1
    /// (when any transition was observed), and predict_next is the argmax.
    #[test]
    fn predictor_probabilities_are_coherent(walk in proptest::collection::vec(0u32..4, 2..40)) {
        let mut p = LocationPredictor::new();
        let user = UserId(0);
        for &s in &walk {
            p.observe(user, SpaceId(s));
        }
        for from in 0..4u32 {
            let total: f64 = (0..4u32)
                .map(|to| p.transition_probability(user, SpaceId(from), SpaceId(to)))
                .sum();
            prop_assert!(total == 0.0 || (total - 1.0).abs() < 1e-9, "sum {total}");
            if let Some(next) = p.predict_next(user, SpaceId(from)) {
                let best = p.transition_probability(user, SpaceId(from), next);
                for to in 0..4u32 {
                    prop_assert!(
                        best >= p.transition_probability(user, SpaceId(from), SpaceId(to)) - 1e-12
                    );
                }
            }
        }
    }
}
