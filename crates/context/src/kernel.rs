//! The context kernel: sensors → fusion → classifier/monitor → pub/sub.

use mdagent_simnet::{SimRng, SimTime};

use crate::bus::{ContextBus, SubscriberId};
use crate::classifier::Classifier;
use crate::fusion::LocationFusion;
use crate::monitor::{ConditionId, ContextMonitor};
use crate::predict::LocationPredictor;
use crate::sensor::SensorField;
use crate::types::{ContextData, ContextEvent};

/// Everything a published event triggered: the subscribers to notify and
/// the monitor conditions that fired.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PublishOutcome {
    /// Bus subscribers whose patterns (and subjects, where set) matched.
    pub subscribers: Vec<SubscriberId>,
    /// Monitor conditions that fired.
    pub conditions: Vec<ConditionId>,
}

/// The running kernel of context management (paper §5: "The prototype
/// consists of a running kernel of context management …").
///
/// The kernel is passive with respect to time: the middleware calls
/// [`sense_round`](ContextKernel::sense_round) on its sensing tick and
/// routes the returned notifications to agents.
#[derive(Debug)]
pub struct ContextKernel {
    /// Deployed sensors and badge ground truth.
    pub field: SensorField,
    /// Distance → location fusion.
    pub fusion: LocationFusion,
    /// Temporal databases.
    pub classifier: Classifier,
    /// Trigger conditions.
    pub monitor: ContextMonitor,
    /// Pub/sub fabric.
    pub bus: ContextBus,
    /// Markov location predictor.
    pub predictor: LocationPredictor,
}

impl ContextKernel {
    /// Creates a kernel around a sensor field, with default classifier
    /// settings and a debounce of 2 rounds.
    pub fn new(field: SensorField) -> Self {
        ContextKernel {
            field,
            fusion: LocationFusion::new(2),
            classifier: Classifier::with_defaults(),
            monitor: ContextMonitor::new(),
            bus: ContextBus::new(),
            predictor: LocationPredictor::new(),
        }
    }

    /// Publishes one event through classifier, monitor, predictor and bus.
    pub fn publish(&mut self, event: ContextEvent) -> PublishOutcome {
        if let ContextData::Location { user, space } = event.data {
            self.predictor.observe(user, space);
        }
        let conditions = self.monitor.feed(&event);
        let subscribers = self.bus.publish(&event);
        self.classifier.store(event);
        PublishOutcome {
            subscribers,
            conditions,
        }
    }

    /// Runs one sensing round: samples every sensor, stores the raw
    /// readings, fuses them, and publishes any resulting location events.
    /// Returns `(event, outcome)` pairs for the *fused* events only — raw
    /// readings are stored but not multicast (the paper notes raw data
    /// "cannot be used directly in the upper level").
    pub fn sense_round(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<(ContextEvent, PublishOutcome)> {
        let readings = self.field.sample(now, rng);
        for r in &readings {
            self.classifier.store(r.clone());
        }
        let fused = self.fusion.ingest_round(&readings);
        self.classifier.evict_expired(now);
        fused
            .into_iter()
            .map(|event| {
                let outcome = self.publish(event.clone());
                (event, outcome)
            })
            .collect()
    }

    /// Latest fused location of a user.
    #[cfg(test)]
    pub fn location_of(&self, user: crate::types::UserId) -> Option<mdagent_simnet::SpaceId> {
        self.fusion.location_of(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Condition;
    use crate::sensor::BadgePosition;
    use crate::types::{topics, BadgeId, TemporalClass, UserId};
    use mdagent_simnet::SpaceId;

    fn kernel() -> ContextKernel {
        let mut field = SensorField::new(0.05);
        field.add_beacon(SpaceId(0), 2.0);
        field.add_beacon(SpaceId(1), 2.0);
        let mut k = ContextKernel::new(field);
        k.fusion.bind_badge(BadgeId(1), UserId(9));
        k
    }

    #[test]
    fn full_pipeline_detects_movement() {
        let mut k = kernel();
        let sub = k.bus.subscribe(topics::LOCATION);
        let cond = k.monitor.register(Condition::UserMoved { user: UserId(9) });
        let mut rng = SimRng::seed_from(4);

        k.field.place_badge(
            BadgeId(1),
            BadgePosition {
                space: SpaceId(0),
                position_m: 2.0,
            },
        );
        // Two rounds to beat the debounce.
        assert!(k.sense_round(SimTime::from_millis(0), &mut rng).is_empty());
        let results = k.sense_round(SimTime::from_millis(200), &mut rng);
        assert_eq!(results.len(), 1);
        let (event, outcome) = &results[0];
        assert_eq!(
            event.data,
            ContextData::Location {
                user: UserId(9),
                space: SpaceId(0)
            }
        );
        assert_eq!(outcome.subscribers, vec![sub]);
        assert_eq!(outcome.conditions, vec![cond]);
        assert_eq!(k.location_of(UserId(9)), Some(SpaceId(0)));

        // Move to the other room: again two rounds to confirm.
        k.field.place_badge(
            BadgeId(1),
            BadgePosition {
                space: SpaceId(1),
                position_m: 2.0,
            },
        );
        assert!(k
            .sense_round(SimTime::from_millis(400), &mut rng)
            .is_empty());
        let results = k.sense_round(SimTime::from_millis(600), &mut rng);
        assert_eq!(results.len(), 1);
        assert_eq!(k.location_of(UserId(9)), Some(SpaceId(1)));
        // Predictor learned the 0 → 1 transition.
        assert_eq!(
            k.predictor.predict_next(UserId(9), SpaceId(0)),
            Some(SpaceId(1))
        );
    }

    #[test]
    fn raw_readings_are_stored_not_multicast() {
        let mut k = kernel();
        let raw_sub = k.bus.subscribe(topics::RAW_DISTANCE);
        let mut rng = SimRng::seed_from(4);
        k.field.place_badge(
            BadgeId(1),
            BadgePosition {
                space: SpaceId(0),
                position_m: 2.0,
            },
        );
        let results = k.sense_round(SimTime::ZERO, &mut rng);
        assert!(results.is_empty(), "no fused event on the first round");
        assert!(
            k.classifier
                .db(TemporalClass::Dynamic)
                .latest(topics::RAW_DISTANCE)
                .is_some(),
            "raw reading stored"
        );
        // The raw subscriber got nothing (fused events only are multicast).
        let _ = raw_sub;
        assert_eq!(k.bus.published_count(), 0);
    }

    #[test]
    fn manual_publish_reaches_monitor_and_bus() {
        let mut k = kernel();
        let cond = k.monitor.register(Condition::Indication {
            user: UserId(9),
            command: "clone".into(),
        });
        let outcome = k.publish(ContextEvent::new(
            SimTime::ZERO,
            ContextData::UserIndication {
                user: UserId(9),
                command: "clone".into(),
                args: vec![],
            },
        ));
        assert_eq!(outcome.conditions, vec![cond]);
        assert!(outcome.subscribers.is_empty());
    }
}
