//! Simulated Cricket location sensors.
//!
//! The paper deploys "dozens of Cricket sensors" that report raw
//! (distance, badge identity) data. Here beacons are mounted in spaces and
//! measure the ultrasound distance to badges with Gaussian noise; the
//! fusion layer turns those readings into room-level locations.

use mdagent_simnet::{SimRng, SimTime, SpaceId};

use crate::types::{BadgeId, BeaconId, ContextData, ContextEvent};

/// A beacon installation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beacon {
    /// The beacon's id.
    pub id: BeaconId,
    /// The space it is mounted in.
    pub space: SpaceId,
    /// Its position along the space's one-dimensional extent, in metres.
    pub position_m: f64,
}

/// Ground-truth position of a badge (set by the scenario driver).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BadgePosition {
    /// The space the badge is in.
    pub space: SpaceId,
    /// Position along the space's extent, in metres.
    pub position_m: f64,
}

/// The field of deployed beacons plus the current badge ground truth.
///
/// # Examples
///
/// ```
/// use mdagent_context::{SensorField, BadgeId, BadgePosition};
/// use mdagent_simnet::{SimRng, SimTime, SpaceId};
///
/// let mut field = SensorField::new(0.10); // 10 cm noise
/// field.add_beacon(SpaceId(0), 2.0);
/// field.add_beacon(SpaceId(1), 2.0);
/// field.place_badge(BadgeId(7), BadgePosition { space: SpaceId(0), position_m: 2.5 });
/// let mut rng = SimRng::seed_from(1);
/// let readings = field.sample(SimTime::ZERO, &mut rng);
/// assert_eq!(readings.len(), 1, "only the co-located beacon hears the badge");
/// ```
#[derive(Debug, Clone)]
pub struct SensorField {
    beacons: Vec<Beacon>,
    badges: Vec<(BadgeId, BadgePosition)>,
    noise_std_m: f64,
    /// Ultrasound range limit; beacons farther than this hear nothing.
    range_m: f64,
}

impl SensorField {
    /// Creates a field with the given measurement noise (standard
    /// deviation, metres). Default beacon range is 10 m.
    pub fn new(noise_std_m: f64) -> Self {
        SensorField {
            beacons: Vec::new(),
            badges: Vec::new(),
            noise_std_m: noise_std_m.max(0.0),
            range_m: 10.0,
        }
    }

    /// Overrides the beacon hearing range.
    #[cfg(test)]
    pub fn set_range(&mut self, range_m: f64) {
        self.range_m = range_m.max(0.1);
    }

    /// Mounts a beacon in a space at the given position; returns its id.
    pub fn add_beacon(&mut self, space: SpaceId, position_m: f64) -> BeaconId {
        let id = BeaconId(self.beacons.len() as u32);
        self.beacons.push(Beacon {
            id,
            space,
            position_m,
        });
        id
    }

    /// Places (or moves) a badge.
    pub fn place_badge(&mut self, badge: BadgeId, position: BadgePosition) {
        match self.badges.iter_mut().find(|(b, _)| *b == badge) {
            Some(entry) => entry.1 = position,
            None => self.badges.push((badge, position)),
        }
    }

    /// Ground truth for a badge, if placed.
    pub fn badge_position(&self, badge: BadgeId) -> Option<BadgePosition> {
        self.badges
            .iter()
            .find(|(b, _)| *b == badge)
            .map(|(_, p)| *p)
    }

    /// All mounted beacons.
    pub fn beacons(&self) -> &[Beacon] {
        &self.beacons
    }

    /// Takes one round of measurements: every beacon that shares a space
    /// with a badge and is within range produces a noisy distance reading.
    pub fn sample(&self, at: SimTime, rng: &mut SimRng) -> Vec<ContextEvent> {
        let mut out = Vec::new();
        for &(badge, pos) in &self.badges {
            for beacon in &self.beacons {
                if beacon.space != pos.space {
                    continue; // ultrasound does not cross walls
                }
                let true_distance = (beacon.position_m - pos.position_m).abs();
                if true_distance > self.range_m {
                    continue;
                }
                let measured = (true_distance + rng.gaussian(0.0, self.noise_std_m)).max(0.0);
                out.push(ContextEvent::new(
                    at,
                    ContextData::RawDistance {
                        badge,
                        beacon: beacon.id,
                        space: beacon.space,
                        meters: measured,
                    },
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> SensorField {
        let mut f = SensorField::new(0.05);
        f.add_beacon(SpaceId(0), 0.0);
        f.add_beacon(SpaceId(0), 4.0);
        f.add_beacon(SpaceId(1), 2.0);
        f
    }

    #[test]
    fn beacons_only_hear_their_own_space() {
        let mut f = field();
        f.place_badge(
            BadgeId(1),
            BadgePosition {
                space: SpaceId(0),
                position_m: 1.0,
            },
        );
        let mut rng = SimRng::seed_from(3);
        let readings = f.sample(SimTime::ZERO, &mut rng);
        assert_eq!(readings.len(), 2, "two beacons in space 0");
        for r in &readings {
            let ContextData::RawDistance { space, .. } = r.data else {
                panic!("expected raw distance");
            };
            assert_eq!(space, SpaceId(0));
        }
    }

    #[test]
    fn measurements_track_true_distance() {
        let mut f = field();
        f.place_badge(
            BadgeId(1),
            BadgePosition {
                space: SpaceId(0),
                position_m: 1.0,
            },
        );
        let mut rng = SimRng::seed_from(3);
        let mut sum = 0.0;
        let n = 200;
        for _ in 0..n {
            for r in f.sample(SimTime::ZERO, &mut rng) {
                if let ContextData::RawDistance { beacon, meters, .. } = r.data {
                    if beacon == BeaconId(0) {
                        sum += meters;
                    }
                }
            }
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 1.0).abs() < 0.05,
            "mean {mean} should be close to 1.0"
        );
    }

    #[test]
    fn moving_a_badge_changes_readings() {
        let mut f = field();
        f.place_badge(
            BadgeId(1),
            BadgePosition {
                space: SpaceId(0),
                position_m: 0.0,
            },
        );
        f.place_badge(
            BadgeId(1),
            BadgePosition {
                space: SpaceId(1),
                position_m: 2.0,
            },
        );
        assert_eq!(f.badge_position(BadgeId(1)).unwrap().space, SpaceId(1));
        let mut rng = SimRng::seed_from(3);
        let readings = f.sample(SimTime::ZERO, &mut rng);
        assert_eq!(readings.len(), 1, "only space 1's beacon hears it now");
    }

    #[test]
    fn out_of_range_beacons_are_silent() {
        let mut f = SensorField::new(0.0);
        f.set_range(1.0);
        f.add_beacon(SpaceId(0), 0.0);
        f.place_badge(
            BadgeId(1),
            BadgePosition {
                space: SpaceId(0),
                position_m: 5.0,
            },
        );
        let mut rng = SimRng::seed_from(3);
        assert!(f.sample(SimTime::ZERO, &mut rng).is_empty());
    }

    #[test]
    fn distances_never_negative() {
        let mut f = SensorField::new(5.0); // huge noise
        f.add_beacon(SpaceId(0), 0.0);
        f.place_badge(
            BadgeId(1),
            BadgePosition {
                space: SpaceId(0),
                position_m: 0.1,
            },
        );
        let mut rng = SimRng::seed_from(9);
        for _ in 0..100 {
            for r in f.sample(SimTime::ZERO, &mut rng) {
                if let ContextData::RawDistance { meters, .. } = r.data {
                    assert!(meters >= 0.0);
                }
            }
        }
    }
}
