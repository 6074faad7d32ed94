//! Context vocabulary: users, badges, beacons and context events.

use std::fmt;

use mdagent_simnet::{HostId, SimTime, SpaceId};

/// A person known to the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// A Cricket listener badge carried by a user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BadgeId(pub u32);

/// A Cricket beacon mounted in a space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BeaconId(pub u32);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user-{}", self.0)
    }
}

impl fmt::Display for BadgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "badge-{}", self.0)
    }
}

impl fmt::Display for BeaconId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "beacon-{}", self.0)
    }
}

/// Temporal character of a piece of context, driving where the classifier
/// stores it (paper §3.4: location changes frequently, preferences are
/// stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemporalClass {
    /// Essentially immutable (user preferences, device capabilities).
    Static,
    /// Changes occasionally (network conditions).
    Slow,
    /// Changes constantly (location, raw sensor data).
    Dynamic,
}

/// Payload of a context event.
#[derive(Debug, Clone, PartialEq)]
pub enum ContextData {
    /// Raw distance measurement from a Cricket beacon to a badge.
    RawDistance {
        /// The listener badge.
        badge: BadgeId,
        /// The beacon that measured.
        beacon: BeaconId,
        /// The space the beacon is mounted in.
        space: SpaceId,
        /// Measured distance in metres (noisy).
        meters: f64,
    },
    /// Fused, room-level user location.
    Location {
        /// The located user.
        user: UserId,
        /// The space they are in.
        space: SpaceId,
    },
    /// An explicit user command ("send this slide show to rooms 2 and 3").
    UserIndication {
        /// The commanding user.
        user: UserId,
        /// Free-form command verb.
        command: String,
        /// Command arguments.
        args: Vec<String>,
    },
    /// A network probe measurement between two hosts.
    ResponseTime {
        /// Probing host.
        from: HostId,
        /// Probed host.
        to: HostId,
        /// Round-trip time in milliseconds.
        millis: f64,
    },
    /// A stable user preference (stored, rarely updated).
    Preference {
        /// The user the preference belongs to.
        user: UserId,
        /// Preference key, e.g. `"handedness"`.
        key: String,
        /// Preference value, e.g. `"left"`.
        value: String,
    },
}

impl ContextData {
    /// The topic string this payload publishes under.
    pub fn topic(&self) -> &'static str {
        match self {
            ContextData::RawDistance { .. } => topics::RAW_DISTANCE,
            ContextData::Location { .. } => topics::LOCATION,
            ContextData::UserIndication { .. } => topics::USER_INDICATION,
            ContextData::ResponseTime { .. } => topics::RESPONSE_TIME,
            ContextData::Preference { .. } => topics::PREFERENCE,
        }
    }

    /// The user this payload is about, if any: the subject a
    /// [`ContextBus::subscribe_user`](crate::ContextBus::subscribe_user)
    /// subscription filters on. Raw readings and network probes have none.
    pub fn subject(&self) -> Option<UserId> {
        match self {
            ContextData::Location { user, .. }
            | ContextData::UserIndication { user, .. }
            | ContextData::Preference { user, .. } => Some(*user),
            ContextData::RawDistance { .. } | ContextData::ResponseTime { .. } => None,
        }
    }

    /// The temporal class the classifier assigns this payload.
    pub fn temporal_class(&self) -> TemporalClass {
        match self {
            ContextData::RawDistance { .. } | ContextData::Location { .. } => {
                TemporalClass::Dynamic
            }
            ContextData::UserIndication { .. } => TemporalClass::Dynamic,
            ContextData::ResponseTime { .. } => TemporalClass::Slow,
            ContextData::Preference { .. } => TemporalClass::Static,
        }
    }
}

/// Well-known topic names.
pub mod topics {
    /// Raw Cricket distance readings.
    pub const RAW_DISTANCE: &str = "sensor.distance";
    /// Fused user locations.
    pub const LOCATION: &str = "context.location";
    /// Explicit user commands.
    pub const USER_INDICATION: &str = "context.indication";
    /// Network response-time probes.
    pub const RESPONSE_TIME: &str = "context.response-time";
    /// User preferences.
    pub const PREFERENCE: &str = "context.preference";
}

/// A timestamped context event.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextEvent {
    /// When it was observed.
    pub at: SimTime,
    /// The payload.
    pub data: ContextData,
}

impl ContextEvent {
    /// Creates an event.
    pub fn new(at: SimTime, data: ContextData) -> Self {
        ContextEvent { at, data }
    }

    /// Topic shortcut.
    pub fn topic(&self) -> &'static str {
        self.data.topic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topics_and_classes_match() {
        let loc = ContextData::Location {
            user: UserId(1),
            space: SpaceId(0),
        };
        assert_eq!(loc.topic(), "context.location");
        assert_eq!(loc.temporal_class(), TemporalClass::Dynamic);
        let pref = ContextData::Preference {
            user: UserId(1),
            key: "handedness".into(),
            value: "left".into(),
        };
        assert_eq!(pref.temporal_class(), TemporalClass::Static);
        let rt = ContextData::ResponseTime {
            from: HostId(0),
            to: HostId(1),
            millis: 120.0,
        };
        assert_eq!(rt.temporal_class(), TemporalClass::Slow);
        assert_eq!(rt.topic(), "context.response-time");
        assert_eq!(loc.subject(), Some(UserId(1)));
        assert_eq!(pref.subject(), Some(UserId(1)));
        assert_eq!(rt.subject(), None);
    }

    #[test]
    fn display_impls() {
        assert_eq!(UserId(3).to_string(), "user-3");
        assert_eq!(BadgeId(2).to_string(), "badge-2");
        assert_eq!(BeaconId(1).to_string(), "beacon-1");
    }

    #[test]
    fn event_carries_timestamp() {
        let e = ContextEvent::new(
            SimTime::from_millis(5),
            ContextData::Location {
                user: UserId(0),
                space: SpaceId(1),
            },
        );
        assert_eq!(e.at, SimTime::from_millis(5));
        assert_eq!(e.topic(), "context.location");
    }
}
