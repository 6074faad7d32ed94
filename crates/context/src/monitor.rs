//! The context monitor: predefined conditions that trigger agents.
//!
//! "A context monitor will observe this process. If some predefined
//! conditions occur, the autonomous agents will be triggered." (paper §4.1)

use mdagent_fx::FxHashMap;
use mdagent_simnet::SpaceId;

use crate::types::{ContextData, ContextEvent, UserId};

/// Identifier of a registered condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConditionId(pub u32);

/// Declarative trigger conditions over context events.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// A user's fused location changed (to anywhere).
    UserMoved {
        /// The user to watch.
        user: UserId,
    },
    /// A user entered a specific space.
    UserEntered {
        /// The user to watch.
        user: UserId,
        /// The space of interest.
        space: SpaceId,
    },
    /// A user issued an indication whose command equals `command`.
    Indication {
        /// The user to watch.
        user: UserId,
        /// Command verb to match.
        command: String,
    },
    /// A response-time probe exceeded `threshold_ms`.
    SlowNetwork {
        /// Milliseconds above which the network counts as slow.
        threshold_ms: f64,
    },
}

impl Condition {
    fn matches(&self, event: &ContextEvent) -> bool {
        match (self, &event.data) {
            (Condition::UserMoved { user }, ContextData::Location { user: u, .. }) => user == u,
            (
                Condition::UserEntered { user, space },
                ContextData::Location { user: u, space: s },
            ) => user == u && space == s,
            (
                Condition::Indication { user, command },
                ContextData::UserIndication {
                    user: u,
                    command: c,
                    ..
                },
            ) => user == u && command == c,
            (Condition::SlowNetwork { threshold_ms }, ContextData::ResponseTime { millis, .. }) => {
                millis > threshold_ms
            }
            _ => false,
        }
    }
}

/// Registry of conditions; feeding it an event yields the conditions that
/// fired.
///
/// # Examples
///
/// ```
/// use mdagent_context::{ContextMonitor, Condition, ContextEvent, ContextData, UserId};
/// use mdagent_simnet::{SimTime, SpaceId};
///
/// let mut monitor = ContextMonitor::new();
/// let id = monitor.register(Condition::UserMoved { user: UserId(1) });
/// let fired = monitor.feed(&ContextEvent::new(
///     SimTime::ZERO,
///     ContextData::Location { user: UserId(1), space: SpaceId(3) },
/// ));
/// assert_eq!(fired, vec![id]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContextMonitor {
    conditions: FxHashMap<ConditionId, Condition>,
    next_id: u32,
    fired_total: u64,
}

impl ContextMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a condition, returning its id.
    pub fn register(&mut self, condition: Condition) -> ConditionId {
        let id = ConditionId(self.next_id);
        self.next_id += 1;
        self.conditions.insert(id, condition);
        id
    }

    /// Removes a condition. Returns whether it existed.
    pub fn deregister(&mut self, id: ConditionId) -> bool {
        self.conditions.remove(&id).is_some()
    }

    /// Evaluates all conditions against one event; returns those that
    /// fired, in id order.
    pub fn feed(&mut self, event: &ContextEvent) -> Vec<ConditionId> {
        let mut fired: Vec<ConditionId> = self
            .conditions
            .iter()
            .filter(|(_, c)| c.matches(event))
            .map(|(&id, _)| id)
            .collect();
        fired.sort();
        self.fired_total += fired.len() as u64;
        fired
    }

    /// Total number of firings so far.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// Number of registered conditions.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.conditions.len()
    }

    /// Whether no conditions are registered.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.conditions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdagent_simnet::{HostId, SimTime};

    fn location(user: u32, space: u32) -> ContextEvent {
        ContextEvent::new(
            SimTime::ZERO,
            ContextData::Location {
                user: UserId(user),
                space: SpaceId(space),
            },
        )
    }

    #[test]
    fn user_moved_matches_any_space() {
        let mut m = ContextMonitor::new();
        let id = m.register(Condition::UserMoved { user: UserId(1) });
        assert_eq!(m.feed(&location(1, 0)), vec![id]);
        assert_eq!(m.feed(&location(1, 5)), vec![id]);
        assert!(m.feed(&location(2, 0)).is_empty());
        assert_eq!(m.fired_total(), 2);
    }

    #[test]
    fn user_entered_matches_specific_space() {
        let mut m = ContextMonitor::new();
        let id = m.register(Condition::UserEntered {
            user: UserId(1),
            space: SpaceId(3),
        });
        assert!(m.feed(&location(1, 2)).is_empty());
        assert_eq!(m.feed(&location(1, 3)), vec![id]);
    }

    #[test]
    fn indication_matches_command() {
        let mut m = ContextMonitor::new();
        let id = m.register(Condition::Indication {
            user: UserId(1),
            command: "dispatch-slides".into(),
        });
        let event = ContextEvent::new(
            SimTime::ZERO,
            ContextData::UserIndication {
                user: UserId(1),
                command: "dispatch-slides".into(),
                args: vec!["room-2".into()],
            },
        );
        assert_eq!(m.feed(&event), vec![id]);
        let other = ContextEvent::new(
            SimTime::ZERO,
            ContextData::UserIndication {
                user: UserId(1),
                command: "stop".into(),
                args: vec![],
            },
        );
        assert!(m.feed(&other).is_empty());
    }

    #[test]
    fn slow_network_threshold() {
        let mut m = ContextMonitor::new();
        let id = m.register(Condition::SlowNetwork {
            threshold_ms: 1000.0,
        });
        let slow = ContextEvent::new(
            SimTime::ZERO,
            ContextData::ResponseTime {
                from: HostId(0),
                to: HostId(1),
                millis: 1500.0,
            },
        );
        let fast = ContextEvent::new(
            SimTime::ZERO,
            ContextData::ResponseTime {
                from: HostId(0),
                to: HostId(1),
                millis: 120.0,
            },
        );
        assert_eq!(m.feed(&slow), vec![id]);
        assert!(m.feed(&fast).is_empty());
    }

    #[test]
    fn deregister_stops_firing() {
        let mut m = ContextMonitor::new();
        let id = m.register(Condition::UserMoved { user: UserId(1) });
        assert!(m.deregister(id));
        assert!(!m.deregister(id));
        assert!(m.feed(&location(1, 0)).is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn multiple_conditions_fire_in_id_order() {
        let mut m = ContextMonitor::new();
        let a = m.register(Condition::UserMoved { user: UserId(1) });
        let b = m.register(Condition::UserEntered {
            user: UserId(1),
            space: SpaceId(0),
        });
        assert_eq!(m.feed(&location(1, 0)), vec![a, b]);
        assert_eq!(m.len(), 2);
    }
}
