//! Publish/subscribe context kernel.
//!
//! "Context kernel employs a publish/subscribe design pattern. When the
//! subscribed events occur, the information will be multicast to the
//! registered listeners." (paper §5). The bus is world-agnostic: `publish`
//! returns the subscribers to notify and the host middleware routes the
//! event to them (usually as ACL messages to autonomous agents).
//!
//! A subscription may also name a *subject*: a subscriber registered with
//! [`ContextBus::subscribe_user`] hears only events about that user
//! ([`ContextData::subject`](crate::ContextData::subject)), and never
//! subject-less ones such as response-time probes. Subject-filtered
//! subscriptions are indexed by user, so a publish visits the unfiltered
//! subscriptions plus the subject's own, not every subscriber.
//!
//! ```
//! use mdagent_context::{ContextBus, ContextEvent, ContextData, UserId};
//! use mdagent_simnet::{HostId, SimTime, SpaceId};
//!
//! let mut bus = ContextBus::new();
//! let _alice = bus.subscribe_user(UserId(1), "context.*");
//! let bob = bus.subscribe_user(UserId(2), "context.*");
//! let everyone = bus.subscribe("context.*");
//!
//! let moved = ContextEvent::new(
//!     SimTime::ZERO,
//!     ContextData::Location { user: UserId(2), space: SpaceId(0) },
//! );
//! assert_eq!(bus.publish(&moved), vec![bob, everyone]);
//!
//! let probe = ContextEvent::new(
//!     SimTime::ZERO,
//!     ContextData::ResponseTime { from: HostId(0), to: HostId(1), millis: 4.0 },
//! );
//! assert_eq!(bus.publish(&probe), vec![everyone]);
//! ```

use crate::types::{ContextEvent, UserId};
use mdagent_fx::FxHashMap;

/// Opaque handle identifying a subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriberId(pub u64);

/// One subscriber's topic pattern.
#[derive(Debug, Clone)]
struct Subscription {
    id: SubscriberId,
    pattern: String,
}

/// Topic-based pub/sub with exact and prefix subscriptions, optionally
/// filtered by subject.
///
/// A pattern either matches a topic exactly or, when it ends with `*`,
/// matches any topic with the preceding prefix (`"context.*"`).
///
/// # Examples
///
/// ```
/// use mdagent_context::{ContextBus, ContextEvent, ContextData, UserId, topics};
/// use mdagent_simnet::{SimTime, SpaceId};
///
/// let mut bus = ContextBus::new();
/// let sub = bus.subscribe("context.*");
/// let event = ContextEvent::new(
///     SimTime::ZERO,
///     ContextData::Location { user: UserId(1), space: SpaceId(0) },
/// );
/// assert_eq!(bus.publish(&event), vec![sub]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContextBus {
    /// Subscriptions without a subject, ascending by id.
    unfiltered: Vec<Subscription>,
    /// Subject-filtered subscriptions by user, each list ascending by id
    /// and never empty.
    by_subject: FxHashMap<UserId, Vec<Subscription>>,
    next_id: u64,
    published: u64,
}

fn matches(pattern: &str, topic: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => topic.starts_with(prefix),
        None => pattern == topic,
    }
}

/// The ids of `subs` whose pattern matches `topic`, in list order.
fn matching<'a>(
    subs: &'a [Subscription],
    topic: &'a str,
) -> impl Iterator<Item = SubscriberId> + 'a {
    subs.iter()
        .filter(move |s| matches(&s.pattern, topic))
        .map(|s| s.id)
}

impl ContextBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new subscriber for `pattern`, returning its handle.
    pub fn subscribe(&mut self, pattern: impl Into<String>) -> SubscriberId {
        let id = self.next_id();
        let pattern = pattern.into();
        self.unfiltered.push(Subscription { id, pattern });
        id
    }

    /// Registers a new subscriber for `pattern` that hears only events
    /// whose subject is `user`, returning its handle.
    pub fn subscribe_user(&mut self, user: UserId, pattern: impl Into<String>) -> SubscriberId {
        let id = self.next_id();
        let pattern = pattern.into();
        self.by_subject
            .entry(user)
            .or_default()
            .push(Subscription { id, pattern });
        id
    }

    /// Hands out an id greater than every id before it, so pushing its
    /// subscription onto the end of a list keeps that list ascending.
    fn next_id(&mut self) -> SubscriberId {
        let id = SubscriberId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Removes a subscriber entirely. Returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubscriberId) -> bool {
        let before = self.subscriber_count();
        self.unfiltered.retain(|s| s.id != id);
        self.by_subject.retain(|_, subs| {
            subs.retain(|s| s.id != id);
            !subs.is_empty()
        });
        self.subscriber_count() < before
    }

    /// Publishes an event, returning the subscribers whose patterns (and
    /// subjects, where set) match, ascending by id (each at most once).
    ///
    /// Only the unfiltered subscriptions and the event subject's are
    /// visited; both lists ascend and share no id, so one merge orders them.
    pub fn publish(&mut self, event: &ContextEvent) -> Vec<SubscriberId> {
        self.published += 1;
        let topic = event.topic();
        let mut all = matching(&self.unfiltered, topic).peekable();
        let own = event
            .data
            .subject()
            .and_then(|user| self.by_subject.get(&user))
            .map(Vec::as_slice)
            .unwrap_or_default();
        let mut own = matching(own, topic).peekable();
        let mut hits = Vec::new();
        loop {
            let next = match (all.peek(), own.peek()) {
                (Some(a), Some(o)) if o < a => own.next(),
                (Some(_), _) => all.next(),
                (None, _) => own.next(),
            };
            match next {
                Some(id) => hits.push(id),
                None => return hits,
            }
        }
    }

    /// Number of registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.unfiltered.len() + self.by_subject.values().map(Vec::len).sum::<usize>()
    }

    /// Number of events published so far.
    pub fn published_count(&self) -> u64 {
        self.published
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ContextData, UserId};
    use mdagent_simnet::{SimTime, SpaceId};

    fn location_event() -> ContextEvent {
        ContextEvent::new(
            SimTime::ZERO,
            ContextData::Location {
                user: UserId(0),
                space: SpaceId(0),
            },
        )
    }

    #[test]
    fn exact_and_prefix_matching() {
        let mut bus = ContextBus::new();
        let exact = bus.subscribe("context.location");
        let prefix = bus.subscribe("context.*");
        let other = bus.subscribe("sensor.distance");
        let hits = bus.publish(&location_event());
        assert!(hits.contains(&exact));
        assert!(hits.contains(&prefix));
        assert!(!hits.contains(&other));
        assert_eq!(bus.published_count(), 1);
    }

    #[test]
    fn merged_lists_notify_each_subscriber_once_in_id_order() {
        let mut bus = ContextBus::new();
        let a = bus.subscribe_user(UserId(0), "context.*");
        let b = bus.subscribe("context.location");
        let c = bus.subscribe_user(UserId(0), "context.location");
        let d = bus.subscribe("context.*");
        bus.subscribe_user(UserId(1), "context.*");
        assert_eq!(bus.publish(&location_event()), vec![a, b, c, d]);
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let mut bus = ContextBus::new();
        let sub = bus.subscribe("context.*");
        let user_sub = bus.subscribe_user(UserId(0), "context.*");
        for id in [sub, user_sub] {
            assert!(bus.unsubscribe(id));
            assert!(!bus.unsubscribe(id));
        }
        assert!(bus.by_subject.is_empty(), "emptied index entry dropped");
        assert!(bus.publish(&location_event()).is_empty());
        assert_eq!(bus.subscriber_count(), 0);
    }

    #[test]
    fn star_alone_matches_everything() {
        let mut bus = ContextBus::new();
        let all = bus.subscribe("*");
        assert_eq!(bus.publish(&location_event()), vec![all]);
    }
}
