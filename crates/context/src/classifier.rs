//! The context classifier and its temporal databases.
//!
//! "A classifier component will store the data into different databases
//! according to their temporal characteristics." (paper §4.1) Static
//! context (preferences) is kept forever; dynamic context (locations, raw
//! readings) is kept as bounded history with a TTL.

use mdagent_fx::FxHashMap;
use std::collections::VecDeque;

use mdagent_simnet::{SimDuration, SimTime};

use crate::types::{ContextEvent, TemporalClass};

/// One temporal database: bounded, TTL-evicted event history per topic.
#[derive(Debug, Clone)]
pub struct ContextDb {
    ttl: Option<SimDuration>,
    capacity_per_topic: usize,
    entries: FxHashMap<String, VecDeque<ContextEvent>>,
}

impl ContextDb {
    /// Creates a database. `ttl: None` means entries never expire.
    pub fn new(ttl: Option<SimDuration>, capacity_per_topic: usize) -> Self {
        ContextDb {
            ttl,
            capacity_per_topic: capacity_per_topic.max(1),
            entries: FxHashMap::default(),
        }
    }

    /// Stores an event under its topic.
    pub fn store(&mut self, event: ContextEvent) {
        let queue = self.entries.entry(event.topic().to_owned()).or_default();
        if queue.len() == self.capacity_per_topic {
            queue.pop_front();
        }
        queue.push_back(event);
    }

    /// Drops entries older than the TTL relative to `now`. Returns the
    /// number evicted.
    pub fn evict_expired(&mut self, now: SimTime) -> usize {
        let Some(ttl) = self.ttl else {
            return 0;
        };
        let mut evicted = 0;
        for queue in self.entries.values_mut() {
            while queue
                .front()
                .is_some_and(|e| now.saturating_since(e.at) > ttl)
            {
                queue.pop_front();
                evicted += 1;
            }
        }
        evicted
    }

    /// Most recent event under a topic.
    pub fn latest(&self, topic: &str) -> Option<&ContextEvent> {
        self.entries.get(topic).and_then(|q| q.back())
    }

    /// Full (retained) history of a topic, oldest first.
    pub fn history(&self, topic: &str) -> impl Iterator<Item = &ContextEvent> {
        self.entries.get(topic).into_iter().flatten()
    }

    /// Total retained entries across topics.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.values().map(VecDeque::len).sum()
    }

    /// Whether the database holds nothing.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The classifier: routes events into per-temporal-class databases.
///
/// # Examples
///
/// ```
/// use mdagent_context::{Classifier, ContextEvent, ContextData, UserId, topics};
/// use mdagent_simnet::{SimTime, SpaceId};
///
/// let mut classifier = Classifier::with_defaults();
/// classifier.store(ContextEvent::new(
///     SimTime::ZERO,
///     ContextData::Location { user: UserId(1), space: SpaceId(2) },
/// ));
/// assert!(classifier.db(mdagent_context::TemporalClass::Dynamic)
///     .latest(topics::LOCATION)
///     .is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Classifier {
    static_db: ContextDb,
    slow_db: ContextDb,
    dynamic_db: ContextDb,
}

impl Classifier {
    /// Creates a classifier with explicit databases.
    pub fn new(static_db: ContextDb, slow_db: ContextDb, dynamic_db: ContextDb) -> Self {
        Classifier {
            static_db,
            slow_db,
            dynamic_db,
        }
    }

    /// Sensible defaults: static context never expires, slow context lives
    /// 5 minutes, dynamic context 30 seconds with short history.
    pub fn with_defaults() -> Self {
        Classifier::new(
            ContextDb::new(None, 64),
            ContextDb::new(Some(SimDuration::from_secs(300)), 32),
            ContextDb::new(Some(SimDuration::from_secs(30)), 16),
        )
    }

    /// Routes an event into the database matching its temporal class.
    pub fn store(&mut self, event: ContextEvent) {
        match event.data.temporal_class() {
            TemporalClass::Static => self.static_db.store(event),
            TemporalClass::Slow => self.slow_db.store(event),
            TemporalClass::Dynamic => self.dynamic_db.store(event),
        }
    }

    /// The database for a temporal class.
    pub fn db(&self, class: TemporalClass) -> &ContextDb {
        match class {
            TemporalClass::Static => &self.static_db,
            TemporalClass::Slow => &self.slow_db,
            TemporalClass::Dynamic => &self.dynamic_db,
        }
    }

    /// Evicts expired entries everywhere. Returns total evicted.
    pub fn evict_expired(&mut self, now: SimTime) -> usize {
        self.static_db.evict_expired(now)
            + self.slow_db.evict_expired(now)
            + self.dynamic_db.evict_expired(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{topics, ContextData, UserId};
    use mdagent_simnet::SpaceId;

    fn location(at_ms: u64, space: u32) -> ContextEvent {
        ContextEvent::new(
            SimTime::from_millis(at_ms),
            ContextData::Location {
                user: UserId(0),
                space: SpaceId(space),
            },
        )
    }

    fn preference(key: &str) -> ContextEvent {
        ContextEvent::new(
            SimTime::ZERO,
            ContextData::Preference {
                user: UserId(0),
                key: key.into(),
                value: "v".into(),
            },
        )
    }

    #[test]
    fn events_route_by_temporal_class() {
        let mut c = Classifier::with_defaults();
        c.store(location(0, 1));
        c.store(preference("handedness"));
        assert_eq!(c.db(TemporalClass::Dynamic).len(), 1);
        assert_eq!(c.db(TemporalClass::Static).len(), 1);
        assert_eq!(c.db(TemporalClass::Slow).len(), 0);
    }

    #[test]
    fn ttl_eviction_only_hits_expirable_dbs() {
        let mut c = Classifier::with_defaults();
        c.store(location(0, 1));
        c.store(preference("handedness"));
        let evicted = c.evict_expired(SimTime::from_secs(120));
        assert_eq!(evicted, 1, "dynamic location expired");
        assert_eq!(c.db(TemporalClass::Static).len(), 1, "preferences persist");
    }

    #[test]
    fn capacity_bound_keeps_latest() {
        let mut db = ContextDb::new(None, 3);
        for i in 0..5 {
            db.store(location(i, i as u32));
        }
        assert_eq!(db.len(), 3);
        let latest = db.latest(topics::LOCATION).unwrap();
        assert_eq!(latest.at, SimTime::from_millis(4));
        let history: Vec<_> = db.history(topics::LOCATION).map(|e| e.at).collect();
        assert_eq!(history, [2, 3, 4].map(SimTime::from_millis).to_vec());
    }

    #[test]
    fn latest_of_unknown_topic_is_none() {
        let db = ContextDb::new(None, 4);
        assert!(db.latest("nope").is_none());
        assert!(db.is_empty());
        assert_eq!(db.history("nope").count(), 0);
    }

    #[test]
    fn eviction_is_ttl_exact() {
        let mut db = ContextDb::new(Some(SimDuration::from_millis(100)), 10);
        db.store(location(0, 0));
        db.store(location(50, 1));
        assert_eq!(
            db.evict_expired(SimTime::from_millis(100)),
            0,
            "at ttl edge, kept"
        );
        assert_eq!(db.evict_expired(SimTime::from_millis(101)), 1);
        assert_eq!(db.len(), 1);
    }
}
