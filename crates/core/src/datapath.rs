//! The migration data-path switch and the per-host component cache.
//!
//! The optimized data path — content-addressed component caching and
//! delta-encoded snapshots — is one of the migration concerns under
//! `layers/`; its caches and content store exist only while it is on.
//! [`DataPathOptions`] is the builder's on/off for it: off by default so
//! the paper-calibrated figures keep their exact byte counts; the
//! migration bench turns it on to quantify the savings.

/// Whether the builder turns on the optimized migration data path
/// (component cache + delta snapshots). Off by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataPathOptions {
    pub(crate) enabled: bool,
}

impl DataPathOptions {
    /// The data path on: component cache and delta snapshots.
    pub fn all() -> Self {
        DataPathOptions { enabled: true }
    }
}

/// A per-host LRU cache of component encodings keyed by content digest.
///
/// Only digests and sizes are tracked — the actual bytes live once in the
/// data path's content store; the cache answers "does this host
/// already hold these bytes" and enforces the per-host budget.
#[derive(Debug, Clone, Default)]
pub struct ComponentCache {
    /// Least recently used at the front, most recently used at the back.
    entries: Vec<(u64, u64)>,
    /// Running sum of the cached entry sizes — kept in lock-step with
    /// `entries` so the admission check is O(1) instead of a rescan.
    used: u64,
}

impl ComponentCache {
    /// Whether the cache holds content with this digest.
    pub fn contains(&self, digest: u64) -> bool {
        self.entries.iter().any(|(d, _)| *d == digest)
    }

    /// Marks a digest as most recently used (a cache hit). Returns false
    /// if the digest was not present.
    pub fn touch(&mut self, digest: u64) -> bool {
        match self.entries.iter().position(|(d, _)| *d == digest) {
            Some(i) => {
                let entry = self.entries.remove(i);
                self.entries.push(entry);
                true
            }
            None => false,
        }
    }

    /// Removes the entry under `digest`, returning its recorded size.
    fn take(&mut self, digest: u64) -> Option<u64> {
        let i = self.entries.iter().position(|(d, _)| *d == digest)?;
        let (_, bytes) = self.entries.remove(i);
        self.used -= bytes;
        Some(bytes)
    }

    /// Inserts content of `bytes` size under `digest`, evicting least
    /// recently used entries to stay within `capacity_bytes`. Entries
    /// larger than the whole budget are not cached.
    ///
    /// Re-inserting a digest already present updates its recency (and
    /// recorded size) without counting its bytes twice against the
    /// budget: the old entry is removed before admission, so a full cache
    /// never evicts *other* entries just because one of its own residents
    /// was inserted again.
    pub fn insert(&mut self, digest: u64, bytes: u64, capacity_bytes: u64) {
        self.take(digest);
        if bytes > capacity_bytes {
            return;
        }
        while !self.entries.is_empty() && self.used + bytes > capacity_bytes {
            let (_, evicted) = self.entries.remove(0);
            self.used -= evicted;
        }
        self.entries.push((digest, bytes));
        self.used += bytes;
    }

    /// Number of cached entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total cached bytes.
    #[cfg(test)]
    pub fn bytes_used(&self) -> u64 {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off() {
        assert!(!DataPathOptions::default().enabled);
        assert!(DataPathOptions::all().enabled);
    }

    #[test]
    fn insert_contains_touch() {
        let mut c = ComponentCache::default();
        assert!(c.is_empty());
        c.insert(1, 100, 1000);
        c.insert(2, 200, 1000);
        assert!(c.contains(1) && c.contains(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes_used(), 300);
        assert!(c.touch(1));
        assert!(!c.touch(42));
        // Re-insert of a present digest is a touch, not a duplicate.
        c.insert(2, 200, 1000);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c = ComponentCache::default();
        c.insert(1, 400, 1000);
        c.insert(2, 400, 1000);
        c.touch(1); // 2 is now the LRU entry.
        c.insert(3, 400, 1000);
        assert!(!c.contains(2), "LRU entry must be evicted");
        assert!(c.contains(1) && c.contains(3));
        assert!(c.bytes_used() <= 1000);
    }

    #[test]
    fn reinsert_never_double_counts_or_evicts() {
        // A full cache re-inserting one of its own residents must not
        // count that resident's bytes twice against the budget — which
        // would spuriously evict the other entries.
        let mut c = ComponentCache::default();
        c.insert(1, 600, 1000);
        c.insert(2, 400, 1000); // exactly at capacity
        for _ in 0..10 {
            c.insert(1, 600, 1000);
            c.insert(2, 400, 1000);
            assert_eq!(c.len(), 2, "re-insert must never evict a co-resident");
            assert_eq!(c.bytes_used(), 1000, "bytes counted exactly once");
        }
        // Recency is still updated: after re-inserting 1 last, 2 is LRU.
        c.insert(1, 600, 1000);
        c.insert(3, 400, 1000);
        assert!(!c.contains(2), "LRU entry evicted");
        assert!(c.contains(1) && c.contains(3));
        assert_eq!(c.bytes_used(), 1000);
    }

    #[test]
    fn reinsert_revalidates_against_capacity() {
        // Re-insert runs the same admission path as a fresh insert: an
        // entry re-offered under a now-smaller budget is dropped rather
        // than silently retained past the cap.
        let mut c = ComponentCache::default();
        c.insert(1, 400, 1000);
        c.insert(1, 400, 300);
        assert!(!c.contains(1));
        assert_eq!(c.bytes_used(), 0);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut c = ComponentCache::default();
        c.insert(1, 100, 1000);
        c.insert(9, 5000, 1000);
        assert!(!c.contains(9));
        assert!(c.contains(1), "oversized insert must not evict the cache");
    }

    #[test]
    fn eviction_is_deterministic() {
        // Same operation sequence, same final state — the cache is a Vec,
        // not a hash map, so iteration and eviction order are fixed.
        let run = || {
            let mut c = ComponentCache::default();
            for d in 0..20u64 {
                c.insert(d, 128, 512);
                if d % 3 == 0 {
                    c.touch(d / 2);
                }
            }
            let mut out = Vec::new();
            for d in 0..20u64 {
                if c.contains(d) {
                    out.push(d);
                }
            }
            (out, c.bytes_used())
        };
        assert_eq!(run(), run());
    }
}
