//! The data path: content-cache elision and snapshot deltas.
//!
//! The migration data-path optimizations and all of their state:
//! components whose bytes the destination already holds travel as digests
//! only, and a snapshot whose base the destination acknowledged travels
//! as an encoding diff. The arrival side resolves elided digests against
//! the content store and checks a delta against the snapshot manager's
//! stored encodings, falling back to a full-snapshot resend when the
//! delta's base is gone or the check fails. The state lives in
//! `Middleware::data_path`, present exactly when
//! [`MiddlewareBuilder::data_path`](crate::MiddlewareBuilder::data_path)
//! turned it on; every function here is a no-op without it.

use mdagent_fx::FxHashMap;
use mdagent_registry::{ApplicationRecord, RegistryFederation};
use mdagent_simnet::{HostId, MetricsRegistry, SimTime, Topology};
use mdagent_wire::Wire;

use crate::component::{Component, ComponentSet};
use crate::datapath::ComponentCache;
use crate::error::CoreError;
use crate::messages::Cargo;
use crate::middleware::Middleware;
use crate::snapshot::{Snapshot, SnapshotDelta};

/// Per-host budget of cached component bytes; least recently used
/// entries are evicted first.
const CACHE_CAPACITY_BYTES: u64 = 8 * 1024 * 1024;

/// The data path's content-addressed state: per-host LRU caches, the
/// byte store elided digests resolve against, and the snapshot sequences
/// each host acknowledged.
#[derive(Debug, Default)]
pub(crate) struct DataPath {
    /// Per-host caches of component encodings, keyed by content digest.
    caches: FxHashMap<HostId, ComponentCache>,
    /// Content-addressed store of component bytes known to the middleware;
    /// a destination resolves elided digests against it.
    store: FxHashMap<u64, Component>,
    /// Last snapshot sequence each host (raw id) acknowledged, per app
    /// name — the base a delta may be computed against. Keyed by name
    /// first, so a lookup borrows the cargo's name.
    snapshot_bases: FxHashMap<String, FxHashMap<u32, u64>>,
}

/// Bytes a wrap saved by eliding cached components and by shipping a
/// snapshot delta.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Savings {
    /// Bytes the elision saved.
    pub(crate) cache: u64,
    /// Bytes the delta saved.
    pub(crate) delta: u64,
}

/// Registration: advertises `(component, digest)` pairs on a registry
/// record, so a wrap can elide a component the registered host
/// demonstrably holds.
pub(crate) fn advertise(record: &mut ApplicationRecord, components: &ComponentSet) {
    for component in components.iter() {
        record.set_digest(component.name().to_owned(), component.digest().as_u64());
    }
}

/// Wrap: components whose bytes the destination already holds travel as
/// digests only, and the snapshot travels as an encoding diff when the
/// destination acknowledged an earlier one and the diff is smaller.
pub(crate) fn wrap(world: &mut Middleware, cargo: &mut Cargo) -> Savings {
    let Middleware {
        data_path: Some(data_path),
        snapshots,
        federation,
        env,
        ..
    } = world
    else {
        return Savings::default();
    };
    let dest = cargo.plan.dest_host();
    let mut saved = Savings::default();
    let components = std::mem::take(&mut cargo.components);
    for component in components.iter() {
        let digest = component.digest().as_u64();
        data_path
            .store
            .entry(digest)
            .or_insert_with(|| component.clone());
        if data_path.host_holds_content(&env.topology, federation, dest, digest) {
            saved.cache += component.encoded_len() as u64;
            cargo.elided.push((component.name().to_owned(), digest));
            env.metrics.incr_static("migration.cache_hits");
        } else {
            env.metrics.incr_static("migration.cache_misses");
            cargo.components.insert(component.clone());
        }
    }
    if saved.cache > 0 {
        env.metrics
            .incr_by_static("migration.bytes_saved_cache", saved.cache);
    }

    let snapshot = &cargo.snapshot;
    if let Some((delta, full_len)) = data_path
        .snapshot_bases
        .get(&snapshot.app_name)
        .and_then(|bases| bases.get(&dest.0))
        .and_then(|base| snapshots.delta(&snapshot.app_name, *base, snapshot.sequence))
    {
        let header = snapshot.header();
        let delta_len = (delta.encoded_len() + header.encoded_len()) as u64;
        let full_len = full_len as u64;
        if delta_len < full_len {
            saved.delta = full_len - delta_len;
            cargo.snapshot_delta = Some(delta);
            cargo.snapshot = header;
            env.metrics
                .incr_by_static("migration.bytes_saved_delta", saved.delta);
        }
    }
    saved
}

/// Check-in: the snapshot a delta-carrying cargo stands for (the delta
/// checked against the retained base, or the full snapshot resent) and the
/// elided components materialized from the store. A cargo without a delta
/// resolves no snapshot: it carries its own. With the data path off nothing
/// is resolved and the cargo deploys as shipped.
pub(crate) fn checkin(
    world: &mut Middleware,
    now: SimTime,
    cargo: &Cargo,
) -> (Option<Snapshot>, Vec<Component>) {
    if world.data_path.is_none() {
        return (None, Vec::new());
    }
    let snapshot = cargo.snapshot_delta.as_ref().map(|delta| {
        match Middleware::resolve_snapshot(world, delta) {
            Ok(snapshot) => snapshot,
            Err(_) => Middleware::resend_full_snapshot(world, now, cargo),
        }
    });
    let components = world
        .data_path
        .as_deref()
        .map(|data_path| data_path.fetch_elided(&mut world.env.metrics, cargo))
        .unwrap_or_default();
    (snapshot, components)
}

/// After install: the destination holds the cargo's components and the
/// snapshot `snapshot` (its header suffices) names.
pub(crate) fn landed(world: &mut Middleware, cargo: &Cargo, snapshot: &Snapshot) {
    if let Some(data_path) = world.data_path.as_deref_mut() {
        data_path.note_arrival(cargo.plan.dest_host(), cargo, snapshot);
    }
}

impl DataPath {
    /// Provisioning: `host` holds `components` before any migration
    /// brings them.
    pub(crate) fn seed_host(&mut self, host: HostId, components: &ComponentSet) {
        for component in components.iter() {
            self.remember_content(host, component);
        }
    }

    /// Records that `host` holds the bytes of `component` (content store +
    /// per-host LRU cache).
    fn remember_content(&mut self, host: HostId, component: &Component) {
        let digest = component.digest().as_u64();
        self.store
            .entry(digest)
            .or_insert_with(|| component.clone());
        self.caches.entry(host).or_default().insert(
            digest,
            component.encoded_len() as u64,
            CACHE_CAPACITY_BYTES,
        );
    }

    /// Whether `host` already holds content with this digest — via its LRU
    /// cache or a registry record advertising the digest for its space.
    fn host_holds_content(
        &self,
        topology: &Topology,
        federation: &RegistryFederation,
        host: HostId,
        digest: u64,
    ) -> bool {
        if self.caches.get(&host).is_some_and(|c| c.contains(digest)) {
            return true;
        }
        let Ok(space) = topology.host(host).map(|h| h.space()) else {
            return false;
        };
        federation.center(space).is_some_and(|center| {
            center
                .applications()
                .any(|r| r.host == host && r.has_digest(digest))
        })
    }

    /// Materializes cache-elided components from the content store.
    fn fetch_elided(&self, metrics: &mut MetricsRegistry, cargo: &Cargo) -> Vec<Component> {
        let mut out = Vec::with_capacity(cargo.elided.len());
        for (_, digest) in &cargo.elided {
            match self.store.get(digest) {
                Some(component) => out.push(component.clone()),
                None => metrics.incr_static("migration.elided_miss"),
            }
        }
        out
    }

    /// Destination-side bookkeeping after a cargo lands: remember shipped
    /// content in the host's cache and record which snapshot sequence the
    /// host now holds (the base a future delta is computed against).
    fn note_arrival(&mut self, dest: HostId, cargo: &Cargo, snapshot: &Snapshot) {
        for component in cargo.components.iter() {
            self.remember_content(dest, component);
        }
        for (_, digest) in &cargo.elided {
            if let Some(cache) = self.caches.get_mut(&dest) {
                cache.touch(*digest);
            }
        }
        // Only an app's first arrival allocates its key.
        let bases = match self.snapshot_bases.get_mut(&snapshot.app_name) {
            Some(bases) => bases,
            None => self
                .snapshot_bases
                .entry(snapshot.app_name.clone())
                .or_default(),
        };
        bases.insert(dest.0, snapshot.sequence);
    }
}

impl Middleware {
    /// The snapshot a delta stands for, checked against the base the
    /// destination holds
    /// ([`SnapshotManager::resolve`](crate::SnapshotManager::resolve)).
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotDeltaMismatch`] when the base is gone, its
    /// digest diverged or the reconstruction fails its check — the caller
    /// must resend the full snapshot, never silently deploy the header
    /// stub.
    fn resolve_snapshot(
        world: &mut Middleware,
        delta: &SnapshotDelta,
    ) -> Result<Snapshot, CoreError> {
        world.snapshots.resolve(delta).ok_or_else(|| {
            world.env.metrics.incr_static("migration.delta_base_miss");
            CoreError::SnapshotDeltaMismatch(delta.app_name.clone())
        })
    }

    /// Recovery from a rejected delta: fetch the full snapshot the delta
    /// stood for from the (world-global) snapshot manager — modeling the
    /// source resending it — and bill the resend in the metrics. The
    /// header stub is the last resort when even the manager evicted it.
    fn resend_full_snapshot(world: &mut Middleware, now: SimTime, cargo: &Cargo) -> Snapshot {
        let app_name = &cargo.snapshot.app_name;
        let full = cargo
            .snapshot_delta
            .as_ref()
            .and_then(|delta| world.snapshots.by_sequence(app_name, delta.sequence))
            .or_else(|| world.snapshots.latest(app_name))
            .cloned();
        match full {
            Some(snapshot) => {
                let bytes = snapshot.encoded_len() as u64;
                world.env.metrics.incr_static("migration.delta_resends");
                world
                    .env
                    .metrics
                    .incr_by_static("migration.delta_resend_bytes", bytes);
                world.env.trace.record_event(
                    now,
                    mdagent_simnet::TraceCategory::Agent,
                    mdagent_simnet::TraceEvent::SnapshotResend {
                        app_name: app_name.clone(),
                        bytes,
                    },
                );
                snapshot
            }
            None => {
                world
                    .env
                    .metrics
                    .incr_static("migration.delta_unrecoverable");
                cargo.snapshot.clone()
            }
        }
    }
}
