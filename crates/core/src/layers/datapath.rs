//! [`DataPathLayer`]: content-cache elision + snapshot deltas.
//!
//! Owns the migration data-path optimizations of PR 3 and all of their
//! state: components whose bytes the destination already holds travel as
//! digests only, and a snapshot whose base the destination acknowledged
//! travels as an encoding diff. The arrival side resolves elided digests
//! against the layer's content store and checks a delta against the
//! snapshot manager's stored encodings, falling back to a full-snapshot
//! resend when the delta's base is gone or the check fails. The data path
//! is on exactly when this layer is in the stack; the builder appends it
//! innermost on
//! [`MiddlewareBuilder::data_path`](crate::MiddlewareBuilder::data_path).

use mdagent_fx::FxHashMap;
use mdagent_registry::ApplicationRecord;
use mdagent_simnet::{HostId, SimTime, Simulator};
use mdagent_wire::Wire;

use crate::component::{Component, ComponentSet};
use crate::datapath::ComponentCache;
use crate::error::CoreError;
use crate::messages::Cargo;
use crate::middleware::Middleware;
use crate::snapshot::Snapshot;

use super::{Arrival, CargoDraft, InFlight, MigrationLayer};

/// Per-host budget of cached component bytes; least recently used
/// entries are evicted first.
const CACHE_CAPACITY_BYTES: u64 = 8 * 1024 * 1024;

/// The data-path concern as a drop-in layer, with its content-addressed
/// state: per-host LRU caches, the byte store elided digests resolve
/// against, and the snapshot sequences each host acknowledged.
#[derive(Debug, Default)]
pub struct DataPathLayer {
    /// Per-host caches of component encodings, keyed by content digest.
    caches: FxHashMap<HostId, ComponentCache>,
    /// Content-addressed store of component bytes known to the middleware;
    /// a destination resolves elided digests against it.
    store: FxHashMap<u64, Component>,
    /// Last snapshot sequence each host acknowledged per app — the base a
    /// delta may be computed against.
    snapshot_bases: FxHashMap<(u32, String), u64>,
}

impl MigrationLayer for DataPathLayer {
    fn name(&self) -> &'static str {
        "data-path"
    }

    fn before_register(&mut self, record: &mut ApplicationRecord, components: &ComponentSet) {
        // Advertise `(component, digest)` pairs so a wrap can elide a
        // component the registered host demonstrably holds.
        for component in components.iter() {
            record.set_digest(component.name().to_owned(), component.digest().as_u64());
        }
    }

    fn on_provision(&mut self, host: HostId, components: &ComponentSet) {
        for component in components.iter() {
            self.remember_content(host, component);
        }
    }

    fn before_wrap(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        draft: &mut CargoDraft,
    ) {
        let _ = sim;
        // Content-addressed elision: components whose bytes the
        // destination already holds travel as digests only.
        let components = std::mem::take(&mut draft.components);
        let mut kept = ComponentSet::new();
        for component in components.iter() {
            let digest = component.digest().as_u64();
            self.store
                .entry(digest)
                .or_insert_with(|| component.clone());
            if self.host_holds_content(world, draft.dest_host, digest) {
                draft.bytes_saved_cache += component.encoded_len() as u64;
                draft.elided.push((component.name().to_owned(), digest));
                world.env.metrics.incr_static("migration.cache_hits");
            } else {
                world.env.metrics.incr_static("migration.cache_misses");
                kept.insert(component.clone());
            }
        }
        draft.components = kept;
        if draft.bytes_saved_cache > 0 {
            world
                .env
                .metrics
                .incr_by_static("migration.bytes_saved_cache", draft.bytes_saved_cache);
        }

        // Delta snapshots: when the destination acknowledged an earlier
        // snapshot, ship only the encoding diff against it (if smaller).
        let key = (draft.dest_host.0, draft.snapshot.app_name.clone());
        if let Some(delta) = self.snapshot_bases.get(&key).and_then(|base| {
            let snapshot = &draft.snapshot;
            world
                .snapshots
                .delta(&snapshot.app_name, *base, snapshot.sequence)
        }) {
            let header = draft.snapshot.header();
            let delta_len = delta.wire_len() + header.wire_len();
            let full_len = draft.snapshot.wire_len();
            if delta_len < full_len {
                draft.bytes_saved_delta = full_len - delta_len;
                draft.snapshot_delta = Some(delta);
                draft.snapshot = header;
                world
                    .env
                    .metrics
                    .incr_by_static("migration.bytes_saved_delta", draft.bytes_saved_delta);
            }
        }
    }

    fn before_checkin(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        cargo: &Cargo,
        flight: Option<&InFlight>,
        arrival: &mut Arrival,
    ) {
        let _ = flight;
        let now = sim.now();
        let snapshot = match Middleware::resolve_snapshot(world, cargo) {
            Ok(snapshot) => snapshot,
            Err(_) => Middleware::resend_full_snapshot(world, now, cargo),
        };
        arrival.snapshot = Some(snapshot);
        arrival.components = self.fetch_elided(world, cargo);
    }

    fn after_checkin(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        cargo: &Cargo,
        flight: Option<&InFlight>,
        arrival: &Arrival,
    ) {
        let _ = (world, sim, flight);
        let Some(snapshot) = arrival.snapshot.as_ref() else {
            return;
        };
        self.note_arrival(cargo.plan.dest_host(), cargo, snapshot);
    }
}

impl DataPathLayer {
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
    fn host_holds_content(&self, world: &Middleware, host: HostId, digest: u64) -> bool {
        if self.caches.get(&host).is_some_and(|c| c.contains(digest)) {
            return true;
        }
        let Ok(space) = world.space_of(host) else {
            return false;
        };
        world.federation.center(space).is_some_and(|center| {
            center
                .applications()
                .any(|r| r.host == host && r.has_digest(digest))
        })
    }

    /// Materializes cache-elided components from the content store.
    fn fetch_elided(&self, world: &mut Middleware, cargo: &Cargo) -> Vec<Component> {
        let mut out = Vec::with_capacity(cargo.elided.len());
        for (_, digest) in &cargo.elided {
            match self.store.get(digest) {
                Some(component) => out.push(component.clone()),
                None => world.env.metrics.incr_static("migration.elided_miss"),
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
        self.snapshot_bases
            .insert((dest.0, snapshot.app_name.clone()), snapshot.sequence);
    }
}

impl Middleware {
    /// The snapshot a cargo carries: the full one, or the one its delta
    /// stands for, checked against the base the destination holds
    /// ([`SnapshotManager::resolve`](crate::SnapshotManager::resolve)).
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotDeltaMismatch`] when the base is gone, its
    /// digest diverged or the reconstruction fails its check — the caller
    /// must resend the full snapshot, never silently deploy the header
    /// stub.
    fn resolve_snapshot(world: &mut Middleware, cargo: &Cargo) -> Result<Snapshot, CoreError> {
        let Some(delta) = &cargo.snapshot_delta else {
            return Ok(cargo.snapshot.clone());
        };
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
                let bytes = snapshot.wire_len();
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
