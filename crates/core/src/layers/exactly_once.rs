//! Exactly-once: sequence-guarded duplicate and orphan check-ins.
//!
//! The idempotency guard: every follow-me deployment is recorded in
//! `Middleware::deployed` under the capture sequence of the cargo's
//! snapshot, a retried wrap whose predecessor already landed is
//! acknowledged (never deployed a second time), and an arrival whose
//! flight bookkeeping is gone is dropped as an orphan. Clone arrivals
//! install replicas unconditionally, so the guard passes them through.
//!
//! The snapshot manager draws capture sequences from one world-wide
//! counter, one per wrap, and a retry or a bounce re-sends the very cargo
//! it wrapped. Two arrivals therefore carry equal sequences exactly when
//! their cargos are byte-equal, so the sequence is as good an identity as
//! a content digest of the whole cargo, at no hashing cost.

use mdagent_agent::AgentId;
use mdagent_simnet::SimTime;

use crate::messages::Cargo;
use crate::middleware::Middleware;
use crate::mobility::MobilityMode;

/// Check-in: whether `cargo` may deploy. A duplicate of the cargo last
/// deployed at its destination is acknowledged and closes its flight; an
/// arrival without a flight record is counted as an orphan. Both are
/// dropped.
pub(crate) fn admit(world: &mut Middleware, now: SimTime, ma: &AgentId, cargo: &Cargo) -> bool {
    if cargo.plan.mode != MobilityMode::FollowMe {
        return true;
    }
    let app_id = cargo.plan.app();
    let already_here = world.app(app_id).map(|a| a.host) == Ok(cargo.plan.dest_host())
        && world.deployed.get(&app_id.0) == Some(&cargo.snapshot.sequence);
    if already_here {
        world
            .env
            .metrics
            .incr_static("migration.duplicate_checkins");
        Middleware::ctx_span(
            world,
            cargo.trace_ctx,
            "migration.duplicate_checkin",
            now,
            now,
        );
        if let Some(flight) = world.in_flight.remove(ma) {
            let tel = &mut world.env.telemetry;
            tel.end(flight.migrate_span, now);
            tel.attr(flight.span, "status", "duplicate");
            tel.end(flight.span, now);
        }
        return false;
    }
    if !world.in_flight.contains_key(ma) {
        world.env.metrics.incr_static("migration.orphan_arrivals");
        Middleware::ctx_span(world, cargo.trace_ctx, "migration.orphan_arrival", now, now);
        return false;
    }
    true
}

/// After install: records the capture sequence of the follow-me cargo
/// just deployed.
pub(crate) fn record(world: &mut Middleware, cargo: &Cargo) {
    if cargo.plan.mode == MobilityMode::FollowMe {
        world
            .deployed
            .insert(cargo.plan.app().0, cargo.snapshot.sequence);
    }
}

#[cfg(test)]
mod tests {
    use mdagent_context::UserId;
    use mdagent_simnet::{CpuFactor, HostId, Simulator};

    use super::*;
    use crate::app::{AppId, AppState};
    use crate::component::{Component, ComponentKind, ComponentSet};
    use crate::datapath::DataPathOptions;
    use crate::mobility::{BindingPolicy, DataStrategy, MigrationPlan};
    use crate::profile::{DeviceProfile, UserProfile};

    struct Shuttle {
        world: Middleware,
        sim: Simulator<Middleware>,
        app: AppId,
        a: HostId,
        b: HostId,
        /// Each leg's destination and the capture sequence of its wrap.
        legs: Vec<(HostId, u64)>,
    }

    /// Two spaces with one host each, the data path fully on (so repeat
    /// legs ship header-only snapshots and elided components), and a
    /// player deployed on `a`.
    fn shuttle() -> Shuttle {
        let mut builder = Middleware::builder();
        let office = builder.space("office");
        let lab = builder.space("lab");
        let a = builder.host("a", office, CpuFactor::REFERENCE, DeviceProfile::pc);
        let b = builder.host("b", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
        builder.gateway(a, b).unwrap();
        builder.seed(3).data_path(DataPathOptions::all());
        let (mut world, mut sim) = builder.build();
        let components: ComponentSet = [
            Component::synthetic("codec", ComponentKind::Logic, 18_000),
            Component::synthetic("ui", ComponentKind::Presentation, 6_000),
        ]
        .into_iter()
        .collect();
        let app = Middleware::deploy_app(
            &mut world,
            &mut sim,
            "player",
            a,
            components,
            UserProfile::new(UserId(0)),
        )
        .unwrap();
        sim.run(&mut world);
        Shuttle {
            world,
            sim,
            app,
            a,
            b,
            legs: Vec::new(),
        }
    }

    impl Shuttle {
        /// Migrates the app to `dest` and runs the simulation dry.
        fn leg(&mut self, dest: HostId) {
            Middleware::migrate_now(
                &mut self.world,
                &mut self.sim,
                self.app,
                dest,
                MobilityMode::FollowMe,
                BindingPolicy::Adaptive,
            )
            .unwrap();
            let wrapped = self.world.snapshots.latest("player").unwrap().sequence;
            self.legs.push((dest, wrapped));
            self.sim.run(&mut self.world);
        }

        /// Delivers leg `index`'s cargo to its destination once more. The
        /// guard knows a cargo by its plan and capture sequence, so a
        /// cargo rebuilt from the two is that leg's cargo to it.
        fn redeliver(&mut self, index: usize) {
            let (dest, sequence) = self.legs[index];
            let ma = self.world.app(self.app).unwrap().mobile_agent.clone();
            let cargo = Cargo {
                plan: MigrationPlan {
                    app_raw: self.app.0,
                    mode: MobilityMode::FollowMe,
                    policy: BindingPolicy::Adaptive,
                    dest_host_raw: dest.0,
                    ship_components: Vec::new(),
                    data_strategy: DataStrategy::RemoteStream,
                    inter_space: true,
                },
                snapshot: self
                    .world
                    .snapshots
                    .by_sequence("player", sequence)
                    .unwrap()
                    .header(),
                components: ComponentSet::new(),
                remote_bytes: 0,
                elided: Vec::new(),
                snapshot_delta: None,
                trace_ctx: None,
            };
            Middleware::arrive(&mut self.world, &mut self.sim, &ma.unwrap(), cargo);
            self.sim.run(&mut self.world);
        }

        fn counter(&self, name: &str) -> u64 {
            self.world.metrics().counter(name)
        }

        fn assert_settled_at(&self, host: HostId, legs: usize) {
            let app = self.world.app(self.app).unwrap();
            assert_eq!(app.host, host);
            assert_eq!(app.state, AppState::Running);
            assert_eq!(self.world.migration_log().len(), legs);
            assert_eq!(self.world.in_flight_count(), 0);
            let open: Vec<&str> = self
                .world
                .telemetry()
                .spans()
                .iter()
                .filter(|s| s.end.is_none())
                .map(|s| &s.name[..])
                .collect();
            assert!(open.is_empty(), "open spans: {open:?}");
        }
    }

    #[test]
    fn a_second_checkin_of_one_cargo_is_absorbed() {
        let mut s = shuttle();
        s.leg(s.b);
        s.assert_settled_at(s.b, 1);
        assert_eq!(s.counter("migration.duplicate_checkins"), 0);

        s.redeliver(0);
        s.assert_settled_at(s.b, 1);
        assert_eq!(s.counter("migration.duplicate_checkins"), 1);
        assert_eq!(s.counter("migration.orphan_arrivals"), 0);
    }

    #[test]
    fn every_leg_of_an_unchanged_shuttle_deploys() {
        let mut s = shuttle();
        let (a, b) = (s.a, s.b);
        for (legs, dest) in [b, a, b].into_iter().enumerate() {
            s.leg(dest);
            s.assert_settled_at(dest, legs + 1);
        }
        assert_eq!(s.counter("migration.duplicate_checkins"), 0);
        // Three wraps of an unchanged state, each its own capture.
        let wraps = s
            .world
            .metrics()
            .durations("migration.suspend")
            .map_or(0, |d| d.count());
        assert_eq!(wraps, 3);
        assert!(s.legs.windows(2).all(|pair| pair[0].1 < pair[1].1));

        // The first leg's cargo lands where the app sits again, but the
        // app was last deployed from a later wrap: an orphan, not a
        // duplicate, and nothing deploys.
        s.redeliver(0);
        s.assert_settled_at(b, 3);
        assert_eq!(s.counter("migration.orphan_arrivals"), 1);
        assert_eq!(s.counter("migration.duplicate_checkins"), 0);
    }
}
