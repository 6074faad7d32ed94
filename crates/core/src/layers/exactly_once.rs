//! [`ExactlyOnceLayer`]: sequence-guarded duplicate/orphan check-in.
//!
//! Owns the idempotency guard of PR 4: every follow-me deployment is
//! recorded in the layer under the capture sequence of the cargo's
//! snapshot, a retried wrap whose predecessor already landed is
//! acknowledged (never deployed a second time), and an arrival whose
//! flight bookkeeping is gone is swallowed as an orphan. Clone arrivals
//! install replicas unconditionally, so this layer passes them through.
//!
//! The snapshot manager draws capture sequences from one world-wide
//! counter, one per wrap, and a retry or a bounce re-sends the very cargo
//! it wrapped. Two arrivals therefore carry equal sequences exactly when
//! their cargos are byte-equal, so the sequence is as good an identity as
//! a content digest of the whole cargo, at no hashing cost.

use mdagent_agent::AgentId;
use mdagent_fx::FxHashMap;
use mdagent_simnet::Simulator;

use crate::messages::Cargo;
use crate::middleware::Middleware;
use crate::mobility::MobilityMode;

use super::{Arrival, CheckinFlow, InFlight, MigrationLayer};

/// The exactly-once check-in concern as a drop-in layer.
#[derive(Debug, Default)]
pub struct ExactlyOnceLayer {
    /// Capture sequence of the cargo last deployed per app (raw id) — the
    /// idempotency guard that turns a duplicate check-in into an
    /// acknowledgement.
    deployed: FxHashMap<u32, u64>,
}

impl MigrationLayer for ExactlyOnceLayer {
    fn name(&self) -> &'static str {
        "exactly-once"
    }

    fn wrap_checkin(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        cargo: &Cargo,
        arrival: &mut Arrival,
    ) -> CheckinFlow {
        if cargo.plan.mode != MobilityMode::FollowMe {
            return CheckinFlow::Proceed;
        }
        let app_id = cargo.plan.app();
        let dest = cargo.plan.dest_host();
        let now = sim.now();
        // Idempotent check-in: a retried wrap whose predecessor already
        // landed is acknowledged, never deployed a second time: the app
        // already sits at the destination, deployed from this very wrap.
        let already_here = world.app(app_id).map(|a| a.host) == Ok(dest)
            && self.deployed.get(&app_id.0) == Some(&arrival.capture_sequence);
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
            return CheckinFlow::Drop;
        }
        if !world.in_flight.contains_key(ma) {
            world.env.metrics.incr_static("migration.orphan_arrivals");
            Middleware::ctx_span(world, cargo.trace_ctx, "migration.orphan_arrival", now, now);
            return CheckinFlow::Drop;
        }
        CheckinFlow::Proceed
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
        if cargo.plan.mode != MobilityMode::FollowMe {
            return;
        }
        self.deployed
            .insert(cargo.plan.app().0, arrival.capture_sequence);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use mdagent_context::UserId;
    use mdagent_simnet::{CpuFactor, HostId};

    use super::*;
    use crate::app::{AppId, AppState};
    use crate::component::{Component, ComponentKind, ComponentSet};
    use crate::datapath::DataPathOptions;
    use crate::mobility::BindingPolicy;
    use crate::profile::{DeviceProfile, UserProfile};

    /// Every cargo as it was handed to its mobile agent, in order.
    type Tapped = Rc<RefCell<Vec<(AgentId, Cargo)>>>;

    /// An innermost layer that keeps a copy of each sealed, stamped cargo,
    /// so a test can deliver one again.
    #[derive(Debug)]
    struct CargoTap(Tapped);

    impl MigrationLayer for CargoTap {
        fn name(&self) -> &'static str {
            "cargo-tap"
        }

        fn before_transfer(
            &mut self,
            world: &mut Middleware,
            sim: &mut Simulator<Middleware>,
            ma: &AgentId,
            cargo: &mut Cargo,
        ) {
            let _ = (world, sim);
            self.0.borrow_mut().push((ma.clone(), cargo.clone()));
        }
    }

    struct Shuttle {
        world: Middleware,
        sim: Simulator<Middleware>,
        app: AppId,
        a: HostId,
        b: HostId,
        tap: Tapped,
    }

    /// Two spaces with one host each, the data path fully on (so repeat
    /// legs ship header-only snapshots and elided components), and a
    /// player deployed on `a`.
    fn shuttle() -> Shuttle {
        let tap = Tapped::default();
        let mut builder = Middleware::builder();
        let office = builder.space("office");
        let lab = builder.space("lab");
        let a = builder.host("a", office, CpuFactor::REFERENCE, DeviceProfile::pc);
        let b = builder.host("b", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
        builder.gateway(a, b).unwrap();
        builder
            .seed(3)
            .data_path(DataPathOptions::all())
            .layer(Box::new(CargoTap(Rc::clone(&tap))));
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
            tap,
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
            self.sim.run(&mut self.world);
        }

        /// Delivers a tapped cargo to its destination once more.
        fn redeliver(&mut self, index: usize) {
            let (ma, cargo) = self.tap.borrow()[index].clone();
            Middleware::arrive(&mut self.world, &mut self.sim, &ma, cargo);
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
        assert_eq!(s.tap.borrow().len(), 3);

        // The first leg's cargo lands where the app sits again, but the
        // app was last deployed from a later wrap: an orphan, not a
        // duplicate, and nothing deploys.
        s.redeliver(0);
        s.assert_settled_at(b, 3);
        assert_eq!(s.counter("migration.orphan_arrivals"), 1);
        assert_eq!(s.counter("migration.duplicate_checkins"), 0);
    }
}
