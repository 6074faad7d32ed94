//! [`AdmissionControlLayer`]: a per-space in-flight migration cap.
//!
//! The worked example of a policy layer (DESIGN.md §15): it implements a
//! single hook — [`MigrationLayer::wrap_transfer`] — and needs no state
//! of its own, reading the world's in-flight table instead. When the
//! destination space already has `cap` other migrations inbound, the
//! departure is refused; the driver rolls the application back to
//! Running at its source and the layers that had already entered their
//! `wrap_transfer` unwind through `on_abort` exactly once each.

use mdagent_agent::AgentId;
use mdagent_simnet::Simulator;

use crate::messages::Cargo;
use crate::middleware::Middleware;

use super::{MigrationLayer, TransferFlow};

/// Caps concurrent inbound migrations per destination space.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionControlLayer {
    cap: usize,
}

impl AdmissionControlLayer {
    /// Admits at most `cap` concurrent inbound migrations per space.
    pub fn new(cap: usize) -> AdmissionControlLayer {
        AdmissionControlLayer { cap }
    }
}

impl MigrationLayer for AdmissionControlLayer {
    fn name(&self) -> &'static str {
        "admission-control"
    }

    fn wrap_transfer(
        &mut self,
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        ma: &AgentId,
        cargo: &Cargo,
    ) -> TransferFlow {
        let _ = sim;
        let Ok(dest_space) = world.space_of(cargo.plan.dest_host()) else {
            return TransferFlow::Proceed;
        };
        let inbound = world
            .in_flight
            .iter()
            .filter(|(key, flight)| {
                *key != ma && world.space_of(flight.dest_host).ok() == Some(dest_space)
            })
            .count();
        if inbound >= self.cap {
            world.env.metrics.incr_static("admission.rejected");
            return TransferFlow::Reject("admission cap");
        }
        TransferFlow::Proceed
    }
}
