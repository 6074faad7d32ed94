//! Opt-in network fault injection for the simulated testbed.
//!
//! The paper's inter-space mobility crosses WAN gateways, where transfers
//! can be lost or a gateway can drop off the network entirely. This module
//! models those failures deterministically: a [`FaultInjector`] owns its own
//! forked random stream (independent of the world RNG, so enabling faults
//! never perturbs fault-free draws) and decides, per transfer attempt,
//! whether the route is blocked or the payload is lost in flight.
//!
//! All knobs default **off** — a disabled injector draws nothing from its
//! RNG and schedules nothing, so fault-free runs are bit-identical to
//! builds without this module.
//!
//! # Examples
//!
//! ```
//! use mdagent_simnet::{
//!     CpuFactor, FaultInjector, FaultOptions, SimDuration, Topology, TransferFault,
//! };
//!
//! let mut topo = Topology::new();
//! let office = topo.add_space("office");
//! let a = topo.add_host("a", office, CpuFactor::REFERENCE);
//! let b = topo.add_host("b", office, CpuFactor::REFERENCE);
//! topo.add_lan_link(a, b, SimDuration::from_millis(1), 10_000_000, 0.8)?;
//!
//! let mut faults = FaultInjector::new(FaultOptions::with_drop_probability(1.0), 7);
//! assert!(matches!(
//!     faults.assess(&topo, a, b),
//!     Some(TransferFault::Dropped(_))
//! ));
//! # Ok::<(), mdagent_simnet::TopologyError>(())
//! ```

use crate::rng::SimRng;
use crate::topology::{HostId, LinkId, LinkKind, Topology};

/// Opt-in fault-model switches. Defaults are all **off**, which keeps every
/// fault-free scenario bit-identical (mirroring `DataPathOptions`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultOptions {
    /// Per-link probability that a transfer crossing the link is lost in
    /// flight. Applied independently to every link on the route.
    pub drop_probability: f64,
    /// When set, every gateway link is hard-down: inter-space transfers and
    /// remote registry lookups fail until the outage is lifted.
    pub gateway_outage: bool,
}

impl Default for FaultOptions {
    fn default() -> Self {
        FaultOptions {
            drop_probability: 0.0,
            gateway_outage: false,
        }
    }
}

impl FaultOptions {
    /// Options with only a per-link drop probability set.
    pub fn with_drop_probability(p: f64) -> Self {
        FaultOptions {
            drop_probability: p,
            ..FaultOptions::default()
        }
    }

    /// True when any knob deviates from the fault-free default.
    pub fn enabled(&self) -> bool {
        self.drop_probability > 0.0 || self.gateway_outage
    }
}

/// The injector's verdict on one transfer attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFault {
    /// A link on the route is down right now; the transfer cannot start.
    LinkDown(LinkId),
    /// The transfer starts but is lost crossing this link.
    Dropped(LinkId),
}

/// Deterministic fault decisions for transfers crossing the topology.
///
/// Holds its own [`SimRng`] stream so fault draws never interleave with
/// scenario noise: two runs with the same seed see the same fault schedule,
/// and a disabled injector draws nothing at all.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    options: FaultOptions,
    rng: SimRng,
}

impl FaultInjector {
    /// An injector with every knob off; never faults, never draws.
    pub fn disabled() -> Self {
        FaultInjector::new(FaultOptions::default(), 0)
    }

    /// Creates an injector from options and a dedicated RNG seed.
    pub fn new(options: FaultOptions, seed: u64) -> Self {
        FaultInjector {
            options,
            rng: SimRng::seed_from(seed),
        }
    }

    /// Replaces the knobs.
    pub fn set_options(&mut self, options: FaultOptions) {
        self.options = options;
    }

    /// True when any knob is live.
    pub fn enabled(&self) -> bool {
        self.options.enabled()
    }

    /// Switches the gateway outage on or off.
    pub fn set_gateway_outage(&mut self, on: bool) {
        self.options.gateway_outage = on;
    }

    /// True while the gateway outage is active.
    pub fn gateway_outage(&self) -> bool {
        self.options.gateway_outage
    }

    /// Assesses one transfer attempt from `from` to `to`.
    ///
    /// Down links are checked first (no RNG cost); otherwise one Bernoulli
    /// draw per route link decides whether the transfer is lost. Returns
    /// `None` for a clean transfer. A disabled injector returns `None`
    /// without drawing.
    pub fn assess(&mut self, topo: &Topology, from: HostId, to: HostId) -> Option<TransferFault> {
        if !self.enabled() {
            return None;
        }
        let route = topo.route(from, to).ok()?;
        if self.options.gateway_outage {
            for &lid in &route {
                if topo.link(lid)?.kind() == LinkKind::Gateway {
                    return Some(TransferFault::LinkDown(lid));
                }
            }
        }
        if self.options.drop_probability > 0.0 {
            for &lid in &route {
                if self.rng.chance(self.options.drop_probability) {
                    return Some(TransferFault::Dropped(lid));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::topology::CpuFactor;

    fn two_space_topo() -> (Topology, HostId, HostId, HostId) {
        let mut topo = Topology::new();
        let office = topo.add_space("office");
        let away = topo.add_space("away");
        let a = topo.add_host("a", office, CpuFactor::REFERENCE);
        let gw = topo.add_host("gw", office, CpuFactor::REFERENCE);
        let b = topo.add_host("b", away, CpuFactor::REFERENCE);
        topo.add_lan_link(a, gw, SimDuration::from_millis(1), 10_000_000, 0.8)
            .unwrap();
        topo.add_gateway_link(gw, b, SimDuration::from_millis(5), 10_000_000, 0.7)
            .unwrap();
        (topo, a, gw, b)
    }

    #[test]
    fn disabled_injector_never_faults_and_never_draws() {
        let (topo, a, _, b) = two_space_topo();
        let mut faults = FaultInjector::disabled();
        let before = faults.rng.clone().uniform_u64(0, u64::MAX);
        for _ in 0..32 {
            assert_eq!(faults.assess(&topo, a, b), None);
        }
        // The RNG stream was never advanced.
        assert_eq!(faults.rng.uniform_u64(0, u64::MAX), before);
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let (topo, a, _, b) = two_space_topo();
        let mut faults = FaultInjector::new(FaultOptions::with_drop_probability(1.0), 11);
        assert!(matches!(
            faults.assess(&topo, a, b),
            Some(TransferFault::Dropped(_))
        ));
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let (topo, a, _, b) = two_space_topo();
        let opts = FaultOptions::with_drop_probability(0.3);
        let mut f1 = FaultInjector::new(opts, 42);
        let mut f2 = FaultInjector::new(opts, 42);
        for _ in 0..64 {
            assert_eq!(f1.assess(&topo, a, b), f2.assess(&topo, a, b));
        }
    }

    #[test]
    fn gateway_outage_blocks_inter_space_only() {
        let (topo, a, gw, b) = two_space_topo();
        let mut faults = FaultInjector::disabled();
        faults.set_gateway_outage(true);
        assert!(faults.enabled());
        assert!(matches!(
            faults.assess(&topo, a, b),
            Some(TransferFault::LinkDown(_))
        ));
        // Intra-space traffic is untouched.
        assert_eq!(faults.assess(&topo, a, gw), None);
        faults.set_gateway_outage(false);
        assert_eq!(faults.assess(&topo, a, b), None);
    }
}
