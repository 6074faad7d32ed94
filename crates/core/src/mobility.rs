//! Mobility taxonomy and migration plans (paper Fig. 1, §3.2).

use std::fmt;

use mdagent_simnet::HostId;
use mdagent_wire::{impl_wire_enum, impl_wire_struct};

use crate::app::AppId;

/// Mobility mode: the paper's two kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MobilityMode {
    /// Cut-paste: the application leaves the source and follows the user.
    FollowMe,
    /// Copy-paste: a clone is dispatched; source and clone synchronize.
    CloneDispatch,
}

impl_wire_enum!(MobilityMode {
    FollowMe = 0,
    CloneDispatch = 1,
});

impl MobilityMode {
    /// Short static tag, suitable for zero-allocation telemetry attributes.
    pub fn tag(self) -> &'static str {
        match self {
            MobilityMode::FollowMe => "follow-me",
            MobilityMode::CloneDispatch => "clone-dispatch",
        }
    }
}

impl fmt::Display for MobilityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MobilityMode::FollowMe => f.write_str("follow-me (cut-paste)"),
            MobilityMode::CloneDispatch => f.write_str("clone-dispatch (copy-paste)"),
        }
    }
}

/// Mobility domain: whether the migration crosses smart-space boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MobilityDomain {
    /// Within one smart space.
    IntraSpace,
    /// Across spaces; gateway support required (Fig. 1).
    InterSpace,
}

impl_wire_enum!(MobilityDomain {
    IntraSpace = 0,
    InterSpace = 1,
});

impl fmt::Display for MobilityDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MobilityDomain::IntraSpace => f.write_str("intra-space"),
            MobilityDomain::InterSpace => f.write_str("inter-space"),
        }
    }
}

/// Component binding policy: the paper's headline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingPolicy {
    /// Adaptive binding: ship only what the destination lacks; stream
    /// data remotely when possible (the paper's contribution).
    Adaptive,
    /// Static binding: the original framework \[7\] — ship data, logic and
    /// UI wholesale on every migration.
    Static,
}

impl_wire_enum!(BindingPolicy {
    Adaptive = 0,
    Static = 1,
});

impl fmt::Display for BindingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindingPolicy::Adaptive => f.write_str("adaptive"),
            BindingPolicy::Static => f.write_str("static"),
        }
    }
}

/// How the application's data components are handled at the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataStrategy {
    /// The destination already has the data.
    AlreadyPresent,
    /// The data travels inside the mobile agent.
    Carry,
    /// The data stays at the source and is streamed by URL.
    RemoteStream,
}

impl_wire_enum!(DataStrategy {
    AlreadyPresent = 0,
    Carry = 1,
    RemoteStream = 2,
});

/// A fully resolved migration plan, produced by the autonomous agent's
/// reasoning and executed by the mobile agent.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    /// The application to move or clone.
    pub app_raw: u32,
    /// Follow-me or clone-dispatch.
    pub mode: MobilityMode,
    /// Binding policy in force.
    pub policy: BindingPolicy,
    /// Destination host (raw id).
    pub dest_host_raw: u32,
    /// Names of components the MA must wrap and carry.
    pub ship_components: Vec<String>,
    /// What happens to data components.
    pub data_strategy: DataStrategy,
    /// Whether the route crosses a space boundary.
    pub inter_space: bool,
}

impl_wire_struct!(MigrationPlan {
    app_raw,
    mode,
    policy,
    dest_host_raw,
    ship_components,
    data_strategy,
    inter_space
});

impl MigrationPlan {
    /// The application this plan concerns.
    pub fn app(&self) -> AppId {
        AppId(self.app_raw)
    }

    /// The destination host.
    pub fn dest_host(&self) -> HostId {
        HostId(self.dest_host_raw)
    }

    /// The mobility domain as an enum.
    pub fn domain(&self) -> MobilityDomain {
        if self.inter_space {
            MobilityDomain::InterSpace
        } else {
            MobilityDomain::IntraSpace
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_wire_roundtrip_all_quadrants() {
        // Exercise all four quadrants of the paper's Fig. 1 matrix.
        for mode in [MobilityMode::FollowMe, MobilityMode::CloneDispatch] {
            for inter_space in [false, true] {
                let plan = MigrationPlan {
                    app_raw: 3,
                    mode,
                    policy: BindingPolicy::Adaptive,
                    dest_host_raw: 2,
                    ship_components: vec!["codec".into(), "states".into()],
                    data_strategy: DataStrategy::RemoteStream,
                    inter_space,
                };
                let back: MigrationPlan =
                    mdagent_wire::from_bytes(&mdagent_wire::to_bytes(&plan)).unwrap();
                assert_eq!(back, plan);
                assert_eq!(back.app(), AppId(3));
                assert_eq!(back.dest_host(), HostId(2));
                assert_eq!(
                    back.domain(),
                    if inter_space {
                        MobilityDomain::InterSpace
                    } else {
                        MobilityDomain::IntraSpace
                    }
                );
            }
        }
    }

    #[test]
    fn displays() {
        assert_eq!(MobilityMode::FollowMe.to_string(), "follow-me (cut-paste)");
        assert_eq!(
            MobilityMode::CloneDispatch.to_string(),
            "clone-dispatch (copy-paste)"
        );
        assert_eq!(MobilityDomain::InterSpace.to_string(), "inter-space");
        assert_eq!(BindingPolicy::Adaptive.to_string(), "adaptive");
        assert_eq!(BindingPolicy::Static.to_string(), "static");
    }
}
