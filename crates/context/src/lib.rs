//! # mdagent-context — the sensor and context layers
//!
//! The bottom two layers of the paper's architecture (Fig. 2):
//!
//! * [`SensorField`] — simulated Cricket beacons producing noisy raw
//!   (distance, badge) readings; the substitution for the paper's physical
//!   sensor deployment.
//! * [`LocationFusion`] — raw readings → debounced room-level locations
//!   (context fusion, §3.4).
//! * [`Classifier`] / [`ContextDb`] — temporal databases: static context
//!   persists, dynamic context is TTL-bounded (§4.1).
//! * [`ContextMonitor`] / [`Condition`] — predefined trigger conditions
//!   that wake autonomous agents (§4.1).
//! * [`ContextBus`] — the publish/subscribe kernel that multicasts events
//!   to registered listeners (§5), optionally only those about one user.
//! * [`LocationPredictor`] — order-1 Markov room-transition prediction
//!   (§3.4's "prediction functionalities").
//! * [`ContextKernel`] — composes the pipeline; the middleware drives it
//!   on a sensing tick.
//!
//! # Examples
//!
//! ```
//! use mdagent_context::{ContextKernel, SensorField, BadgeId, UserId, BadgePosition, topics};
//! use mdagent_simnet::{SimRng, SimTime, SpaceId};
//!
//! let mut field = SensorField::new(0.05);
//! field.add_beacon(SpaceId(0), 2.0);
//! let mut kernel = ContextKernel::new(field);
//! kernel.fusion.bind_badge(BadgeId(0), UserId(0));
//! kernel.bus.subscribe(topics::LOCATION);
//! kernel.field.place_badge(BadgeId(0), BadgePosition { space: SpaceId(0), position_m: 2.0 });
//! let mut rng = SimRng::seed_from(7);
//! kernel.sense_round(SimTime::ZERO, &mut rng); // first round: debouncing
//! let fused = kernel.sense_round(SimTime::from_millis(200), &mut rng);
//! assert_eq!(fused.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bus;
mod classifier;
mod fusion;
mod kernel;
mod monitor;
mod predict;
mod sensor;
mod types;

pub use bus::{ContextBus, SubscriberId};
pub use classifier::{Classifier, ContextDb};
pub use fusion::LocationFusion;
pub use kernel::{ContextKernel, PublishOutcome};
pub use monitor::{Condition, ConditionId, ContextMonitor};
pub use predict::LocationPredictor;
pub use sensor::{BadgePosition, Beacon, SensorField};
pub use types::{topics, BadgeId, BeaconId, ContextData, ContextEvent, TemporalClass, UserId};
