//! Location prediction: an order-1 Markov model over room transitions.
//!
//! "Some context reasoning and prediction functionalities should also be
//! provided to improve the performance." (paper §3.4) The middleware uses
//! predictions to pre-stage components at the likely next room.

use mdagent_fx::FxHashMap;
use mdagent_simnet::SpaceId;

use crate::types::UserId;

/// Per-user first-order Markov chain over space transitions.
///
/// # Examples
///
/// ```
/// use mdagent_context::{LocationPredictor, UserId};
/// use mdagent_simnet::SpaceId;
///
/// let mut p = LocationPredictor::new();
/// let user = UserId(1);
/// for _ in 0..3 {
///     p.observe(user, SpaceId(0));
///     p.observe(user, SpaceId(1)); // 0 → 1 three times
/// }
/// p.observe(user, SpaceId(0));
/// assert_eq!(p.predict_next(user, SpaceId(0)), Some(SpaceId(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LocationPredictor {
    transitions: FxHashMap<(UserId, SpaceId, SpaceId), u64>,
    last: FxHashMap<UserId, SpaceId>,
}

impl LocationPredictor {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `user` is now in `space`. Self-transitions (repeated
    /// observations of the same space) are ignored.
    pub fn observe(&mut self, user: UserId, space: SpaceId) {
        if let Some(&prev) = self.last.get(&user) {
            if prev != space {
                *self.transitions.entry((user, prev, space)).or_default() += 1;
            }
        }
        self.last.insert(user, space);
    }

    /// The most likely next space from `from` for `user`, if any transition
    /// has been observed. Ties break toward the lower space id for
    /// determinism.
    pub fn predict_next(&self, user: UserId, from: SpaceId) -> Option<SpaceId> {
        self.transitions
            .iter()
            .filter(|((u, f, _), _)| *u == user && *f == from)
            .max_by(|((_, _, ta), ca), ((_, _, tb), cb)| ca.cmp(cb).then(tb.cmp(ta)))
            .map(|((_, _, to), _)| *to)
    }

    /// Probability estimate of the transition `from → to` for `user`.
    pub fn transition_probability(&self, user: UserId, from: SpaceId, to: SpaceId) -> f64 {
        let total: u64 = self
            .transitions
            .iter()
            .filter(|((u, f, _), _)| *u == user && *f == from)
            .map(|(_, c)| *c)
            .sum();
        if total == 0 {
            return 0.0;
        }
        let hits = self
            .transitions
            .get(&(user, from, to))
            .copied()
            .unwrap_or(0);
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_most_frequent_transition() {
        let mut p = LocationPredictor::new();
        let u = UserId(0);
        // 0→1 twice, 0→2 once.
        for target in [1, 2, 1] {
            p.observe(u, SpaceId(0));
            p.observe(u, SpaceId(target));
        }
        assert_eq!(p.predict_next(u, SpaceId(0)), Some(SpaceId(1)));
        assert!((p.transition_probability(u, SpaceId(0), SpaceId(1)) - 2.0 / 3.0).abs() < 1e-9);
        assert!((p.transition_probability(u, SpaceId(0), SpaceId(2)) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn no_data_no_prediction() {
        let p = LocationPredictor::new();
        assert_eq!(p.predict_next(UserId(0), SpaceId(0)), None);
        assert_eq!(
            p.transition_probability(UserId(0), SpaceId(0), SpaceId(1)),
            0.0
        );
    }

    #[test]
    fn self_transitions_ignored() {
        let mut p = LocationPredictor::new();
        let u = UserId(0);
        p.observe(u, SpaceId(0));
        p.observe(u, SpaceId(0));
        p.observe(u, SpaceId(0));
        assert_eq!(p.predict_next(u, SpaceId(0)), None);
    }

    #[test]
    fn users_are_independent() {
        let mut p = LocationPredictor::new();
        p.observe(UserId(0), SpaceId(0));
        p.observe(UserId(0), SpaceId(1));
        p.observe(UserId(1), SpaceId(0));
        p.observe(UserId(1), SpaceId(2));
        assert_eq!(p.predict_next(UserId(0), SpaceId(0)), Some(SpaceId(1)));
        assert_eq!(p.predict_next(UserId(1), SpaceId(0)), Some(SpaceId(2)));
    }

    #[test]
    fn ties_break_to_lower_space_id() {
        let mut p = LocationPredictor::new();
        let u = UserId(0);
        for target in [2, 1] {
            p.observe(u, SpaceId(0));
            p.observe(u, SpaceId(target));
        }
        assert_eq!(p.predict_next(u, SpaceId(0)), Some(SpaceId(1)));
    }
}
