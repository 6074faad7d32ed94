//! The traced run: the timed window driven one `Simulator::step` at a
//! time, with the bench's clock around each step.
//!
//! A step's time goes to the layer whose public state moved during it, in
//! the precedence order `ma`, `aa`, `context`, `agent` (see
//! [`Probe::owner`]). A step that moved none of those counters but
//! recorded trace events goes to the layer owning those events (see
//! [`Scenario::trace_layer`]); this is how the MA's wrap step, which only
//! sends the cargo, is found. Every other step goes to `unattributed`.
//! All workload drivers run inside the simulation as events, so their work
//! is such steps too.
//!
//! The traced total is the time spent inside `Simulator::step`. The
//! probes between steps are the tracer's own cost: they appear in
//! `tracing_overhead_share` (the traced window against the untraced one,
//! both in the clock's scaled seconds), not in the ledger.

use std::time::Instant;

use crate::common::{ratio, Layer, Row, Scenario};

/// Self time per layer over one traced window.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Seconds inside steps owned by each layer, in [`Layer::ALL`] order.
    pub self_s: [f64; 4],
    /// Seconds inside steps no layer owns.
    pub unattributed_s: f64,
    /// Seconds inside all steps, summed separately from the rows.
    pub total_s: f64,
    /// Wall seconds of the traced loop, probes included.
    pub wall_s: f64,
    /// Steps owned by each layer, in [`Layer::ALL`] order.
    pub steps: [u64; 4],
    /// Most events pending after any step.
    pub queue_peak: usize,
    /// Steps in which the freshest raw reading moved: sensing rounds.
    pub sense_rounds: u64,
}

impl Ledger {
    /// The ledger rows.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = Layer::ALL
            .iter()
            .zip(self.self_s)
            .map(|(layer, s)| (self_name(*layer), s))
            .collect();
        rows.push(("unattributed_s", self.unattributed_s));
        rows.push((
            "unattributed_share",
            ratio(self.unattributed_s, self.total_s),
        ));
        rows.push(("sim.queue_peak", self.queue_peak as f64));
        rows.push(("context.sense_rounds", self.sense_rounds as f64));
        rows
    }
}

fn self_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Context => "context.self_s",
        Layer::Agent => "agent.self_s",
        Layer::Aa => "aa.self_s",
        Layer::Ma => "ma.self_s",
    }
}

/// Runs exactly `events` steps of a freshly built scenario's window — the
/// number its untraced twin executed — and attributes each step.
pub fn traced_window<S: Scenario>(s: &mut S, events: u64) -> Ledger {
    let mut ledger = Ledger::default();
    let mut before = s.probe();
    let start = Instant::now();
    for _ in 0..events {
        let (world, sim) = s.parts();
        let t = Instant::now();
        let stepped = sim.step(world);
        let dt = t.elapsed().as_secs_f64();
        ledger.queue_peak = ledger.queue_peak.max(sim.pending());
        if !stepped {
            break;
        }
        let after = s.probe();
        let owner = before
            .owner(&after)
            .or_else(|| s.trace_layer(&before, &after));
        if after.context[1] != before.context[1] {
            ledger.sense_rounds += 1;
        }
        ledger.total_s += dt;
        match owner.and_then(|layer| Layer::ALL.iter().position(|l| *l == layer)) {
            Some(i) => {
                ledger.self_s[i] += dt;
                ledger.steps[i] += 1;
            }
            None => ledger.unattributed_s += dt,
        }
        before = after;
    }
    ledger.wall_s = start.elapsed().as_secs_f64();
    ledger
}
