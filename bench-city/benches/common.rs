//! Pieces every workload shares: the outcome record, the scenario trait the
//! driver runs, quantiles, the FNV digest and the resident-set reading.

use std::collections::BTreeMap;
use std::time::Instant;

use mdagent_core::{CoreError, DeviceProfile, MiddlewareBuilder};
use mdagent_simnet::{
    CpuFactor, MetricsRegistry, SimDuration, SimTime, Simulator, Topology, TopologyError,
};

/// One link of a [`Layout`].
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    pub a: u32,
    pub b: u32,
    pub latency_ms: u64,
    pub bandwidth_bps: u64,
    pub efficiency: f64,
    pub gateway: bool,
}

/// A network shape that can be applied to a middleware builder (the world
/// under test) or to a bare [`Topology`] (the cold-route replay), giving the
/// same host ids in both.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    pub spaces: Vec<String>,
    /// `(name, space index, cpu factor)`.
    pub hosts: Vec<(String, u32, f64)>,
    pub links: Vec<LinkSpec>,
}

impl Layout {
    /// Spaces, hosts (all PCs) and links, in order, on a builder.
    pub fn apply(&self, b: &mut MiddlewareBuilder) -> Result<(), CoreError> {
        let spaces: Vec<_> = self.spaces.iter().map(|s| b.space(s)).collect();
        let hosts: Vec<_> = self
            .hosts
            .iter()
            .map(|(name, s, cpu)| {
                b.host(
                    name,
                    spaces[*s as usize],
                    CpuFactor::new(*cpu),
                    DeviceProfile::pc,
                )
            })
            .collect();
        for l in &self.links {
            b.link(
                hosts[l.a as usize],
                hosts[l.b as usize],
                SimDuration::from_millis(l.latency_ms),
                l.bandwidth_bps,
                l.efficiency,
                l.gateway,
            )?;
        }
        Ok(())
    }

    /// The same shape as a fresh topology with an empty route cache.
    pub fn topology(&self) -> Result<Topology, TopologyError> {
        let mut topo = Topology::new();
        let spaces: Vec<_> = self.spaces.iter().map(|s| topo.add_space(s)).collect();
        let hosts: Vec<_> = self
            .hosts
            .iter()
            .map(|(name, s, cpu)| topo.add_host(name, spaces[*s as usize], CpuFactor::new(*cpu)))
            .collect();
        for l in &self.links {
            let (a, b) = (hosts[l.a as usize], hosts[l.b as usize]);
            let latency = SimDuration::from_millis(l.latency_ms);
            if l.gateway {
                topo.add_gateway_link(a, b, latency, l.bandwidth_bps, l.efficiency)?;
            } else {
                topo.add_lan_link(a, b, latency, l.bandwidth_bps, l.efficiency)?;
            }
        }
        Ok(topo)
    }
}

/// What one run of a workload's timed window produced. Everything here is
/// on the simulated clock or a count, so it repeats exactly for a seed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations the workload asked for (user moves on city-day,
    /// commutes started on churn-grid).
    pub attempted: u64,
    /// Migrations that completed.
    pub completed: u64,
    /// Departure-to-resume time of each completed migration, sim ms.
    pub migration_ms: Vec<f64>,
    /// Trigger-to-resume time of each completed migration, sim ms.
    pub follow_ms: Vec<f64>,
    /// Mean KiB an agent carried per migration.
    pub shipped_kib: f64,
    /// Digest over the migration log and the executed event count.
    pub digest: u64,
}

/// A layer of the stack, as the ledger names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Context,
    Agent,
    Aa,
    Ma,
}

impl Layer {
    pub const ALL: [Layer; 4] = [Layer::Context, Layer::Agent, Layer::Aa, Layer::Ma];
}

/// Public state read after every traced step. A step belongs to the first
/// layer, in precedence order `ma`, `aa`, `context`, `agent`, whose fields
/// moved during it (see `owner`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Probe {
    /// Platform moves, in-flight records, migration-log length, retries
    /// and rollbacks (`ma`).
    pub ma: [u64; 5],
    /// AA deliberations, declines and device refusals (`aa`).
    pub aa: [u64; 3],
    /// Bus publishes and the instant of the freshest raw reading
    /// (`context`).
    pub context: [u64; 2],
    /// ACL deliveries, or for the bare platform spawns, despawns, moves
    /// and arrivals (`agent`).
    pub agent: [u64; 4],
    /// Length of the trace log, for [`Scenario::trace_layer`]. Not
    /// consulted by [`Probe::owner`].
    pub trace_len: u64,
}

impl Probe {
    /// The layer that owns the step which took the world from `self` to
    /// `after`, or `None` when no layer's public state moved.
    pub fn owner(&self, after: &Probe) -> Option<Layer> {
        if self.ma != after.ma {
            Some(Layer::Ma)
        } else if self.aa != after.aa {
            Some(Layer::Aa)
        } else if self.context != after.context {
            Some(Layer::Context)
        } else if self.agent != after.agent {
            Some(Layer::Agent)
        } else {
            None
        }
    }
}

/// A named per-layer count or measurement.
pub type Row = (&'static str, f64);

/// One built world of a workload, ready for its timed window.
pub trait Scenario {
    type World: 'static;

    /// The world and its simulator.
    fn parts(&mut self) -> (&mut Self::World, &mut Simulator<Self::World>);

    /// Simulated instant by which the timed window has done nearly all of
    /// its work; the driver times the window in equal slices up to it.
    fn window_end(&self) -> SimTime;

    /// Runs what is left of the timed window untraced, through the
    /// simulator's own loop.
    fn run_window(&mut self);

    /// Public state the traced run attributes steps by.
    fn probe(&self) -> Probe;

    /// For a step that moved no layer's counters: the layer owning the
    /// trace events it recorded between the two probes, if any.
    fn trace_layer(&self, _before: &Probe, _after: &Probe) -> Option<Layer> {
        None
    }

    /// Raw readings one sensing round takes, for workloads that sense.
    fn readings_per_round(&self) -> f64 {
        0.0
    }

    /// The correctness gate; `Err` names the first violated check.
    fn gate(&self) -> Result<(), String>;

    /// Outcome of the finished window.
    fn outcome(&self) -> Outcome;

    /// Per-layer counts read from public accessors after the window.
    fn counts(&self) -> Vec<Row>;

    /// Per-layer timings from replaying this run's recorded inputs
    /// against each layer's public entry points.
    fn replay(&self) -> Vec<Row>;
}

/// Nearest-rank quantile of unsorted samples; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// 64-bit FNV-1a, fed word by word.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counter values at the start of the timed window, so that counts read
/// after it cover the window only.
#[derive(Debug, Clone, Default)]
pub struct Baseline(BTreeMap<String, u64>);

impl Baseline {
    pub fn take(metrics: &MetricsRegistry) -> Self {
        let mut map: BTreeMap<String, u64> =
            metrics.counters().map(|(k, v)| (k.to_owned(), v)).collect();
        for (name, stats) in metrics.duration_series() {
            map.insert(format!("#{name}"), stats.count() as u64);
        }
        Baseline(map)
    }

    /// Growth of counter `name` since the baseline.
    pub fn delta(&self, metrics: &MetricsRegistry, name: &str) -> f64 {
        let before = self.0.get(name).copied().unwrap_or(0);
        metrics.counter(name).saturating_sub(before) as f64
    }

    /// Growth of duration series `name`'s sample count since the baseline.
    pub fn samples(&self, metrics: &MetricsRegistry, name: &str) -> f64 {
        let before = self.0.get(&format!("#{name}")).copied().unwrap_or(0);
        let now = metrics.durations(name).map_or(0, |d| d.count() as u64);
        now.saturating_sub(before) as f64
    }
}

/// Seconds per call of a replayed batch of `calls` calls: the median of
/// `REPLAY_REPEATS` timed passes over the whole batch.
pub fn per_call_s(calls: usize, mut batch: impl FnMut()) -> f64 {
    let mut passes = Vec::with_capacity(REPLAY_REPEATS);
    for _ in 0..REPLAY_REPEATS {
        let t = Instant::now();
        batch();
        passes.push(t.elapsed().as_secs_f64());
    }
    ratio(median(&passes), calls as f64)
}

/// Timed passes per replayed batch.
pub const REPLAY_REPEATS: usize = 5;

/// Most recorded inputs a replay feeds one entry point.
pub const REPLAY_CAP: usize = 512;

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
