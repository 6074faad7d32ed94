//! Phase timing: the cost model and the paper's round-trip measurement
//! method (Fig. 7).

use mdagent_simnet::{SimDuration, SimTime};

/// CPU/IO cost constants calibrated to the paper's testbed (P4 1.7 GHz,
/// 256 MB; Java serialization to disk). Costs that depend on payload size
/// scale per megabyte; hosts additionally scale by their
/// [`CpuFactor`](mdagent_simnet::CpuFactor).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed suspension cost (stop playback, quiesce threads).
    pub suspend_base: SimDuration,
    /// Snapshot serialization per shipped megabyte.
    pub snapshot_per_mb: SimDuration,
    /// Fixed resumption cost (thread start, UI re-init).
    pub resume_base: SimDuration,
    /// Deserialization/verification per shipped megabyte.
    pub resume_per_mb: SimDuration,
    /// Rebinding to a local resource.
    pub rebind_local: SimDuration,
    /// Establishing a remote streaming session back to the source.
    pub remote_stream_setup: SimDuration,
    /// Remote stream index/prebuffer per megabyte of remote data.
    pub remote_index_per_mb: SimDuration,
    /// Running the adaptor.
    pub adapt: SimDuration,
    /// One registry lookup.
    pub registry_lookup: SimDuration,
    /// One ontology reasoning pass in the AA.
    pub reasoning: SimDuration,
    /// One incremental retraction flush (delete–rederive repair) in a
    /// registry center — a fraction of a full reasoning pass.
    pub retraction: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            suspend_base: SimDuration::from_millis(45),
            snapshot_per_mb: SimDuration::from_millis(150),
            resume_base: SimDuration::from_millis(120),
            resume_per_mb: SimDuration::from_millis(130),
            rebind_local: SimDuration::from_millis(40),
            remote_stream_setup: SimDuration::from_millis(180),
            remote_index_per_mb: SimDuration::from_millis(28),
            adapt: SimDuration::from_millis(60),
            registry_lookup: SimDuration::from_millis(25),
            reasoning: SimDuration::from_millis(35),
            retraction: SimDuration::from_millis(12),
        }
    }
}

impl CostModel {
    /// Modeled payload of the 1 kB probe used to estimate response times
    /// between hosts when no concrete message exists yet.
    pub const PROBE_PAYLOAD_BYTES: u64 = 1024;

    /// Modeled payload of a minimal control message (reachability checks,
    /// bare acknowledgements).
    pub const CONTROL_PAYLOAD_BYTES: u64 = 1;

    /// Suspension cost when `snapshot_bytes` must be serialized.
    pub fn suspend_cost(&self, snapshot_bytes: u64) -> SimDuration {
        self.suspend_base + per_mb(self.snapshot_per_mb, snapshot_bytes)
    }

    /// Resumption cost when `shipped_bytes` arrived with the agent and
    /// `remote_bytes` stay behind to be streamed.
    pub fn resume_cost(&self, shipped_bytes: u64, remote_bytes: u64) -> SimDuration {
        let mut cost = self.resume_base + per_mb(self.resume_per_mb, shipped_bytes);
        if remote_bytes > 0 {
            cost += self.remote_stream_setup + per_mb(self.remote_index_per_mb, remote_bytes);
        }
        cost
    }
}

fn per_mb(rate: SimDuration, bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(rate.as_secs_f64() * bytes as f64 / 1_000_000.0)
}

/// A host clock with constant skew against simulated true time — the
/// premise of the paper's Fig. 7: "the difference of time values of clocks
/// at the same time is nearly a constant value".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostClock {
    skew_micros: i64,
}

impl HostClock {
    /// A clock offset by `skew_micros` from true time (may be negative).
    pub fn with_skew(skew_micros: i64) -> Self {
        HostClock { skew_micros }
    }

    /// A perfectly synchronized clock.
    pub fn synchronized() -> Self {
        HostClock { skew_micros: 0 }
    }

    /// Reads the local (skewed) clock at true instant `now`, in
    /// microseconds since the local epoch.
    pub fn read(&self, now: SimTime) -> i64 {
        now.as_micros() as i64 + self.skew_micros
    }
}

/// The four timestamps of one round trip between hosts 1 and 2
/// (Fig. 7): depart H1, arrive H2, depart H2, arrive H1 — each read on the
/// *local* clock of the host where it happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTrip {
    /// `T1@H1` — departure, host 1 clock.
    pub t1_h1: i64,
    /// `T2@H2` — arrival, host 2 clock.
    pub t2_h2: i64,
    /// `T3@H2` — return departure, host 2 clock.
    pub t3_h2: i64,
    /// `T4@H1` — return arrival, host 1 clock.
    pub t4_h1: i64,
}

impl RoundTrip {
    /// The skew-free total migration time:
    /// `(T2@H2 − T1@H1) + (T4@H1 − T3@H2)`. The two skew terms cancel
    /// because each host contributes one positive and one negative
    /// reading.
    pub fn migration_cost_micros(&self) -> i64 {
        (self.t2_h2 - self.t1_h1) + (self.t4_h1 - self.t3_h2)
    }
}

/// Records per-phase durations of one migration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimes {
    /// Suspension (state capture at the source).
    pub suspend: SimDuration,
    /// Agent transfer (check-out to check-in).
    pub migrate: SimDuration,
    /// Resumption (restore, rebind, adapt at the destination).
    pub resume: SimDuration,
}

impl PhaseTimes {
    /// Total of the three phases.
    pub fn total(&self) -> SimDuration {
        self.suspend + self.migrate + self.resume
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_with_megabytes() {
        let m = CostModel::default();
        let small = m.suspend_cost(100_000);
        let big = m.suspend_cost(7_500_000);
        assert!(big > small);
        // 7.5 MB at 150 ms/MB = 1125 ms + base.
        assert_eq!(
            m.suspend_cost(7_500_000),
            m.suspend_base + SimDuration::from_micros(1_125_000)
        );
    }

    #[test]
    fn resume_cost_includes_remote_setup_only_when_streaming() {
        let m = CostModel::default();
        let without = m.resume_cost(100_000, 0);
        let with = m.resume_cost(100_000, 2_000_000);
        assert!(with > without + m.remote_stream_setup - SimDuration::from_millis(1));
    }

    #[test]
    fn round_trip_cancels_clock_skew() {
        // True one-way time 400 ms each direction; skews of +5 s and −3 s.
        let h1 = HostClock::with_skew(5_000_000);
        let h2 = HostClock::with_skew(-3_000_000);
        let depart = SimTime::from_millis(1_000);
        let arrive = SimTime::from_millis(1_400);
        let back_depart = SimTime::from_millis(2_000);
        let back_arrive = SimTime::from_millis(2_400);
        let rt = RoundTrip {
            t1_h1: h1.read(depart),
            t2_h2: h2.read(arrive),
            t3_h2: h2.read(back_depart),
            t4_h1: h1.read(back_arrive),
        };
        assert_eq!(rt.migration_cost_micros(), 800_000, "2 × 400 ms, skew-free");
        // Naive single-direction subtraction would be wildly wrong:
        assert_ne!(rt.t2_h2 - rt.t1_h1, 400_000);
    }

    #[test]
    fn synchronized_clock_reads_true_time() {
        let c = HostClock::synchronized();
        assert_eq!(c.read(SimTime::from_millis(7)), 7_000);
    }

    #[test]
    fn phase_total() {
        let p = PhaseTimes {
            suspend: SimDuration::from_millis(100),
            migrate: SimDuration::from_millis(500),
            resume: SimDuration::from_millis(400),
        };
        assert_eq!(p.total(), SimDuration::from_millis(1_000));
    }
}
