//! The benchmark's clock: the thread's CPU time, scaled by a yardstick.
//!
//! The benchmark runs on a shared machine. Other tenants' load changes how
//! fast the same instructions run, by up to a third and for minutes at a
//! time (a busy or idle sibling hardware thread on the host), and it moves
//! CPU time and wall time alike. So every timed piece of work is bracketed
//! by a fixed reference kernel, the [`Yardstick`], and the piece's CPU time
//! is divided by the yardstick's CPU time measured beside it. That quotient
//! times [`YARDSTICK_S`] is what the benchmark reports as seconds: the
//! piece's time on a machine running at the speed the yardstick was
//! calibrated at. A change to the program moves the pieces, never the
//! yardstick.
//!
//! The yardstick sorts and counts through an ordered map: branchy integer
//! work and small allocations in the first cache levels, which slows down
//! under a busy sibling thread much as the simulation does.

use std::collections::BTreeMap;

/// The yardstick's CPU time on the 2-core Xeon VM the bounds were set on,
/// in its faster state. Scaled times are expressed in seconds of that
/// machine.
pub const YARDSTICK_S: f64 = 0.7e-3;

/// CPU seconds the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`). On a
/// shared machine this leaves out the time the thread waited for a core,
/// which wall time counts.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The fixed reference kernel.
pub struct Yardstick {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    counts: BTreeMap<u64, u64>,
}

/// Keys the yardstick sorts per pass.
const KEYS: usize = 16_384;
/// Keys of those it also counts into the ordered map.
const COUNTED: usize = 6_144;

impl Default for Yardstick {
    fn default() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut y = Yardstick {
            keys,
            sorted: Vec::with_capacity(KEYS),
            counts: BTreeMap::new(),
        };
        y.pass();
        y
    }
}

impl Yardstick {
    /// CPU seconds of one pass of the fixed work.
    pub fn measure(&mut self) -> f64 {
        let t = thread_cpu_s();
        self.pass();
        thread_cpu_s() - t
    }

    fn pass(&mut self) {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.counts.clear();
        for &k in &self.keys[..COUNTED] {
            *self.counts.entry(k % 1024).or_insert(0) += k;
        }
        std::hint::black_box((&self.sorted, &self.counts));
    }
}

/// One timed lap.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    /// CPU seconds the work ran.
    pub cpu_s: f64,
    /// The same, scaled by the yardstick.
    pub scaled_s: f64,
}

/// A stopwatch that times consecutive laps in scaled seconds. Each lap is
/// divided by the mean of the yardstick passes just before and just after
/// it; consecutive laps share the pass between them.
#[derive(Default)]
pub struct Clock {
    yardstick: Yardstick,
    /// The yardstick pass that ended the previous lap, if it ended just now.
    last: Option<f64>,
    /// Every yardstick pass, in CPU seconds.
    passes: Vec<f64>,
}

impl Clock {
    /// Runs `work` as one lap; returns its result and its times.
    pub fn lap<T>(&mut self, work: impl FnOnce() -> T) -> (T, Lap) {
        let before = match self.last.take() {
            Some(y) => y,
            None => self.pass(),
        };
        let t = thread_cpu_s();
        let out = work();
        let cpu_s = thread_cpu_s() - t;
        let after = self.pass();
        self.last = Some(after);
        let scaled_s = cpu_s / (0.5 * (before + after)) * YARDSTICK_S;
        (out, Lap { cpu_s, scaled_s })
    }

    /// Every yardstick pass so far, in CPU seconds.
    pub fn passes(&self) -> &[f64] {
        &self.passes
    }

    fn pass(&mut self) -> f64 {
        let y = self.yardstick.measure();
        self.passes.push(y);
        y
    }

    /// Marks that other work ran since the last lap, so the next lap takes
    /// a fresh yardstick pass first.
    pub fn pause(&mut self) {
        self.last = None;
    }
}
