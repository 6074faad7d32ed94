//! Equivalence proofs for the calendar queue: on any schedule — including
//! handler-scheduled children and runs stopped at a deadline — the
//! calendar queue pops events in exactly the same order as the reference
//! heap.

use mdagent_simnet::{EventData, QueueKind, SimDuration, SimTime, Simulator};
use proptest::prelude::*;

/// One scheduled event in a randomly generated program.
#[derive(Debug, Clone)]
struct Op {
    /// Delay from time zero, in microseconds.
    delay: u64,
    /// If set, the handler schedules a child this far in the future.
    child_delay: Option<u64>,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u64..5_000_000, // spans thousands of 1 ms calendar windows
        proptest::option::of(0u64..200_000),
    )
        .prop_map(|(delay, child_delay)| Op { delay, child_delay })
}

type Log = Vec<(u64, u64)>;

/// Schedules `ops` from time zero: each parent logs `(now, tag)` and may
/// schedule a child that logs `(now, 10_000 + tag)`.
fn schedule_program(sim: &mut Simulator<Log>, ops: &[Op]) {
    for (tag, op) in ops.iter().cloned().enumerate() {
        let tag = tag as u64;
        sim.schedule_in(SimDuration::from_micros(op.delay), move |log, sim| {
            log.push((sim.now().as_micros(), tag));
            if let Some(cd) = op.child_delay {
                let child_tag = 10_000 + tag;
                sim.schedule_in(SimDuration::from_micros(cd), move |log, sim| {
                    log.push((sim.now().as_micros(), child_tag));
                });
            }
        });
    }
}

/// Runs `ops` on the given queue kind and returns the fired-event log.
fn run_program(kind: QueueKind, ops: &[Op]) -> (Log, u64, usize) {
    let mut sim: Simulator<Log> = Simulator::with_queue(kind);
    schedule_program(&mut sim, ops);
    let mut log = Vec::new();
    sim.run(&mut log);
    (log, sim.executed(), sim.pending())
}

/// What a simulator shows after a run: the log, the clock, the number of
/// pending events and the number executed.
type Observed = (Log, u64, usize, u64);

fn observe(sim: &Simulator<Log>, log: &Log) -> Observed {
    (
        log.clone(),
        sim.now().as_micros(),
        sim.pending(),
        sim.executed(),
    )
}

/// Runs `ops` on the given queue kind, stopping at each deadline in turn
/// and then running to completion; returns what each stop observed.
fn run_program_until(kind: QueueKind, ops: &[Op], deadlines: &[u64]) -> Vec<Observed> {
    let mut sim: Simulator<Log> = Simulator::with_queue(kind);
    schedule_program(&mut sim, ops);
    let mut log = Vec::new();
    let mut seen = Vec::new();
    for &deadline in deadlines {
        sim.run_until(&mut log, SimTime::from_micros(deadline));
        seen.push(observe(&sim, &log));
    }
    sim.run(&mut log);
    seen.push(observe(&sim, &log));
    seen
}

proptest! {
    /// Calendar-queue pop order is identical to the reference heap on
    /// random schedules with child events.
    #[test]
    fn calendar_matches_reference_heap(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let (cal_log, cal_exec, cal_pending) = run_program(QueueKind::Calendar, &ops);
        let (ref_log, ref_exec, ref_pending) = run_program(QueueKind::ReferenceHeap, &ops);
        prop_assert_eq!(cal_log, ref_log, "pop order diverged");
        prop_assert_eq!(cal_exec, ref_exec);
        prop_assert_eq!(cal_pending, 0usize);
        prop_assert_eq!(ref_pending, 0usize);
    }

    /// `run_until` stops both queues at the same event: after every
    /// deadline the log, the clock and the pending count agree, and so
    /// does the run to completion that follows. Parents sit on a 250 µs
    /// grid inside a few calendar windows and their children fall 0–3 ms
    /// later, so a staged window's run and its `late` heap both hold
    /// events around each deadline.
    #[test]
    fn run_until_matches_reference_heap(
        parents in proptest::collection::vec((0u64..80, proptest::option::of(0u64..13)), 1..48),
        gaps in proptest::collection::vec(0u64..32, 1..13),
    ) {
        let ops: Vec<Op> = parents
            .iter()
            .map(|&(at, child)| Op { delay: at * 250, child_delay: child.map(|c| c * 250) })
            .collect();
        // Deadlines on a 125 µs grid: half land on event instants, half
        // between them.
        let deadlines: Vec<u64> = gaps
            .iter()
            .scan(0u64, |t, &gap| {
                *t += gap * 125;
                Some(*t)
            })
            .collect();
        let cal = run_program_until(QueueKind::Calendar, &ops, &deadlines);
        let reference = run_program_until(QueueKind::ReferenceHeap, &ops, &deadlines);
        prop_assert_eq!(cal.len(), reference.len());
        for (i, (c, r)) in cal.iter().zip(&reference).enumerate() {
            prop_assert_eq!(c, r, "diverged after stop {} of {:?}", i, deadlines);
        }
    }

    /// Same-instant collisions pop FIFO on both queues even when the
    /// instants straddle calendar-window boundaries. Every parent also
    /// schedules a zero-delay child, which lands in the `late` heap while
    /// its instant's other parents still sit in the staged run; the child
    /// must fire after every event already queued at its instant.
    #[test]
    fn same_instant_fifo_matches(
        instants in proptest::collection::vec(0u64..64, 2..128),
        width_pick in 0usize..3,
    ) {
        let width_us = [1_000u64, 1_024, 997][width_pick];
        let run = |kind: QueueKind| {
            let mut sim: Simulator<Log> = Simulator::with_queue(kind);
            for (i, &w) in instants.iter().enumerate() {
                let tag = i as u64;
                // Many ops collapse onto identical instants near window edges.
                sim.schedule_in(SimDuration::from_micros(w * width_us), move |log, sim| {
                    log.push((sim.now().as_micros(), tag));
                    sim.schedule_in(SimDuration::ZERO, move |log, sim| {
                        log.push((sim.now().as_micros(), 10_000 + tag));
                    });
                });
            }
            let mut log = Vec::new();
            sim.run(&mut log);
            log
        };
        let cal = run(QueueKind::Calendar);
        prop_assert_eq!(cal.clone(), run(QueueKind::ReferenceHeap));
        prop_assert_eq!(cal.len(), 2 * instants.len());
        let parents: Log = cal.iter().copied().filter(|&(_, tag)| tag < 10_000).collect();
        for pair in parents.windows(2) {
            prop_assert!(pair[0].0 < pair[1].0 || pair[0].1 < pair[1].1, "FIFO violated");
        }
        // At its instant a child was queued behind every parent and behind
        // the children of the parents that fired before its own.
        let mut fired_parents: Vec<u64> = Vec::new();
        let mut fired_children: Vec<u64> = Vec::new();
        for (k, &(at, tag)) in cal.iter().enumerate() {
            if tag < 10_000 {
                prop_assert!(
                    cal[..k].iter().all(|&(t, c)| t < at || c < 10_000),
                    "parent {} fired after a child at {} µs", tag, at
                );
                fired_parents.push(tag);
            } else {
                fired_children.push(tag - 10_000);
            }
        }
        prop_assert_eq!(fired_children, fired_parents, "children fire in their parents' order");
    }
}

/// Deterministic stress: a long-horizon mix of dense near-term ticks,
/// far-future overflow batches and data events, driving window adaptation
/// and lazy rebucketing; both queues must agree event for event.
#[test]
fn long_horizon_stress_matches_reference() {
    fn tick(log: &mut Vec<(u64, u64)>, sim: &mut Simulator<Vec<(u64, u64)>>, d: EventData) {
        log.push((sim.now().as_micros(), d.a));
        if d.b > 0 {
            // Deterministic pseudo-random respacing, same on both queues.
            let gap = 1 + (d.a.wrapping_mul(2_654_435_761) % 9_000);
            sim.schedule_data_in(
                SimDuration::from_micros(gap),
                tick,
                EventData::new(d.a, d.b - 1),
            );
        }
    }
    let run = |kind: QueueKind| {
        let mut sim: Simulator<Vec<(u64, u64)>> = Simulator::with_queue(kind);
        for i in 0..500u64 {
            sim.schedule_data_in(
                SimDuration::from_micros(i * 13),
                tick,
                EventData::new(i, 40),
            );
            // Far-future batch: parks in overflow until the horizon reaches it.
            sim.schedule_data_in(
                SimDuration::from_secs(2 + i % 7),
                tick,
                EventData::new(1_000 + i, 2),
            );
        }
        let mut log = Vec::new();
        sim.run(&mut log);
        (log, sim.executed())
    };
    let (cal_log, cal_exec) = run(QueueKind::Calendar);
    let (ref_log, ref_exec) = run(QueueKind::ReferenceHeap);
    assert_eq!(cal_exec, ref_exec);
    assert_eq!(cal_log, ref_log, "stress pop order diverged");
    assert!(cal_exec > 20_000, "stress should execute many events");
}
