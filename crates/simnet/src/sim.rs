//! The simulator engine: a clock plus an event queue over a user world.
//!
//! The engine is generic over a *world* type `W` — the mutable state that
//! event handlers operate on. MDAgent's middleware keeps its containers,
//! registries and applications inside the world; the simulator stays a thin,
//! reusable kernel.

use crate::event::{EventData, EventId, EventQueue, Payload, QueueKind};
use crate::time::{SimDuration, SimTime};

/// A deterministic discrete-event simulator.
///
/// Events are closures over `(&mut W, &mut Simulator<W>)`; handlers may
/// schedule further events. Two events at the same instant fire in
/// scheduling order, so runs are replayable.
///
/// # Examples
///
/// ```
/// use mdagent_simnet::{Simulator, SimDuration, SimTime};
///
/// let mut sim: Simulator<Vec<&'static str>> = Simulator::new();
/// sim.schedule_in(SimDuration::from_millis(10), |w, sim| {
///     w.push("second");
///     assert_eq!(sim.now(), SimTime::from_millis(10));
/// });
/// sim.schedule_in(SimDuration::from_millis(1), |w, _| w.push("first"));
/// let mut world = Vec::new();
/// sim.run(&mut world);
/// assert_eq!(world, ["first", "second"]);
/// ```
pub struct Simulator<W> {
    now: SimTime,
    queue: EventQueue<W>,
    executed: u64,
    limit: Option<u64>,
}

impl<W> std::fmt::Debug for Simulator<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<W> Default for Simulator<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Simulator<W> {
    /// Creates an empty simulator at time zero, on the calendar queue.
    pub fn new() -> Self {
        Self::with_queue(QueueKind::default())
    }

    /// Creates an empty simulator on an explicit queue implementation.
    ///
    /// [`QueueKind::ReferenceHeap`] selects the original binary-heap
    /// scheduler — useful as an equivalence or performance baseline.
    pub fn with_queue(kind: QueueKind) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(kind),
            executed: 0,
            limit: None,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Caps the total number of events executed by [`run`](Self::run); a
    /// safety valve against runaway scenarios. `None` removes the cap.
    pub fn set_event_limit(&mut self, limit: Option<u64>) {
        self.limit = limit;
    }

    /// Schedules `action` at the absolute instant `at`.
    ///
    /// Instants in the past are clamped to *now* (the event still runs, at
    /// the current instant, after already-queued events for that instant).
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Simulator<W>) + 'static,
    {
        self.push(at, Payload::Boxed(Box::new(action)))
    }

    /// Schedules `action` after the relative delay `delay`.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Simulator<W>) + 'static,
    {
        self.schedule_at(self.now + delay, action)
    }

    /// Schedules `action` at the current instant, after already-queued
    /// events for this instant.
    pub fn schedule_now<F>(&mut self, action: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Simulator<W>) + 'static,
    {
        self.schedule_at(self.now, action)
    }

    /// Schedules a plain function pointer at the absolute instant `at` —
    /// no allocation, no captured state. Past instants clamp to *now*.
    pub fn schedule_fn_at(&mut self, at: SimTime, f: fn(&mut W, &mut Simulator<W>)) -> EventId {
        self.push(at, Payload::Fn(f))
    }

    /// Schedules a plain function pointer after `delay` (allocation-free).
    pub fn schedule_fn_in(
        &mut self,
        delay: SimDuration,
        f: fn(&mut W, &mut Simulator<W>),
    ) -> EventId {
        self.schedule_fn_at(self.now + delay, f)
    }

    /// Schedules a function pointer with a two-word [`EventData`] payload
    /// at the absolute instant `at` — the allocation-free hot path. Past
    /// instants clamp to *now*.
    // mdlint::hot
    pub fn schedule_data_at(
        &mut self,
        at: SimTime,
        f: fn(&mut W, &mut Simulator<W>, EventData),
        data: EventData,
    ) -> EventId {
        self.push(at, Payload::Data(f, data))
    }

    /// Schedules a data-carrying function pointer after `delay`.
    // mdlint::hot
    pub fn schedule_data_in(
        &mut self,
        delay: SimDuration,
        f: fn(&mut W, &mut Simulator<W>, EventData),
        data: EventData,
    ) -> EventId {
        self.schedule_data_at(self.now + delay, f, data)
    }

    /// Schedules a data-carrying function pointer at the current instant,
    /// after already-queued events for this instant.
    // mdlint::hot
    pub fn schedule_data_now(
        &mut self,
        f: fn(&mut W, &mut Simulator<W>, EventData),
        data: EventData,
    ) -> EventId {
        self.schedule_data_at(self.now, f, data)
    }

    fn push(&mut self, at: SimTime, payload: Payload<W>) -> EventId {
        let at = at.max(self.now);
        self.queue.push(at, payload)
    }

    /// Cancels a pending event. Returns `false` if the event already ran,
    /// was already cancelled, or never existed.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Runs a single event if one is pending, advancing the clock to it.
    ///
    /// Returns `false` when the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.queue.pop() {
            None => false,
            Some((at, payload)) => {
                debug_assert!(at >= self.now, "time must be monotonic");
                self.now = at;
                self.executed += 1;
                match payload {
                    Payload::Boxed(f) => f(world, self),
                    Payload::Fn(f) => f(world, self),
                    Payload::Data(f, data) => f(world, self, data),
                }
                true
            }
        }
    }

    /// Runs until the event queue drains (or the event limit trips).
    pub fn run(&mut self, world: &mut W) {
        while self.within_limit() && self.step(world) {}
    }

    /// Runs events until the clock would pass `deadline`; the clock is left
    /// at `deadline` (or later if an event fired exactly there).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        while self.within_limit() {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step(world);
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
    }

    fn within_limit(&self) -> bool {
        match self.limit {
            Some(cap) => self.executed < cap,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Simulator<Vec<u32>> = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(3), |w, _| w.push(3));
        sim.schedule_in(SimDuration::from_millis(1), |w, _| w.push(1));
        sim.schedule_in(SimDuration::from_millis(2), |w, _| w.push(2));
        let mut world = Vec::new();
        sim.run(&mut world);
        assert_eq!(world, [1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim: Simulator<Vec<u64>> = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(1), |w, sim| {
            w.push(sim.now().as_micros());
            sim.schedule_in(SimDuration::from_millis(1), |w, sim| {
                w.push(sim.now().as_micros());
            });
        });
        let mut world = Vec::new();
        sim.run(&mut world);
        assert_eq!(world, [1_000, 2_000]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(1), |w, _| *w += 1);
        sim.schedule_in(SimDuration::from_millis(10), |w, _| *w += 10);
        let mut world = 0;
        sim.run_until(&mut world, SimTime::from_millis(5));
        assert_eq!(world, 1);
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert_eq!(sim.pending(), 1);
        sim.run(&mut world);
        assert_eq!(world, 11);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut sim: Simulator<Vec<u64>> = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(5), |w, sim| {
            sim.schedule_at(
                SimTime::ZERO,
                |w: &mut Vec<u64>, sim: &mut Simulator<Vec<u64>>| {
                    w.push(sim.now().as_micros());
                },
            );
            w.push(sim.now().as_micros());
        });
        let mut world = Vec::new();
        sim.run(&mut world);
        assert_eq!(
            world,
            [5_000, 5_000],
            "clamped event runs at now, not in the past"
        );
    }

    #[test]
    fn event_limit_halts_runaway() {
        let mut sim: Simulator<u64> = Simulator::new();
        fn tick(w: &mut u64, sim: &mut Simulator<u64>) {
            *w += 1;
            sim.schedule_in(SimDuration::from_micros(1), tick);
        }
        sim.schedule_now(tick);
        sim.set_event_limit(Some(100));
        let mut world = 0;
        sim.run(&mut world);
        assert_eq!(world, 100);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim: Simulator<u32> = Simulator::new();
        let id = sim.schedule_in(SimDuration::from_millis(1), |w, _| *w = 99);
        assert!(sim.cancel(id));
        let mut world = 0;
        sim.run(&mut world);
        assert_eq!(world, 0);
    }
}
