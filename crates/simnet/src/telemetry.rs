//! Span-based telemetry on the simulated clock.
//!
//! A [`Telemetry`] collects [`Span`]s — named intervals of simulated time
//! with typed attributes and an optional parent — so a migration shows up
//! as one root span with a child per `MobilityManager` phase, and an AA
//! decision as a span wrapping reasoning with profiling counters attached.
//!
//! Because simulation work is interleaved across scheduled closures there
//! is no ambient "current span"; spans are opened and closed explicitly,
//! and the parent is passed when the child starts.
//!
//! Spans are opened through two sanctioned fronts (the raw
//! `Telemetry::open_span` primitive is private to this module —
//! `mdlint` rule R4 rejects the identifier anywhere else):
//!
//! * [`Telemetry::record_span`] — a phase whose start and end are both
//!   known at the call site (suspend, wrap, rebind, ...) is recorded
//!   closed in one call, so it can never leak open.
//! * [`Telemetry::open`] — returns a linear, `#[must_use]` [`SpanGuard`]
//!   that must be explicitly [`SpanGuard::close`]d (consuming it, so a
//!   span cannot be double-closed) or [`SpanGuard::detach`]ed into a
//!   `Copy` [`SpanId`] when the close happens in a later scheduled event
//!   (migration roots ride in-flight records across the network). A
//!   dropped guard that was neither closed nor detached trips the
//!   `must_use` warning at the open site.
//!
//! # Tail-based sampling
//!
//! A collector built with [`Telemetry::sampled`] buffers spans per trace
//! (the connected tree under one parentless root) in a bounded ring and
//! decides keep-or-drop only when the trace's root span ends, so the
//! decision can see the whole outcome: traces whose root carries a
//! terminal `status` of `aborted`/`rejected`/`duplicate`, recorded more
//! than one `attempts`, contain a `*.rollback` phase, or ran at least
//! [`SamplerOptions::latency_threshold`] are *always* kept; healthy
//! traces are kept at a seeded, deterministic
//! [`SamplerOptions::keep_fraction`]. When buffered spans would exceed
//! [`SamplerOptions::ring_capacity`], the oldest still-open trace is
//! evicted whole. Every span is accounted for in [`SamplerStats`] —
//! kept, dropped, or still buffered — so truncation is never silent
//! (the eviction/drop internals `finalize_trace`, `evict_oldest_trace`
//! and `buffered_span_mut` are likewise R4-confined to this module).
//!
//! The collector keeps no export format: the JSONL and Chrome trace
//! exporters live with the artifacts they write, in `mdagent-bench`, over
//! [`Telemetry::spans`], [`Telemetry::root_of`] and
//! [`Telemetry::sampler_stats`].

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;

use mdagent_fx::FxHashMap;

use crate::time::{SimDuration, SimTime};

/// Handle to a span inside one [`Telemetry`] collector.
///
/// In a passthrough collector the id is an index into the span list; in a
/// sampled collector it is a monotonic counter (buffered spans have ids
/// before they are kept). A telemetry built with [`Telemetry::disabled`]
/// hands out a sentinel id for which every operation is a no-op, so
/// instrumented code never branches on enablement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u32);

impl SpanId {
    /// Sentinel handed out by disabled collectors; all operations on it
    /// are no-ops.
    pub const DISABLED: SpanId = SpanId(u32::MAX);

    /// Raw index value (`u32::MAX` for the disabled sentinel).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from its raw value — the inverse of
    /// [`SpanId::raw`], used when a `(trace_id, parent_span_id)` pair
    /// arrives over the wire and destination-side spans must be parented
    /// to a source-side span. `u32::MAX` yields the disabled sentinel;
    /// ids that do not name a live span in the receiving collector are
    /// ignored by every operation (never exported as dangling edges).
    pub fn from_raw(raw: u32) -> SpanId {
        SpanId(raw)
    }

    /// Whether this id came from a disabled collector.
    pub fn is_disabled(self) -> bool {
        self == SpanId::DISABLED
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span-{}", self.0)
    }
}

/// Linear guard over an open span, handed out by [`Telemetry::open`].
///
/// The guard is deliberately neither `Copy` nor `Clone`: a span is closed
/// by *consuming* the guard with [`SpanGuard::close`], so it cannot be
/// closed twice, and a guard that is silently dropped without being
/// closed trips the `must_use` warning at the open site instead of
/// leaking an open span into the export.
///
/// Spans that outlive the opening scope — a migration root travels inside
/// the in-flight record until arrival or rollback — are explicitly
/// [`SpanGuard::detach`]ed into the `Copy` [`SpanId`]; the detach call
/// marks the hand-off point for reviewers and keeps every other open
/// site honest.
#[must_use = "close the span guard (or detach it into a SpanId for cross-event spans); dropping it leaks an open span"]
#[derive(Debug)]
pub struct SpanGuard {
    id: SpanId,
}

impl SpanGuard {
    /// The underlying span id (for attributes and child parenting).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Closes the span at `at`, consuming the guard. Returns the id so
    /// callers can keep referring to the closed span.
    pub fn close(self, tel: &mut Telemetry, at: SimTime) -> SpanId {
        tel.end(self.id, at);
        self.id
    }

    /// Releases the guard into a bare [`SpanId`] for spans that close in
    /// a later scheduled event. The caller takes over the obligation to
    /// call [`Telemetry::end`] exactly once.
    pub fn detach(self) -> SpanId {
        self.id
    }
}

/// A typed attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Text (host, space, agent and app names, modes).
    Str(Cow<'static, str>),
    /// Unsigned quantity (bytes, counts, rounds).
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Fractional quantity (milliseconds, ratios).
    F64(f64),
    /// Flag.
    Bool(bool),
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(Cow::Owned(v))
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One named interval of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id within its collector.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Span name (e.g. `migration`, `migration.suspend`, `aa.decision`).
    pub name: Cow<'static, str>,
    /// Simulated start time.
    pub start: SimTime,
    /// Simulated end time; `None` while still open.
    pub end: Option<SimTime>,
    /// Typed attributes in attachment order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Duration in simulated microseconds (zero while the span is open).
    pub fn duration_micros(&self) -> u64 {
        self.end
            .map(|e| e.as_micros().saturating_sub(self.start.as_micros()))
            .unwrap_or(0)
    }

    /// First attribute with the given key, if any.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Appends an attribute. Spans are created with room for the common
    /// case; growth past that is explicit and chunked rather than left
    /// to the implicit doubling policy.
    fn push_attr(&mut self, key: &'static str, value: AttrValue) {
        if self.attrs.len() == self.attrs.capacity() {
            self.attrs.reserve(6);
        }
        self.attrs.push((key, value));
    }
}

/// Configuration for a tail-based sampling collector
/// ([`Telemetry::sampled`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerOptions {
    /// Fraction of healthy traces kept, in `[0, 1]`. The decision is a
    /// pure function of `seed` and the trace's root span id, so reruns of
    /// the same schedule keep the same traces.
    pub keep_fraction: f64,
    /// Traces whose root span runs at least this long are always kept,
    /// regardless of `keep_fraction`.
    pub latency_threshold: SimDuration,
    /// Maximum number of spans buffered across all still-open traces.
    /// When an open would exceed it, the oldest open trace is evicted
    /// whole (counted in [`SamplerStats::traces_evicted`]). Clamped to a
    /// minimum of 1.
    pub ring_capacity: usize,
    /// Seed for the deterministic keep decision.
    pub seed: u64,
}

impl Default for SamplerOptions {
    fn default() -> Self {
        SamplerOptions {
            keep_fraction: 0.1,
            latency_threshold: SimDuration::from_millis(5_000),
            ring_capacity: 4_096,
            seed: 0,
        }
    }
}

/// Exact span/trace accounting of a sampling collector.
///
/// The invariant `spans_opened == spans_kept + spans_dropped +
/// spans_buffered` holds after every operation; [`SamplerStats::unaccounted`]
/// reports any violation (always 0 in a correct collector), so a report
/// can prove no span was lost silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SamplerStats {
    /// Spans ever opened (including ones later dropped).
    pub spans_opened: u64,
    /// Spans promoted into the exported set.
    pub spans_kept: u64,
    /// Spans dropped: unsampled trace, evicted trace, or parent unknown.
    pub spans_dropped: u64,
    /// Spans currently buffered in still-open traces.
    pub spans_buffered: u64,
    /// High-water mark of `spans_buffered` (bounded by ring capacity).
    pub buffered_peak: u64,
    /// Traces started (parentless spans opened).
    pub traces_started: u64,
    /// Traces finalized and kept.
    pub traces_kept: u64,
    /// Traces finalized and dropped by the sampling decision.
    pub traces_dropped: u64,
    /// Still-open traces evicted whole under ring pressure.
    pub traces_evicted: u64,
}

impl SamplerStats {
    /// Spans not accounted for as kept, dropped or buffered — 0 unless
    /// the collector's bookkeeping is broken.
    pub fn unaccounted(&self) -> u64 {
        (self.spans_kept + self.spans_dropped + self.spans_buffered).abs_diff(self.spans_opened)
    }
}

/// Internal state of a sampling collector: per-trace buffers plus the
/// id-to-location indexes that make `attr`/`end`/`span` work on both
/// buffered and kept spans.
#[derive(Debug, Clone)]
struct SamplerState {
    opts: SamplerOptions,
    /// Next raw span id (monotonic; never reused until [`Telemetry::clear`]).
    next_id: u32,
    /// Open trace buffers, keyed by root span id; the root is element 0.
    open: FxHashMap<u32, Vec<Span>>,
    /// Open trace roots, oldest first (eviction order).
    order: VecDeque<u32>,
    /// Buffered span id → its trace's root id.
    locate: FxHashMap<u32, u32>,
    /// Kept span id → index into `Telemetry::spans`.
    kept: FxHashMap<u32, u32>,
    stats: SamplerStats,
}

impl SamplerState {
    fn new(mut opts: SamplerOptions) -> Self {
        opts.ring_capacity = opts.ring_capacity.max(1);
        SamplerState {
            opts,
            next_id: 0,
            open: FxHashMap::default(),
            order: VecDeque::new(),
            locate: FxHashMap::default(),
            kept: FxHashMap::default(),
            stats: SamplerStats::default(),
        }
    }
}

/// Span collector on the simulated clock.
///
/// # Examples
///
/// ```
/// use mdagent_simnet::{SimTime, Telemetry};
///
/// let mut tel = Telemetry::new();
/// let root = tel.open("migration", None, SimTime::ZERO);
/// let child = tel.record_span(
///     "migration.suspend",
///     Some(root.id()),
///     SimTime::ZERO,
///     SimTime::from_millis(3),
/// );
/// tel.attr(child, "bytes", 4096u64);
/// root.close(&mut tel, SimTime::from_millis(9));
/// assert_eq!(tel.spans().len(), 2);
/// assert_eq!(tel.span(child).unwrap().duration_micros(), 3_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    spans: Vec<Span>,
    enabled: bool,
    sampler: Option<Box<SamplerState>>,
}

impl Telemetry {
    /// Creates an enabled, empty collector that keeps every span
    /// (passthrough — no sampling).
    pub fn new() -> Self {
        Telemetry {
            spans: Vec::new(),
            enabled: true,
            sampler: None,
        }
    }

    /// Creates a disabled collector: [`Telemetry::open`] hands out a
    /// guard over [`SpanId::DISABLED`] and every other operation is a
    /// no-op with no allocation, so benchmarks can measure the
    /// instrumentation floor.
    pub fn disabled() -> Self {
        Telemetry {
            spans: Vec::new(),
            enabled: false,
            sampler: None,
        }
    }

    /// Creates an enabled collector with tail-based sampling (see the
    /// module docs for the buffering and keep/drop rules).
    pub fn sampled(opts: SamplerOptions) -> Self {
        Telemetry {
            spans: Vec::new(),
            enabled: true,
            sampler: Some(Box::new(SamplerState::new(opts))),
        }
    }

    /// Whether spans are kept.
    #[cfg(test)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The sampler configuration, if this collector samples.
    pub fn sampler_options(&self) -> Option<SamplerOptions> {
        self.sampler.as_ref().map(|s| s.opts)
    }

    /// Current sampler accounting, if this collector samples.
    pub fn sampler_stats(&self) -> Option<SamplerStats> {
        self.sampler.as_ref().map(|s| s.stats)
    }

    /// Opens a span at `at`, returning a guard that must be closed or
    /// explicitly detached (see [`SpanGuard`]).
    pub fn open(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
        at: SimTime,
    ) -> SpanGuard {
        SpanGuard {
            id: self.open_span(name, parent, at),
        }
    }

    /// Records a span whose extent is already known, closed, in one call.
    ///
    /// This is the right front for phase spans (suspend, wrap, rebind,
    /// adapt, resume) whose cost is computed at the call site: a span
    /// recorded closed can never leak open. Attributes can still be
    /// attached afterwards through the returned id.
    // mdlint::hot
    pub fn record_span(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
        start: SimTime,
        end: SimTime,
    ) -> SpanId {
        let id = self.open_span(name, parent, start);
        self.end(id, end);
        id
    }

    /// Raw span-open primitive. Module-internal: every caller outside
    /// this file must go through [`Telemetry::open`] (guard) or
    /// [`Telemetry::record_span`] — `mdlint` rule R4 enforces it.
    fn open_span(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
        at: SimTime,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::DISABLED;
        }
        let parent = parent.filter(|p| !p.is_disabled());
        let Some(sampler) = self.sampler.as_mut() else {
            // Passthrough: ids are indices. A parent id carried in from
            // elsewhere (e.g. wire trace context) that names no span here
            // is dropped rather than exported as a dangling edge.
            let parent = parent.filter(|p| (p.0 as usize) < self.spans.len());
            let id = SpanId(self.spans.len() as u32);
            self.spans.push(Span {
                id,
                parent,
                name: name.into(),
                start: at,
                end: None,
                // Migration-path spans attach a handful of attributes
                // right after `start`; reserving up front keeps the hot
                // path to a single allocation instead of the
                // grow-by-doubling series.
                attrs: Vec::with_capacity(6),
            });
            return id;
        };
        if sampler.next_id == u32::MAX {
            // The id space is exhausted; u32::MAX is the disabled
            // sentinel, so refuse rather than alias it.
            return SpanId::DISABLED;
        }
        let id = SpanId(sampler.next_id);
        sampler.next_id += 1;
        sampler.stats.spans_opened += 1;
        let span = Span {
            id,
            parent,
            name: name.into(),
            start: at,
            end: None,
            attrs: Vec::with_capacity(6),
        };
        match parent {
            None => {
                sampler.stats.traces_started += 1;
                if !Self::reserve_buffer_slot(sampler, id.0) {
                    sampler.stats.spans_dropped += 1;
                    return id;
                }
                let mut buf = Vec::with_capacity(8);
                buf.push(span);
                sampler.open.insert(id.0, buf);
                sampler.order.push_back(id.0);
                sampler.locate.insert(id.0, id.0);
                Self::note_buffered(&mut sampler.stats);
            }
            Some(p) => {
                if let Some(&root) = sampler.locate.get(&p.0) {
                    if !Self::reserve_buffer_slot(sampler, root) {
                        sampler.stats.spans_dropped += 1;
                        return id;
                    }
                    if let Some(buf) = sampler.open.get_mut(&root) {
                        buf.push(span);
                        sampler.locate.insert(id.0, root);
                        Self::note_buffered(&mut sampler.stats);
                    } else {
                        sampler.stats.spans_dropped += 1;
                    }
                } else if sampler.kept.contains_key(&p.0) {
                    // Late child of an already-kept trace: promote it
                    // directly so the exported tree stays connected.
                    sampler.kept.insert(id.0, self.spans.len() as u32);
                    sampler.stats.spans_kept += 1;
                    self.spans.push(span);
                } else {
                    // Parent was dropped or evicted — dropping the child
                    // immediately keeps "every exported span's parent is
                    // exported" true by construction.
                    sampler.stats.spans_dropped += 1;
                }
            }
        }
        id
    }

    /// Makes room for one more buffered span, evicting the oldest open
    /// trace(s) other than `protect` if needed. Returns `false` when no
    /// room can be made (only the protected trace remains and the ring is
    /// full).
    fn reserve_buffer_slot(sampler: &mut SamplerState, protect: u32) -> bool {
        while sampler.stats.spans_buffered >= sampler.opts.ring_capacity as u64 {
            if !Self::evict_oldest_trace(sampler, protect) {
                return false;
            }
        }
        true
    }

    /// Evicts the oldest still-open trace other than `protect`, dropping
    /// its buffered spans. Returns `false` if there was nothing evictable.
    fn evict_oldest_trace(sampler: &mut SamplerState, protect: u32) -> bool {
        while let Some(&candidate) = sampler.order.front() {
            if !sampler.open.contains_key(&candidate) {
                // Stale entry (trace already finalized); discard.
                sampler.order.pop_front();
                continue;
            }
            if candidate == protect {
                if sampler.order.len() == 1 {
                    return false;
                }
                // The trace being appended to is exempt; rotating it to
                // the back keeps the scan finite and treats it as the
                // most recently active trace, which it is.
                sampler.order.pop_front();
                sampler.order.push_back(candidate);
                continue;
            }
            sampler.order.pop_front();
            if let Some(buf) = sampler.open.remove(&candidate) {
                for s in &buf {
                    sampler.locate.remove(&s.id.0);
                }
                sampler.stats.spans_buffered = sampler
                    .stats
                    .spans_buffered
                    .saturating_sub(buf.len() as u64);
                sampler.stats.spans_dropped += buf.len() as u64;
                sampler.stats.traces_evicted += 1;
            }
            return true;
        }
        false
    }

    fn note_buffered(stats: &mut SamplerStats) {
        stats.spans_buffered += 1;
        stats.buffered_peak = stats.buffered_peak.max(stats.spans_buffered);
    }

    /// Finds a buffered span by id inside its trace's buffer.
    fn buffered_span_mut(
        open: &mut FxHashMap<u32, Vec<Span>>,
        root: u32,
        id: SpanId,
    ) -> Option<&mut Span> {
        open.get_mut(&root)?.iter_mut().find(|s| s.id == id)
    }

    /// Applies the tail keep/drop decision to a trace whose root span
    /// just ended, draining its buffer into the kept set or the drop
    /// counters.
    fn finalize_trace(&mut self, root: u32) {
        let Some(sampler) = self.sampler.as_mut() else {
            return;
        };
        let Some(buf) = sampler.open.remove(&root) else {
            return;
        };
        for s in &buf {
            sampler.locate.remove(&s.id.0);
        }
        if let Some(pos) = sampler.order.iter().position(|&r| r == root) {
            sampler.order.remove(pos);
        }
        sampler.stats.spans_buffered = sampler
            .stats
            .spans_buffered
            .saturating_sub(buf.len() as u64);
        if Self::should_keep(&sampler.opts, &buf) {
            sampler.stats.traces_kept += 1;
            sampler.stats.spans_kept += buf.len() as u64;
            // One reservation for the whole trace instead of letting the
            // per-span pushes grow the kept-span store incrementally.
            self.spans.reserve(buf.len());
            for span in buf {
                sampler.kept.insert(span.id.0, self.spans.len() as u32);
                self.spans.push(span);
            }
        } else {
            sampler.stats.traces_dropped += 1;
            sampler.stats.spans_dropped += buf.len() as u64;
        }
    }

    /// The tail sampling decision: always keep outcome-interesting
    /// traces, otherwise a deterministic seeded coin on the root id.
    fn should_keep(opts: &SamplerOptions, buf: &[Span]) -> bool {
        let Some(root) = buf.first() else {
            return false;
        };
        if let Some(AttrValue::Str(status)) = root.attr("status") {
            if matches!(status.as_ref(), "aborted" | "rejected" | "duplicate") {
                return true;
            }
        }
        if let Some(AttrValue::U64(attempts)) = root.attr("attempts") {
            if *attempts > 1 {
                return true;
            }
        }
        if buf.iter().any(|s| s.name.ends_with(".rollback")) {
            return true;
        }
        if root.duration_micros() >= opts.latency_threshold.as_micros() {
            return true;
        }
        keep_coin(opts.seed, root.id.0) < opts.keep_fraction
    }

    /// Attaches an attribute to an open or closed span.
    // mdlint::hot
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: impl Into<AttrValue>) {
        if !self.enabled || id.is_disabled() {
            return;
        }
        if self.sampler.is_none() {
            if let Some(span) = self.spans.get_mut(id.0 as usize) {
                span.push_attr(key, value.into());
            }
            return;
        }
        let kept_idx = self
            .sampler
            .as_ref()
            .and_then(|s| s.kept.get(&id.0).copied());
        if let Some(idx) = kept_idx {
            if let Some(span) = self.spans.get_mut(idx as usize) {
                span.push_attr(key, value.into());
            }
            return;
        }
        if let Some(sampler) = self.sampler.as_mut() {
            if let Some(&root) = sampler.locate.get(&id.0) {
                if let Some(span) = Self::buffered_span_mut(&mut sampler.open, root, id) {
                    span.push_attr(key, value.into());
                }
            }
        }
    }

    /// Closes a span at `at`. Closing twice keeps the first end time. In
    /// a sampled collector, ending a trace's root span triggers the
    /// keep/drop decision for the whole trace.
    // mdlint::hot
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        if !self.enabled || id.is_disabled() {
            return;
        }
        if self.sampler.is_none() {
            if let Some(span) = self.spans.get_mut(id.0 as usize) {
                if span.end.is_none() {
                    span.end = Some(at.max(span.start));
                }
            }
            return;
        }
        let kept_idx = self
            .sampler
            .as_ref()
            .and_then(|s| s.kept.get(&id.0).copied());
        if let Some(idx) = kept_idx {
            if let Some(span) = self.spans.get_mut(idx as usize) {
                if span.end.is_none() {
                    span.end = Some(at.max(span.start));
                }
            }
            return;
        }
        let mut finalize_root = None;
        if let Some(sampler) = self.sampler.as_mut() {
            if let Some(&root) = sampler.locate.get(&id.0) {
                if let Some(span) = Self::buffered_span_mut(&mut sampler.open, root, id) {
                    if span.end.is_none() {
                        span.end = Some(at.max(span.start));
                    }
                }
                if id.0 == root {
                    finalize_root = Some(root);
                }
            }
        }
        if let Some(root) = finalize_root {
            self.finalize_trace(root);
        }
    }

    /// All exported spans in promotion order (passthrough: every span in
    /// creation order; sampled: kept spans only).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Looks up one span by id (buffered spans are visible here until
    /// their trace is finalized).
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        if id.is_disabled() {
            return None;
        }
        let Some(sampler) = self.sampler.as_ref() else {
            return self.spans.get(id.0 as usize);
        };
        if let Some(&idx) = sampler.kept.get(&id.0) {
            return self.spans.get(idx as usize);
        }
        let root = sampler.locate.get(&id.0)?;
        sampler.open.get(root)?.iter().find(|s| s.id == id)
    }

    /// Spans whose name matches exactly, in creation order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of `parent`, in creation order.
    pub fn children_of(&self, parent: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(parent))
    }

    /// Walks parents up to the root ancestor of `id` — the trace id used
    /// as the Chrome track and for exemplar links in `OBS_report.json`.
    pub fn root_of(&self, id: SpanId) -> SpanId {
        let mut cur = id;
        // Parents always have smaller ids, so this terminates.
        while let Some(span) = self.span(cur) {
            match span.parent {
                Some(p) if p.0 < cur.0 => cur = p,
                _ => break,
            }
        }
        cur
    }
}

/// Deterministic coin in `[0, 1)` from `(seed, trace root id)` — a
/// splitmix64 finalizer, so nearby root ids decorrelate.
fn keep_coin(seed: u64, root_id: u32) -> f64 {
    let mut z = seed ^ u64::from(root_id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let mut tel = Telemetry::new();
        let root = tel
            .open("migration", None, SimTime::from_millis(1))
            .detach();
        let child = tel
            .open("migration.suspend", Some(root), SimTime::from_millis(1))
            .detach();
        tel.attr(child, "bytes", 512u64);
        tel.end(child, SimTime::from_millis(4));
        tel.end(root, SimTime::from_millis(10));
        assert_eq!(tel.spans().len(), 2);
        let c = tel.span(child).unwrap();
        assert_eq!(c.parent, Some(root));
        assert_eq!(c.duration_micros(), 3_000);
        assert_eq!(c.attr("bytes"), Some(&AttrValue::U64(512)));
        assert_eq!(tel.children_of(root).count(), 1);
        assert_eq!(tel.spans_named("migration").count(), 1);
    }

    #[test]
    fn disabled_is_inert() {
        let mut tel = Telemetry::disabled();
        let id = tel.open("x", None, SimTime::ZERO).detach();
        assert!(id.is_disabled());
        tel.attr(id, "k", 1u64);
        tel.end(id, SimTime::from_millis(1));
        assert!(tel.spans().is_empty());
        assert!(tel.span(id).is_none());
        assert!(!tel.is_enabled());
    }

    #[test]
    fn end_clamps_and_is_idempotent() {
        let mut tel = Telemetry::new();
        let id = tel.open("s", None, SimTime::from_millis(5)).detach();
        tel.end(id, SimTime::from_millis(3)); // earlier than start: clamped
        tel.end(id, SimTime::from_millis(9)); // second end ignored
        let span = tel.span(id).unwrap();
        assert_eq!(span.end, Some(SimTime::from_millis(5)));
    }

    fn sampler(keep_fraction: f64, ring_capacity: usize) -> Telemetry {
        Telemetry::sampled(SamplerOptions {
            keep_fraction,
            latency_threshold: SimDuration::from_millis(60_000),
            ring_capacity,
            seed: 7,
        })
    }

    /// Runs one three-span trace to completion; returns the root id.
    fn run_trace(tel: &mut Telemetry, start_ms: u64, status: Option<&'static str>) -> SpanId {
        let start = SimTime::from_millis(start_ms);
        let root = tel.open("migration", None, start).detach();
        let child = tel.record_span(
            "migration.suspend",
            Some(root),
            start,
            SimTime::from_millis(start_ms + 1),
        );
        tel.attr(child, "bytes", 64u64);
        let _ = tel.record_span(
            "migration.resume",
            Some(root),
            SimTime::from_millis(start_ms + 1),
            SimTime::from_millis(start_ms + 2),
        );
        if let Some(status) = status {
            tel.attr(root, "status", status);
        }
        tel.end(root, SimTime::from_millis(start_ms + 2));
        root
    }

    #[test]
    fn sampled_always_keeps_outcome_interesting_traces() {
        // keep_fraction 0: only the always-keep rules can keep a trace.
        let mut tel = sampler(0.0, 64);
        let aborted = run_trace(&mut tel, 0, Some("aborted"));
        let healthy = run_trace(&mut tel, 10, None);
        let rejected = run_trace(&mut tel, 20, Some("rejected"));
        // Retried-but-successful migration: attempts > 1, no status.
        let retried = {
            let root = tel
                .open("migration", None, SimTime::from_millis(30))
                .detach();
            tel.attr(root, "attempts", 2u64);
            tel.end(root, SimTime::from_millis(31));
            root
        };
        assert!(tel.span(aborted).is_some());
        assert!(tel.span(rejected).is_some());
        assert!(tel.span(retried).is_some());
        assert!(tel.span(healthy).is_none());
        // The aborted trace survives with its full causal tree.
        assert_eq!(tel.children_of(aborted).count(), 2);
        let stats = tel.sampler_stats().unwrap();
        assert_eq!(stats.traces_kept, 3);
        assert_eq!(stats.traces_dropped, 1);
        assert_eq!(stats.spans_dropped, 3);
        assert_eq!(stats.unaccounted(), 0);
    }

    #[test]
    fn sampled_latency_threshold_always_keeps() {
        let mut tel = Telemetry::sampled(SamplerOptions {
            keep_fraction: 0.0,
            latency_threshold: SimDuration::from_millis(100),
            ring_capacity: 16,
            seed: 1,
        });
        let slow = tel.open("migration", None, SimTime::ZERO).detach();
        tel.end(slow, SimTime::from_millis(100));
        let fast = tel
            .open("migration", None, SimTime::from_millis(200))
            .detach();
        tel.end(fast, SimTime::from_millis(250));
        assert!(tel.span(slow).is_some());
        assert!(tel.span(fast).is_none());
    }

    #[test]
    fn sampled_keep_fraction_is_deterministic() {
        let kept_ids = |seed: u64| -> Vec<u32> {
            let mut tel = Telemetry::sampled(SamplerOptions {
                keep_fraction: 0.5,
                latency_threshold: SimDuration::from_millis(60_000),
                ring_capacity: 8,
                seed,
            });
            for i in 0..200 {
                let _ = run_trace(&mut tel, i * 10, None);
            }
            tel.spans()
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.id.raw())
                .collect()
        };
        let a = kept_ids(7);
        let b = kept_ids(7);
        assert_eq!(a, b, "same seed keeps the same traces");
        assert!(
            !a.is_empty() && a.len() < 200,
            "fraction is neither 0 nor 1"
        );
        let c = kept_ids(8);
        assert_ne!(a, c, "different seed keeps a different set");
    }

    #[test]
    fn sampled_ring_evicts_oldest_whole_trace_and_accounts_exactly() {
        let mut tel = sampler(1.0, 4);
        // Five roots left open: the ring holds at most 4 buffered spans,
        // so the oldest trace is evicted whole to admit the fifth.
        let roots: Vec<SpanId> = (0..5)
            .map(|i| {
                tel.open("migration", None, SimTime::from_millis(i))
                    .detach()
            })
            .collect();
        let stats = tel.sampler_stats().unwrap();
        assert_eq!(stats.spans_buffered, 4);
        assert_eq!(stats.buffered_peak, 4);
        assert_eq!(stats.traces_evicted, 1);
        assert_eq!(stats.unaccounted(), 0);
        assert!(tel.span(roots[0]).is_none(), "oldest trace evicted");
        // A child of the evicted trace is dropped immediately, never
        // exported as an orphan.
        let orphan = tel.record_span(
            "migration.suspend",
            Some(roots[0]),
            SimTime::from_millis(9),
            SimTime::from_millis(10),
        );
        assert!(tel.span(orphan).is_none());
        // Surviving traces finalize normally (keep_fraction 1.0).
        for root in &roots[1..] {
            tel.end(*root, SimTime::from_millis(20));
        }
        let stats = tel.sampler_stats().unwrap();
        assert_eq!(stats.spans_buffered, 0);
        assert_eq!(stats.traces_kept, 4);
        assert_eq!(stats.spans_kept, 4);
        assert_eq!(stats.spans_dropped, 2); // evicted root + its late child
        assert_eq!(stats.unaccounted(), 0);
    }

    #[test]
    fn sampled_late_child_of_kept_trace_is_promoted() {
        let mut tel = sampler(1.0, 16);
        let root = run_trace(&mut tel, 0, None);
        assert!(tel.span(root).is_some());
        let late = tel.record_span(
            "migration.checkin",
            Some(root),
            SimTime::from_millis(3),
            SimTime::from_millis(4),
        );
        let span = tel.span(late).expect("late child promoted");
        assert_eq!(span.parent, Some(root));
        assert_eq!(tel.sampler_stats().unwrap().unaccounted(), 0);
    }
}
