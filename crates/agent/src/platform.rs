//! The agent platform: containers, message transport, lifecycle and
//! mobility. This is the reproduction's JADE.

use mdagent_fx::FxHashMap;
use std::collections::VecDeque;
use std::rc::Rc;

use mdagent_simnet::{
    EventData, FaultInjector, HostId, Interner, LinkId, MetricsRegistry, PipelinedTransfer,
    SimDuration, Simulator, Symbol, Telemetry, Topology, Trace, TraceCategory, TraceEvent,
    TransferFault, DEFAULT_CHUNK_BYTES,
};

use crate::acl::AclMessage;
use crate::agent::{Agent, Cx, Journey, LifecycleState};
use crate::error::AgentError;
use crate::id::{AgentId, ContainerId};

/// Delivery latency between two agents in the same container.
pub const LOCAL_DELIVERY: SimDuration = SimDuration::from_micros(100);
/// Fixed per-message processing overhead for remote delivery (marshalling,
/// transport stack), in addition to link transfer time.
pub const REMOTE_OVERHEAD: SimDuration = SimDuration::from_millis(2);
/// Fixed migration handshake cost (check-out negotiation, as JADE's
/// inter-container protocol does before the state transfer).
pub const MIGRATION_SETUP: SimDuration = SimDuration::from_millis(5);
/// Framing overhead added to every migrating agent (classname, headers).
pub const AGENT_FRAME_BYTES: u64 = 512;

/// Shared environment the platform needs from its world: the network,
/// metrics and the trace log.
#[derive(Debug)]
pub struct PlatformEnv {
    /// The network topology agents migrate over.
    pub topology: Topology,
    /// Counters and duration histograms.
    pub metrics: MetricsRegistry,
    /// Narrative event log.
    pub trace: Trace,
    /// Span collector for causal profiling (migrations, AA decisions).
    pub telemetry: Telemetry,
    /// Network fault injection (disabled by default; transfers never fail).
    pub faults: FaultInjector,
}

impl PlatformEnv {
    /// Creates an environment around a topology.
    pub fn new(topology: Topology) -> Self {
        PlatformEnv {
            topology,
            metrics: MetricsRegistry::new(),
            trace: Trace::new(),
            telemetry: Telemetry::new(),
            faults: FaultInjector::disabled(),
        }
    }

    /// Fault verdict for a transfer starting now, or `None` when the
    /// injector is disabled (in which case no RNG state advances).
    fn assess_fault(
        &mut self,
        from: HostId,
        to: HostId,
        now: mdagent_simnet::SimTime,
    ) -> Option<TransferFault> {
        if !self.faults.enabled() {
            return None;
        }
        let PlatformEnv {
            faults, topology, ..
        } = self;
        faults.assess(topology, from, to, now)
    }
}

/// Worlds that host an agent platform.
///
/// The simulator is generic over a world type `W`; any `W` that carries a
/// [`Platform`] and a [`PlatformEnv`] can run agents. MDAgent's middleware
/// struct implements this.
pub trait PlatformHost: Sized + 'static {
    /// The platform stored in this world.
    fn platform(&self) -> &Platform<Self>;
    /// Mutable platform access.
    fn platform_mut(&mut self) -> &mut Platform<Self>;
    /// The shared environment.
    fn env(&self) -> &PlatformEnv;
    /// Mutable environment access.
    fn env_mut(&mut self) -> &mut PlatformEnv;
    /// Hears that a deferred operation of `id` failed when its queue
    /// drained (see [`DeferredFailure`]). The original requester already
    /// received `Ok` for the queued operation, so this hook is the
    /// world's only chance to unwind bookkeeping keyed to the promised
    /// move or clone. Does nothing by default.
    fn deferred_op_failed(
        world: &mut Self,
        sim: &mut Simulator<Self>,
        id: &AgentId,
        failure: DeferredFailure,
    ) {
        let _ = (world, sim, id, failure);
    }
}

/// A deferred departure that failed when its queue drained.
///
/// Moves and clones requested while an agent is checked out (inside one
/// of its own callbacks) are queued and report `Ok` to the caller; the
/// real attempt runs when the agent checks back in. A failure at that
/// point is reported to the world through
/// [`PlatformHost::deferred_op_failed`].
#[derive(Debug)]
pub struct DeferredFailure {
    /// The clone id promised to the requester, or `None` for a move.
    pub clone_id: Option<AgentId>,
    /// Why the departure could not start.
    pub error: AgentError,
}

/// Factory reconstructing an agent from its snapshot after migration.
pub type AgentFactory<W> = Box<dyn Fn(&[u8]) -> Result<Box<dyn Agent<W>>, mdagent_wire::WireError>>;

struct ContainerRec {
    name: String,
    host: HostId,
}

struct AgentSlot<W: PlatformHost> {
    /// The agent's id, shared so hot-path invocation can hand out an
    /// `&AgentId` without cloning two `String`s per callback.
    id: Rc<AgentId>,
    container: ContainerId,
    state: LifecycleState,
    agent: Option<Box<dyn Agent<W>>>,
    checked_out: bool,
    buffer: VecDeque<AclMessage>,
    pending: VecDeque<PendingOp>,
    /// Interned agent type name (factory key).
    type_sym: Symbol,
}

enum PendingOp {
    Depart {
        dest: ContainerId,
        extra: u64,
        clone_id: Option<AgentId>,
    },
    Kill,
    Despawn,
}

/// Packs an arena handle into one event-data word.
const fn pack_handle(idx: u32, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

const fn unpack_handle(h: u64) -> (u32, u32) {
    (h as u32, (h >> 32) as u32)
}

/// Sentinel handle that never resolves (used to keep event counts identical
/// when an operation targets an unknown agent).
const DEAD_HANDLE: (u32, u32) = (u32::MAX, u32::MAX);

/// The agent platform (AMS + message transport + mobility), generic over
/// the world `W` that hosts it.
///
/// All operations that advance time are associated functions taking
/// `(&mut W, &mut Simulator<W>)`, because the platform lives *inside* the
/// world and handlers re-enter it.
pub struct Platform<W: PlatformHost> {
    name: String,
    containers: Vec<ContainerRec>,
    /// Agent arena: dense slots reused through a free list, with a
    /// generation counter per slot so in-flight events addressed to a
    /// freed slot can never touch its next occupant. 100k agents are 100k
    /// contiguous records, not 100k scattered map nodes.
    slots: Vec<Option<AgentSlot<W>>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    index: FxHashMap<AgentId, u32>,
    /// Interned agent type names.
    type_names: Interner,
    factories: FxHashMap<Symbol, AgentFactory<W>>,
    next_clone: u64,
    /// Interned endpoint codes for the channel clock, so per-send lookups
    /// hash two `u32`s instead of cloning two `AgentId`s.
    id_codes: FxHashMap<AgentId, u32>,
    /// Per (sender, receiver) pair: the earliest instant the next message
    /// may be delivered, enforcing in-order delivery as JADE's TCP-based
    /// message transport does.
    channel_clock: FxHashMap<(u32, u32), mdagent_simnet::SimTime>,
}

impl<W: PlatformHost> std::fmt::Debug for Platform<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("name", &self.name)
            .field("containers", &self.containers.len())
            .field("agents", &self.index.len())
            .finish()
    }
}

impl<W: PlatformHost> Platform<W> {
    /// Creates a platform with the given name (used in agent ids).
    pub fn new(name: impl Into<String>) -> Self {
        Platform {
            name: name.into(),
            containers: Vec::new(),
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            index: FxHashMap::default(),
            type_names: Interner::new(),
            factories: FxHashMap::default(),
            next_clone: 0,
            id_codes: FxHashMap::default(),
            channel_clock: FxHashMap::default(),
        }
    }

    // ---- arena plumbing ---------------------------------------------------

    fn slot(&self, id: &AgentId) -> Option<&AgentSlot<W>> {
        let &idx = self.index.get(id)?;
        self.slots.get(idx as usize).and_then(Option::as_ref)
    }

    fn slot_mut(&mut self, id: &AgentId) -> Option<&mut AgentSlot<W>> {
        let &idx = self.index.get(id)?;
        self.slots.get_mut(idx as usize).and_then(Option::as_mut)
    }

    /// The `(index, generation)` handle for an agent, or the dead sentinel.
    fn handle(&self, id: &AgentId) -> (u32, u32) {
        match self.index.get(id) {
            Some(&idx) => (idx, self.gens[idx as usize]),
            None => DEAD_HANDLE,
        }
    }

    fn slot_at(&self, idx: u32, gen: u32) -> Option<&AgentSlot<W>> {
        if self.gens.get(idx as usize) != Some(&gen) {
            return None;
        }
        self.slots.get(idx as usize).and_then(Option::as_ref)
    }

    fn slot_at_mut(&mut self, idx: u32, gen: u32) -> Option<&mut AgentSlot<W>> {
        if self.gens.get(idx as usize) != Some(&gen) {
            return None;
        }
        self.slots.get_mut(idx as usize).and_then(Option::as_mut)
    }

    /// Places a slot for `id`, reusing its existing arena cell (respawn over
    /// a tombstone) or a free-listed one. Always bumps the generation so
    /// events addressed to any earlier occupant go dead.
    fn place(&mut self, id: AgentId, slot: AgentSlot<W>) -> (u32, u32) {
        if let Some(&idx) = self.index.get(&id) {
            let gen = self.gens[idx as usize].wrapping_add(1);
            self.gens[idx as usize] = gen;
            self.slots[idx as usize] = Some(slot);
            return (idx, gen);
        }
        if let Some(idx) = self.free.pop() {
            let gen = self.gens[idx as usize].wrapping_add(1);
            self.gens[idx as usize] = gen;
            self.slots[idx as usize] = Some(slot);
            self.index.insert(id, idx);
            (idx, gen)
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Some(slot));
            self.gens.push(0);
            self.index.insert(id, idx);
            (idx, 0)
        }
    }

    /// Frees an agent's arena cell for reuse and forgets its id.
    fn free_slot(&mut self, id: &AgentId) {
        if let Some(idx) = self.index.remove(id) {
            self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
            self.slots[idx as usize] = None;
            self.free.push(idx);
        }
    }

    /// Dense code for a channel endpoint (interned on first sight).
    fn id_code(&mut self, id: &AgentId) -> u32 {
        if let Some(&code) = self.id_codes.get(id) {
            return code;
        }
        let code = self.id_codes.len() as u32;
        self.id_codes.insert(id.clone(), code);
        code
    }

    /// The platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates an agent container on a host.
    pub fn create_container(&mut self, name: impl Into<String>, host: HostId) -> ContainerId {
        let id = ContainerId(self.containers.len() as u32);
        self.containers.push(ContainerRec {
            name: name.into(),
            host,
        });
        id
    }

    /// The host a container runs on.
    ///
    /// # Errors
    ///
    /// [`AgentError::UnknownContainer`] for bad ids.
    pub fn container_host(&self, id: ContainerId) -> Result<HostId, AgentError> {
        self.containers
            .get(id.0 as usize)
            .map(|c| c.host)
            .ok_or(AgentError::UnknownContainer(id))
    }

    /// The name of a container.
    pub fn container_name(&self, id: ContainerId) -> Option<&str> {
        self.containers.get(id.0 as usize).map(|c| c.name.as_str())
    }

    /// Registers a reconstruction factory for an agent type.
    pub fn register_factory(&mut self, type_name: impl Into<String>, factory: AgentFactory<W>) {
        let sym = self.type_names.intern(&type_name.into());
        self.factories.insert(sym, factory);
    }

    /// Builds an [`AgentId`] on this platform.
    pub fn agent_id(&self, local: impl Into<String>) -> AgentId {
        AgentId::new(local, self.name.clone())
    }

    /// Current lifecycle state of an agent.
    pub fn agent_state(&self, id: &AgentId) -> Option<LifecycleState> {
        self.slot(id).map(|s| s.state)
    }

    /// The container an agent currently sits in.
    pub fn container_of(&self, id: &AgentId) -> Option<ContainerId> {
        self.slot(id).map(|s| s.container)
    }

    /// Ids of all live (non-deleted) agents in a container, sorted.
    pub fn agents_in(&self, container: ContainerId) -> Vec<AgentId> {
        let mut out: Vec<AgentId> = self
            .slots
            .iter()
            .flatten()
            .filter(|s| s.container == container && s.state != LifecycleState::Deleted)
            .map(|s| (*s.id).clone())
            .collect();
        out.sort();
        out
    }

    /// Number of live agents.
    pub fn agent_count(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|s| s.state != LifecycleState::Deleted)
            .count()
    }

    // ---- world-level operations -------------------------------------------

    /// Spawns `agent` in `container` under `local_name` and schedules its
    /// `on_start(Journey::Born)`.
    ///
    /// # Errors
    ///
    /// [`AgentError::UnknownContainer`] or [`AgentError::DuplicateAgent`].
    pub fn spawn(
        world: &mut W,
        sim: &mut Simulator<W>,
        container: ContainerId,
        local_name: &str,
        agent: Box<dyn Agent<W>>,
    ) -> Result<AgentId, AgentError> {
        let platform = world.platform_mut();
        platform.container_host(container)?;
        let id = platform.agent_id(local_name);
        if platform
            .slot(&id)
            .is_some_and(|s| s.state != LifecycleState::Deleted)
        {
            return Err(AgentError::DuplicateAgent(id));
        }
        let type_sym = platform.type_names.intern(agent.type_name());
        let (idx, gen) = platform.place(
            id.clone(),
            AgentSlot {
                id: Rc::new(id.clone()),
                container,
                state: LifecycleState::Active,
                agent: Some(agent),
                checked_out: false,
                buffer: VecDeque::new(),
                pending: VecDeque::new(),
                type_sym,
            },
        );
        world.env_mut().metrics.incr_static("platform.spawned");
        sim.schedule_data_now(Self::start_event, EventData::one(pack_handle(idx, gen)));
        Ok(id)
    }

    /// `on_start(Journey::Born)` dispatch, addressed by arena handle so a
    /// spawn costs no per-event allocation.
    fn start_event(world: &mut W, sim: &mut Simulator<W>, d: EventData) {
        let (idx, gen) = unpack_handle(d.a);
        Self::invoke_slot(world, sim, idx, gen, |agent, cx| {
            agent.on_start(Journey::Born, cx);
        });
    }

    /// Permanently removes an agent and frees its arena slot for reuse.
    ///
    /// [`kill`](Self::kill) keeps a tombstone so late messages dead-letter
    /// and the id stays reserved; under arrival/departure churn that would
    /// grow the arena without bound. `despawn` runs the kill semantics and
    /// then releases the slot and id. Unknown ids are a no-op; if the agent
    /// is mid-callback the despawn is deferred like other self-operations.
    pub fn despawn(world: &mut W, id: &AgentId) {
        {
            let platform = world.platform_mut();
            let Some(slot) = platform.slot_mut(id) else {
                return;
            };
            if slot.checked_out {
                slot.pending.push_back(PendingOp::Despawn);
                return;
            }
        }
        Self::kill(world, id);
        world.platform_mut().free_slot(id);
    }

    /// Sends an ACL message; delivery is scheduled after the transport
    /// delay derived from message size and the route between containers.
    pub fn send(world: &mut W, sim: &mut Simulator<W>, msg: AclMessage) {
        let delay = {
            let platform = world.platform();
            let src = platform
                .slot(&msg.sender)
                .map(|s| s.container)
                .and_then(|c| platform.container_host(c).ok());
            let dst = platform
                .slot(&msg.receiver)
                .map(|s| s.container)
                .and_then(|c| platform.container_host(c).ok());
            match (src, dst) {
                (Some(a), Some(b)) if a == b => LOCAL_DELIVERY,
                (Some(a), Some(b)) => {
                    let bytes = msg.wire_len() as u64;
                    match world.env().topology.transfer_time(a, b, bytes) {
                        Ok(t) => t + REMOTE_OVERHEAD,
                        Err(_) => {
                            world.env_mut().metrics.incr_static("acl.no_route");
                            return;
                        }
                    }
                }
                // Unknown sender container still delivers locally (system
                // messages); unknown receiver is counted at delivery.
                _ => LOCAL_DELIVERY,
            }
        };
        let env = world.env_mut();
        env.metrics.incr_static("acl.sent");
        env.metrics
            .incr_by_static("acl.bytes_sent", msg.wire_len() as u64);
        env.metrics.observe_hist_static("acl.delivery_delay", delay);
        // In-order delivery per channel: a message never overtakes an
        // earlier one between the same endpoints (TCP semantics, as in
        // JADE's message transport).
        let mut deliver_at = sim.now() + delay;
        let platform = world.platform_mut();
        let key = (
            platform.id_code(&msg.sender),
            platform.id_code(&msg.receiver),
        );
        let channel = platform
            .channel_clock
            .entry(key)
            .or_insert(mdagent_simnet::SimTime::ZERO);
        if deliver_at < *channel {
            deliver_at = *channel;
        }
        *channel = deliver_at;
        sim.schedule_at(deliver_at, move |w, sim| {
            Self::deliver(w, sim, msg);
        });
    }

    fn deliver(world: &mut W, sim: &mut Simulator<W>, msg: AclMessage) {
        enum Disposition {
            Dead,
            Buffered,
            Ready,
        }
        let receiver = msg.receiver.clone();
        let mut pending = Some(msg);
        let mut inbox_depth = 0usize;
        let disposition = match world.platform_mut().slot_mut(&receiver) {
            None => Disposition::Dead,
            Some(slot) => match slot.state {
                LifecycleState::Deleted => Disposition::Dead,
                LifecycleState::Suspended
                | LifecycleState::InTransit
                | LifecycleState::Initiated => {
                    if let Some(msg) = pending.take() {
                        slot.buffer.push_back(msg);
                    }
                    inbox_depth = slot.buffer.len();
                    Disposition::Buffered
                }
                LifecycleState::Active => Disposition::Ready,
            },
        };
        match disposition {
            Disposition::Dead => world.env_mut().metrics.incr_static("acl.dead_letter"),
            Disposition::Buffered => {
                let env = world.env_mut();
                env.metrics.incr_static("acl.buffered");
                env.metrics
                    .set_gauge_static("platform.inbox_depth", &receiver, inbox_depth as u64);
            }
            Disposition::Ready => {
                world.env_mut().metrics.incr_static("acl.delivered");
                let Some(msg) = pending.take() else {
                    return;
                };
                Self::invoke(world, sim, &receiver, |agent, cx| {
                    agent.on_message(&msg, cx);
                });
            }
        }
    }

    /// Suspends an agent: callbacks stop, messages buffer.
    ///
    /// # Errors
    ///
    /// [`AgentError::UnknownAgent`] or [`AgentError::NotActive`].
    pub fn suspend(world: &mut W, id: &AgentId) -> Result<(), AgentError> {
        let slot = world
            .platform_mut()
            .slot_mut(id)
            .ok_or_else(|| AgentError::UnknownAgent(id.clone()))?;
        if slot.state != LifecycleState::Active {
            return Err(AgentError::NotActive(id.clone()));
        }
        slot.state = LifecycleState::Suspended;
        Ok(())
    }

    /// Resumes a suspended agent and flushes its buffered messages.
    ///
    /// # Errors
    ///
    /// [`AgentError::UnknownAgent`] if missing; resuming a non-suspended
    /// agent is a no-op.
    pub fn resume(world: &mut W, sim: &mut Simulator<W>, id: &AgentId) -> Result<(), AgentError> {
        let slot = world
            .platform_mut()
            .slot_mut(id)
            .ok_or_else(|| AgentError::UnknownAgent(id.clone()))?;
        if slot.state == LifecycleState::Suspended {
            slot.state = LifecycleState::Active;
            Self::flush_buffer(world, sim, id);
        }
        Ok(())
    }

    /// Terminates an agent; its remaining messages dead-letter.
    pub fn kill(world: &mut W, id: &AgentId) {
        if let Some(slot) = world.platform_mut().slot_mut(id) {
            if slot.checked_out {
                slot.pending.push_back(PendingOp::Kill);
                return;
            }
            slot.state = LifecycleState::Deleted;
            slot.agent = None;
            slot.buffer.clear();
        }
    }

    /// One-shot timer: `on_timer(tag)` fires after `delay` if the agent is
    /// then active.
    pub fn set_timer(
        world: &mut W,
        sim: &mut Simulator<W>,
        id: &AgentId,
        delay: SimDuration,
        tag: u64,
    ) {
        let (idx, gen) = world.platform().handle(id);
        sim.schedule_data_in(
            delay,
            Self::timer_event,
            EventData::new(pack_handle(idx, gen), tag),
        );
    }

    fn timer_event(world: &mut W, sim: &mut Simulator<W>, d: EventData) {
        let (idx, gen) = unpack_handle(d.a);
        if world.platform().slot_at(idx, gen).map(|s| s.state) == Some(LifecycleState::Active) {
            Self::invoke_slot(world, sim, idx, gen, |agent, cx| agent.on_timer(d.b, cx));
        }
    }

    /// Moves an agent to another container (follow-me / cut-paste).
    ///
    /// `extra_payload_bytes` models wrapped application components carried
    /// along (the MA's cargo). The agent enters `InTransit` immediately;
    /// messages buffer until it checks in at the destination, where it is
    /// reconstructed by its type factory and `on_start(Journey::Moved)`
    /// runs. Returns the simulated transfer duration.
    ///
    /// # Errors
    ///
    /// [`AgentError::UnknownAgent`], [`AgentError::UnknownContainer`],
    /// [`AgentError::NotActive`], [`AgentError::NoFactory`],
    /// [`AgentError::NoRoute`] or [`AgentError::LinkDown`].
    pub fn move_agent(
        world: &mut W,
        sim: &mut Simulator<W>,
        id: &AgentId,
        dest: ContainerId,
        extra_payload_bytes: u64,
    ) -> Result<SimDuration, AgentError> {
        Self::depart(world, sim, id, dest, extra_payload_bytes, None)
    }

    /// Clones an agent to another container (clone-dispatch / copy-paste).
    /// The original keeps running; the clone materializes at `dest` after
    /// the transfer and starts with `Journey::Cloned`.
    ///
    /// Returns the clone's id and the simulated transfer duration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`move_agent`](Self::move_agent), except that
    /// only an active agent clones.
    pub fn clone_agent(
        world: &mut W,
        sim: &mut Simulator<W>,
        id: &AgentId,
        dest: ContainerId,
        extra_payload_bytes: u64,
    ) -> Result<(AgentId, SimDuration), AgentError> {
        let platform = world.platform_mut();
        platform.next_clone += 1;
        let clone_id = id.clone_name(platform.next_clone);
        let duration = Self::depart(
            world,
            sim,
            id,
            dest,
            extra_payload_bytes,
            Some(clone_id.clone()),
        )?;
        Ok((clone_id, duration))
    }

    /// The one departure behind both mobility modes: route, snapshot, fault
    /// check, and the check-in (or bounce) scheduled after the transfer.
    /// With a `clone_id` the agent stays running at the source and the
    /// clone's slot is pre-created at `dest` under that id (deferred clones
    /// keep the id promised to the requester); without one the agent
    /// itself leaves.
    fn depart(
        world: &mut W,
        sim: &mut Simulator<W>,
        id: &AgentId,
        dest: ContainerId,
        extra_payload_bytes: u64,
        clone_id: Option<AgentId>,
    ) -> Result<SimDuration, AgentError> {
        let platform = world.platform_mut();
        let dst_host = platform.container_host(dest)?;
        let slot = platform
            .slot_mut(id)
            .ok_or_else(|| AgentError::UnknownAgent(id.clone()))?;
        if slot.checked_out {
            slot.pending.push_back(PendingOp::Depart {
                dest,
                extra: extra_payload_bytes,
                clone_id,
            });
            // Duration is reported by the deferred execution; approximate
            // with zero here. Callers that need the real figure use the
            // trace/metrics, as the benchmarks do.
            return Ok(SimDuration::ZERO);
        }
        // A suspended agent may move, but only an active one clones.
        let may_leave = match clone_id {
            None => matches!(
                slot.state,
                LifecycleState::Active | LifecycleState::Suspended
            ),
            Some(_) => slot.state == LifecycleState::Active,
        };
        if !may_leave {
            return Err(AgentError::NotActive(id.clone()));
        }
        let type_sym = slot.type_sym;
        if !platform.factories.contains_key(&type_sym) {
            return Err(AgentError::NoFactory(
                platform.type_names.resolve(type_sym).to_owned(),
            ));
        }
        let slot = platform
            .slot_mut(id)
            .ok_or_else(|| AgentError::UnknownAgent(id.clone()))?;
        let src = slot.container;
        // `checked_out` was rejected above, so the agent is present; treat
        // an empty slot as not-active rather than assuming.
        let Some(agent) = slot.agent.as_ref() else {
            return Err(AgentError::NotActive(id.clone()));
        };
        let snapshot = agent.snapshot();
        let src_host = platform.container_host(src)?;
        let bytes = snapshot.len() as u64 + extra_payload_bytes + AGENT_FRAME_BYTES;
        // Migrating state is chunked and cut through successive links, so
        // multi-hop transfers overlap per-link transmission instead of
        // paying full store-and-forward at every hop.
        let transfer = world
            .env()
            .topology
            .pipelined_transfer(src_host, dst_host, bytes, DEFAULT_CHUNK_BYTES)
            .map_err(|_| AgentError::NoRoute(src, dest))?;
        let total = MIGRATION_SETUP + transfer.elapsed;

        let now = sim.now();
        let fault = world.env_mut().assess_fault(src_host, dst_host, now);
        if let Some(TransferFault::LinkDown(link)) = fault {
            // The route is down right now: refuse to start the transfer so
            // the agent stays active at the source and callers can retry.
            let env = world.env_mut();
            env.metrics.incr_static("platform.link_down_blocks");
            env.trace.record_event(
                now,
                TraceCategory::Agent,
                TraceEvent::TransferBlocked {
                    agent: id.to_string(),
                    link: link.0,
                },
            );
            return Err(AgentError::LinkDown(link));
        }

        let platform = world.platform_mut();
        let cloned = clone_id.is_some();
        let arriving = match clone_id {
            None => {
                let slot = platform
                    .slot_mut(id)
                    .ok_or_else(|| AgentError::UnknownAgent(id.clone()))?;
                slot.state = LifecycleState::InTransit;
                slot.agent = None;
                id.clone()
            }
            Some(clone_id) => {
                // Pre-create the clone slot so messages sent to it
                // meanwhile buffer.
                platform.place(
                    clone_id.clone(),
                    AgentSlot {
                        id: Rc::new(clone_id.clone()),
                        container: dest,
                        state: LifecycleState::InTransit,
                        agent: None,
                        checked_out: false,
                        buffer: VecDeque::new(),
                        pending: VecDeque::new(),
                        type_sym,
                    },
                );
                clone_id
            }
        };
        let env = world.env_mut();
        let (count, byte_count, event) = if cloned {
            (
                "platform.clones",
                "platform.clone_bytes",
                TraceEvent::CloneDispatch {
                    agent: id.to_string(),
                    clone: arriving.to_string(),
                    dest: dest.to_string(),
                    bytes,
                },
            )
        } else {
            (
                "platform.moves",
                "platform.move_bytes",
                TraceEvent::CheckOut {
                    agent: id.to_string(),
                    src: src.to_string(),
                    dest: dest.to_string(),
                    bytes,
                },
            )
        };
        env.metrics.incr_static(count);
        env.metrics.incr_by_static(byte_count, bytes);
        Self::record_link_utilization(env, &transfer);
        env.trace.record_event(now, TraceCategory::Agent, event);

        if let Some(TransferFault::Dropped(link)) = fault {
            // Lost in flight: the agent never arrives (see `bounce`).
            sim.schedule_in(total, move |w, sim| {
                Self::bounce(w, sim, &arriving, link, snapshot, cloned);
            });
        } else {
            sim.schedule_in(total, move |w, sim| {
                Self::check_in(w, sim, &arriving, dest, src, snapshot, cloned);
            });
        }
        Ok(total)
    }

    /// Handles a transfer that was lost in flight. A moved agent is rebuilt
    /// from its departure snapshot at the source (messages buffered while it
    /// was `InTransit` then flush); a lost clone's placeholder slot is
    /// deleted — the original is unaffected.
    fn bounce(
        world: &mut W,
        sim: &mut Simulator<W>,
        id: &AgentId,
        link: LinkId,
        snapshot: Vec<u8>,
        cloned: bool,
    ) {
        let platform = world.platform_mut();
        let Some(slot) = platform.slot(id) else {
            return; // killed in transit
        };
        if slot.state == LifecycleState::Deleted {
            return;
        }
        let now = sim.now();
        let dropped = TraceEvent::TransferDropped {
            agent: id.to_string(),
            link: link.0,
        };
        if cloned {
            if let Some(slot) = platform.slot_mut(id) {
                slot.state = LifecycleState::Deleted;
                slot.agent = None;
                slot.buffer.clear();
            }
            let env = world.env_mut();
            env.metrics.incr_static("platform.transfer_drops");
            env.trace.record_event(now, TraceCategory::Agent, dropped);
            return;
        }
        let type_sym = slot.type_sym;
        let src = slot.container;
        let rebuilt = platform
            .factories
            .get(&type_sym)
            .map(|factory| factory(&snapshot));
        match rebuilt {
            Some(Ok(agent)) => {
                if let Some(slot) = platform.slot_mut(id) {
                    slot.agent = Some(agent);
                    slot.state = LifecycleState::Active;
                }
                let env = world.env_mut();
                env.metrics.incr_static("platform.transfer_drops");
                env.trace.record_event(now, TraceCategory::Agent, dropped);
                Self::flush_buffer(world, sim, id);
            }
            _ => {
                // Cannot restore the snapshot either: the agent is lost.
                if let Some(slot) = platform.slot_mut(id) {
                    slot.state = LifecycleState::Deleted;
                }
                let env = world.env_mut();
                env.metrics.incr_static("platform.checkin_failures");
                env.trace.record_event(
                    now,
                    TraceCategory::Agent,
                    TraceEvent::CheckInFailed {
                        agent: id.to_string(),
                        dest: src.to_string(),
                    },
                );
            }
        }
    }

    /// Records how busy each link on a migration route was, so the bench
    /// harness can show where a multi-hop transfer spends its time. Busy
    /// times go to a fixed-bucket histogram, so memory stays flat however
    /// many hops a run crosses.
    fn record_link_utilization(env: &mut PlatformEnv, transfer: &PipelinedTransfer) {
        for lu in &transfer.links {
            env.metrics
                .observe_hist_static("migration.link_busy", lu.busy);
            env.metrics.set_gauge_static(
                "migration.link_utilization_pct",
                lu.link,
                (lu.utilization * 100.0).round() as u64,
            );
        }
    }

    fn check_in(
        world: &mut W,
        sim: &mut Simulator<W>,
        id: &AgentId,
        dest: ContainerId,
        from: ContainerId,
        snapshot: Vec<u8>,
        cloned: bool,
    ) {
        let platform = world.platform_mut();
        let Some(slot) = platform.slot(id) else {
            return; // killed in transit
        };
        if slot.state == LifecycleState::Deleted {
            return;
        }
        let type_sym = slot.type_sym;
        let rebuilt = match platform.factories.get(&type_sym) {
            Some(factory) => factory(&snapshot),
            None => Err(mdagent_wire::WireError::InvalidTag {
                tag: 0,
                type_name: "missing factory",
            }),
        };
        match rebuilt {
            Err(_) => {
                // Reconstruction failure: the agent is lost; surface loudly.
                let Some(slot) = platform.slot_mut(id) else {
                    return;
                };
                slot.state = LifecycleState::Deleted;
                let env = world.env_mut();
                env.metrics.incr_static("platform.checkin_failures");
                let now = sim.now();
                env.trace.record_event(
                    now,
                    TraceCategory::Agent,
                    TraceEvent::CheckInFailed {
                        agent: id.to_string(),
                        dest: dest.to_string(),
                    },
                );
            }
            Ok(agent) => {
                let Some(slot) = platform.slot_mut(id) else {
                    return;
                };
                slot.agent = Some(agent);
                slot.container = dest;
                slot.state = LifecycleState::Active;
                let now = sim.now();
                world.env_mut().trace.record_event(
                    now,
                    TraceCategory::Agent,
                    TraceEvent::CheckIn {
                        agent: id.to_string(),
                        dest: dest.to_string(),
                    },
                );
                let journey = if cloned {
                    Journey::Cloned { from }
                } else {
                    Journey::Moved { from }
                };
                Self::invoke(world, sim, id, |agent, cx| agent.on_start(journey, cx));
                Self::flush_buffer(world, sim, id);
            }
        }
    }

    fn flush_buffer(world: &mut W, sim: &mut Simulator<W>, id: &AgentId) {
        loop {
            let (msg, depth) = {
                let Some(slot) = world.platform_mut().slot_mut(id) else {
                    return;
                };
                if slot.state != LifecycleState::Active {
                    return;
                }
                (slot.buffer.pop_front(), slot.buffer.len())
            };
            match msg {
                None => return,
                Some(msg) => {
                    let env = world.env_mut();
                    env.metrics.incr_static("acl.delivered");
                    env.metrics
                        .set_gauge_static("platform.inbox_depth", id, depth as u64);
                    Self::invoke(world, sim, id, |agent, cx| agent.on_message(&msg, cx));
                }
            }
        }
    }

    /// Checks the agent out of its slot, runs `f`, checks it back in and
    /// executes any operations the handler queued on itself.
    fn invoke(
        world: &mut W,
        sim: &mut Simulator<W>,
        id: &AgentId,
        f: impl FnOnce(&mut dyn Agent<W>, Cx<'_, W>),
    ) {
        let (idx, gen) = world.platform().handle(id);
        Self::invoke_slot(world, sim, idx, gen, f);
    }

    /// Handle-addressed invoke: checks the agent out of its arena slot,
    /// runs `f`, checks it back in and executes any operations the handler
    /// queued on itself. The id is shared out of the slot (one `Rc` bump),
    /// so a 100k-agent timer storm clones no strings.
    fn invoke_slot(
        world: &mut W,
        sim: &mut Simulator<W>,
        idx: u32,
        gen: u32,
        f: impl FnOnce(&mut dyn Agent<W>, Cx<'_, W>),
    ) {
        let (mut agent, id) = {
            let Some(slot) = world.platform_mut().slot_at_mut(idx, gen) else {
                return;
            };
            if slot.checked_out {
                return;
            }
            let Some(agent) = slot.agent.take() else {
                return;
            };
            slot.checked_out = true;
            (agent, Rc::clone(&slot.id))
        };
        let id_ref: &AgentId = &id;
        f(
            agent.as_mut(),
            Cx {
                id: id_ref,
                world,
                sim,
            },
        );
        // Check back in (unless the slot vanished or was deleted meanwhile).
        let Some(slot) = world.platform_mut().slot_at_mut(idx, gen) else {
            return;
        };
        slot.checked_out = false;
        if slot.state != LifecycleState::Deleted {
            slot.agent = Some(agent);
        }
        Self::run_pending(world, sim, idx, gen);
    }

    fn run_pending(world: &mut W, sim: &mut Simulator<W>, idx: u32, gen: u32) {
        loop {
            let (op, id) = {
                let Some(slot) = world.platform_mut().slot_at_mut(idx, gen) else {
                    return;
                };
                match slot.pending.pop_front() {
                    None => return,
                    Some(op) => (op, Rc::clone(&slot.id)),
                }
            };
            let id: &AgentId = &id;
            match op {
                PendingOp::Kill => Self::kill(world, id),
                PendingOp::Despawn => Self::despawn(world, id),
                PendingOp::Depart {
                    dest,
                    extra,
                    clone_id,
                } => {
                    if let Err(error) = Self::depart(world, sim, id, dest, extra, clone_id.clone())
                    {
                        let (count, note) = match &clone_id {
                            None => (
                                "platform.pending_move_failed",
                                format!("deferred move of {id} failed: {error}"),
                            ),
                            Some(clone_id) => (
                                "platform.pending_clone_failed",
                                format!("deferred clone {clone_id} of {id} failed: {error}"),
                            ),
                        };
                        world.env_mut().metrics.incr_static(count);
                        let now = sim.now();
                        world
                            .env_mut()
                            .trace
                            .record(now, TraceCategory::Agent, note);
                        W::deferred_op_failed(world, sim, id, DeferredFailure { clone_id, error });
                    }
                }
            }
        }
    }
}
