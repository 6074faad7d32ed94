//! Network topology: smart spaces, hosts, links and gateways.
//!
//! A pervasive environment is a set of *smart spaces* (rooms, buildings),
//! each containing hosts joined by LAN links. Spaces are joined to each
//! other only through *gateway* links, mirroring the paper's requirement
//! that inter-space migration needs gateway support (Fig. 1).

use mdagent_fx::FxHashMap;
use std::cell::RefCell;
use std::fmt;

use crate::time::SimDuration;

/// Identifier of a smart space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpaceId(pub u32);

/// Identifier of a host (device) in the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// Identifier of a link between two hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl fmt::Display for SpaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "space-{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host-{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link-{}", self.0)
    }
}

/// How fast a host's CPU is relative to the paper's reference machine
/// (a Pentium 4 @ 1.7 GHz). CPU-bound costs are divided by this factor.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct CpuFactor(f64);

impl CpuFactor {
    /// The reference machine (factor 1.0).
    pub const REFERENCE: CpuFactor = CpuFactor(1.0);

    /// Creates a factor; values are clamped to a sane positive range.
    pub fn new(factor: f64) -> Self {
        CpuFactor(factor.clamp(0.01, 1000.0))
    }

    /// The raw multiplier.
    pub fn factor(self) -> f64 {
        self.0
    }

    /// Scales a CPU-bound cost by this host's speed.
    pub fn scale(self, reference_cost: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(reference_cost.as_secs_f64() / self.0)
    }
}

impl Default for CpuFactor {
    fn default() -> Self {
        CpuFactor::REFERENCE
    }
}

/// A device participating in the environment.
#[derive(Debug, Clone)]
pub struct Host {
    id: HostId,
    name: String,
    space: SpaceId,
    cpu: CpuFactor,
}

impl Host {
    /// Host identifier.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// Human-readable name, e.g. `"office-pc"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The smart space the host lives in.
    pub fn space(&self) -> SpaceId {
        self.space
    }

    /// Relative CPU speed.
    pub fn cpu(&self) -> CpuFactor {
        self.cpu
    }
}

/// Whether a link is an in-space LAN link or an inter-space gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Ordinary link between hosts of the same space.
    Lan,
    /// Gateway link bridging two spaces (extra protocol cost applies).
    Gateway,
}

/// A bidirectional network link.
#[derive(Debug, Clone)]
pub struct Link {
    id: LinkId,
    endpoints: (HostId, HostId),
    kind: LinkKind,
    latency: SimDuration,
    bandwidth_bps: u64,
    efficiency: f64,
}

impl Link {
    /// Link identifier.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The two endpoints (unordered).
    pub fn endpoints(&self) -> (HostId, HostId) {
        self.endpoints
    }

    /// LAN or gateway.
    pub fn kind(&self) -> LinkKind {
        self.kind
    }

    /// One-way propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Raw bandwidth in bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.bandwidth_bps
    }

    /// Fraction of raw bandwidth usable as goodput (protocol overheads).
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Time to push `bytes` through this link, excluding latency.
    pub fn transmission_time(&self, bytes: u64) -> SimDuration {
        let goodput = self.bandwidth_bps as f64 * self.efficiency / 8.0; // bytes/s
        if goodput <= 0.0 {
            return SimDuration::MAX;
        }
        SimDuration::from_secs_f64(bytes as f64 / goodput)
    }

    /// Total one-way time for a `bytes`-sized payload: latency + transmission.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + self.transmission_time(bytes)
    }
}

/// Chunk size used by [`Topology::pipelined_transfer_time`] when the
/// caller does not pick one. 64 KiB keeps per-chunk latency overhead
/// negligible while still overlapping hops on multi-megabyte payloads.
pub const DEFAULT_CHUNK_BYTES: u64 = 64 * 1024;

/// How busy one link was during a pipelined transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUtilization {
    /// The link.
    pub link: LinkId,
    /// Total time the link spent transmitting chunks.
    pub busy: SimDuration,
    /// `busy / elapsed` for the whole transfer (0.0 when elapsed is zero).
    pub utilization: f64,
}

/// Result of a chunked, cut-through multi-hop transfer: end-to-end
/// elapsed time plus per-link utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinedTransfer {
    /// Arrival time of the last chunk at the destination, relative to the
    /// start of the transfer.
    pub elapsed: SimDuration,
    /// Per-link busy time and utilization, in route order.
    pub links: Vec<LinkUtilization>,
}

/// Errors raised while building or querying a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The referenced host does not exist.
    UnknownHost(HostId),
    /// The referenced space does not exist.
    UnknownSpace(SpaceId),
    /// No path connects the two hosts.
    NoRoute(HostId, HostId),
    /// A LAN link may only join hosts of the same space.
    CrossSpaceLan(HostId, HostId),
    /// A gateway link must join hosts of different spaces.
    SameSpaceGateway(HostId, HostId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownHost(h) => write!(f, "unknown host {h}"),
            TopologyError::UnknownSpace(s) => write!(f, "unknown space {s}"),
            TopologyError::NoRoute(a, b) => write!(f, "no route between {a} and {b}"),
            TopologyError::CrossSpaceLan(a, b) => {
                write!(f, "lan link may not cross spaces ({a} vs {b})")
            }
            TopologyError::SameSpaceGateway(a, b) => {
                write!(f, "gateway link must cross spaces ({a} vs {b})")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The environment graph: spaces, hosts and links.
///
/// # Examples
///
/// ```
/// use mdagent_simnet::{Topology, CpuFactor, SimDuration};
///
/// let mut topo = Topology::new();
/// let office = topo.add_space("office");
/// let lab = topo.add_space("lab");
/// let pc = topo.add_host("office-pc", office, CpuFactor::REFERENCE);
/// let laptop = topo.add_host("lab-laptop", lab, CpuFactor::new(0.9));
/// topo.add_gateway_link(pc, laptop, SimDuration::from_millis(8), 10_000_000, 0.8)?;
/// assert!(topo.requires_gateway(pc, laptop)?);
/// let route = topo.route(pc, laptop)?;
/// assert_eq!(route.len(), 1);
/// # Ok::<(), mdagent_simnet::TopologyError>(())
/// ```
#[derive(Debug, Default)]
pub struct Topology {
    spaces: Vec<String>,
    hosts: Vec<Host>,
    links: Vec<Link>,
    /// `adjacency[h]` holds host `h`'s `(neighbour, link)` pairs in link
    /// creation order, which is the order the BFS visits them in.
    adjacency: Vec<Vec<(HostId, LinkId)>>,
    /// Memoized fewest-hops routes; invalidated whenever a link is added.
    /// At city scale, migrations repeat the same host pairs constantly —
    /// without this, per-migration BFS dwarfs the scheduler itself.
    route_cache: RefCell<FxHashMap<(HostId, HostId), Vec<LinkId>>>,
    /// Search state reused by every uncached route.
    bfs: RefCell<BfsScratch>,
}

/// Host-indexed BFS state, reused across searches so a cold route neither
/// hashes nor allocates once the arrays have grown to the host count.
#[derive(Debug, Default)]
struct BfsScratch {
    /// Number of the current search; host `h` has been reached in it
    /// exactly when `reached[h] == stamp`, so no per-search clearing.
    stamp: u32,
    reached: Vec<u32>,
    /// `parent[h]`: the host and link the search first reached `h` by.
    /// Meaningful only for hosts reached in the current search.
    parent: Vec<(HostId, LinkId)>,
    /// FIFO of hosts still to expand.
    queue: Vec<HostId>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a city: a `side` × `side` grid of smart spaces with
    /// `hosts_per_space` hosts each. Hosts within a space form a LAN star
    /// on the first host (1 ms, 100 Mbps); spaces are joined to their grid
    /// neighbours by gateway links between their first hosts (8 ms,
    /// 10 Mbps), mirroring the paper's testbed link classes.
    ///
    /// # Errors
    ///
    /// Propagates link-construction errors (cannot occur for valid
    /// `side >= 1`, `hosts_per_space >= 1`).
    pub fn grid_city(side: u32, hosts_per_space: u32) -> Result<Topology, TopologyError> {
        let mut topo = Topology::new();
        let side = side.max(1);
        let hosts_per_space = hosts_per_space.max(1);
        let mut anchors: Vec<HostId> = Vec::with_capacity((side * side) as usize);
        for r in 0..side {
            for c in 0..side {
                let space = topo.add_space(format!("s{r}x{c}"));
                let anchor = topo.add_host(format!("s{r}x{c}-h0"), space, CpuFactor::REFERENCE);
                for k in 1..hosts_per_space {
                    let h = topo.add_host(format!("s{r}x{c}-h{k}"), space, CpuFactor::new(0.9));
                    topo.add_lan_link(anchor, h, SimDuration::from_millis(1), 100_000_000, 0.8)?;
                }
                anchors.push(anchor);
            }
        }
        for r in 0..side {
            for c in 0..side {
                let here = anchors[(r * side + c) as usize];
                if c + 1 < side {
                    let east = anchors[(r * side + c + 1) as usize];
                    topo.add_gateway_link(
                        here,
                        east,
                        SimDuration::from_millis(8),
                        10_000_000,
                        0.8,
                    )?;
                }
                if r + 1 < side {
                    let south = anchors[((r + 1) * side + c) as usize];
                    topo.add_gateway_link(
                        here,
                        south,
                        SimDuration::from_millis(8),
                        10_000_000,
                        0.8,
                    )?;
                }
            }
        }
        Ok(topo)
    }

    /// Adds a smart space and returns its id.
    pub fn add_space(&mut self, name: impl Into<String>) -> SpaceId {
        let id = SpaceId(self.spaces.len() as u32);
        self.spaces.push(name.into());
        id
    }

    /// Adds a host to `space` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `space` was not created by this topology.
    pub fn add_host(&mut self, name: impl Into<String>, space: SpaceId, cpu: CpuFactor) -> HostId {
        assert!(
            (space.0 as usize) < self.spaces.len(),
            "space {space} does not exist"
        );
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(Host {
            id,
            name: name.into(),
            space,
            cpu,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an in-space LAN link.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::CrossSpaceLan`] if the endpoints are in
    /// different spaces, or [`TopologyError::UnknownHost`] for bad ids.
    pub fn add_lan_link(
        &mut self,
        a: HostId,
        b: HostId,
        latency: SimDuration,
        bandwidth_bps: u64,
        efficiency: f64,
    ) -> Result<LinkId, TopologyError> {
        let (sa, sb) = (self.host(a)?.space(), self.host(b)?.space());
        if sa != sb {
            return Err(TopologyError::CrossSpaceLan(a, b));
        }
        Ok(self.push_link(a, b, LinkKind::Lan, latency, bandwidth_bps, efficiency))
    }

    /// Adds a gateway link bridging two spaces.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::SameSpaceGateway`] if the endpoints share a
    /// space, or [`TopologyError::UnknownHost`] for bad ids.
    pub fn add_gateway_link(
        &mut self,
        a: HostId,
        b: HostId,
        latency: SimDuration,
        bandwidth_bps: u64,
        efficiency: f64,
    ) -> Result<LinkId, TopologyError> {
        let (sa, sb) = (self.host(a)?.space(), self.host(b)?.space());
        if sa == sb {
            return Err(TopologyError::SameSpaceGateway(a, b));
        }
        Ok(self.push_link(a, b, LinkKind::Gateway, latency, bandwidth_bps, efficiency))
    }

    fn push_link(
        &mut self,
        a: HostId,
        b: HostId,
        kind: LinkKind,
        latency: SimDuration,
        bandwidth_bps: u64,
        efficiency: f64,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            endpoints: (a, b),
            kind,
            latency,
            bandwidth_bps,
            efficiency: efficiency.clamp(0.01, 1.0),
        });
        self.adjacency[a.0 as usize].push((b, id));
        self.adjacency[b.0 as usize].push((a, id));
        self.route_cache.borrow_mut().clear();
        id
    }

    /// Looks up a host.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownHost`] for ids not in this topology.
    pub fn host(&self, id: HostId) -> Result<&Host, TopologyError> {
        self.hosts
            .get(id.0 as usize)
            .ok_or(TopologyError::UnknownHost(id))
    }

    /// Looks up a link by id.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.0 as usize)
    }

    /// Name of a space.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownSpace`] for ids not in this topology.
    pub fn space_name(&self, id: SpaceId) -> Result<&str, TopologyError> {
        self.spaces
            .get(id.0 as usize)
            .map(String::as_str)
            .ok_or(TopologyError::UnknownSpace(id))
    }

    /// All hosts, in creation order.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter()
    }

    /// Number of spaces.
    pub fn space_count(&self) -> usize {
        self.spaces.len()
    }

    /// Whether migrating between two hosts crosses a space boundary.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownHost`] for bad ids.
    pub fn requires_gateway(&self, a: HostId, b: HostId) -> Result<bool, TopologyError> {
        Ok(self.host(a)?.space() != self.host(b)?.space())
    }

    /// Fewest-hops route between two hosts (BFS), as a sequence of links.
    ///
    /// An empty route means `from == to`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoRoute`] when the hosts are disconnected,
    /// or [`TopologyError::UnknownHost`] for bad ids.
    pub fn route(&self, from: HostId, to: HostId) -> Result<Vec<LinkId>, TopologyError> {
        self.host(from)?;
        self.host(to)?;
        if from == to {
            return Ok(Vec::new());
        }
        if let Some(path) = self.route_cache.borrow().get(&(from, to)) {
            return Ok(path.clone());
        }
        let path = self.route_uncached(from, to)?;
        self.route_cache
            .borrow_mut()
            .insert((from, to), path.clone());
        Ok(path)
    }

    /// Breadth-first search from `from`, stopping at the first visit of
    /// `to`. Neighbours are expanded in link creation order, so among
    /// equally short routes the one found first wins.
    fn route_uncached(&self, from: HostId, to: HostId) -> Result<Vec<LinkId>, TopologyError> {
        let mut bfs = self.bfs.borrow_mut();
        let BfsScratch {
            stamp,
            reached,
            parent,
            queue,
        } = &mut *bfs;
        let hosts = self.hosts.len();
        reached.resize(hosts, 0);
        parent.resize(hosts, (from, LinkId(0)));
        *stamp = stamp.wrapping_add(1);
        if *stamp == 0 {
            // Wrapped: stale stamps could now read as current.
            reached.fill(0);
            *stamp = 1;
        }
        let stamp = *stamp;
        queue.clear();
        queue.push(from);
        reached[from.0 as usize] = stamp;
        let mut head = 0;
        'bfs: while let Some(&cur) = queue.get(head) {
            head += 1;
            for &(next, lid) in &self.adjacency[cur.0 as usize] {
                let seen = &mut reached[next.0 as usize];
                if *seen == stamp {
                    continue;
                }
                *seen = stamp;
                parent[next.0 as usize] = (cur, lid);
                if next == to {
                    break 'bfs;
                }
                // A host whose one link leads back to `cur` would discover
                // nothing: leave it unexpanded.
                if self.adjacency[next.0 as usize].len() > 1 {
                    queue.push(next);
                }
            }
        }
        if reached[to.0 as usize] != stamp {
            return Err(TopologyError::NoRoute(from, to));
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (up, lid) = parent[cur.0 as usize];
            path.push(lid);
            cur = up;
        }
        path.reverse();
        Ok(path)
    }

    /// End-to-end one-way transfer time of `bytes` along the fewest-hops
    /// route between two hosts (store-and-forward per hop).
    ///
    /// # Errors
    ///
    /// Propagates routing errors; see [`route`](Self::route).
    pub fn transfer_time(
        &self,
        from: HostId,
        to: HostId,
        bytes: u64,
    ) -> Result<SimDuration, TopologyError> {
        let route = self.route(from, to)?;
        Ok(route
            .iter()
            .map(|lid| self.links[lid.0 as usize].transfer_time(bytes))
            .sum())
    }

    /// End-to-end time of a chunked, pipelined (cut-through) transfer
    /// along the fewest-hops route, using [`DEFAULT_CHUNK_BYTES`].
    ///
    /// # Errors
    ///
    /// Propagates routing errors; see [`route`](Self::route).
    pub fn pipelined_transfer_time(
        &self,
        from: HostId,
        to: HostId,
        bytes: u64,
    ) -> Result<SimDuration, TopologyError> {
        Ok(self
            .pipelined_transfer(from, to, bytes, DEFAULT_CHUNK_BYTES)?
            .elapsed)
    }

    /// Chunked, pipelined multi-hop transfer with per-link utilization.
    ///
    /// The payload is split into `chunk_bytes`-sized chunks (plus one
    /// remainder). A link starts forwarding a chunk as soon as the chunk
    /// has fully arrived at its input host *and* the link has finished
    /// its previous chunk, so successive hops overlap and multi-hop time
    /// approaches the `max` of per-link transmission rather than the
    /// `sum` that store-and-forward pays. Single-hop routes reproduce
    /// [`Link::transfer_time`] exactly, and a chunk size at or above the
    /// payload degenerates to store-and-forward, so pipelining can only
    /// help, never hurt.
    ///
    /// # Errors
    ///
    /// Propagates routing errors; see [`route`](Self::route).
    pub fn pipelined_transfer(
        &self,
        from: HostId,
        to: HostId,
        bytes: u64,
        chunk_bytes: u64,
    ) -> Result<PipelinedTransfer, TopologyError> {
        let route = self.route(from, to)?;
        if route.len() <= 1 {
            // Zero or one hop: nothing to overlap. Return the exact
            // store-and-forward figure so single-link scenarios (the
            // paper's two-PC testbed) are bit-identical either way.
            let elapsed = route
                .first()
                .map(|lid| self.links[lid.0 as usize].transfer_time(bytes))
                .unwrap_or(SimDuration::ZERO);
            let links = route
                .iter()
                .map(|&lid| {
                    let busy = self.links[lid.0 as usize].transmission_time(bytes);
                    LinkUtilization {
                        link: lid,
                        busy,
                        utilization: ratio(busy, elapsed),
                    }
                })
                .collect();
            return Ok(PipelinedTransfer { elapsed, links });
        }

        // Per-link goodput in bytes/s; a dead link makes the whole
        // transfer unreachable, matching `Link::transmission_time`.
        let mut goodput = Vec::with_capacity(route.len());
        let mut latency = Vec::with_capacity(route.len());
        for &lid in &route {
            let link = &self.links[lid.0 as usize];
            let g = link.bandwidth_bps as f64 * link.efficiency / 8.0;
            if g <= 0.0 {
                let links = route
                    .iter()
                    .map(|&lid| LinkUtilization {
                        link: lid,
                        busy: SimDuration::MAX,
                        utilization: 1.0,
                    })
                    .collect();
                return Ok(PipelinedTransfer {
                    elapsed: SimDuration::MAX,
                    links,
                });
            }
            goodput.push(g);
            latency.push(link.latency().as_secs_f64());
        }

        // Event-free simulation in f64 seconds: `free[i]` is when link i
        // finishes its current chunk. Accumulating in f64 and converting
        // once keeps per-chunk rounding out of the result.
        let chunk = chunk_bytes.max(1);
        let full_chunks = bytes / chunk;
        let remainder = bytes % chunk;
        let mut free = vec![0.0f64; route.len()];
        let mut last_arrival = 0.0f64;
        let mut push_chunk = |size: u64, free: &mut [f64]| {
            let mut at = 0.0f64; // chunk is ready at the source at t=0
            for i in 0..route.len() {
                let start = at.max(free[i]);
                free[i] = start + size as f64 / goodput[i];
                at = free[i] + latency[i];
            }
            last_arrival = at;
        };
        for _ in 0..full_chunks {
            push_chunk(chunk, &mut free);
        }
        if remainder > 0 || bytes == 0 {
            // A zero-byte payload still pays one latency per hop.
            push_chunk(remainder, &mut free);
        }

        // Cap at the store-and-forward figure: a single-chunk schedule is
        // identical to it analytically, and the cap keeps microsecond
        // rounding from ever making pipelining look slower.
        let saf: SimDuration = route
            .iter()
            .map(|lid| self.links[lid.0 as usize].transfer_time(bytes))
            .sum();
        let elapsed = SimDuration::from_secs_f64(last_arrival).min(saf);
        let links = route
            .iter()
            .map(|&lid| {
                let busy = self.links[lid.0 as usize].transmission_time(bytes);
                LinkUtilization {
                    link: lid,
                    busy,
                    utilization: ratio(busy, elapsed),
                }
            })
            .collect();
        Ok(PipelinedTransfer { elapsed, links })
    }
}

fn ratio(busy: SimDuration, elapsed: SimDuration) -> f64 {
    let total = elapsed.as_secs_f64();
    if total <= 0.0 {
        0.0
    } else {
        (busy.as_secs_f64() / total).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_space_topo() -> (Topology, HostId, HostId, HostId) {
        let mut topo = Topology::new();
        let s1 = topo.add_space("room-821");
        let s2 = topo.add_space("room-822");
        let a = topo.add_host("pc-a", s1, CpuFactor::REFERENCE);
        let b = topo.add_host("pc-b", s1, CpuFactor::new(0.94));
        let c = topo.add_host("pc-c", s2, CpuFactor::REFERENCE);
        topo.add_lan_link(a, b, SimDuration::from_millis(1), 10_000_000, 0.8)
            .unwrap();
        topo.add_gateway_link(b, c, SimDuration::from_millis(5), 10_000_000, 0.7)
            .unwrap();
        (topo, a, b, c)
    }

    #[test]
    fn lan_links_cannot_cross_spaces() {
        let (mut topo, a, _, c) = two_space_topo();
        assert_eq!(
            topo.add_lan_link(a, c, SimDuration::ZERO, 1, 1.0),
            Err(TopologyError::CrossSpaceLan(a, c))
        );
    }

    #[test]
    fn gateway_links_must_cross_spaces() {
        let (mut topo, a, b, _) = two_space_topo();
        assert_eq!(
            topo.add_gateway_link(a, b, SimDuration::ZERO, 1, 1.0),
            Err(TopologyError::SameSpaceGateway(a, b))
        );
    }

    #[test]
    fn routes_are_fewest_hops() {
        let (topo, a, b, c) = two_space_topo();
        assert_eq!(topo.route(a, a).unwrap(), Vec::<LinkId>::new());
        assert_eq!(topo.route(a, b).unwrap().len(), 1);
        assert_eq!(topo.route(a, c).unwrap().len(), 2);
        assert!(topo.requires_gateway(a, c).unwrap());
        assert!(!topo.requires_gateway(a, b).unwrap());
    }

    #[test]
    fn disconnected_hosts_report_no_route() {
        let mut topo = Topology::new();
        let s = topo.add_space("s");
        let a = topo.add_host("a", s, CpuFactor::REFERENCE);
        let b = topo.add_host("b", s, CpuFactor::REFERENCE);
        assert_eq!(topo.route(a, b), Err(TopologyError::NoRoute(a, b)));
    }

    #[test]
    fn route_cache_invalidates_on_new_links() {
        let mut topo = Topology::new();
        let s = topo.add_space("s");
        let a = topo.add_host("a", s, CpuFactor::REFERENCE);
        let b = topo.add_host("b", s, CpuFactor::REFERENCE);
        let c = topo.add_host("c", s, CpuFactor::REFERENCE);
        topo.add_lan_link(a, b, SimDuration::from_millis(1), 1_000_000, 0.8)
            .unwrap();
        topo.add_lan_link(b, c, SimDuration::from_millis(1), 1_000_000, 0.8)
            .unwrap();
        assert_eq!(topo.route(a, c).unwrap().len(), 2);
        // Repeat hits the cache and must agree.
        assert_eq!(topo.route(a, c).unwrap().len(), 2);
        // A new direct link must invalidate the memoized 2-hop route.
        topo.add_lan_link(a, c, SimDuration::from_millis(1), 1_000_000, 0.8)
            .unwrap();
        assert_eq!(topo.route(a, c).unwrap().len(), 1);
    }

    #[test]
    fn bfs_stamp_wraparound_forgets_earlier_searches() {
        // A line a - b - c - d.
        let mut topo = Topology::new();
        let s = topo.add_space("s");
        let hosts: Vec<_> = ["a", "b", "c", "d"]
            .into_iter()
            .map(|name| topo.add_host(name, s, CpuFactor::REFERENCE))
            .collect();
        for pair in hosts.windows(2) {
            topo.add_lan_link(
                pair[0],
                pair[1],
                SimDuration::from_millis(1),
                1_000_000,
                0.8,
            )
            .unwrap();
        }
        // This search reaches b and c; the next one wraps the stamp, and
        // must not take them for reached.
        assert_eq!(topo.route(hosts[2], hosts[1]).unwrap().len(), 1);
        topo.bfs.borrow_mut().stamp = u32::MAX;
        assert_eq!(topo.route(hosts[0], hosts[3]).unwrap().len(), 3);
        assert_eq!(topo.bfs.borrow().stamp, 1);
    }

    #[test]
    fn grid_city_connects_all_spaces() {
        let topo = Topology::grid_city(3, 2).unwrap();
        assert_eq!(topo.space_count(), 9);
        assert_eq!(topo.hosts().count(), 18);
        // Opposite corners are routable, with a fewest-hops Manhattan path
        // between their anchors (4 gateway hops for a 3x3 grid).
        let first = HostId(0);
        let hosts: Vec<_> = topo.hosts().map(|h| h.id()).collect();
        let last_anchor = hosts[hosts.len() - 2];
        assert_eq!(topo.route(first, last_anchor).unwrap().len(), 4);
    }

    #[test]
    fn transfer_time_matches_ten_megabit_ethernet() {
        // 10 Mbps at 80% efficiency = 1 MB/s goodput: 2 MB takes ~2 s + latency.
        let (topo, a, b, _) = two_space_topo();
        let t = topo.transfer_time(a, b, 2_000_000).unwrap();
        let expected = SimDuration::from_millis(1) + SimDuration::from_secs_f64(2.0);
        assert_eq!(t, expected);
    }

    #[test]
    fn cpu_factor_scales_costs() {
        let slow = CpuFactor::new(0.5);
        assert_eq!(
            slow.scale(SimDuration::from_millis(100)),
            SimDuration::from_millis(200)
        );
        assert_eq!(CpuFactor::new(-3.0).factor(), 0.01, "clamped");
    }

    #[test]
    fn zero_payload_costs_only_latency() {
        let (topo, a, b, _) = two_space_topo();
        assert_eq!(
            topo.transfer_time(a, b, 0).unwrap(),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn pipelined_equals_store_and_forward_at_one_hop() {
        let (topo, a, b, _) = two_space_topo();
        for bytes in [0u64, 1, 4_096, 2_000_000] {
            for chunk in [1u64, 1_024, DEFAULT_CHUNK_BYTES, u64::MAX] {
                let p = topo.pipelined_transfer(a, b, bytes, chunk).unwrap();
                assert_eq!(p.elapsed, topo.transfer_time(a, b, bytes).unwrap());
                assert_eq!(p.links.len(), 1);
            }
        }
    }

    #[test]
    fn pipelined_never_exceeds_store_and_forward() {
        let (topo, a, _, c) = two_space_topo();
        for bytes in [0u64, 512, 65_536, 2_000_000, 7_500_000] {
            let saf = topo.transfer_time(a, c, bytes).unwrap();
            for chunk in [4_096u64, DEFAULT_CHUNK_BYTES, 1_000_000] {
                let p = topo.pipelined_transfer(a, c, bytes, chunk).unwrap();
                assert!(
                    p.elapsed <= saf,
                    "bytes={bytes} chunk={chunk}: {:?} > {saf:?}",
                    p.elapsed
                );
            }
        }
    }

    #[test]
    fn pipelined_beats_store_and_forward_on_two_hops() {
        // 2 MB over the a–b–c route: store-and-forward pays both
        // transmissions in full; cut-through overlaps them.
        let (topo, a, _, c) = two_space_topo();
        let saf = topo.transfer_time(a, c, 2_000_000).unwrap();
        let pipe = topo.pipelined_transfer_time(a, c, 2_000_000).unwrap();
        assert!(pipe < saf, "{pipe:?} !< {saf:?}");
        // The bottleneck link (gateway, 0.7 efficiency) lower-bounds it.
        let bottleneck = SimDuration::from_millis(6)
            + SimDuration::from_secs_f64(2_000_000.0 / (10_000_000.0 * 0.7 / 8.0));
        assert!(pipe >= bottleneck, "{pipe:?} < {bottleneck:?}");
    }

    #[test]
    fn chunk_size_invariance_bounds() {
        // Whatever the chunk size, the pipelined figure stays between the
        // bottleneck bound (all latencies + slowest-link transmission) and
        // plain store-and-forward.
        let (topo, a, _, c) = two_space_topo();
        let bytes = 4_300_000u64;
        let saf = topo.transfer_time(a, c, bytes).unwrap();
        let bottleneck = SimDuration::from_millis(6)
            + SimDuration::from_secs_f64(bytes as f64 / (10_000_000.0 * 0.7 / 8.0));
        let mut prev = None;
        for chunk in [8_192u64, 32_768, DEFAULT_CHUNK_BYTES, 262_144, 1_048_576] {
            let p = topo.pipelined_transfer(a, c, bytes, chunk).unwrap();
            assert!(p.elapsed >= bottleneck, "chunk={chunk}");
            assert!(p.elapsed <= saf, "chunk={chunk}");
            // Smaller chunks pipeline no worse than larger ones.
            if let Some(prev) = prev {
                assert!(p.elapsed >= prev, "chunk={chunk}");
            }
            prev = Some(p.elapsed);
        }
    }

    #[test]
    fn pipelined_utilization_tracks_the_bottleneck() {
        let (topo, a, _, c) = two_space_topo();
        let p = topo
            .pipelined_transfer(a, c, 2_000_000, DEFAULT_CHUNK_BYTES)
            .unwrap();
        assert_eq!(p.links.len(), 2);
        // Route order is a→b (LAN) then b→c (gateway); the slower gateway
        // link is the busier one.
        let lan = &p.links[0];
        let gw = &p.links[1];
        assert!(gw.busy > lan.busy);
        assert!(gw.utilization > lan.utilization);
        assert!(
            gw.utilization > 0.9,
            "bottleneck should be nearly saturated"
        );
        for l in &p.links {
            assert!(l.utilization > 0.0 && l.utilization <= 1.0);
        }
    }

    #[test]
    fn pipelined_zero_bytes_pays_all_latencies() {
        let (topo, a, _, c) = two_space_topo();
        let p = topo
            .pipelined_transfer(a, c, 0, DEFAULT_CHUNK_BYTES)
            .unwrap();
        assert_eq!(p.elapsed, SimDuration::from_millis(6));
    }
}
