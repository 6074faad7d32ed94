//! Equivalence proof for `Topology::route`: on any topology — parallel
//! links, self-loop LAN links, disconnected hosts, links added after routes
//! were cached — the host-indexed BFS returns exactly the route of the
//! original hash-map BFS, kept here as the oracle, including its errors.

use mdagent_fx::FxHashMap;
use mdagent_simnet::{CpuFactor, HostId, LinkId, SimDuration, Topology, TopologyError};
use proptest::collection;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The original fewest-hops BFS: adjacency lists in link creation order,
/// a fresh `prev` map per search, and the first discovery of a host wins.
struct Oracle {
    adjacency: FxHashMap<HostId, Vec<LinkId>>,
}

impl Oracle {
    fn new(topo: &Topology) -> Self {
        let mut adjacency: FxHashMap<HostId, Vec<LinkId>> = FxHashMap::default();
        for (id, link) in (0..).map_while(|i| Some((LinkId(i), topo.link(LinkId(i))?))) {
            let (a, b) = link.endpoints();
            adjacency.entry(a).or_default().push(id);
            adjacency.entry(b).or_default().push(id);
        }
        Oracle { adjacency }
    }

    fn route(
        &self,
        topo: &Topology,
        from: HostId,
        to: HostId,
    ) -> Result<Vec<LinkId>, TopologyError> {
        topo.host(from)?;
        topo.host(to)?;
        if from == to {
            return Ok(Vec::new());
        }
        let mut prev: FxHashMap<HostId, (HostId, LinkId)> = FxHashMap::default();
        let mut queue = VecDeque::from([from]);
        'bfs: while let Some(cur) = queue.pop_front() {
            let neighbours = self.adjacency.get(&cur).map(Vec::as_slice).unwrap_or(&[]);
            for &lid in neighbours {
                let Some(link) = topo.link(lid) else {
                    continue;
                };
                let next = match link.endpoints() {
                    (a, b) if a == cur => b,
                    (a, b) if b == cur => a,
                    _ => continue,
                };
                if next == from || prev.contains_key(&next) {
                    continue;
                }
                prev.insert(next, (cur, lid));
                if next == to {
                    break 'bfs;
                }
                queue.push_back(next);
            }
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let Some(&(parent, lid)) = prev.get(&cur) else {
                return Err(TopologyError::NoRoute(from, to));
            };
            path.push(lid);
            cur = parent;
        }
        path.reverse();
        Ok(path)
    }
}

/// Asserts that `route` agrees with the oracle on every ordered pair of
/// `topo`'s hosts, and on pairs naming hosts it does not have.
fn assert_all_pairs_match(topo: &Topology) {
    let oracle = Oracle::new(topo);
    let n = topo.hosts().count() as u32;
    let hosts: Vec<HostId> = (0..n + 2).map(HostId).collect();
    for &from in &hosts {
        for &to in &hosts {
            let want = oracle.route(topo, from, to);
            assert_eq!(topo.route(from, to), want, "{from} -> {to}");
            // A second call is served from the cache and must agree too.
            assert_eq!(topo.route(from, to), want, "{from} -> {to} (cached)");
        }
    }
}

/// A generated topology: each host's space, then the links added before
/// and after every pair was routed once.
#[derive(Debug, Clone)]
struct Plan {
    spaces: Vec<u32>,
    early: Vec<(usize, usize)>,
    late: Vec<(usize, usize)>,
}

fn plan() -> impl Strategy<Value = Plan> {
    // Few hosts and many links make parallel links and self-loops common;
    // few links leave hosts disconnected.
    (
        collection::vec(0u32..3, 1..9),
        collection::vec((0usize..9, 0usize..9), 0..16),
        collection::vec((0usize..9, 0usize..9), 0..6),
    )
        .prop_map(|(spaces, early, late)| Plan {
            spaces,
            early,
            late,
        })
}

/// Joins the `a`-th and `b`-th hosts (modulo the host count): by a LAN
/// link inside one space (a self-loop when they are the same host), by a
/// gateway link across spaces.
fn add_link(topo: &mut Topology, hosts: &[HostId], (a, b): (usize, usize)) {
    let (a, b) = (hosts[a % hosts.len()], hosts[b % hosts.len()]);
    let latency = SimDuration::from_millis(1);
    let space = |h| topo.host(h).unwrap().space();
    let added = if space(a) != space(b) {
        topo.add_gateway_link(a, b, latency, 10_000_000, 0.8)
    } else {
        topo.add_lan_link(a, b, latency, 100_000_000, 0.8)
    };
    added.unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn route_matches_the_hash_map_bfs(plan in plan()) {
        let mut topo = Topology::new();
        let spaces: Vec<_> = (0..3).map(|i| topo.add_space(format!("s{i}"))).collect();
        let hosts: Vec<HostId> = plan
            .spaces
            .iter()
            .enumerate()
            .map(|(i, &s)| topo.add_host(format!("h{i}"), spaces[s as usize], CpuFactor::REFERENCE))
            .collect();
        for &pair in &plan.early {
            add_link(&mut topo, &hosts, pair);
        }
        assert_all_pairs_match(&topo);
        // Every pair is now cached; new links must invalidate all of it.
        for &pair in &plan.late {
            add_link(&mut topo, &hosts, pair);
        }
        assert_all_pairs_match(&topo);
    }
}

#[test]
fn grid_city_routes_match_the_hash_map_bfs() {
    assert_all_pairs_match(&Topology::grid_city(6, 2).unwrap());
}

#[test]
fn unknown_hosts_are_reported_before_routing() {
    let topo = Topology::grid_city(2, 1).unwrap();
    let (known, unknown) = (HostId(0), HostId(99));
    assert_eq!(
        topo.route(unknown, known),
        Err(TopologyError::UnknownHost(unknown))
    );
    assert_eq!(
        topo.route(known, unknown),
        Err(TopologyError::UnknownHost(unknown))
    );
    assert_eq!(
        topo.route(unknown, unknown),
        Err(TopologyError::UnknownHost(unknown))
    );
}
