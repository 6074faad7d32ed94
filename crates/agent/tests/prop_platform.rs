//! Property tests of the agent platform: message conservation, ordering
//! and mobility under random storms.

use mdagent_agent::{
    AclMessage, Agent, AgentId, Cx, Journey, LifecycleState, Performative, Platform, PlatformEnv,
    PlatformHost,
};
use mdagent_simnet::{CpuFactor, SimDuration, Simulator, Topology};
use mdagent_wire::{from_bytes, impl_wire_struct, to_bytes};
use proptest::prelude::*;

struct World {
    platform: Platform<World>,
    env: PlatformEnv,
    received: Vec<(String, u64)>,
}

impl PlatformHost for World {
    fn platform(&self) -> &Platform<World> {
        &self.platform
    }
    fn platform_mut(&mut self) -> &mut Platform<World> {
        &mut self.platform
    }
    fn env(&self) -> &PlatformEnv {
        &self.env
    }
    fn env_mut(&mut self) -> &mut PlatformEnv {
        &mut self.env
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Counter {
    seen: u64,
}
impl_wire_struct!(Counter { seen });

impl Agent<World> for Counter {
    fn type_name(&self) -> &'static str {
        "counter"
    }
    fn snapshot(&self) -> Vec<u8> {
        to_bytes(self)
    }
    fn on_message(&mut self, msg: &AclMessage, cx: Cx<'_, World>) {
        self.seen += 1;
        cx.world
            .received
            .push((cx.id.local_name().to_owned(), msg.conversation_id));
    }
    fn on_start(&mut self, _journey: Journey, _cx: Cx<'_, World>) {}
}

fn build(hosts: usize) -> (World, Simulator<World>, Vec<mdagent_agent::ContainerId>) {
    let mut topo = Topology::new();
    let mut host_ids = Vec::new();
    let space = topo.add_space("s");
    for i in 0..hosts {
        host_ids.push(topo.add_host(format!("h{i}"), space, CpuFactor::REFERENCE));
    }
    for w in host_ids.windows(2) {
        topo.add_lan_link(w[0], w[1], SimDuration::from_millis(1), 10_000_000, 0.8)
            .unwrap();
    }
    let mut platform = Platform::new("prop");
    platform.register_factory(
        "counter",
        Box::new(|bytes| {
            from_bytes::<Counter>(bytes).map(|a| Box::new(a) as Box<dyn Agent<World>>)
        }),
    );
    let containers: Vec<_> = host_ids
        .iter()
        .enumerate()
        .map(|(i, &h)| platform.create_container(format!("c{i}"), h))
        .collect();
    (
        World {
            platform,
            env: PlatformEnv::new(topo),
            received: Vec::new(),
        },
        Simulator::new(),
        containers,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// At quiescence, sent == delivered + dead-lettered, regardless of the
    /// interleaving of sends, moves, clones, suspends and resumes.
    #[test]
    fn messages_are_conserved(
        ops in proptest::collection::vec((0u8..7, 0usize..3, any::<bool>()), 1..40),
    ) {
        let (mut w, mut sim, containers) = build(3);
        let mut agents: Vec<AgentId> = Vec::new();
        for (i, container) in containers.iter().enumerate().take(3) {
            agents.push(
                Platform::spawn(&mut w, &mut sim, *container, &format!("a{i}"),
                    Box::new(Counter { seen: 0 })).unwrap(),
            );
        }
        let ghost = AgentId::new("ghost", "prop");
        sim.run(&mut w);
        let mut seq = 0u64;
        let mut clones: Vec<AgentId> = Vec::new();
        for (op, target, flag) in &ops {
            let agent = agents[*target].clone();
            match op {
                0..=2 => {
                    let receiver = if *flag { agent } else { ghost.clone() };
                    let sender = agents[(*target + 1) % 3].clone();
                    seq += 1;
                    Platform::send(&mut w, &mut sim,
                        AclMessage::new(Performative::Inform, sender, receiver)
                            .with_conversation(seq));
                }
                3 => {
                    let dest = containers[(*target + 1) % 3];
                    let _ = Platform::move_agent(&mut w, &mut sim, &agent, dest, 0);
                }
                4 => {
                    let _ = Platform::suspend(&mut w, &agent);
                }
                5 => {
                    let _ = Platform::resume(&mut w, &mut sim, &agent);
                }
                _ => {
                    let dest = containers[(*target + 2) % 3];
                    if let Ok((clone, _)) =
                        Platform::clone_agent(&mut w, &mut sim, &agent, dest, 0)
                    {
                        clones.push(clone);
                    }
                }
            }
        }
        // Resume everyone so buffered mail drains.
        for a in &agents {
            let _ = Platform::resume(&mut w, &mut sim, a);
        }
        sim.run(&mut w);
        for a in &agents {
            let _ = Platform::resume(&mut w, &mut sim, a);
        }
        sim.run(&mut w);
        let m = &w.env.metrics;
        prop_assert_eq!(
            m.counter("acl.sent"),
            m.counter("acl.delivered") + m.counter("acl.dead_letter"),
            "conservation violated"
        );
        // Every live agent, and every clone that was dispatched, is
        // Active at the end.
        for a in agents.iter().chain(&clones) {
            prop_assert_eq!(w.platform.agent_state(a), Some(LifecycleState::Active));
        }
    }

    /// Per-channel FIFO: for each (sender, receiver) pair, conversation ids
    /// arrive in send order even with wildly varying message sizes.
    #[test]
    fn per_channel_fifo_holds(
        sizes in proptest::collection::vec(0usize..200_000, 2..12),
    ) {
        let (mut w, mut sim, containers) = build(2);
        let a = Platform::spawn(&mut w, &mut sim, containers[0], "a",
            Box::new(Counter { seen: 0 })).unwrap();
        let b = Platform::spawn(&mut w, &mut sim, containers[1], "b",
            Box::new(Counter { seen: 0 })).unwrap();
        sim.run(&mut w);
        for (i, size) in sizes.iter().enumerate() {
            Platform::send(&mut w, &mut sim,
                AclMessage::new(Performative::Inform, a.clone(), b.clone())
                    .with_conversation(i as u64)
                    .with_content(vec![0; *size]));
        }
        sim.run(&mut w);
        let got: Vec<u64> = w.received.iter().map(|(_, c)| *c).collect();
        let expected: Vec<u64> = (0..sizes.len() as u64).collect();
        prop_assert_eq!(got, expected);
    }

    /// A random walk of moves always ends with the agent Active at the
    /// final destination with its counter state intact.
    #[test]
    fn move_walks_preserve_agent_state(
        walk in proptest::collection::vec(0usize..3, 1..8),
        mail_per_stop in 0u64..3,
    ) {
        let (mut w, mut sim, containers) = build(3);
        let a = Platform::spawn(&mut w, &mut sim, containers[0], "walker",
            Box::new(Counter { seen: 0 })).unwrap();
        let pal = Platform::spawn(&mut w, &mut sim, containers[0], "pal",
            Box::new(Counter { seen: 0 })).unwrap();
        sim.run(&mut w);
        let mut expected_mail = 0u64;
        let mut last = containers[0];
        for &stop in &walk {
            let dest = containers[stop];
            if dest != last {
                Platform::move_agent(&mut w, &mut sim, &a, dest, 0).unwrap();
                last = dest;
            }
            for i in 0..mail_per_stop {
                expected_mail += 1;
                Platform::send(&mut w, &mut sim,
                    AclMessage::new(Performative::Inform, pal.clone(), a.clone())
                        .with_conversation(i));
            }
            sim.run(&mut w);
        }
        prop_assert_eq!(w.platform.agent_state(&a), Some(LifecycleState::Active));
        prop_assert_eq!(w.platform.container_of(&a), Some(last));
        let walker_mail = w.received.iter().filter(|(name, _)| name == "walker").count() as u64;
        prop_assert_eq!(walker_mail, expected_mail, "mail lost or duplicated across moves");
    }
}
