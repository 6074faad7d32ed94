//! Integration tests for the agent platform: lifecycle, messaging,
//! timers, and the two mobility primitives.

use mdagent_agent::{
    AclMessage, Agent, AgentError, AgentId, Cx, Journey, LifecycleState, Performative, Platform,
    PlatformEnv, PlatformHost, ServiceDescription,
};
use mdagent_simnet::{CpuFactor, SimDuration, Simulator, Topology};
use mdagent_wire::{from_bytes, impl_wire_struct, to_bytes};

/// Minimal world: just a platform and its environment.
struct TestWorld {
    platform: Platform<TestWorld>,
    env: PlatformEnv,
    /// Observable side effects written by agents.
    log: Vec<String>,
}

impl PlatformHost for TestWorld {
    fn platform(&self) -> &Platform<TestWorld> {
        &self.platform
    }
    fn platform_mut(&mut self) -> &mut Platform<TestWorld> {
        &mut self.platform
    }
    fn env(&self) -> &PlatformEnv {
        &self.env
    }
    fn env_mut(&mut self) -> &mut PlatformEnv {
        &mut self.env
    }
}

/// A test agent that logs its callbacks and counts messages.
#[derive(Debug, Clone, PartialEq)]
struct Probe {
    counter: u64,
    note: String,
}
impl_wire_struct!(Probe { counter, note });

impl Agent<TestWorld> for Probe {
    fn type_name(&self) -> &'static str {
        "probe"
    }
    fn snapshot(&self) -> Vec<u8> {
        to_bytes(self)
    }
    fn on_start(&mut self, journey: Journey, cx: Cx<'_, TestWorld>) {
        cx.world.log.push(format!("{} start {:?}", cx.id, journey));
    }
    fn on_message(&mut self, msg: &AclMessage, cx: Cx<'_, TestWorld>) {
        self.counter += 1;
        cx.world.log.push(format!(
            "{} got {} #{}",
            cx.id, msg.performative, self.counter
        ));
        // Echo protocol: reply to requests with agree.
        if msg.performative == Performative::Request {
            let reply = msg.reply(Performative::Agree);
            Platform::send(cx.world, cx.sim, reply);
        }
    }
    fn on_timer(&mut self, tag: u64, cx: Cx<'_, TestWorld>) {
        self.counter += 1;
        cx.world.log.push(format!("{} timer {tag}", cx.id));
    }
}

/// Two spaces, one host each, joined by a gateway; a second host in space 0.
fn world() -> (TestWorld, Simulator<TestWorld>) {
    let mut topo = Topology::new();
    let s0 = topo.add_space("office");
    let s1 = topo.add_space("meeting-room");
    let h0 = topo.add_host("pc0", s0, CpuFactor::REFERENCE);
    let h1 = topo.add_host("pc1", s0, CpuFactor::REFERENCE);
    let h2 = topo.add_host("pc2", s1, CpuFactor::REFERENCE);
    topo.add_lan_link(h0, h1, SimDuration::from_millis(1), 10_000_000, 0.8)
        .unwrap();
    topo.add_gateway_link(h1, h2, SimDuration::from_millis(5), 10_000_000, 0.7)
        .unwrap();

    let mut platform = Platform::new("test");
    platform.create_container("main", h0);
    platform.create_container("aux", h1);
    platform.create_container("remote", h2);
    platform.register_factory(
        "probe",
        Box::new(|bytes| {
            from_bytes::<Probe>(bytes).map(|p| Box::new(p) as Box<dyn Agent<TestWorld>>)
        }),
    );
    let world = TestWorld {
        platform,
        env: PlatformEnv::new(topo),
        log: Vec::new(),
    };
    (world, Simulator::new())
}

fn probe(note: &str) -> Box<Probe> {
    Box::new(Probe {
        counter: 0,
        note: note.into(),
    })
}

use mdagent_agent::ContainerId;
const MAIN: ContainerId = ContainerId(0);
const AUX: ContainerId = ContainerId(1);
const REMOTE: ContainerId = ContainerId(2);

#[test]
fn spawn_runs_on_start() {
    let (mut w, mut sim) = world();
    let id = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("x")).unwrap();
    sim.run(&mut w);
    assert_eq!(w.log, vec![format!("{id} start Born")]);
    assert_eq!(w.platform.agent_state(&id), Some(LifecycleState::Active));
    assert_eq!(w.platform.container_of(&id), Some(MAIN));
}

#[test]
fn duplicate_spawn_rejected() {
    let (mut w, mut sim) = world();
    Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("1")).unwrap();
    let err = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("2")).unwrap_err();
    assert!(matches!(err, AgentError::DuplicateAgent(_)));
}

#[test]
fn request_reply_roundtrip() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    let b = Platform::spawn(&mut w, &mut sim, AUX, "b", probe("b")).unwrap();
    let msg = AclMessage::new(Performative::Request, a.clone(), b.clone());
    Platform::send(&mut w, &mut sim, msg);
    sim.run(&mut w);
    // b received the request, a received the agree.
    assert!(w
        .log
        .iter()
        .any(|l| l.contains(&format!("{b} got request"))));
    assert!(w.log.iter().any(|l| l.contains(&format!("{a} got agree"))));
    assert_eq!(w.env.metrics.counter("acl.delivered"), 2);
    // Remote delivery takes at least the link latency + overhead.
    assert!(sim.now() >= mdagent_simnet::SimTime::from_millis(2));
}

#[test]
fn messages_to_unknown_agents_dead_letter() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    let ghost = AgentId::new("ghost", "test");
    Platform::send(
        &mut w,
        &mut sim,
        AclMessage::new(Performative::Inform, a, ghost),
    );
    sim.run(&mut w);
    assert_eq!(w.env.metrics.counter("acl.dead_letter"), 1);
}

#[test]
fn timers_and_tickers_fire() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    Platform::set_timer(&mut w, &mut sim, &a, SimDuration::from_millis(10), 7);
    let ticker = Platform::set_ticker(&mut w, &mut sim, &a, SimDuration::from_millis(3), 9);
    sim.run_until(&mut w, mdagent_simnet::SimTime::from_millis(11));
    let timer7 = w.log.iter().filter(|l| l.contains("timer 7")).count();
    let timer9 = w.log.iter().filter(|l| l.contains("timer 9")).count();
    assert_eq!(timer7, 1);
    assert_eq!(timer9, 3, "ticks at 3, 6, 9 ms");
    w.platform.cancel_ticker(ticker);
    let before = w.log.len();
    sim.run_for(&mut w, SimDuration::from_millis(20));
    assert_eq!(w.log.len(), before, "cancelled ticker stops firing");
}

#[test]
fn suspension_buffers_messages_until_resume() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    let b = Platform::spawn(&mut w, &mut sim, MAIN, "b", probe("b")).unwrap();
    sim.run(&mut w);
    Platform::suspend(&mut w, &b).unwrap();
    assert_eq!(w.platform.agent_state(&b), Some(LifecycleState::Suspended));
    Platform::send(
        &mut w,
        &mut sim,
        AclMessage::new(Performative::Inform, a.clone(), b.clone()),
    );
    sim.run(&mut w);
    assert_eq!(w.env.metrics.counter("acl.buffered"), 1);
    assert!(!w.log.iter().any(|l| l.contains(&format!("{b} got"))));
    Platform::resume(&mut w, &mut sim, &b).unwrap();
    sim.run(&mut w);
    assert!(w.log.iter().any(|l| l.contains(&format!("{b} got inform"))));
    // Double suspend errors, resume of active agent is a no-op.
    Platform::suspend(&mut w, &b).unwrap();
    assert!(Platform::suspend(&mut w, &b).is_err());
    Platform::resume(&mut w, &mut sim, &b).unwrap();
    Platform::resume(&mut w, &mut sim, &b).unwrap();
}

#[test]
fn move_agent_preserves_state_and_buffers_mail() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    let b = Platform::spawn(&mut w, &mut sim, MAIN, "b", probe("b")).unwrap();
    sim.run(&mut w);
    // Bump b's counter to 2 so we can check state survives the move.
    for _ in 0..2 {
        Platform::send(
            &mut w,
            &mut sim,
            AclMessage::new(Performative::Inform, a.clone(), b.clone()),
        );
    }
    sim.run(&mut w);
    let dur = Platform::move_agent(&mut w, &mut sim, &b, REMOTE, 0).unwrap();
    assert!(dur >= mdagent_agent::MIGRATION_SETUP);
    assert_eq!(w.platform.agent_state(&b), Some(LifecycleState::InTransit));
    // Mail sent while in transit must not be lost.
    Platform::send(
        &mut w,
        &mut sim,
        AclMessage::new(Performative::Inform, a.clone(), b.clone()),
    );
    sim.run(&mut w);
    assert_eq!(w.platform.agent_state(&b), Some(LifecycleState::Active));
    assert_eq!(w.platform.container_of(&b), Some(REMOTE));
    assert!(w
        .log
        .iter()
        .any(|l| l.contains(&format!("{b} start Moved"))));
    // Counter continued from 2: the in-transit message is its third.
    assert!(w
        .log
        .iter()
        .any(|l| l.contains(&format!("{b} got inform #3"))));
    assert_eq!(w.env.metrics.counter("platform.moves"), 1);
}

#[test]
fn clone_agent_leaves_original_running() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    sim.run(&mut w);
    let (clone_id, dur) = Platform::clone_agent(&mut w, &mut sim, &a, REMOTE, 1_000).unwrap();
    assert!(dur > SimDuration::ZERO);
    assert_ne!(clone_id, a);
    sim.run(&mut w);
    assert_eq!(w.platform.agent_state(&a), Some(LifecycleState::Active));
    assert_eq!(
        w.platform.agent_state(&clone_id),
        Some(LifecycleState::Active)
    );
    assert_eq!(w.platform.container_of(&clone_id), Some(REMOTE));
    assert!(w
        .log
        .iter()
        .any(|l| l.contains(&format!("{clone_id} start Cloned"))));
    assert_eq!(w.platform.agent_count(), 2);
}

#[test]
fn self_move_from_handler_is_deferred_but_happens() {
    // An agent that asks to move itself when it receives a request.
    #[derive(Debug, Clone)]
    struct Mover;
    impl Agent<TestWorld> for Mover {
        fn type_name(&self) -> &'static str {
            "mover"
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn on_start(&mut self, journey: Journey, cx: Cx<'_, TestWorld>) {
            cx.world.log.push(format!("{} start {:?}", cx.id, journey));
        }
        fn on_message(&mut self, _msg: &AclMessage, cx: Cx<'_, TestWorld>) {
            let id = cx.id.clone();
            let res = Platform::move_agent(cx.world, cx.sim, &id, REMOTE, 0);
            assert!(res.is_ok());
        }
    }
    let (mut w, mut sim) = world();
    w.platform.register_factory(
        "mover",
        Box::new(|_| Ok(Box::new(Mover) as Box<dyn Agent<TestWorld>>)),
    );
    let m = Platform::spawn(&mut w, &mut sim, MAIN, "m", Box::new(Mover)).unwrap();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    sim.run(&mut w);
    Platform::send(
        &mut w,
        &mut sim,
        AclMessage::new(Performative::Request, a, m.clone()),
    );
    sim.run(&mut w);
    assert_eq!(w.platform.container_of(&m), Some(REMOTE));
    assert!(w
        .log
        .iter()
        .any(|l| l.contains(&format!("{m} start Moved"))));
}

#[test]
fn move_without_factory_fails() {
    #[derive(Debug)]
    struct NoFactory;
    impl Agent<TestWorld> for NoFactory {
        fn type_name(&self) -> &'static str {
            "no-factory"
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
    }
    let (mut w, mut sim) = world();
    let id = Platform::spawn(&mut w, &mut sim, MAIN, "n", Box::new(NoFactory)).unwrap();
    sim.run(&mut w);
    let err = Platform::move_agent(&mut w, &mut sim, &id, REMOTE, 0).unwrap_err();
    assert_eq!(err, AgentError::NoFactory("no-factory".into()));
}

#[test]
fn kill_makes_later_mail_dead_letter() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    let b = Platform::spawn(&mut w, &mut sim, MAIN, "b", probe("b")).unwrap();
    sim.run(&mut w);
    Platform::kill(&mut w, &b);
    assert_eq!(w.platform.agent_state(&b), Some(LifecycleState::Deleted));
    Platform::send(
        &mut w,
        &mut sim,
        AclMessage::new(Performative::Inform, a, b),
    );
    sim.run(&mut w);
    assert_eq!(w.env.metrics.counter("acl.dead_letter"), 1);
    assert_eq!(w.platform.agent_count(), 1);
}

#[test]
fn df_search_finds_registered_services() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "ma-1", probe("a")).unwrap();
    w.platform
        .df_mut()
        .register(&a, ServiceDescription::new("mobile-agent", "wrapper"));
    assert_eq!(w.platform.df().search("mobile-agent"), vec![a.clone()]);
    Platform::kill(&mut w, &a);
    assert!(w.platform.df().search("mobile-agent").is_empty());
}

#[test]
fn bigger_cargo_takes_longer_to_move() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    let b = Platform::spawn(&mut w, &mut sim, MAIN, "b", probe("b")).unwrap();
    sim.run(&mut w);
    let small = Platform::move_agent(&mut w, &mut sim, &a, REMOTE, 10_000).unwrap();
    let large = Platform::move_agent(&mut w, &mut sim, &b, REMOTE, 5_000_000).unwrap();
    assert!(large > small * 10, "5 MB cargo should dwarf 10 kB cargo");
    sim.run(&mut w);
    assert_eq!(w.platform.container_of(&a), Some(REMOTE));
    assert_eq!(w.platform.container_of(&b), Some(REMOTE));
}

#[test]
fn multi_hop_move_records_every_link() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    sim.run(&mut w);
    // MAIN (pc0) to REMOTE (pc2) crosses the LAN link, then the gateway.
    Platform::move_agent(&mut w, &mut sim, &a, REMOTE, 0).unwrap();
    let metrics = &w.env.metrics;
    let busy = metrics.histogram("migration.link_busy").unwrap();
    assert_eq!(busy.count(), 2, "one observation per hop");
    assert!(metrics.durations("migration.link_busy").is_none());
    let labels: Vec<_> = metrics
        .gauges()
        .filter(|(name, _, _)| *name == "migration.link_utilization_pct")
        .map(|(_, label, _)| label)
        .collect();
    assert_eq!(labels, ["link-0", "link-1"]);
}

#[test]
fn agents_in_lists_by_container() {
    let (mut w, mut sim) = world();
    let a = Platform::spawn(&mut w, &mut sim, MAIN, "a", probe("a")).unwrap();
    let b = Platform::spawn(&mut w, &mut sim, AUX, "b", probe("b")).unwrap();
    sim.run(&mut w);
    assert_eq!(w.platform.agents_in(MAIN), vec![a]);
    assert_eq!(w.platform.agents_in(AUX), vec![b]);
    assert!(w.platform.agents_in(REMOTE).is_empty());
}
