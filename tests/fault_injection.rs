//! Fault injection: failing reconstruction factories, agents killed in
//! transit, dead letters — the middleware must degrade loudly and never
//! strand state silently.

use mdagent::agent::{
    AclMessage, Agent, AgentId, Cx, Journey, LifecycleState, Performative, Platform, PlatformEnv,
    PlatformHost,
};
use mdagent::simnet::{CpuFactor, SimDuration, Simulator, Topology};
use mdagent::wire::WireError;

struct World {
    platform: Platform<World>,
    env: PlatformEnv,
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

#[derive(Debug)]
struct Dummy;

impl Agent<World> for Dummy {
    fn type_name(&self) -> &'static str {
        "dummy"
    }
    fn snapshot(&self) -> Vec<u8> {
        vec![1, 2, 3]
    }
    fn on_start(&mut self, _journey: Journey, _cx: Cx<'_, World>) {}
}

fn world() -> (
    World,
    Simulator<World>,
    mdagent::agent::ContainerId,
    mdagent::agent::ContainerId,
) {
    let mut topo = Topology::new();
    let s0 = topo.add_space("a");
    let s1 = topo.add_space("b");
    let h0 = topo.add_host("h0", s0, CpuFactor::REFERENCE);
    let h1 = topo.add_host("h1", s1, CpuFactor::REFERENCE);
    topo.add_gateway_link(h0, h1, SimDuration::from_millis(5), 10_000_000, 0.7)
        .unwrap();
    let mut platform = Platform::new("faulty");
    let c0 = platform.create_container("c0", h0);
    let c1 = platform.create_container("c1", h1);
    (
        World {
            platform,
            env: PlatformEnv::new(topo),
        },
        Simulator::new(),
        c0,
        c1,
    )
}

#[test]
fn failing_factory_surfaces_checkin_failure() {
    let (mut w, mut sim, c0, c1) = world();
    // The factory always fails: the agent is lost at check-in, loudly.
    w.platform
        .register_factory("dummy", Box::new(|_| Err(WireError::InvalidUtf8)));
    let id = Platform::spawn(&mut w, &mut sim, c0, "d", Box::new(Dummy)).unwrap();
    sim.run(&mut w);
    Platform::move_agent(&mut w, &mut sim, &id, c1, 0).unwrap();
    sim.run(&mut w);
    assert_eq!(w.platform.agent_state(&id), Some(LifecycleState::Deleted));
    assert_eq!(w.env.metrics.counter("platform.checkin_failures"), 1);
    assert!(w.env.trace.contains("check-in FAILED"));
}

#[test]
fn kill_in_transit_discards_the_arrival() {
    let (mut w, mut sim, c0, c1) = world();
    w.platform.register_factory(
        "dummy",
        Box::new(|_| Ok(Box::new(Dummy) as Box<dyn Agent<World>>)),
    );
    let id = Platform::spawn(&mut w, &mut sim, c0, "d", Box::new(Dummy)).unwrap();
    sim.run(&mut w);
    Platform::move_agent(&mut w, &mut sim, &id, c1, 1_000_000).unwrap();
    assert_eq!(w.platform.agent_state(&id), Some(LifecycleState::InTransit));
    Platform::kill(&mut w, &id);
    sim.run(&mut w);
    // The agent never re-materializes.
    assert_eq!(w.platform.agent_state(&id), Some(LifecycleState::Deleted));
    assert_eq!(w.env.metrics.counter("platform.checkin_failures"), 0);
}

#[test]
fn message_conservation_under_churn() {
    // Random-ish storm: sent == delivered + buffered-not-yet-flushed +
    // dead-lettered + no-route at quiescence. Here everything quiesces, so
    // sent == delivered + dead_letter.
    let (mut w, mut sim, c0, c1) = world();
    w.platform.register_factory(
        "dummy",
        Box::new(|_| Ok(Box::new(Dummy) as Box<dyn Agent<World>>)),
    );
    let a = Platform::spawn(&mut w, &mut sim, c0, "a", Box::new(Dummy)).unwrap();
    let b = Platform::spawn(&mut w, &mut sim, c1, "b", Box::new(Dummy)).unwrap();
    let ghost = AgentId::new("ghost", "faulty");
    sim.run(&mut w);
    for i in 0..20 {
        let receiver = match i % 3 {
            0 => b.clone(),
            1 => a.clone(),
            _ => ghost.clone(),
        };
        Platform::send(
            &mut w,
            &mut sim,
            AclMessage::new(Performative::Inform, a.clone(), receiver),
        );
        if i == 7 {
            // Move b mid-storm; its mail buffers and flushes at check-in.
            Platform::move_agent(&mut w, &mut sim, &b, c0, 0).unwrap();
        }
    }
    sim.run(&mut w);
    let m = &w.env.metrics;
    assert_eq!(
        m.counter("acl.sent"),
        m.counter("acl.delivered") + m.counter("acl.dead_letter"),
        "every sent message is accounted for"
    );
    assert!(
        m.counter("acl.buffered") > 0,
        "the move really buffered mail"
    );
    assert_eq!(w.platform.agent_state(&b), Some(LifecycleState::Active));
}

#[test]
fn in_order_delivery_per_channel() {
    // Messages of very different sizes between one sender/receiver pair
    // must arrive in send order (TCP semantics).
    #[derive(Debug, Default)]
    struct Recorder;
    impl Agent<World> for Recorder {
        fn type_name(&self) -> &'static str {
            "recorder"
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn on_message(&mut self, msg: &AclMessage, cx: Cx<'_, World>) {
            let seq = msg.conversation_id;
            cx.world.env_mut().metrics.incr("recorder.count");
            // Order check: conversation ids must arrive 0,1,2,...
            assert_eq!(
                seq,
                cx.world.env().metrics.counter("recorder.count") - 1,
                "message overtaking detected"
            );
        }
    }
    let (mut w, mut sim, c0, c1) = world();
    let a = Platform::spawn(&mut w, &mut sim, c0, "a", Box::new(Dummy)).unwrap();
    let r = Platform::spawn(&mut w, &mut sim, c1, "r", Box::new(Recorder)).unwrap();
    sim.run(&mut w);
    // Big message first, tiny ones after: without FIFO channels the tiny
    // ones would overtake.
    for (i, size) in [500_000usize, 10, 10, 10].iter().enumerate() {
        Platform::send(
            &mut w,
            &mut sim,
            AclMessage::new(Performative::Inform, a.clone(), r.clone())
                .with_conversation(i as u64)
                .with_content(vec![0; *size]),
        );
    }
    sim.run(&mut w);
    assert_eq!(w.env.metrics.counter("recorder.count"), 4);
}
