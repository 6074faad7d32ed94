//! Three paper features on one two-space world: the Fig. 7 round trip that
//! measures migration cost with unsynchronized host clocks, network probes
//! that feed a context-monitor condition (§4.1), and a leased printer
//! advertisement that expires out of its space registry.
//!
//! ```text
//! cargo run --example skew_probes_leases
//! ```

use mdagent::context::{Condition, UserId};
use mdagent::core::{
    BindingPolicy, Component, ComponentKind, DeviceProfile, Middleware, MobilityMode,
    ResourceRecord, RoundTrip, UserProfile,
};
use mdagent::simnet::{CpuFactor, HostId, SimDuration, SimTime, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Office and lab joined by a gateway. The office PC's clock runs 2 s
    // behind the (hidden) global clock, the lab PC's 7 s ahead.
    let mut b = Middleware::builder();
    let office = b.space("office");
    let lab = b.space("lab");
    let office_pc = b.host("office-pc", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let lab_pc = b.host("lab-pc", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.gateway(office_pc, lab_pc)?;
    b.clock_skew(office_pc, -2_000_000);
    b.clock_skew(lab_pc, 7_000_000);
    let (mut world, mut sim) = b.build();

    // --- Fig. 7: there and back, each instant read on its host's clock.
    let components = [
        Component::synthetic("logic", ComponentKind::Logic, 100_000),
        Component::synthetic("ui", ComponentKind::Presentation, 40_000),
        Component::synthetic("data", ComponentKind::Data, 500_000),
    ]
    .into_iter()
    .collect();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "notes",
        office_pc,
        components,
        UserProfile::new(UserId(0)),
    )?;
    sim.run(&mut world);
    let (office_clock, lab_clock) = (world.host_clock(office_pc), world.host_clock(lab_pc));
    let depart_out = sim.now();
    let arrive_out = follow_me(&mut world, &mut sim, app, lab_pc)?;
    let depart_back = sim.now();
    let arrive_back = follow_me(&mut world, &mut sim, app, office_pc)?;
    let rt = RoundTrip {
        t1_h1: office_clock.read(depart_out),
        t2_h2: lab_clock.read(arrive_out),
        t3_h2: lab_clock.read(depart_back),
        t4_h1: office_clock.read(arrive_back),
    };
    let true_micros = ((arrive_out - depart_out) + (arrive_back - depart_back)).as_micros();
    println!("--- Fig. 7 round trip on skewed clocks ---");
    println!(
        "local readings (us): t1={} t2={} t3={} t4={}",
        rt.t1_h1, rt.t2_h2, rt.t3_h2, rt.t4_h1
    );
    println!(
        "naive one-way t2-t1: {} us (off by the 9 s relative skew)",
        rt.t2_h2 - rt.t1_h1
    );
    println!(
        "round-trip cost (t2-t1)+(t4-t3): {} us; on the global clock: {} us",
        rt.migration_cost_micros(),
        true_micros
    );

    // --- §4.1: probes publish response times; the monitor watches them.
    let monitor = &mut world.kernel.monitor;
    let slow = monitor.register(Condition::SlowNetwork { threshold_ms: 1.0 });
    let very_slow = monitor.register(Condition::SlowNetwork {
        threshold_ms: 10_000.0,
    });
    Middleware::start_network_probes(
        &mut world,
        &mut sim,
        vec![(office_pc, lab_pc)],
        SimDuration::from_secs(1),
    );
    let probes_from = sim.now();
    sim.run_until(&mut world, probes_from + SimDuration::from_secs(5));
    println!("\n--- network probes and the context monitor ---");
    println!(
        "office-pc -> lab-pc response time: {:.3} ms",
        world.response_time_ms(office_pc, lab_pc)
    );
    println!(
        "probe rounds: {}; conditions fired: {} (registered: {:?} > 1 ms, {:?} > 10 s)",
        world.metrics().counter("probe.rounds"),
        world.kernel.monitor.fired_total(),
        slow,
        very_slow
    );

    // --- A leased resource lapses out of the space registry.
    let lease_end = sim.now() + SimDuration::from_secs(30);
    world
        .federation
        .add_center(office)
        .declare_subclass("imcl:hpLaserJet", "imcl:Printer");
    world.register_space_resource(
        ResourceRecord::new("imcl:prn-1", "imcl:hpLaserJet", office, office_pc)
            .lease_until(lease_end.as_micros()),
    );
    let printers = |world: &mut Middleware| {
        world
            .federation
            .find_resources(office, office, "imcl:Printer")
            .map(|hits| hits.value.len())
    };
    println!("\n--- a leased printer advertisement ---");
    println!("printers before the lease ends: {}", printers(&mut world)?);
    sim.run_until(&mut world, lease_end);
    let expired = world.expire_resource_leases(sim.now());
    println!(
        "t={} expired {expired} lease(s); printers now: {}",
        sim.now(),
        printers(&mut world)?
    );
    Ok(())
}

/// Moves `app` to `dest` follow-me style and returns its arrival instant.
fn follow_me(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    app: mdagent::core::AppId,
    dest: HostId,
) -> Result<SimTime, Box<dyn std::error::Error>> {
    Middleware::migrate_now(
        world,
        sim,
        app,
        dest,
        MobilityMode::FollowMe,
        BindingPolicy::Static,
    )?;
    sim.run(world);
    let report = world.migration_log().last().ok_or("no migration")?;
    Ok(report.completed_at)
}
