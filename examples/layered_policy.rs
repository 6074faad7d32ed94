//! Composing the migration middleware from an explicit layer list, then
//! dropping in a custom policy layer.
//!
//! The four standard concerns — telemetry, fault retry, exactly-once,
//! SLO — are ordinary [`MigrationLayer`]s, and so is the optional data
//! path the builder's `data_path` switch appends; the builder accepts
//! the list explicitly, and extra policy layers slot in behind them. Here an [`AdmissionControlLayer`] caps the lab at one inbound
//! migration: three offices dispatch at once, one transfer is admitted,
//! and the other two are refused at the wire and roll back to Running at
//! their sources.
//!
//! ```text
//! cargo run --example layered_policy
//! ```
//!
//! [`MigrationLayer`]: mdagent::core::MigrationLayer
//! [`AdmissionControlLayer`]: mdagent::core::AdmissionControlLayer

use mdagent::context::UserId;
use mdagent::core::{
    AdmissionControlLayer, BindingPolicy, Component, ComponentKind, ComponentSet, DeviceProfile,
    LayerStack, Middleware, MobilityMode, UserProfile,
};
use mdagent::simnet::CpuFactor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut b = Middleware::builder();
    let office = b.space("office");
    let lab = b.space("lab");
    let mut sources = Vec::new();
    for i in 0..3 {
        sources.push(b.host(
            &format!("office-pc-{i}"),
            office,
            CpuFactor::REFERENCE,
            DeviceProfile::pc,
        ));
    }
    let lab_pc = b.host("lab-pc", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
    for (i, src) in sources.iter().enumerate() {
        for other in &sources[i + 1..] {
            b.ethernet(*src, *other)?;
        }
        b.gateway(*src, lab_pc)?;
    }
    // The full middleware, spelled out: the standard four concerns in
    // their canonical order, plus one drop-in policy layer at the
    // innermost position.
    b.layers(LayerStack::standard());
    b.layer(Box::new(AdmissionControlLayer::new(1)));
    let (mut world, mut sim) = b.build();

    let components = || -> ComponentSet {
        [
            Component::synthetic("logic", ComponentKind::Logic, 90_000),
            Component::synthetic("ui", ComponentKind::Presentation, 40_000),
            Component::synthetic("data", ComponentKind::Data, 1_500_000),
        ]
        .into_iter()
        .collect()
    };
    let mut apps = Vec::new();
    for (i, src) in sources.iter().enumerate() {
        apps.push(Middleware::deploy_app(
            &mut world,
            &mut sim,
            &format!("analysis-{i}"),
            *src,
            components(),
            UserProfile::new(UserId(i as u32)),
        )?);
    }
    sim.run(&mut world);

    // Everyone wants the lab machine at the same instant.
    println!("three applications dispatch to the lab at once (cap: 1)...");
    for app in &apps {
        Middleware::migrate_now(
            &mut world,
            &mut sim,
            *app,
            lab_pc,
            MobilityMode::FollowMe,
            BindingPolicy::Adaptive,
        )?;
    }
    sim.run(&mut world);

    for app in world.apps() {
        println!("  {} -> {} ({})", app.name, app.host, app.state);
    }
    println!(
        "admitted: {}, refused by the admission layer: {}, rolled back: {}",
        world.metrics().counter("migration.completed"),
        world.metrics().counter("admission.rejected"),
        world.metrics().counter("migration.rollbacks"),
    );
    assert_eq!(world.in_flight_count(), 0);
    assert_eq!(
        world.metrics().counter("migration.completed")
            + world.metrics().counter("migration.rollbacks"),
        apps.len() as u64,
    );
    Ok(())
}
