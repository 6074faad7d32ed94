//! The experiments behind each reproduced figure.

use mdagent_context::UserId;
use mdagent_core::{
    AppState, BindingPolicy, Component, ComponentKind, DeviceProfile, Middleware, MigrationReport,
    MobilityMode, UserProfile,
};
use mdagent_json::Value;
use mdagent_simnet::{CpuFactor, SimDuration, SimTime};

use crate::table::Figure;

/// The file sizes swept in the paper's evaluation (MB labels as printed
/// on its x-axes).
pub const PAPER_FILE_SIZES_MB: [f64; 6] = [2.0, 3.0, 4.3, 5.6, 6.5, 7.5];

/// Outcome of one follow-me migration experiment.
#[derive(Debug, Clone)]
pub struct FollowMeResult {
    /// The recorded migration report.
    pub report: MigrationReport,
}

/// Runs the paper's §5 experiment once: a smart media player with a music
/// file of `file_bytes` migrates between two machines calibrated to the
/// paper's testbed (P4 1.7 GHz → PM 1.6 GHz over 10 Mbps Ethernet), where
/// "the destination host contains the application user interface but no
/// music data nor application logic".
///
/// # Panics
///
/// Panics on scenario construction failures (the topology is static).
pub fn run_follow_me(policy: BindingPolicy, file_bytes: usize) -> FollowMeResult {
    let mut b = Middleware::builder();
    let room_a = b.space("room-a");
    let room_b = b.space("room-b");
    let p4 = b.host("p4-1.7ghz", room_a, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pm = b.host("pm-1.6ghz", room_b, CpuFactor::new(0.94), DeviceProfile::pc);
    // One Ethernet segment spanning both rooms: 10 Mbps, 1 ms, 80% goodput.
    b.link(p4, pm, SimDuration::from_millis(1), 10_000_000, 0.8, true)
        .expect("link");
    b.seed(1);
    let (mut world, mut sim) = b.build();

    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "smart-media-player",
        p4,
        [
            Component::synthetic("codec", ComponentKind::Logic, 180_000),
            Component::synthetic("player-ui", ComponentKind::Presentation, 60_000),
            Component::synthetic("music-file", ComponentKind::Data, file_bytes),
        ]
        .into_iter()
        .collect(),
        UserProfile::new(UserId(0)),
    )
    .expect("deploy");
    // Destination: UI present, no logic, no data (the paper's assumption).
    world
        .provision(
            pm,
            "smart-media-player",
            [Component::synthetic(
                "player-ui",
                ComponentKind::Presentation,
                60_000,
            )]
            .into_iter()
            .collect(),
        )
        .expect("provision");
    sim.run(&mut world);

    Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        pm,
        MobilityMode::FollowMe,
        policy,
    )
    .expect("migrate");
    sim.run(&mut world);

    assert_eq!(
        world.app(app).expect("app").state,
        AppState::Running,
        "migration must complete"
    );
    let report = world
        .migration_log()
        .last()
        .expect("one migration recorded")
        .clone();
    FollowMeResult { report }
}

fn size_label(mb: f64) -> String {
    format!("{mb:.1}M")
}

/// Fig. 8: per-phase and total cost with **adaptive component binding**.
pub fn fig8_adaptive() -> Figure {
    let mut fig = Figure::new(
        "Fig. 8",
        "Performance with adaptive component binding",
        vec![
            "suspend".into(),
            "migrate".into(),
            "resume".into(),
            "total".into(),
        ],
        "ms",
        "suspend & migrate flat across file sizes; resume grows mildly; \
         total growth from 2.0M to 7.5M under 200 ms",
    );
    for mb in PAPER_FILE_SIZES_MB {
        let result = run_follow_me(BindingPolicy::Adaptive, (mb * 1_000_000.0) as usize);
        let p = result.report.phases;
        fig.push_row(
            size_label(mb),
            vec![
                p.suspend.as_millis_f64(),
                p.migrate.as_millis_f64(),
                p.resume.as_millis_f64(),
                p.total().as_millis_f64(),
            ],
        );
    }
    fig
}

/// Fig. 9: per-phase cost with **static component binding** (the authors'
/// earlier framework shipping logic + UI + data wholesale).
pub fn fig9_static() -> Figure {
    let mut fig = Figure::new(
        "Fig. 9",
        "Performance with static component binding",
        vec![
            "suspend".into(),
            "migrate".into(),
            "resume".into(),
            "total".into(),
        ],
        "ms",
        "migrate grows roughly linearly with file size and dominates \
         (several seconds at 7.5M); suspend and resume grow with payload",
    );
    for mb in PAPER_FILE_SIZES_MB {
        let result = run_follow_me(BindingPolicy::Static, (mb * 1_000_000.0) as usize);
        let p = result.report.phases;
        fig.push_row(
            size_label(mb),
            vec![
                p.suspend.as_millis_f64(),
                p.migrate.as_millis_f64(),
                p.resume.as_millis_f64(),
                p.total().as_millis_f64(),
            ],
        );
    }
    fig
}

/// Fig. 10: comparative total cost, adaptive vs. static binding.
pub fn fig10_comparative() -> Figure {
    let mut fig = Figure::new(
        "Fig. 10",
        "Comparative time cost",
        vec!["adaptive".into(), "static".into(), "static/adaptive".into()],
        "ms (ratio unitless)",
        "static exceeds adaptive everywhere; the gap widens with file \
         size, reaching roughly an order of magnitude at 7.5M",
    );
    for mb in PAPER_FILE_SIZES_MB {
        let bytes = (mb * 1_000_000.0) as usize;
        let adaptive = run_follow_me(BindingPolicy::Adaptive, bytes)
            .report
            .phases
            .total();
        let static_ = run_follow_me(BindingPolicy::Static, bytes)
            .report
            .phases
            .total();
        fig.push_row(
            size_label(mb),
            vec![
                adaptive.as_millis_f64(),
                static_.as_millis_f64(),
                static_.as_millis_f64() / adaptive.as_millis_f64(),
            ],
        );
    }
    fig
}

/// Ablation A2: clone-dispatch fan-out — completion time of dispatching a
/// slide deck to 1..=n overflow rooms across gateways.
pub fn ablation_clone_dispatch(max_rooms: u32) -> Figure {
    let mut fig = Figure::new(
        "Ablation A2",
        "Clone-dispatch fan-out to overflow rooms",
        vec!["last-replica-ready".into(), "replicas".into()],
        "ms / count",
        "completion time grows with room count but sublinearly (clones \
         dispatch concurrently over independent gateways)",
    );
    for rooms in 1..=max_rooms {
        let (ready_ms, replicas) = run_clone_fanout(rooms);
        fig.push_row(format!("{rooms}"), vec![ready_ms, replicas as f64]);
    }
    fig
}

/// Runs the clone fan-out scenario once; returns (last-replica-ready ms,
/// replica count).
pub fn run_clone_fanout(rooms: u32) -> (f64, usize) {
    let mut b = Middleware::builder();
    let main_room = b.space("main-room");
    let speaker_pc = b.host(
        "speaker-pc",
        main_room,
        CpuFactor::REFERENCE,
        DeviceProfile::pc,
    );
    let mut room_hosts = Vec::new();
    for i in 0..rooms {
        let space = b.space(&format!("overflow-{i}"));
        let host = b.host(
            &format!("room-pc-{i}"),
            space,
            CpuFactor::REFERENCE,
            DeviceProfile::wall_display,
        );
        b.gateway(speaker_pc, host).expect("gateway");
        room_hosts.push(host);
    }
    b.seed(2);
    let (mut world, mut sim) = b.build();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "ubiquitous-slide-show",
        speaker_pc,
        [
            Component::synthetic("impress-core", ComponentKind::Logic, 400_000),
            Component::synthetic("presenter-ui", ComponentKind::Presentation, 150_000),
            Component::synthetic("slide-deck", ComponentKind::Data, 1_200_000),
        ]
        .into_iter()
        .collect(),
        UserProfile::new(UserId(0)),
    )
    .expect("deploy");
    for host in &room_hosts {
        world
            .provision(
                *host,
                "ubiquitous-slide-show",
                [
                    Component::synthetic("impress-core", ComponentKind::Logic, 400_000),
                    Component::synthetic("presenter-ui", ComponentKind::Presentation, 150_000),
                ]
                .into_iter()
                .collect(),
            )
            .expect("provision");
    }
    sim.run(&mut world);
    for host in &room_hosts {
        Middleware::migrate_now(
            &mut world,
            &mut sim,
            app,
            *host,
            MobilityMode::CloneDispatch,
            BindingPolicy::Adaptive,
        )
        .expect("clone");
    }
    sim.run(&mut world);
    let replicas = world.apps().filter(|a| a.is_replica()).count();
    let last_ready = world
        .migration_log()
        .iter()
        .map(|r| r.completed_at)
        .max()
        .unwrap_or(SimTime::ZERO);
    (last_ready.as_millis_f64(), replicas)
}

/// Ablation A4: predictive pre-staging — shipped bytes per hop on the
/// second lap of a habitual three-room tour, with and without the AA's
/// pre-staging (§3.4's "prediction functionalities ... improve the
/// performance").
pub fn ablation_prestaging() -> Figure {
    let mut fig = Figure::new(
        "Ablation A4",
        "Predictive pre-staging: second-lap shipped bytes per hop",
        vec!["without".into(), "with-prestaging".into()],
        "bytes",
        "pre-staging moves logic/UI ahead of the user, so later hops ship \
         only the application states",
    );
    let without = run_tour(false);
    let with = run_tour(true);
    for (i, (a, b)) in without.iter().zip(&with).enumerate() {
        fig.push_row(format!("hop-{}", i + 1), vec![*a as f64, *b as f64]);
    }
    fig
}

/// Runs two laps of an office→lab→studio→office tour under an AA with or
/// without pre-staging; returns the shipped bytes of the second lap's hops.
pub fn run_tour(prestage: bool) -> Vec<u64> {
    use mdagent_context::BadgeId;
    use mdagent_core::AutonomousAgent;
    let mut b = Middleware::builder();
    let office = b.space("office");
    let lab = b.space("lab");
    let studio = b.space("studio");
    let pc0 = b.host("pc0", office, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pc1 = b.host("pc1", lab, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pc2 = b.host("pc2", studio, CpuFactor::REFERENCE, DeviceProfile::pc);
    b.gateway(pc0, pc1).expect("gateway");
    b.gateway(pc1, pc2).expect("gateway");
    b.seed(5);
    let (mut world, mut sim) = b.build();
    world.attach_user(UserProfile::new(UserId(0)), BadgeId(0), office, 2.0);
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "routine-app",
        pc0,
        [
            Component::synthetic("logic", ComponentKind::Logic, 150_000),
            Component::synthetic("ui", ComponentKind::Presentation, 80_000),
            Component::synthetic("data", ComponentKind::Data, 1_000_000),
        ]
        .into_iter()
        .collect(),
        UserProfile::new(UserId(0)),
    )
    .expect("deploy");
    let mut aa = AutonomousAgent::new(UserId(0), app, BindingPolicy::Adaptive);
    if prestage {
        aa = aa.with_prestaging();
    }
    Middleware::spawn_autonomous_agent(&mut world, &mut sim, pc0, aa).expect("aa");
    Middleware::start_sensing(&mut world, &mut sim);
    sim.run_until(&mut world, SimTime::from_secs(2));
    for _lap in 0..2 {
        for space in [lab, studio, office] {
            world.move_user(BadgeId(0), space, 2.0);
            let deadline = sim.now() + SimDuration::from_secs(15);
            sim.run_until(&mut world, deadline);
        }
    }
    world
        .migration_log()
        .iter()
        .skip(3)
        .map(|r| r.shipped_bytes)
        .collect()
}

/// Ablation A1: reasoning cost — simulated triples derived when running
/// the paper's rule base over growing `locatedIn` chains.
pub fn ablation_reasoning(max_chain: usize) -> Figure {
    use mdagent_ontology::{Graph, Reasoner};
    let mut fig = Figure::new(
        "Ablation A1",
        "Forward-chaining closure growth (paper Rule1)",
        vec!["base-triples".into(), "derived".into()],
        "count",
        "derived transitive closure is n(n-1)/2 - (n-1) extra edges for an \
         n-node chain: quadratic, motivating bounded rule bases in AAs",
    );
    for n in (2..=max_chain).step_by((max_chain / 8).max(1)) {
        let mut g = Graph::new();
        for i in 0..n {
            g.add(
                &format!("ex:n{i}"),
                "imcl:locatedIn",
                &format!("ex:n{}", i + 1),
            );
        }
        let base = g.len();
        let rules = mdagent_core::paper_rules(&mut g);
        let mut r = Reasoner::new();
        r.add_rules(rules);
        let derived = r.materialize(&mut g);
        fig.push_row(format!("{n}"), vec![base as f64, derived as f64]);
    }
    fig
}

/// Ablation A3: semantic vs. syntactic matching hit rate over a resource
/// catalog with subclass structure.
pub fn ablation_matching(catalog_size: usize) -> Figure {
    use mdagent_registry::{RegistryCenter, ResourceRecord};
    use mdagent_simnet::{HostId, SpaceId};
    let mut fig = Figure::new(
        "Ablation A3",
        "Semantic vs. syntactic resource matching",
        vec!["semantic-hits".into(), "syntactic-hits".into()],
        "count",
        "semantic matching finds every subclass instance; syntactic \
         matching finds only exact class names (the paper's §3.3 argument)",
    );
    for n in [catalog_size / 4, catalog_size / 2, catalog_size]
        .iter()
        .filter(|&&n| n > 0)
    {
        let mut center = RegistryCenter::new(SpaceId(0));
        center.declare_subclass("imcl:hpLaserJet", "imcl:Printer");
        center.declare_subclass("imcl:epsonStylus", "imcl:Printer");
        center.declare_subclass("imcl:Printer", "imcl:Resource");
        for i in 0..*n {
            let class = match i % 3 {
                0 => "imcl:hpLaserJet",
                1 => "imcl:epsonStylus",
                _ => "imcl:Printer",
            };
            center.register_resource(ResourceRecord::new(
                format!("imcl:prn-{i}"),
                class,
                SpaceId(0),
                HostId(0),
            ));
        }
        let semantic = center.find_resources("imcl:Printer").len();
        let syntactic = center.find_resources_syntactic("imcl:Printer").len();
        fig.push_row(format!("{n}"), vec![semantic as f64, syntactic as f64]);
    }
    fig
}

/// One timed workload of the reasoning-engine benchmark.
///
/// `naive_ms` / `incremental_ms` are `None` where that engine or mode is
/// not exercised for the workload (the naive reference is capped at the
/// sizes where it finishes in minutes; incremental rows need a pre-closed
/// base).
#[derive(Debug, Clone)]
pub struct ReasoningBenchRow {
    /// Workload label, e.g. `"chain-512"`.
    pub workload: String,
    /// Triples before materialization.
    pub base_triples: usize,
    /// Triples after materialization (base + derived).
    pub closure_triples: usize,
    /// Wall-clock of the semi-naive engine's full materialization.
    pub seminaive_ms: f64,
    /// Wall-clock of the naive reference engine, where measured.
    pub naive_ms: Option<f64>,
    /// Wall-clock of `materialize_incremental` for a single-fact delta
    /// against the pre-closed base, where measured.
    pub incremental_ms: Option<f64>,
    /// Wall-clock of `retract` for one base fact against the closed
    /// base (DRed overdelete + rederive), where measured.
    pub retract_single_ms: Option<f64>,
    /// Wall-clock of one `retract_batch` call removing
    /// [`RETRACT_BATCH_SIZE`] base facts against the closed base.
    pub retract_batch_ms: Option<f64>,
}

/// Facts removed by the `retract_batch_ms` measurement.
pub const RETRACT_BATCH_SIZE: usize = 8;

/// Samples taken for the one-shot delta timings (`incremental_ms`,
/// `retract_single_ms`, `retract_batch_ms`). Each sample rebuilds a
/// fresh closure; the minimum is reported — the usual noise-floor
/// estimator for sub-millisecond operations on a shared machine.
pub const DELTA_SAMPLES: usize = 3;

/// Minimum elapsed-ms over [`DELTA_SAMPLES`] runs of `sample`.
fn min_ms(mut sample: impl FnMut() -> f64) -> f64 {
    (0..DELTA_SAMPLES)
        .map(|_| sample())
        .fold(f64::INFINITY, f64::min)
}

/// Base-triple count above which the naive reference engine requires the
/// `--with-naive` flag (it burns minutes at the larger sizes — chain-512
/// alone is ~400 s).
pub const NAIVE_GATE_BASE_TRIPLES: usize = 128;

/// A `locatedIn` chain of `n` edges (the paper's Rule1 stress shape).
fn reasoning_chain_graph(n: usize) -> mdagent_ontology::Graph {
    let mut g = mdagent_ontology::Graph::new();
    for i in 0..n {
        g.add(
            &format!("ex:n{i}"),
            "imcl:locatedIn",
            &format!("ex:n{}", i + 1),
        );
    }
    g
}

/// A registry-shaped workload for the RDFS/OWL axiom rule set: a 16-deep
/// `subClassOf` tower per device family, `individuals` typed resources
/// spread over the families, and a transitive `locatedIn` tower of rooms.
fn reasoning_axiom_graph(individuals: usize) -> mdagent_ontology::Graph {
    let mut g = mdagent_ontology::Graph::new();
    const FAMILIES: usize = 8;
    const DEPTH: usize = 16;
    for f in 0..FAMILIES {
        for d in 0..DEPTH {
            g.add(
                &format!("ex:fam{f}-c{d}"),
                "rdfs:subClassOf",
                &format!("ex:fam{f}-c{}", d + 1),
            );
        }
    }
    g.add("imcl:locatedIn", "rdf:type", "owl:TransitiveProperty");
    for r in 0..32 {
        g.add(
            &format!("ex:room{r}"),
            "imcl:locatedIn",
            &format!("ex:room{}", r + 1),
        );
    }
    for i in 0..individuals {
        g.add(
            &format!("ex:dev{i}"),
            "rdf:type",
            &format!("ex:fam{}-c0", i % FAMILIES),
        );
    }
    g
}

/// Times one full materialization of `rules` over a fresh copy of the
/// graph built by `build`; returns (elapsed ms, closure size).
fn time_materialize(
    build: &dyn Fn() -> mdagent_ontology::Graph,
    naive: bool,
) -> (f64, usize, usize) {
    let mut g = build();
    let base = g.len();
    let rules = mdagent_ontology::axiom_rules(&mut g);
    let mut r = mdagent_ontology::Reasoner::new();
    r.add_rules(rules);
    let start = std::time::Instant::now();
    if naive {
        r.materialize_naive(&mut g);
    } else {
        r.materialize(&mut g);
    }
    (start.elapsed().as_secs_f64() * 1e3, base, g.len())
}

/// Runs every reasoning workload once per engine and returns the rows.
///
/// Sizing notes, so the numbers are read fairly:
/// * Full chain closures are measured at 32/128/512 edges. An n-edge
///   chain has ~n³/6 derivation paths under Rule1 — work *any*
///   forward-chainer must do — so full closure at 2048 is minutes of
///   inherent join output and is exercised through the axiom workload
///   and the incremental rows instead.
/// * The naive reference runs by default only where the base fits under
///   [`NAIVE_GATE_BASE_TRIPLES`] triples; `with_naive` lifts the gate
///   (chain-512 alone then adds ~400 s). `None` marks workloads where
///   only the semi-naive engine is run.
/// * Incremental rows time `materialize_incremental` for one new fact
///   against the already-closed base — the registry's and the AA's
///   steady-state shape.
/// * Retract rows time DRed deletion against the closed base: one base
///   fact (`retract_single_ms`) and one [`RETRACT_BATCH_SIZE`]-fact
///   `retract_batch` call (`retract_batch_ms`), each on a fresh closure.
/// * Every delta timing (incremental and both retract rows) reports the
///   minimum over [`DELTA_SAMPLES`] fresh-closure runs.
pub fn bench_reasoning_rows(with_naive: bool) -> Vec<ReasoningBenchRow> {
    use mdagent_ontology::{Graph, Reasoner, Triple};
    let mut rows = Vec::new();

    // Closes a fresh chain graph and hands (graph, reasoner) to `f`.
    let closed_chain = |n: usize| {
        let mut g = reasoning_chain_graph(n);
        let rules = mdagent_core::paper_rules(&mut g);
        let mut r = Reasoner::new();
        r.add_rules(rules);
        r.materialize(&mut g);
        (g, r)
    };
    let chain_edge = |g: &mut Graph, i: usize| {
        let s = g.iri(&format!("ex:n{i}"));
        let p = g.iri("imcl:locatedIn");
        let o = g.iri(&format!("ex:n{}", i + 1));
        Triple::new(s, p, o)
    };

    for n in [32usize, 128, 512] {
        let build = move || reasoning_chain_graph(n);
        let time_chain = |naive: bool| {
            let mut g = build();
            let base = g.len();
            let rules = mdagent_core::paper_rules(&mut g);
            let mut r = Reasoner::new();
            r.add_rules(rules);
            let start = std::time::Instant::now();
            if naive {
                r.materialize_naive(&mut g);
            } else {
                r.materialize(&mut g);
            }
            (start.elapsed().as_secs_f64() * 1e3, base, g.len())
        };
        let (semi_ms, base, closure) = time_chain(false);
        let naive_ms = if base <= NAIVE_GATE_BASE_TRIPLES || with_naive {
            let (ms, _, naive_closure) = time_chain(true);
            assert_eq!(closure, naive_closure, "engines disagree on chain-{n}");
            Some(ms)
        } else {
            None
        };
        // Incremental: extend the closed chain by one edge.
        let inc_ms = min_ms(|| {
            let (mut g, mut r) = closed_chain(n);
            let t = chain_edge(&mut g, n);
            let start = std::time::Instant::now();
            r.materialize_incremental(&mut g, [t]);
            start.elapsed().as_secs_f64() * 1e3
        });
        // Retract single: delete the last edge of a fresh closed chain.
        let retract_single_ms = min_ms(|| {
            let (mut g, mut r) = closed_chain(n);
            let t = chain_edge(&mut g, n - 1);
            let start = std::time::Instant::now();
            r.retract(&mut g, t);
            start.elapsed().as_secs_f64() * 1e3
        });
        // Retract batch: delete the last RETRACT_BATCH_SIZE edges at once.
        let retract_batch_ms = min_ms(|| {
            let (mut g, mut r) = closed_chain(n);
            let batch: Vec<Triple> = (n - RETRACT_BATCH_SIZE..n)
                .map(|i| chain_edge(&mut g, i))
                .collect();
            let start = std::time::Instant::now();
            r.retract_batch(&mut g, batch);
            start.elapsed().as_secs_f64() * 1e3
        });
        rows.push(ReasoningBenchRow {
            workload: format!("chain-{n}"),
            base_triples: base,
            closure_triples: closure,
            seminaive_ms: semi_ms,
            naive_ms,
            incremental_ms: Some(inc_ms),
            retract_single_ms: Some(retract_single_ms),
            retract_batch_ms: Some(retract_batch_ms),
        });
    }

    // Closes a fresh axiom graph under the RDFS/OWL rule set.
    let closed_axioms = |individuals: usize| {
        let mut g = reasoning_axiom_graph(individuals);
        let rules = mdagent_ontology::axiom_rules(&mut g);
        let mut r = Reasoner::new();
        r.add_rules(rules);
        r.materialize(&mut g);
        (g, r)
    };
    let type_fact = |g: &mut Graph, i: usize| {
        let s = g.iri(&format!("ex:dev{i}"));
        let p = g.iri("rdf:type");
        let o = g.iri(&format!("ex:fam{}-c0", i % 8));
        Triple::new(s, p, o)
    };

    for individuals in [512usize, 2048] {
        let build = move || reasoning_axiom_graph(individuals);
        let (semi_ms, base, closure) = time_materialize(&build, false);
        let naive_ms = if base <= NAIVE_GATE_BASE_TRIPLES || with_naive {
            let (ms, _, naive_closure) = time_materialize(&build, true);
            assert_eq!(closure, naive_closure, "engines disagree on axioms");
            Some(ms)
        } else {
            None
        };
        // Incremental: register one more typed device.
        let inc_ms = min_ms(|| {
            let (mut g, mut r) = closed_axioms(individuals);
            let s = g.iri("ex:dev-late");
            let p = g.iri("rdf:type");
            let o = g.iri("ex:fam0-c0");
            let start = std::time::Instant::now();
            r.materialize_incremental(&mut g, [Triple::new(s, p, o)]);
            start.elapsed().as_secs_f64() * 1e3
        });
        // Retract single: deregister one typed device.
        let retract_single_ms = min_ms(|| {
            let (mut g, mut r) = closed_axioms(individuals);
            let t = type_fact(&mut g, 0);
            let start = std::time::Instant::now();
            r.retract(&mut g, t);
            start.elapsed().as_secs_f64() * 1e3
        });
        // Retract batch: deregister RETRACT_BATCH_SIZE devices at once.
        let retract_batch_ms = min_ms(|| {
            let (mut g, mut r) = closed_axioms(individuals);
            let batch: Vec<Triple> = (0..RETRACT_BATCH_SIZE)
                .map(|i| type_fact(&mut g, i))
                .collect();
            let start = std::time::Instant::now();
            r.retract_batch(&mut g, batch);
            start.elapsed().as_secs_f64() * 1e3
        });
        rows.push(ReasoningBenchRow {
            workload: format!("axioms-{individuals}"),
            base_triples: base,
            closure_triples: closure,
            seminaive_ms: semi_ms,
            naive_ms,
            incremental_ms: Some(inc_ms),
            retract_single_ms: Some(retract_single_ms),
            retract_batch_ms: Some(retract_batch_ms),
        });
    }
    rows
}

/// Renders [`bench_reasoning_rows`] as the machine-readable
/// `BENCH_reasoning.json` document (schema v2: adds the retraction
/// columns; `with_naive` lifts the naive reference's size gate).
pub fn bench_reasoning_json(with_naive: bool) -> String {
    let ms = |v: Option<f64>| v.map_or(Value::Null, |ms| Value::fixed(ms, 3));
    let workloads = bench_reasoning_rows(with_naive).into_iter().map(|r| {
        Value::object([
            ("workload", r.workload.into()),
            ("base_triples", r.base_triples.into()),
            ("closure_triples", r.closure_triples.into()),
            ("seminaive_ms", Value::fixed(r.seminaive_ms, 3)),
            ("naive_ms", ms(r.naive_ms)),
            (
                "naive_over_seminaive",
                r.naive_ms
                    .map_or(Value::Null, |n| Value::fixed(n / r.seminaive_ms, 2)),
            ),
            ("incremental_ms", ms(r.incremental_ms)),
            ("retract_single_ms", ms(r.retract_single_ms)),
            ("retract_batch_ms", ms(r.retract_batch_ms)),
        ])
    });
    Value::object([
        ("schema", "mdagent-bench/reasoning/v2".into()),
        (
            "command",
            "cargo run --release -p mdagent-bench --bin figures -- bench-reasoning".into(),
        ),
        (
            "note",
            "wall-clock ms; naive_ms null = reference engine not run at this size \
             (pass --with-naive to lift the gate); incremental_ms = materialize_incremental of a \
             single fact against the closed base; retract_single_ms / retract_batch_ms = DRed \
             retraction of 1 / 8 base facts against the closed base"
                .into(),
        ),
        ("workloads", Value::array(workloads)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_holds() {
        let fig = fig8_adaptive();
        let suspend = fig.series_values("suspend").unwrap();
        let migrate = fig.series_values("migrate").unwrap();
        let resume = fig.series_values("resume").unwrap();
        let total = fig.series_values("total").unwrap();
        // Suspend and migrate are flat (vary < 15 ms across the sweep).
        assert!(suspend.last().unwrap() - suspend.first().unwrap() < 15.0);
        assert!(migrate.last().unwrap() - migrate.first().unwrap() < 15.0);
        // Resume grows, but the total increase stays under 200 ms (paper).
        assert!(resume.last().unwrap() > resume.first().unwrap());
        assert!(
            total.last().unwrap() - total.first().unwrap() < 200.0,
            "total grew by {}",
            total.last().unwrap() - total.first().unwrap()
        );
    }

    #[test]
    fn fig9_migrate_grows_linearly_and_dominates() {
        let fig = fig9_static();
        let migrate = fig.series_values("migrate").unwrap();
        let total = fig.series_values("total").unwrap();
        // Monotone growth.
        for pair in migrate.windows(2) {
            assert!(pair[1] > pair[0]);
        }
        // Roughly linear in file size: migrate(7.5)/migrate(2.0) ≈ 7.5/2.0.
        let ratio = migrate.last().unwrap() / migrate.first().unwrap();
        assert!((2.5..=4.5).contains(&ratio), "growth ratio {ratio}");
        // Migration dominates the total at the top end.
        assert!(migrate.last().unwrap() / total.last().unwrap() > 0.5);
        // Several seconds at 7.5 MB, as in the paper.
        assert!(*migrate.last().unwrap() > 5_000.0);
    }

    #[test]
    fn fig10_static_dwarfs_adaptive() {
        let fig = fig10_comparative();
        let ratio = fig.series_values("static/adaptive").unwrap();
        for r in &ratio {
            assert!(*r > 2.0, "static must exceed adaptive, got ratio {r}");
        }
        // The gap widens with file size and reaches ~an order of magnitude.
        assert!(ratio.last().unwrap() > ratio.first().unwrap());
        assert!(
            *ratio.last().unwrap() > 8.0,
            "got {}",
            ratio.last().unwrap()
        );
    }

    #[test]
    fn clone_fanout_completes_for_all_rooms() {
        let fig = ablation_clone_dispatch(4);
        let replicas = fig.series_values("replicas").unwrap();
        assert_eq!(replicas, vec![1.0, 2.0, 3.0, 4.0]);
        let ready = fig.series_values("last-replica-ready").unwrap();
        for pair in ready.windows(2) {
            assert!(pair[1] >= pair[0], "more rooms cannot finish earlier");
        }
        // Concurrency: 4 rooms take far less than 4 × one room.
        assert!(ready[3] < ready[0] * 3.0);
    }

    #[test]
    fn matching_ablation_shows_semantic_advantage() {
        let fig = ablation_matching(12);
        let semantic = fig.series_values("semantic-hits").unwrap();
        let syntactic = fig.series_values("syntactic-hits").unwrap();
        for (sem, syn) in semantic.iter().zip(&syntactic) {
            assert!(sem > syn, "semantic must find strictly more");
        }
    }

    #[test]
    fn reasoning_ablation_is_quadratic() {
        let fig = ablation_reasoning(16);
        let derived = fig.series_values("derived").unwrap();
        for pair in derived.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }
}
