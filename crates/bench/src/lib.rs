//! # mdagent-bench — the experiment harness
//!
//! Regenerates every evaluation artifact of the paper (Figures 8–10) plus
//! the ablations called out in `DESIGN.md`. The harness runs scenarios on
//! the simulated clock, so results are deterministic; the Criterion
//! benches under `benches/` additionally measure the wall-clock cost of
//! running each scenario.
//!
//! Run `cargo run -p mdagent-bench --bin figures` to print all figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod faults;
pub mod migration;
pub mod observe;
pub mod report;
pub mod scale;
pub mod table;

pub use experiments::{
    ablation_clone_dispatch, ablation_matching, ablation_prestaging, ablation_reasoning,
    bench_reasoning_json, bench_reasoning_rows, fig10_comparative, fig8_adaptive, fig9_static,
    run_clone_fanout, run_follow_me, FollowMeResult, ReasoningBenchRow, NAIVE_GATE_BASE_TRIPLES,
    PAPER_FILE_SIZES_MB, RETRACT_BATCH_SIZE,
};
pub use faults::{
    bench_faults, bench_faults_json, run_fault_point, FaultBench, FaultPoint, FAULT_RUNS,
    FAULT_SWEEP,
};
pub use migration::{
    bench_migration, bench_migration_json, compare_pipeline, run_shuttle, MigrationBench,
    PipelineComparison, ShuttleRun, SHUTTLE_FILE_BYTES, SHUTTLE_TRIPS,
};
pub use observe::{export_chrome, export_jsonl, trace_scenario, TraceArtifacts, TRACE_SCENARIOS};
pub use report::{obs_report_json, CHURN_MIGRATIONS};
pub use scale::{
    bench_scale_json, compare_queues, run_churn, ChurnRun, CityWorld, QueueMode, QUEUE_AGENTS,
    QUEUE_EVENT_BUDGET,
};
pub use table::{Figure, Row};
