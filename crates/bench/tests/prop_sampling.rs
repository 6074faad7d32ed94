//! Property tests for the tail-based sampler's export invariants: no
//! exported span may orphan its parent (in either exporter), the drop
//! accounting must be exact, and interesting traces must survive.

use mdagent_bench::{export_chrome, export_jsonl};
use mdagent_json::{parse, Value};
use mdagent_simnet::{SamplerOptions, SimDuration, SimTime, Telemetry, Trace};
use proptest::prelude::*;

/// One synthetic trace: how many children, its outcome, and whether the
/// root is ended (open traces stay buffered, exercising the ring).
#[derive(Debug, Clone)]
struct TraceSpec {
    children: usize,
    aborted: bool,
    ended: bool,
}

fn trace_spec() -> impl Strategy<Value = TraceSpec> {
    (0usize..5, any::<bool>(), 0u8..10).prop_map(|(children, aborted, e)| TraceSpec {
        children,
        aborted,
        // Ended ~80% of the time; the rest stay buffered.
        ended: e < 8,
    })
}

/// Replays the workload into a sampled collector. Traces overlap: root
/// `i` opens at `i` ms and ends (if it ends) after its children, so at
/// small ring capacities whole-trace eviction kicks in.
fn drive(specs: &[TraceSpec], opts: SamplerOptions) -> Telemetry {
    let mut tel = Telemetry::sampled(opts);
    for (i, spec) in specs.iter().enumerate() {
        let t0 = SimTime::from_millis(i as u64);
        let root = tel.open(format!("trace-{i}"), None, t0).detach();
        let mut ends = Vec::new();
        for c in 0..spec.children {
            let at = t0 + SimDuration::from_micros(c as u64 + 1);
            let child = tel.open("op", Some(root), at).detach();
            ends.push((child, at + SimDuration::from_micros(50)));
        }
        for (child, at) in ends {
            tel.end(child, at);
        }
        if spec.aborted {
            tel.attr(root, "status", "aborted");
        }
        if spec.ended {
            tel.end(root, t0 + SimDuration::from_millis(2));
        }
    }
    tel
}

proptest! {
    /// After tail-drop and ring eviction, both exporters stay closed
    /// under parentage: every exported span's parent is also exported,
    /// and every Chrome track id is an exported span.
    #[test]
    fn exports_never_orphan_parents(
        specs in proptest::collection::vec(trace_spec(), 1..40),
        keep_idx in 0usize..3,
        ring_capacity in (0usize..3).prop_map(|i| [2usize, 4, 64][i]),
        seed in any::<u64>(),
    ) {
        let keep_fraction = [0.0, 0.3, 1.0][keep_idx];
        let opts = SamplerOptions {
            keep_fraction,
            ring_capacity,
            seed,
            ..SamplerOptions::default()
        };
        let tel = drive(&specs, opts);
        let trace = Trace::new();

        // JSONL: collect exported ids, then check every parent link.
        let jsonl = export_jsonl(&tel, &trace);
        let lines: Vec<Value> = jsonl.lines().map(|l| parse(l).expect("one object per line")).collect();
        let spans: Vec<&Value> = lines.iter().filter(|l| l["type"].as_str() == Some("span")).collect();
        let ids: Vec<u64> = spans.iter().filter_map(|l| l["id"].as_u64()).collect();
        prop_assert_eq!(ids.len(), spans.len(), "every span line has an id");
        for line in &spans {
            if let Some(parent) = line["parent"].as_u64() {
                prop_assert!(
                    ids.contains(&parent),
                    "span line {line:?} orphaned: parent {parent} not exported"
                );
            }
        }

        // Chrome: every complete event's track (tid) is an exported span.
        let chrome = parse(&export_chrome(&tel, &trace)).expect("the Chrome document parses");
        for event in chrome["traceEvents"].as_arr().expect("traceEvents") {
            if event["ph"].as_str() != Some("X") {
                continue;
            }
            let tid = event["tid"].as_u64().expect("chrome event has a tid");
            prop_assert!(ids.contains(&tid), "chrome tid {tid} not exported");
        }

        // In-memory view agrees with the exporters.
        for span in tel.spans() {
            if let Some(p) = span.parent {
                prop_assert!(tel.span(p).is_some(), "in-memory orphan {:?}", span.id);
            }
            prop_assert!(!tel.root_of(span.id).is_disabled());
        }

        // Exact accounting: kept + dropped + still-buffered == opened,
        // and the JSONL footer surfaces the same numbers.
        let stats = tel.sampler_stats().expect("sampled collector reports stats");
        prop_assert_eq!(stats.unaccounted(), 0);
        prop_assert_eq!(stats.spans_kept, tel.spans().len() as u64);
        let footer = lines.last().expect("sampler footer present");
        prop_assert_eq!(footer["type"].as_str(), Some("sampler"));
        prop_assert_eq!(footer["unaccounted"].as_u64(), Some(0));
        prop_assert_eq!(footer["spans_kept"].as_u64(), Some(stats.spans_kept));
    }

    /// With enough ring room for the live trace set, every ended aborted
    /// trace survives any keep fraction — children and all — and two
    /// replays of the same workload export identical bytes.
    #[test]
    fn aborted_traces_always_survive_and_replay_identically(
        specs in proptest::collection::vec(trace_spec(), 1..24),
        keep_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let opts = SamplerOptions {
            keep_fraction: [0.0, 0.3, 1.0][keep_idx],
            ring_capacity: 256, // > worst-case live spans: no eviction
            seed,
            ..SamplerOptions::default()
        };
        let tel = drive(&specs, opts);
        for (i, spec) in specs.iter().enumerate() {
            if !(spec.aborted && spec.ended) {
                continue;
            }
            let name = format!("trace-{i}");
            let root = tel
                .spans_named(&name)
                .next()
                .unwrap_or_else(|| panic!("aborted {name} dropped"));
            let kept_children = tel.children_of(root.id).count();
            prop_assert_eq!(kept_children, spec.children, "full causal trace kept");
        }
        let trace = Trace::new();
        let replay = drive(&specs, opts);
        prop_assert_eq!(export_jsonl(&tel, &trace), export_jsonl(&replay, &trace));
        prop_assert_eq!(export_chrome(&tel, &trace), export_chrome(&replay, &trace));
    }
}

/// The deterministic keep coin is a pure function of (seed, root): the
/// kept set at 1% keep on 1000 healthy traces is tiny but non-empty for
/// this seed, and identical across runs — the bounded-memory guarantee
/// of the churn scenario in miniature.
#[test]
fn one_percent_keep_rate_bounds_memory_on_churn() {
    let opts = SamplerOptions {
        keep_fraction: 0.01,
        ring_capacity: 32,
        seed: 42,
        ..SamplerOptions::default()
    };
    let mut tel = Telemetry::sampled(opts);
    for i in 0..1000u64 {
        let t0 = SimTime::from_millis(i);
        let root = tel.open("churn", None, t0).detach();
        let child = tel
            .open("op", Some(root), t0 + SimDuration::from_micros(1))
            .detach();
        tel.end(child, t0 + SimDuration::from_micros(2));
        tel.end(root, t0 + SimDuration::from_micros(3));
    }
    let stats = tel.sampler_stats().unwrap();
    assert_eq!(stats.unaccounted(), 0);
    assert_eq!(stats.traces_started, 1000);
    assert!(stats.traces_kept > 0, "1% of 1000 keeps a few");
    assert!(stats.traces_kept < 50, "far fewer than all");
    // Peak buffered spans never exceeded the ring capacity.
    assert!(stats.buffered_peak <= 32, "peak {}", stats.buffered_peak);
}
