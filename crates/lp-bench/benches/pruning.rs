//! Benchmarks for the pruning machinery itself: the cost of one
//! OBSERVE collection, one two-phase SELECT collection, and a full
//! SELECT+PRUNE cycle over a leaky heap — the per-collection costs that
//! Figure 7 aggregates.

use leak_pruning::{ForcedState, PruningConfig, Runtime};
use lp_bench::micro::{measure, measure_with_setup};
use lp_heap::AllocSpec;
use std::hint::black_box;

/// Collections (or whole cycles) timed per row, one per trial.
const TRIALS: usize = 20;

/// Builds a runtime whose heap holds `lists` stale lists of `depth` nodes
/// each. The heap is sized so the stale lists are a substantial fraction
/// of it — pruning's states only engage past the occupancy thresholds.
fn leaky_runtime(lists: u32, depth: u32, forced: Option<ForcedState>) -> Runtime {
    // Node footprint: 16-byte header + one 4-byte ref + 64-byte payload.
    let list_bytes = u64::from(lists) * u64::from(depth) * 84;
    // The stale lists sit just past the nearly-full threshold, so the real
    // state machine escalates to SELECT/PRUNE as soon as transient
    // allocation fills the slack.
    let mut builder = PruningConfig::builder(list_bytes * 108 / 100);
    if let Some(state) = forced {
        builder = builder.force_state(state);
    }
    let mut rt = Runtime::new(builder.build());
    let node = rt.register_class("Node");
    for _ in 0..lists {
        let head = rt.add_static();
        for _ in 0..depth {
            let n = rt.alloc(node, &AllocSpec::new(1, 0, 64)).unwrap();
            rt.write_field(n, 0, rt.static_ref(head));
            rt.set_static(head, Some(n));
        }
    }
    rt.release_registers();
    // Age the heap so the lists are genuinely stale.
    for _ in 0..6 {
        rt.force_gc();
    }
    rt
}

fn main() {
    for objects in [8_192u32, 32_768] {
        let lists = objects / 512;
        for (name, state) in [
            ("observe_collection", ForcedState::Observe),
            ("select_collection_two_phase", ForcedState::Select),
        ] {
            let mut rt = leaky_runtime(lists, 512, Some(state));
            measure(TRIALS, 1, || {
                black_box(rt.force_gc().live_objects_after);
            })
            .print(&format!("pruning/{name}/{objects}"));
        }
    }

    measure_with_setup(
        TRIALS,
        1,
        |_| leaky_runtime(64, 512, None),
        |mut rt| {
            // Drive the real state machine: fill past the nearly-full
            // threshold with transient junk until a prune happens.
            let junk = rt.register_class("Junk");
            for _ in 0..100_000 {
                if rt.prune_report().total_pruned_refs > 0 {
                    break;
                }
                rt.alloc(junk, &AllocSpec::leaf(16 * 1024)).expect("junk");
                rt.release_registers();
            }
            assert!(
                rt.prune_report().total_pruned_refs > 0,
                "prune never engaged"
            );
            black_box(rt.prune_report().total_pruned_refs);
        },
    )
    .print("pruning/full_select_prune_cycle_32k");
}
