//! Integration: the configuration extensions beyond the paper's defaults —
//! `max_stale_use` decay (§6's sketched policy fix), the staleness census
//! diagnostic, and heap-size sensitivity (§6's robustness claim).

use std::sync::{Arc, Mutex};

use leak_pruning::{PredictionPolicy, PruningConfig, Runtime};
use lp_heap::AllocSpec;
use lp_telemetry::{Event, GcPhase, Sink, TraceLine};
use lp_workloads::driver::{run_workload, run_workload_with, Flavor, RunOptions, Termination};
use lp_workloads::leaks::leak_by_name;

#[test]
fn decay_shortens_eclipse_cp() {
    // Decay strips the protection from EclipseCP's live-but-rarely-used
    // data, so aggressive decay must shorten the run (the reason the paper
    // only sketches decay as future work).
    let run = |decay: Option<u64>| {
        let mut leak = leak_by_name("EclipseCP").unwrap();
        let heap = leak.default_heap();
        let mut builder = PruningConfig::builder(heap);
        if let Some(period) = decay {
            builder = builder.decay_max_stale_use_every(period);
        }
        let flavor = Flavor::Custom(Box::new(builder.build()));
        run_workload(leak.as_mut(), &RunOptions::new(flavor).iteration_cap(3_000))
    };

    let without = run(None);
    let aggressive = run(Some(4));
    assert!(
        aggressive.iterations < without.iterations,
        "decay/4 {} should die before no-decay {}",
        aggressive.iterations,
        without.iterations
    );
}

#[test]
fn stale_census_identifies_the_leaking_class() {
    // Drive a leak just past the OBSERVE threshold and ask the census who
    // owns the stale bytes — the leak-diagnosis view.
    let mut rt = Runtime::new(
        PruningConfig::builder(1 << 20)
            .force_state(leak_pruning::ForcedState::Observe)
            .build(),
    );
    let node = rt.register_class("LeakyNode");
    let scratch = rt.register_class("Scratch");
    let head = rt.add_static();
    for _ in 0..400 {
        let n = rt.alloc(node, &AllocSpec::new(1, 0, 400)).unwrap();
        rt.write_field(n, 0, rt.static_ref(head));
        rt.set_static(head, Some(n));
        rt.alloc(scratch, &AllocSpec::leaf(1024)).unwrap();
        rt.release_registers();
    }
    // Observing collections age the untouched list.
    for _ in 0..6 {
        rt.force_gc();
    }
    let census = rt.stale_census(2);
    assert!(!census.is_empty(), "the leak must show up as stale bytes");
    assert_eq!(rt.class_name(census[0].0), "LeakyNode");
}

#[test]
fn effectiveness_is_not_sensitive_to_heap_size() {
    // §6: "leak pruning's effectiveness is generally not sensitive to
    // maximum heap size". ListLeak must be tolerated to the cap at half
    // and double its standard heap.
    for scale in [0.5, 2.0] {
        let mut leak = leak_by_name("ListLeak").unwrap();
        let heap = (leak.default_heap() as f64 * scale) as u64;
        let result = run_workload(
            leak.as_mut(),
            &RunOptions::new(Flavor::pruning())
                .heap_capacity(heap)
                .iteration_cap(4_000),
        );
        assert_eq!(
            result.termination,
            Termination::ReachedCap,
            "ListLeak at {scale}x heap died after {}",
            result.iterations
        );
    }
}

#[test]
fn tight_heaps_degrade_gracefully() {
    // The paper's caveat: "it sometimes fails to identify and prune the
    // right references in tight heaps". A very tight heap may fail, but
    // must fail with a well-formed error, not a panic.
    let mut leak = leak_by_name("EclipseDiff").unwrap();
    let heap = leak.default_heap() / 16;
    let result = run_workload(
        leak.as_mut(),
        &RunOptions::new(Flavor::pruning())
            .heap_capacity(heap)
            .iteration_cap(2_000),
    );
    assert!(
        matches!(
            result.termination,
            Termination::ReachedCap | Termination::OutOfMemory | Termination::PrunedAccess
        ),
        "unexpected termination {:?}",
        result.termination
    );
}

#[test]
fn edge_table_census_survives_decay() {
    // Decay lowers protections but never forgets edges (§6.2: the table
    // never shrinks).
    let mut leak = leak_by_name("ListLeak").unwrap();
    let heap = leak.default_heap();
    let flavor = Flavor::Custom(Box::new(
        PruningConfig::builder(heap)
            .decay_max_stale_use_every(2)
            .build(),
    ));
    let result = run_workload(leak.as_mut(), &RunOptions::new(flavor).iteration_cap(3_000));
    assert_eq!(result.termination, Termination::ReachedCap);
    assert!(result.report.edge_types_recorded > 0);
}

#[test]
fn parallel_marking_tolerates_leaks_like_serial() {
    // §4.5: one visitor per state runs on one marker thread or on several,
    // and every policy must tolerate each leak the same way either way. Each cap
    // is the fewest iterations at which the leak prunes under every policy,
    // keeping the table fast in a debug build (which verifies the heap after
    // every collection).
    //
    // ListLeak's stale data is one chain in which every object has a single
    // incoming reference, so no marker thread can tick a target while
    // another classifies a reference to it: its runs must agree exactly and
    // reach the cap. The other leaks share targets, and which reference
    // reaches a shared target first — before or after its stale counter
    // ticks — depends on thread timing, so their charges and poisoned
    // references may differ; both runs must still end the same way and
    // prune.
    let run = |name: &str, cap: u64, policy: PredictionPolicy, threads: usize| {
        let mut leak = leak_by_name(name).unwrap();
        let config = PruningConfig::builder(leak.default_heap())
            .policy(policy)
            .gc_threads(threads)
            .build();
        let r = run_workload(
            leak.as_mut(),
            &RunOptions::new(Flavor::Custom(Box::new(config))).iteration_cap(cap),
        );
        (
            r.iterations,
            r.termination,
            r.gc_count,
            r.report.total_pruned_refs,
            r.first_prune_gc,
        )
    };
    let leaks = [
        ("ListLeak", 4_000),
        ("SwapLeak", 1_400),
        ("EclipseCP", 300),
        ("MySQL", 150),
        ("JbbMod", 600),
        ("EclipseDiff", 600),
    ];
    for (name, cap) in leaks {
        for policy in [
            PredictionPolicy::LeakPruning,
            PredictionPolicy::IndividualRefs,
            PredictionPolicy::MostStale,
        ] {
            let serial = run(name, cap, policy, 1);
            assert!(
                serial.4.is_some(),
                "{name} under {policy:?}: one thread never pruned"
            );
            // ListLeak also runs on two and eight threads: its exact
            // agreement is what checks the parallel worklist end to end.
            let thread_counts: &[usize] = if name == "ListLeak" { &[2, 4, 8] } else { &[4] };
            for &threads in thread_counts {
                let parallel = run(name, cap, policy, threads);
                let context = format!("{name} under {policy:?}: one marker thread vs {threads}");
                assert!(parallel.4.is_some(), "{context}: never pruned");
                assert_eq!(serial.1, parallel.1, "{context}: termination");
                if name == "ListLeak" {
                    assert_eq!(serial.1, Termination::ReachedCap, "{context}");
                    assert_eq!(serial, parallel, "{context}");
                }
            }
        }
    }
}

#[test]
fn every_full_collection_marks_on_the_configured_threads() {
    // SwapLeak reaches SELECT and PRUNE within its first six collections,
    // and its first SELECT finds nothing to select. Every full collection's
    // mark phase — SELECT's two-phase mark and the nothing-selected PRUNE
    // fallback included — must run on all four threads.
    #[derive(Clone, Default)]
    struct Marks {
        /// (collection, mark threads, state) per full collection.
        marks: Arc<Mutex<Vec<(u64, u64, String)>>>,
        /// Collections whose SELECT chose an edge.
        selections: Arc<Mutex<Vec<u64>>>,
    }
    impl Sink for Marks {
        fn record(&mut self, line: &TraceLine) {
            let mut marks = self.marks.lock().unwrap();
            match &line.event {
                Event::PhaseEnd {
                    gc_index,
                    phase: GcPhase::Mark,
                    threads,
                    ..
                } => marks.push((*gc_index, *threads, String::new())),
                Event::Collection {
                    gc_index, state, ..
                } => {
                    let last = marks.last_mut().unwrap();
                    assert_eq!(last.0, *gc_index);
                    last.2.clone_from(state);
                }
                Event::SelectionEdge { gc_index, .. } => {
                    self.selections.lock().unwrap().push(*gc_index);
                }
                _ => {}
            }
        }
    }
    let sink = Marks::default();
    let mut leak = leak_by_name("SwapLeak").unwrap();
    let config = PruningConfig::builder(leak.default_heap())
        .gc_threads(4)
        .build();
    let result = run_workload_with(
        leak.as_mut(),
        &RunOptions::new(Flavor::Custom(Box::new(config))).iteration_cap(1_400),
        |rt| rt.telemetry().add_sink(Box::new(sink.clone())),
    );
    let marks = sink.marks.lock().unwrap().clone();
    let selections = sink.selections.lock().unwrap().clone();
    assert_eq!(marks.len() as u64, result.gc_count);
    assert!(
        marks.iter().any(|m| m.2 == "SELECT"),
        "no SELECT collection"
    );
    assert!(
        marks
            .iter()
            .any(|m| m.2 == "PRUNE" && !selections.contains(&(m.0 - 1))),
        "no nothing-selected PRUNE fallback"
    );
    for (gc_index, threads, state) in &marks {
        assert_eq!(
            *threads, 4,
            "{state} collection {gc_index} marked on {threads} threads"
        );
    }
}

#[test]
fn parallel_marking_preserves_semantics_on_eclipse_diff() {
    let mut leak = leak_by_name("EclipseDiff").unwrap();
    let heap = leak.default_heap();
    let config = PruningConfig::builder(heap).gc_threads(4).build();
    let result = run_workload(
        leak.as_mut(),
        &RunOptions::new(Flavor::Custom(Box::new(config))).iteration_cap(1_500),
    );
    assert_eq!(result.termination, Termination::ReachedCap);
    assert!(result
        .report
        .pruned_edges
        .iter()
        .any(|e| e.src == "ResourceCompareInput"));
}
