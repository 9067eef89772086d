//! Concurrency property: spans emitted from many threads at once — nested
//! implicit spans, spans under an entered context, point events — always
//! reconstruct into a coherent forest with no orphaned parents, because
//! parenting state is kept per thread and ids are allocated atomically.
//! Head sampling holds across threads too: a context carried from an
//! unsampled root records nothing wherever it is entered, and a sampled
//! root's children all land in its trace.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use coda_obs::{Clock, Obs, SpanContext, SpanId};
use proptest::prelude::*;

/// A real-clock stand-in that never advances: it is not a `ManualClock`,
/// so after the first root every root falls within the sampling gap.
#[derive(Debug)]
struct FrozenClock;

impl Clock for FrozenClock {
    fn now_ms(&self) -> f64 {
        0.0
    }
}

/// Each of 8 threads enters `ctx` and, under it, opens nested spans, records
/// events and opens and closes a non-lexical child, `rounds` times; then
/// opens a root of its own (dropped by head sampling).
fn enter_on_eight_threads(obs: &Obs, ctx: SpanContext, rounds: usize) {
    std::thread::scope(|scope| {
        for t in 0..8 {
            scope.spawn(move || {
                let label = format!("worker-{t}");
                for _ in 0..rounds {
                    {
                        let _carried = obs.tracer().enter(Some(ctx));
                        let outer = obs.span("outer", &[("worker", &label)]);
                        obs.event("leaf", &[("worker", &label)]);
                        let side = obs.tracer().begin_span("side", Some(outer.context()), &[]);
                        obs.tracer().end_span(side, &[]);
                    }
                    let stray = obs.span("stray", &[]);
                    assert_eq!(stray.context(), SpanContext::UNSAMPLED);
                }
            });
        }
    });
}

#[test]
fn an_unsampled_roots_context_entered_on_eight_threads_records_nothing() {
    let obs = Obs::with_clock(Arc::new(FrozenClock));
    drop(obs.span("first", &[]));
    let root = obs.span("root", &[]);
    assert_eq!(root.context(), SpanContext::UNSAMPLED);
    enter_on_eight_threads(&obs, root.context(), 4);
    drop(root);
    let forest = obs.forest();
    let names: Vec<&str> = forest.spans().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["first"], "only the first root records");
    assert_eq!(obs.tracer().len(), 2);
}

#[test]
fn a_sampled_roots_children_on_eight_threads_all_land_in_its_trace() {
    let obs = Obs::with_clock(Arc::new(FrozenClock));
    let root = obs.span("root", &[]);
    let ctx = root.context();
    assert_ne!(ctx, SpanContext::UNSAMPLED, "the first root is always kept");
    enter_on_eight_threads(&obs, ctx, 4);
    drop(root);
    let forest = obs.forest();
    assert!(forest.orphans().is_empty());
    assert_eq!(forest.unresolved_points(), 0);
    assert_eq!(forest.trace_ids(), vec![ctx.trace_id]);
    // the root, and per thread and round an outer span and its side span
    assert_eq!(forest.len(), 1 + 8 * 4 * 2);
    assert!(forest.spans().all(|s| s.name != "stray"), "later roots are dropped");
}

/// Each thread emits `depth` lexically nested spans with a point event at
/// the bottom, repeated `rounds` times; one shared root is entered on every
/// thread so cross-thread parenting is exercised too.
fn hammer(n_threads: usize, depth: usize, rounds: usize) -> Obs {
    let obs = Obs::wall();
    let root = obs.tracer().begin_span("root", None, &[]);
    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let obs = obs.clone();
            scope.spawn(move || {
                let label = format!("worker-{t}");
                for _ in 0..rounds {
                    let outer = {
                        let _root = obs.tracer().enter(Some(root));
                        obs.span("outer", &[("worker", &label)])
                    };
                    let mut guards = Vec::new();
                    for level in 0..depth {
                        let name = format!("nest-{level}");
                        guards.push(obs.span(&name, &[]));
                    }
                    obs.event("leaf", &[("worker", &label)]);
                    drop(guards);
                    drop(outer);
                }
            });
        }
    });
    obs.tracer().end_span(root, &[]);
    obs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn concurrent_spans_reconstruct_without_orphans(
        thread_pick in 0usize..3,
        depth in 1usize..4,
        rounds in 1usize..4,
    ) {
        let n_threads = [1usize, 2, 8][thread_pick];
        let obs = hammer(n_threads, depth, rounds);
        let forest = obs.forest();

        // no span may reference a missing parent, no event may dangle,
        // and the shared root keeps everything in one trace
        prop_assert!(forest.orphans().is_empty());
        prop_assert_eq!(forest.unresolved_points(), 0);
        prop_assert_eq!(forest.trace_ids().len(), 1);

        // every span is present exactly once with a fully closed lifetime
        let expected = 1 + n_threads * rounds * (1 + depth);
        prop_assert_eq!(forest.len(), expected);
        for span in forest.spans() {
            // spans close after they open
            prop_assert!(span.end_ms >= span.start_ms);
        }

        // implicit nesting holds per thread: each nest-N parents to the
        // previous level, and each outer span parents to the shared root
        let root_id = forest.roots_of(forest.trace_ids()[0])[0];
        for span in forest.spans() {
            match span.name.as_str() {
                "outer" => prop_assert_eq!(span.parent, Some(root_id)),
                "nest-0" => {
                    let parent = span.parent.expect("nest-0 has a parent");
                    prop_assert_eq!(&forest.span(parent).unwrap().name, "outer");
                }
                name if name.starts_with("nest-") => {
                    let level: usize = name["nest-".len()..].parse().unwrap();
                    let parent: SpanId = span.parent.expect("nested spans have parents");
                    prop_assert_eq!(
                        &forest.span(parent).unwrap().name,
                        &format!("nest-{}", level - 1)
                    );
                }
                _ => {}
            }
        }
    }
}
