//! Concurrency property: spans emitted from many threads at once — nested
//! implicit spans, spans under an entered context, point events — always
//! reconstruct into a coherent forest with no orphaned parents, because
//! parenting state is kept per thread and ids are allocated atomically.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use coda_obs::{Obs, SpanId};
use proptest::prelude::*;

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
