//! Shard-equivalence harness for the serving tier (satellite of the
//! coda-serve tentpole): an arbitrary seeded op sequence applied through
//! [`coda_serve::ServeTier`] at 1, 2 and 8 shards must leave *byte
//! identical* canonical state — objects, histories, leases, DARR records
//! and the trigger-firing set — to a hand-driven unsharded
//! `DurableStore` + `Darr` baseline, across thread interleavings.
//!
//! The baseline is deliberately not built from serve-crate internals: it
//! drives the raw store/DARR/monitor APIs directly and renders through
//! [`coda_serve::shard::export_parts`], so the tier's routing, mailboxes
//! and batching are checked against an independent oracle.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use coda::darr::{ComputationKey, Darr};
use coda::store::{ChangeMonitor, DurableStore, PushMode, RecomputeTrigger};
use coda_serve::shard::export_parts;
use coda_serve::{
    merge_canonical_exports, LoadGenConfig, ServeConfig, ServeRequest, ServeTier, TriggerPolicy,
};
use proptest::prelude::*;

/// Objects per generated workload.
const KEY_SPACE: u8 = 24;
/// DARR work items per generated workload.
const ITEM_SPACE: u8 = 12;
/// Simulated clients per generated workload.
const CLIENT_SPACE: u8 = 6;
/// Trigger policy under test: fire every third update to an object.
const TRIGGER_EVERY: u64 = 3;

/// One generated operation, pre-routing: indices instead of strings so
/// proptest shrinks nicely.
#[derive(Debug, Clone)]
enum GenOp {
    Put { key: u8, fill: u8, len: u16 },
    Pull { key: u8 },
    Subscribe { client: u8, key: u8 },
    Cancel { client: u8, key: u8 },
    Claim { item: u8, client: u8 },
    Complete { item: u8, client: u8 },
    Lookup { item: u8 },
    Advance { ticks: u8 },
}

fn object_id(key: u8) -> String {
    format!("obj-{key}")
}

fn client_name(client: u8) -> String {
    format!("client-{client}")
}

fn item_key(item: u8) -> ComputationKey {
    ComputationKey::new("equiv-ds", 1, &format!("p{item}") as &str, "kfold(3)", "rmse")
}

fn score_for(item: u8) -> f64 {
    0.125 * (f64::from(item) + 1.0)
}

impl GenOp {
    /// The tier-facing form of this op (None for clock advances, which go
    /// through the tier's broadcast, not the data plane).
    fn request(&self) -> Option<ServeRequest> {
        match self {
            GenOp::Put { key, fill, len } => Some(ServeRequest::Put {
                id: object_id(*key),
                data: Bytes::from(vec![*fill; *len as usize]),
            }),
            GenOp::Pull { key } => {
                Some(ServeRequest::Pull { id: object_id(*key), client_version: None })
            }
            GenOp::Subscribe { client, key } => Some(ServeRequest::Subscribe {
                client: client_name(*client),
                id: object_id(*key),
                mode: PushMode::Delta,
                duration: 1_000,
            }),
            GenOp::Cancel { client, key } => {
                Some(ServeRequest::Cancel { client: client_name(*client), id: object_id(*key) })
            }
            GenOp::Claim { item, client } => Some(ServeRequest::Claim {
                key: item_key(*item),
                client: client_name(*client),
                duration: 10_000,
            }),
            GenOp::Complete { item, client } => Some(ServeRequest::Complete {
                key: item_key(*item),
                client: client_name(*client),
                score: score_for(*item),
                fold_scores: vec![score_for(*item); 3],
                explanation: format!("equiv p{item}"),
            }),
            GenOp::Lookup { item } => Some(ServeRequest::Lookup { key: item_key(*item) }),
            GenOp::Advance { .. } => None,
        }
    }
}

/// The independent unsharded oracle: raw store + DARR + monitors, driven
/// without any serve-crate apply logic.
struct Baseline {
    store: DurableStore,
    darr: Darr,
    monitors: BTreeMap<String, (ChangeMonitor, u64)>,
}

impl Baseline {
    fn new() -> Self {
        Baseline {
            store: DurableStore::new("baseline".to_string(), 4, 0),
            darr: Darr::new(),
            monitors: BTreeMap::new(),
        }
    }

    fn apply(&mut self, op: &GenOp) {
        match op {
            GenOp::Put { key, fill, len } => {
                let id = object_id(*key);
                let bytes = u64::from(*len);
                self.store.put(&id, Bytes::from(vec![*fill; *len as usize]));
                let (monitor, updates) = self.monitors.entry(id).or_insert_with(|| {
                    (ChangeMonitor::new(RecomputeTrigger::UpdateCount(TRIGGER_EVERY)), 0)
                });
                *updates += 1;
                monitor.record_update(bytes, 0.0);
            }
            GenOp::Pull { key } => {
                let Ok(_) = self.store.fetch(&object_id(*key), None);
            }
            GenOp::Subscribe { client, key } => {
                self.store.subscribe(
                    &client_name(*client),
                    &object_id(*key),
                    PushMode::Delta,
                    1_000,
                );
            }
            GenOp::Cancel { client, key } => {
                self.store.cancel(&client_name(*client), &object_id(*key));
            }
            GenOp::Claim { item, client } => {
                self.darr.try_claim(&item_key(*item), &client_name(*client), 10_000);
            }
            GenOp::Complete { item, client } => {
                self.darr.complete(
                    &item_key(*item),
                    &client_name(*client),
                    score_for(*item),
                    vec![score_for(*item); 3],
                    &format!("equiv p{item}"),
                );
            }
            GenOp::Lookup { item } => {
                self.darr.lookup(&item_key(*item));
            }
            GenOp::Advance { ticks } => {
                self.store.advance_clock(u64::from(*ticks));
                self.darr.advance_clock(u64::from(*ticks));
            }
        }
    }

    fn canonical(&self) -> String {
        merge_canonical_exports(&[export_parts(&self.store, &self.darr, &self.monitors)])
    }
}

/// Applies `ops` through a tier with `n_shards`, returns canonical state
/// plus the per-shard applied-op counts.
fn run_tier(ops: &[GenOp], n_shards: usize) -> (String, Vec<u64>) {
    let cfg = ServeConfig {
        n_shards,
        queue_capacity: 64,
        batch_max: 16,
        history_depth: 4,
        snapshot_every: 0,
        trigger: TriggerPolicy::Count(TRIGGER_EVERY),
        ..ServeConfig::default()
    };
    let tier = ServeTier::start_obs(&cfg, None);
    for op in ops {
        match op.request() {
            Some(req) => {
                tier.submit(req).expect("sequential submits never overrun the queue");
            }
            None => {
                if let GenOp::Advance { ticks } = op {
                    tier.advance_clock(u64::from(*ticks));
                }
            }
        }
    }
    let report = tier.finish();
    (report.canonical_state(), report.per_shard_ops())
}

/// Runs the full comparison: baseline vs 1-, 2- and 8-shard tiers.
fn assert_equivalent(ops: &[GenOp]) {
    let mut baseline = Baseline::new();
    for op in ops {
        baseline.apply(op);
    }
    let expected = baseline.canonical();
    for n_shards in [1usize, 2, 8] {
        let (canonical, _) = run_tier(ops, n_shards);
        assert_eq!(
            canonical, expected,
            "{n_shards}-shard tier state must be byte-identical to the unsharded baseline"
        );
    }
}

/// Weighted strategy over the whole op surface (the vendored proptest
/// stand-in has no `prop_oneof!`, so the weighting is explicit).
#[derive(Debug, Clone, Copy)]
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = GenOp;

    fn sample(&self, rng: &mut proptest::TestRng) -> GenOp {
        let key = (rng.next_u64() % u64::from(KEY_SPACE)) as u8;
        let item = (rng.next_u64() % u64::from(ITEM_SPACE)) as u8;
        let client = (rng.next_u64() % u64::from(CLIENT_SPACE)) as u8;
        match rng.next_u64() % 13 {
            0..=3 => GenOp::Put {
                key,
                fill: (rng.next_u64() & 0xff) as u8,
                len: 16 + (rng.next_u64() % 144) as u16,
            },
            4..=5 => GenOp::Pull { key },
            6 => GenOp::Subscribe { client, key },
            7 => GenOp::Cancel { client, key },
            8..=9 => GenOp::Claim { item, client },
            10 => GenOp::Complete { item, client },
            11 => GenOp::Lookup { item },
            _ => GenOp::Advance { ticks: 1 + (rng.next_u64() % 19) as u8 },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 1: arbitrary op sequences leave 1/2/8-shard tier state
    /// byte-identical to the unsharded baseline, trigger firings included.
    #[test]
    fn sharded_state_equals_unsharded_baseline(
        ops in collection::vec(OpStrategy, 1..120)
    ) {
        assert_equivalent(&ops);
    }

    /// Put-heavy sequences with clock advances: history chains, lease
    /// expiry and trigger accounting all survive sharding.
    #[test]
    fn put_heavy_sequences_with_clocks_stay_equivalent(
        puts in collection::vec((0..KEY_SPACE, any::<u8>(), 16u16..96), 4..80),
        ticks in 1u8..30,
    ) {
        let mut ops: Vec<GenOp> = Vec::with_capacity(puts.len() + 2);
        for (i, (key, fill, len)) in puts.iter().enumerate() {
            ops.push(GenOp::Put { key: *key, fill: *fill, len: *len });
            if i == puts.len() / 2 {
                ops.push(GenOp::Advance { ticks });
            }
        }
        ops.push(GenOp::Advance { ticks });
        assert_equivalent(&ops);
    }
}

/// splitmix64 — seed-driven op generation for the CI `SERVE_SEED` matrix.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn seeded_ops(seed: u64, n: usize) -> Vec<GenOp> {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            let key = (splitmix64(&mut rng) % u64::from(KEY_SPACE)) as u8;
            let item = (splitmix64(&mut rng) % u64::from(ITEM_SPACE)) as u8;
            let client = (splitmix64(&mut rng) % u64::from(CLIENT_SPACE)) as u8;
            match splitmix64(&mut rng) % 13 {
                0..=4 => GenOp::Put {
                    key,
                    fill: (splitmix64(&mut rng) & 0xff) as u8,
                    len: 16 + (splitmix64(&mut rng) % 128) as u16,
                },
                5..=6 => GenOp::Pull { key },
                7 => GenOp::Subscribe { client, key },
                8 => GenOp::Cancel { client, key },
                9..=10 => GenOp::Claim { item, client },
                11 => GenOp::Complete { item, client },
                _ => GenOp::Advance { ticks: 1 + (splitmix64(&mut rng) % 12) as u8 },
            }
        })
        .collect()
}

/// The CI matrix entry point: `SERVE_SEED` (default 7) drives a 400-op
/// deterministic sequence through the full 1/2/8-shard comparison, and the
/// 2-shard run must exercise both shards.
#[test]
fn serve_seed_matrix_equivalence() {
    let seed = std::env::var("SERVE_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7u64);
    let ops = seeded_ops(seed, 400);
    assert_equivalent(&ops);
    let (_, per_shard) = run_tier(&ops, 2);
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "seed {seed}: both shards must see traffic: {per_shard:?}"
    );
}

/// Thread-interleaving equivalence: concurrent submitter threads over
/// *disjoint* key/item subsets (no clock ops) must land in the same final
/// canonical state as any sequential application of the same per-thread
/// sequences — per-key FIFO order is all the tier guarantees, and all an
/// equivalence oracle may assume.
#[test]
fn concurrent_interleavings_preserve_equivalence() {
    const THREADS: u8 = 4;
    let per_thread: Vec<Vec<GenOp>> = (0..THREADS)
        .map(|t| {
            // thread t owns keys ≡ t and items ≡ t (mod THREADS): disjoint
            let ops = seeded_ops(1_000 + u64::from(t), 200);
            ops.into_iter()
                .filter(|op| !matches!(op, GenOp::Advance { .. }))
                .map(|op| match op {
                    GenOp::Put { key, fill, len } => {
                        GenOp::Put { key: key - key % THREADS + t, fill, len }
                    }
                    GenOp::Pull { key } => GenOp::Pull { key: key - key % THREADS + t },
                    GenOp::Subscribe { client, key } => {
                        GenOp::Subscribe { client, key: key - key % THREADS + t }
                    }
                    GenOp::Cancel { client, key } => {
                        GenOp::Cancel { client, key: key - key % THREADS + t }
                    }
                    GenOp::Claim { item, client } => {
                        GenOp::Claim { item: item - item % THREADS + t, client }
                    }
                    GenOp::Complete { item, client } => {
                        GenOp::Complete { item: item - item % THREADS + t, client }
                    }
                    GenOp::Lookup { item } => GenOp::Lookup { item: item - item % THREADS + t },
                    GenOp::Advance { ticks } => GenOp::Advance { ticks },
                })
                .collect()
        })
        .collect();

    // oracle: thread-major sequential application (valid because subsets
    // are disjoint, so cross-thread order cannot matter)
    let mut baseline = Baseline::new();
    for ops in &per_thread {
        for op in ops {
            baseline.apply(op);
        }
    }
    let expected = baseline.canonical();

    for n_shards in [2usize, 8] {
        let cfg = ServeConfig {
            n_shards,
            queue_capacity: 64,
            batch_max: 16,
            history_depth: 4,
            snapshot_every: 0,
            trigger: TriggerPolicy::Count(TRIGGER_EVERY),
            ..ServeConfig::default()
        };
        let tier = Arc::new(ServeTier::start_obs(&cfg, None));
        let handles: Vec<_> = per_thread
            .iter()
            .cloned()
            .map(|ops| {
                let tier = Arc::clone(&tier);
                std::thread::spawn(move || {
                    for op in &ops {
                        if let Some(req) = op.request() {
                            tier.submit(req).expect("closed-loop submits complete");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("submitter threads finish");
        }
        let report = match Arc::try_unwrap(tier) {
            Ok(t) => t.finish(),
            Err(_) => panic!("all submitters joined"),
        };
        assert_eq!(
            report.canonical_state(),
            expected,
            "{n_shards}-shard concurrent run must match the sequential oracle"
        );
    }
}

/// The load generator itself is deterministic: with a single submitter
/// thread (no cross-thread claim races) two same-seed closed-loop runs
/// produce identical reports and byte-identical canonical state.
#[test]
fn same_seed_load_runs_are_byte_identical() {
    let run = |seed: u64| {
        let cfg = ServeConfig {
            n_shards: 2,
            snapshot_every: 0,
            trigger: TriggerPolicy::Count(TRIGGER_EVERY),
            ..ServeConfig::default()
        };
        let tier = Arc::new(ServeTier::start_obs(&cfg, None));
        let load = LoadGenConfig {
            seed,
            n_clients: 500,
            ops_per_thread: 800,
            n_threads: 1,
            key_space: 32,
            ..LoadGenConfig::default()
        };
        let report = coda_serve::run_load(&tier, &load, None);
        let tier_report = match Arc::try_unwrap(tier) {
            Ok(t) => t.finish(),
            Err(_) => panic!("all submitters joined"),
        };
        (report, tier_report.canonical_state())
    };
    let (report_a, state_a) = run(11);
    let (report_b, state_b) = run(11);
    assert_eq!(report_a, report_b, "same seed, same load report");
    assert_eq!(state_a, state_b, "same seed, same final state");
    let (report_c, _) = run(12);
    assert_ne!(report_a, report_c, "different seeds must differ somewhere");
}
