//! Contended-history check for the serving tier. Four closed-loop threads
//! race puts, pulls and claim→complete over 6 shared objects and 8 shared
//! computation keys, at 1, 2 and 8 shards with one crash point per shard.
//! Every operation is logged with an invoke stamp and a response stamp
//! drawn from one shared counter, and the history is checked per object
//! and per key:
//!
//! - An object is a versioned register, so its put versions give the
//!   write order and no Wing & Gong search is needed. Put versions are
//!   exactly 1..=n and follow real-time order. A pull never reads older
//!   than a put that completed before it began, nor a put that began after
//!   it ended, and its bytes — sent in full, or rebuilt from a delta onto
//!   the copy the client held — are that put's bytes.
//! - A key is a claim lease. Exactly one client is granted it, every
//!   refusal names that winner, and reuse is reported only once the
//!   winner's completion has begun.
//!
//! `SERVE_SEED` (default 7) seeds the threads' op streams, as in
//! `serving_equiv`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use bytes::Bytes;
use coda::chaos::CrashPlan;
use coda::darr::{ClaimOutcome, ComputationKey};
use coda::store::{DeltaCodec, FetchReply};
use coda_serve::{ServeConfig, ServeRequest, ServeResponse, ServeTier, TriggerPolicy};

const THREADS: usize = 4;
const OBJECTS: u64 = 6;
const KEYS: u64 = 8;
const OPS_PER_THREAD: usize = 1_000;
const PAYLOAD: usize = 1024;
/// Ops a winner runs between its claim and its complete.
const HOLD_OPS: usize = 8;

/// splitmix64 — seeded op streams, same idiom as the tier's load generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn object_id(object: u64) -> String {
    format!("obj-{object}")
}

fn client_name(thread: usize) -> String {
    format!("client-{thread}")
}

fn computation(key: u64) -> ComputationKey {
    ComputationKey::new("history-ds", 1, &format!("p{key}"), "kfold(3)", "rmse")
}

/// A put's bytes: mostly the object's fill, so deltas between versions
/// copy most of it, with a tag unique to (thread, seq) at the front and at
/// a moving offset.
fn payload(object: u64, thread: usize, seq: u64) -> Bytes {
    let mut data = vec![object as u8; PAYLOAD];
    let tag = ((thread as u64) << 32 | seq).to_le_bytes();
    let at = 8 + (seq as usize * 8) % (PAYLOAD - 16);
    data[..8].copy_from_slice(&tag);
    data[at..at + 8].copy_from_slice(&tag);
    Bytes::from(data)
}

/// What one logged operation did.
#[derive(Debug, Clone)]
enum Event {
    Put {
        object: u64,
        version: u64,
        data: Bytes,
    },
    /// `read` is `None` when the object did not exist yet; otherwise the
    /// version and the bytes the client ends up holding. `rebuilt`: the
    /// reply was a delta onto the held copy.
    Pull {
        object: u64,
        read: Option<(u64, Bytes)>,
        rebuilt: bool,
    },
    Claim {
        key: u64,
        outcome: Outcome,
    },
    Complete {
        key: u64,
    },
}

#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Claimed,
    HeldBy(String),
    Reused { producer: String },
}

/// One completed operation with its stamps.
#[derive(Debug, Clone)]
struct Op {
    thread: usize,
    invoked: u64,
    returned: u64,
    event: Event,
}

/// Submits `req` between two stamps of the shared counter.
fn stamped(tier: &ServeTier, clock: &AtomicU64, req: ServeRequest) -> (u64, ServeResponse, u64) {
    let invoked = clock.fetch_add(1, Ordering::SeqCst);
    let resp = tier.submit(req).expect("a closed loop never overruns a 64-deep queue");
    let returned = clock.fetch_add(1, Ordering::SeqCst);
    (invoked, resp, returned)
}

/// One client thread's closed loop, started together with the others at
/// `start`; returns its log.
fn client(
    tier: &ServeTier,
    clock: &AtomicU64,
    start: &Barrier,
    seed: u64,
    thread: usize,
) -> Vec<Op> {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (thread as u64 + 1);
    let mut held: BTreeMap<u64, (u64, Bytes)> = BTreeMap::new();
    let mut log = Vec::new();
    let mut seq = 0;
    // keys this thread won, each with the op after which it completes:
    // the claim stays held meanwhile, so other claimers meet it
    let mut owed: Vec<(u64, usize)> = Vec::new();
    start.wait();
    for i in 0..OPS_PER_THREAD {
        let roll = splitmix64(&mut rng) % 10;
        let object = splitmix64(&mut rng) % OBJECTS;
        if roll < 4 {
            let data = payload(object, thread, seq);
            seq += 1;
            let req = ServeRequest::Put { id: object_id(object), data: data.clone() };
            let (invoked, resp, returned) = stamped(tier, clock, req);
            let ServeResponse::Put { version, .. } = resp else {
                panic!("put answers Put: {resp:?}")
            };
            held.insert(object, (version, data.clone()));
            log.push(Op { thread, invoked, returned, event: Event::Put { object, version, data } });
        } else if roll < 8 {
            // odd rolls name the held version, so the reply may be a delta
            let named = if roll % 2 == 1 { held.get(&object).map(|(v, _)| *v) } else { None };
            let req = ServeRequest::Pull { id: object_id(object), client_version: named };
            let (invoked, resp, returned) = stamped(tier, clock, req);
            let ServeResponse::Pull(reply) = resp else { panic!("pull answers Pull: {resp:?}") };
            let rebuilt = matches!(reply, Some(FetchReply::Delta(_)));
            let read = reply.map(|reply| match reply {
                FetchReply::Full { version, data } => (version, data),
                FetchReply::Delta(delta) => {
                    let (base_version, base) =
                        held.get(&object).expect("a delta needs a held copy");
                    assert_eq!(
                        named,
                        Some(delta.base_version),
                        "a delta starts at the named version"
                    );
                    assert_eq!(*base_version, delta.base_version);
                    let rebuilt = DeltaCodec::apply(base, &delta).expect("the delta rebuilds");
                    (delta.target_version, rebuilt)
                }
                FetchReply::UpToDate { version } => {
                    assert_eq!(named, Some(version), "only a named version can be up to date");
                    let (_, data) = held.get(&object).expect("up to date with a held copy");
                    (version, data.clone())
                }
            });
            if let Some(copy) = &read {
                held.insert(object, copy.clone());
            }
            log.push(Op {
                thread,
                invoked,
                returned,
                event: Event::Pull { object, read, rebuilt },
            });
        } else {
            let key = splitmix64(&mut rng) % KEYS;
            // a held key is not claimed again: its owner would be re-granted
            if owed.iter().all(|(held, _)| *held != key) {
                let req = ServeRequest::Claim {
                    key: computation(key),
                    client: client_name(thread),
                    duration: 1_000_000,
                };
                let (invoked, resp, returned) = stamped(tier, clock, req);
                let outcome = match resp {
                    ServeResponse::Claim(ClaimOutcome::Claimed) => Outcome::Claimed,
                    ServeResponse::Claim(ClaimOutcome::HeldBy(owner)) => Outcome::HeldBy(owner),
                    ServeResponse::Claim(ClaimOutcome::AlreadyComputed(record)) => {
                        Outcome::Reused { producer: record.producer }
                    }
                    other => panic!("claim answers Claim: {other:?}"),
                };
                if outcome == Outcome::Claimed {
                    owed.push((key, i + HOLD_OPS));
                }
                log.push(Op { thread, invoked, returned, event: Event::Claim { key, outcome } });
            }
        }
        while owed.first().is_some_and(|(_, due)| *due <= i) {
            let (key, _) = owed.remove(0);
            log.push(complete(tier, clock, thread, key));
        }
    }
    for (key, _) in owed {
        log.push(complete(tier, clock, thread, key));
    }
    log
}

/// The winner of `key` publishes its result.
fn complete(tier: &ServeTier, clock: &AtomicU64, thread: usize, key: u64) -> Op {
    let req = ServeRequest::Complete {
        key: computation(key),
        client: client_name(thread),
        score: 0.5,
        fold_scores: vec![0.5; 3],
        explanation: format!("p{key} by {thread}"),
    };
    let (invoked, resp, returned) = stamped(tier, clock, req);
    assert!(matches!(resp, ServeResponse::Complete(_)), "complete answers: {resp:?}");
    Op { thread, invoked, returned, event: Event::Complete { key } }
}

/// Checks one object's register history.
fn check_object(history: &[Op], object: u64, label: &str) {
    let puts: Vec<(&Op, u64, &Bytes)> = history
        .iter()
        .filter_map(|op| match &op.event {
            Event::Put { object: o, version, data } if *o == object => Some((op, *version, data)),
            _ => None,
        })
        .collect();
    let mut versions: Vec<u64> = puts.iter().map(|(_, v, _)| *v).collect();
    versions.sort_unstable();
    let expected: Vec<u64> = (1..=puts.len() as u64).collect();
    assert_eq!(versions, expected, "{label} obj-{object}: put versions must be exactly 1..=n");
    for (a, va, _) in &puts {
        for (b, vb, _) in &puts {
            assert!(
                a.returned > b.invoked || va < vb,
                "{label} obj-{object}: put v{va} completed before put v{vb} began"
            );
        }
    }
    let by_version: BTreeMap<u64, (&Op, &Bytes)> =
        puts.iter().map(|(op, v, data)| (*v, (*op, *data))).collect();

    for pull in history {
        let Event::Pull { object: o, read, .. } = &pull.event else { continue };
        if *o != object {
            continue;
        }
        // the newest put that completed before the pull began
        let floor =
            puts.iter().filter(|(p, _, _)| p.returned < pull.invoked).map(|(_, v, _)| *v).max();
        let Some((version, data)) = read else {
            assert_eq!(
                floor,
                None,
                "{label} obj-{object}: pull saw no object after put v{} completed",
                floor.unwrap_or_default()
            );
            continue;
        };
        assert!(
            floor.is_none_or(|f| *version >= f),
            "{label} obj-{object}: stale pull read v{version} after put v{} completed",
            floor.unwrap_or_default()
        );
        let (writer, bytes) = by_version
            .get(version)
            .unwrap_or_else(|| panic!("{label} obj-{object}: pull read v{version}, never put"));
        assert!(
            writer.invoked < pull.returned,
            "{label} obj-{object}: pull read v{version} from a put that began after it ended"
        );
        assert_eq!(data, *bytes, "{label} obj-{object}: pull bytes must be put v{version}'s");
    }
}

/// Checks one computation key's claim history.
fn check_key(history: &[Op], key: u64, label: &str) {
    let claims: Vec<(&Op, &Outcome)> = history
        .iter()
        .filter_map(|op| match &op.event {
            Event::Claim { key: k, outcome } if *k == key => Some((op, outcome)),
            _ => None,
        })
        .collect();
    if claims.is_empty() {
        return;
    }
    let winners: Vec<usize> = claims
        .iter()
        .filter(|(_, outcome)| **outcome == Outcome::Claimed)
        .map(|(op, _)| op.thread)
        .collect();
    assert_eq!(winners.len(), 1, "{label} p{key}: exactly one claim is granted, got {winners:?}");
    let winner = client_name(winners[0]);
    let completed = history
        .iter()
        .find(|op| {
            op.thread == winners[0] && matches!(op.event, Event::Complete { key: k } if k == key)
        })
        .expect("the winner completes");
    for (claim, outcome) in &claims {
        match outcome {
            Outcome::Claimed => {}
            Outcome::HeldBy(owner) => {
                assert_eq!(*owner, winner, "{label} p{key}: a refusal names the winner");
            }
            Outcome::Reused { producer } => {
                assert_eq!(*producer, winner, "{label} p{key}: reuse names the winner");
                assert!(
                    claim.returned > completed.invoked,
                    "{label} p{key}: reuse reported before the winner's complete began"
                );
            }
        }
    }
}

/// Runs the four clients against a tier with `n_shards` shards and one
/// crash point per shard, then checks the merged history.
fn run_and_check(seed: u64, n_shards: usize) {
    let plan = (0..n_shards).fold(CrashPlan::new(), |plan, i| {
        plan.with_crash_at(&format!("shard-{i}"), 5 + 3 * i as u64, Some(0.0))
    });
    let cfg = ServeConfig {
        n_shards,
        queue_capacity: 64,
        history_depth: 4,
        snapshot_every: 8,
        trigger: TriggerPolicy::Count(5),
        plan,
        ..ServeConfig::default()
    };
    let tier = ServeTier::start_obs(&cfg, None);
    let clock = AtomicU64::new(0);
    let start = Barrier::new(THREADS);
    let history: Vec<Op> = std::thread::scope(|s| {
        let (tier, clock, start) = (&tier, &clock, &start);
        let handles: Vec<_> =
            (0..THREADS).map(|t| s.spawn(move || client(tier, clock, start, seed, t))).collect();
        handles.into_iter().flat_map(|h| h.join().expect("client threads finish")).collect()
    });
    let report = tier.finish();
    let label = format!("seed {seed}, {n_shards} shards:");
    assert!(report.shards.iter().map(|s| s.recoveries).sum::<u64>() > 0, "{label} no crash fired");
    assert!(report.shards.iter().all(|s| s.recovery_mismatches == 0), "{label} {report:?}");
    for object in 0..OBJECTS {
        check_object(&history, object, &label);
    }
    for key in 0..KEYS {
        check_key(&history, key, &label);
    }
    let covered = |what: &str, seen: &dyn Fn(&Event) -> bool| {
        assert!(history.iter().any(|op| seen(&op.event)), "{label} the history has no {what}");
    };
    covered("delta-rebuilt pull", &|e| matches!(e, Event::Pull { rebuilt: true, .. }));
    covered("reused result", &|e| {
        matches!(e, Event::Claim { outcome: Outcome::Reused { .. }, .. })
    });
}

#[test]
fn contended_histories_are_linearizable_at_1_2_and_8_shards() {
    let seed = std::env::var("SERVE_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7u64);
    for n_shards in [1, 2, 8] {
        run_and_check(seed, n_shards);
    }
}
