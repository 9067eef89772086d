//! Property-based tests over the system's core invariants (proptest).

use bytes::Bytes;
use coda::data::cv::CvStrategy;
use coda::data::{synth, Dataset, Transformer};
use coda::graph::{ParamGrid, PipelineSpec};
use coda::ml::StandardScaler;
use coda::store::{
    catch_up, ClientError, Delta, DeltaCodec, DeltaOp, DurableStore, HomeDataStore, Incoming,
    PushMode,
};
use coda::timeseries::{CascadedWindows, FlatWindowing, SeriesData, TsAsIid, WindowConfig};
use coda_linalg::Matrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Delta encode/apply is the identity on arbitrary byte strings.
    #[test]
    fn delta_roundtrip(base in proptest::collection::vec(any::<u8>(), 0..2048),
                       target in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let delta = DeltaCodec::encode(&base, &target, 1, 2);
        let rebuilt = DeltaCodec::apply(&base, &delta).unwrap();
        prop_assert_eq!(&rebuilt[..], &target[..]);
    }

    /// A delta from a version to itself never exceeds a small header bound
    /// when the data is block-aligned-compressible.
    #[test]
    fn delta_self_is_small(data in proptest::collection::vec(any::<u8>(), 128..1024)) {
        let delta = DeltaCodec::encode(&data, &data, 1, 2);
        // tail shorter than one block stays literal; everything else copies
        prop_assert!(delta.literal_bytes() < 64);
    }

    /// Sequential store versions always reconstruct through pulls,
    /// whatever the update pattern. A cache and a replica store catch up
    /// once after a random prefix of the updates and once at the end, so
    /// the final catch-up starts from a held version: up to date, a delta,
    /// or a full copy once that version has left the depth-3 history.
    #[test]
    fn store_pull_always_converges(updates in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..512), 1..6), cut in any::<usize>()) {
        let mut store = HomeDataStore::new("h", 3);
        let mut client = coda::store::CachingClient::new("c");
        let mut replica = DurableStore::new("r", 3, 0);
        let cut = cut % (updates.len() + 1);
        for part in [&updates[..cut], &updates[cut..]] {
            for u in part {
                store.put("o", Bytes::from(u.clone()));
            }
            client.pull(&mut store, "o").unwrap();
            if let Ok(Some(reply)) = store.fetch("o", replica.current_version("o")) {
                let held = replica.store().current("o");
                if let Some((v, data)) = catch_up(held, Incoming::Reply(&reply)).unwrap() {
                    replica.install_version("o", v, data);
                }
            }
        }
        let (version, last) = (store.version_of("o"), &updates[updates.len() - 1][..]);
        prop_assert_eq!(&client.held_data("o").unwrap()[..], last);
        prop_assert_eq!(client.held_version("o"), version);
        prop_assert_eq!(replica.store().current("o"), version.map(|v| (v, last)));
    }

    /// K-fold splits partition the sample index range exactly.
    #[test]
    fn kfold_partitions(n in 4usize..200, k in 2usize..8, shuffle in any::<bool>(), seed in any::<u64>()) {
        prop_assume!(n >= k);
        let splits = CvStrategy::KFold { k, shuffle, seed }.splits(n).unwrap();
        prop_assert_eq!(splits.len(), k);
        let mut seen = vec![false; n];
        for s in &splits {
            prop_assert_eq!(s.train.len() + s.validation.len(), n);
            for &i in &s.validation {
                prop_assert!(!seen[i], "validation index {} repeated", i);
                seen[i] = true;
            }
            for &i in &s.train {
                prop_assert!(!s.validation.contains(&i));
            }
        }
        prop_assert!(seen.iter().all(|&v| v));
    }

    /// Sliding splits never leak: every validation index is strictly after
    /// every train index plus the buffer.
    #[test]
    fn sliding_split_no_leakage(train in 2usize..40, buffer in 0usize..10,
                                val in 1usize..20, k in 1usize..6, extra in 0usize..50) {
        let n = train + buffer + val + extra;
        let splits = CvStrategy::TimeSeriesSlidingSplit {
            train_size: train, buffer, validation_size: val, k,
        }.splits(n).unwrap();
        prop_assert_eq!(splits.len(), k);
        for s in &splits {
            let max_train = *s.train.iter().max().unwrap();
            let min_val = *s.validation.iter().min().unwrap();
            prop_assert_eq!(min_val, max_train + buffer + 1);
            prop_assert_eq!(s.train.len(), train);
            prop_assert_eq!(s.validation.len(), val);
        }
    }

    /// Windowing shape laws of Figs. 7-9 hold for all shapes.
    #[test]
    fn windowing_shape_laws(l in 4usize..60, v in 1usize..5, p in 1usize..10, h in 1usize..4) {
        prop_assume!(l >= p + h);
        let m = synth::multivariate_sensors(l, v, 1);
        let ds = SeriesData::new(m, 0).to_dataset();
        let cfg = WindowConfig::new(p, h);
        let cascaded = CascadedWindows::new(cfg).fit_transform(&ds).unwrap();
        prop_assert_eq!(cascaded.n_samples(), l - p - h + 1);
        prop_assert_eq!(cascaded.n_features(), p * v);
        let flat = FlatWindowing::new(cfg).fit_transform(&ds).unwrap();
        prop_assert_eq!(&flat, &cascaded);
        let iid = TsAsIid::new(cfg).fit_transform(&ds).unwrap();
        prop_assert_eq!(iid.n_samples(), l - h);
        prop_assert_eq!(iid.n_features(), v);
    }

    /// Standard scaling is invertible on arbitrary data with non-constant
    /// columns.
    #[test]
    fn scaler_roundtrip(rows in 2usize..30, cols in 1usize..6, seed in any::<u64>()) {
        let ds = synth::linear_regression(rows, cols, 0.5, seed);
        let mut scaler = StandardScaler::new();
        let scaled = scaler.fit_transform(&ds).unwrap();
        let back = scaler.inverse_transform(&scaled).unwrap();
        for r in 0..rows {
            for c in 0..cols {
                prop_assert!((back.features()[(r, c)] - ds.features()[(r, c)]).abs() < 1e-8);
            }
        }
    }

    /// Grid expansion size equals the product of value-list lengths, and
    /// every assignment is distinct.
    #[test]
    fn grid_cartesian(sizes in proptest::collection::vec(1usize..5, 0..4)) {
        let mut grid = ParamGrid::new();
        for (i, n) in sizes.iter().enumerate() {
            grid.add(format!("n{i}__p"), (0..*n).map(|v| (v as i64).into()).collect());
        }
        let expected: usize = sizes.iter().product();
        let expanded = grid.expand();
        prop_assert_eq!(expanded.len(), expected.max(1));
        let mut keys: Vec<String> = expanded.iter()
            .map(|p| PipelineSpec::new(vec!["x"]).with_params(p).key())
            .collect();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), expanded.len());
    }

    /// Metric bounds: accuracy/F1 in [0,1], RMSE >= 0, and R² <= 1.
    #[test]
    fn metric_bounds(n in 2usize..50, seed in any::<u64>()) {
        let ds = synth::classification_blobs(n.max(4), 2, 2, 1.0, seed);
        let y = ds.target().unwrap();
        let yhat: Vec<f64> = y.iter().rev().cloned().collect();
        let acc = coda::data::metrics::accuracy(y, &yhat).unwrap();
        prop_assert!((0.0..=1.0).contains(&acc));
        let f1 = coda::data::metrics::f1_score(y, &yhat, 1.0).unwrap();
        prop_assert!((0.0..=1.0).contains(&f1));
        let reg = synth::linear_regression(n.max(3), 2, 1.0, seed);
        let t = reg.target().unwrap();
        let pred: Vec<f64> = t.iter().map(|v| v + 1.0).collect();
        prop_assert!(coda::data::metrics::rmse(t, &pred).unwrap() >= 0.0);
        if let Ok(r2) = coda::data::metrics::r2(t, &pred) {
            prop_assert!(r2 <= 1.0 + 1e-12);
        }
    }

    /// Matrix algebra laws: associativity of multiplication and the
    /// transpose product rule, on arbitrary small matrices.
    #[test]
    fn matrix_algebra_laws(m in 1usize..6, k in 1usize..6, n in 1usize..6, p in 1usize..6,
                           seed in any::<u32>()) {
        let fill = |rows: usize, cols: usize, salt: u64| {
            let mut mx = Matrix::zeros(rows, cols);
            for (i, v) in mx.as_mut_slice().iter_mut().enumerate() {
                *v = (((i as u64 + salt).wrapping_mul(seed as u64 + 1) % 1000) as f64) / 100.0 - 5.0;
            }
            mx
        };
        let a = fill(m, k, 1);
        let b = fill(k, n, 2);
        let c = fill(n, p, 3);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!((&left - &right).frobenius_norm() < 1e-6 * (1.0 + left.frobenius_norm()));
        // (AB)ᵀ = Bᵀ Aᵀ
        let t1 = a.matmul(&b).unwrap().transpose();
        let t2 = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!((&t1 - &t2).frobenius_norm() < 1e-9 * (1.0 + t1.frobenius_norm()));
    }

    /// Solving a well-conditioned diagonal-dominant system reproduces the
    /// planted solution.
    #[test]
    fn lu_solve_recovers_planted_solution(n in 1usize..8, seed in any::<u32>()) {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = (((i * 7 + j * 13 + seed as usize) % 19) as f64) / 19.0 - 0.5;
                a[(i, j)] = if i == j { v + n as f64 } else { v };
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-8);
        }
    }

    /// AUC is invariant under strictly monotone transforms of the scores.
    #[test]
    fn auc_monotone_invariance(n in 4usize..60, seed in any::<u64>()) {
        let ds = synth::imbalanced_binary(n.max(10), 1, 0.4, seed);
        let y = ds.target().unwrap();
        prop_assume!(y.contains(&1.0) && y.contains(&0.0));
        let scores: Vec<f64> = ds.features().col(0);
        let transformed: Vec<f64> = scores.iter().map(|s| (s * 0.3).exp() + 7.0).collect();
        let a1 = coda::data::metrics::auc(y, &scores).unwrap();
        let a2 = coda::data::metrics::auc(y, &transformed).unwrap();
        prop_assert!((a1 - a2).abs() < 1e-12);
    }

    /// TEG path count equals the product of stage widths for staged graphs.
    #[test]
    fn teg_path_count_is_width_product(widths in proptest::collection::vec(1usize..4, 1..4)) {
        use coda::graph::TegBuilder;
        use coda::data::NoOp;
        let mut builder = TegBuilder::new();
        for w in &widths {
            let stage: Vec<coda::data::BoxedTransformer> =
                (0..*w).map(|_| Box::new(NoOp::new()) as coda::data::BoxedTransformer).collect();
            builder = builder.add_transformers(stage);
        }
        let builder = builder.add_models(vec![
            Box::new(coda::ml::LinearRegression::new()),
            Box::new(coda::ml::KnnRegressor::new(3)),
        ]);
        let graph = builder.create_graph().unwrap();
        let expected: usize = widths.iter().product::<usize>() * 2;
        prop_assert_eq!(graph.enumerate_paths().len(), expected);
    }

    /// Dataset binary serialization round-trips for arbitrary shapes,
    /// including NaN (missing) cells.
    #[test]
    fn dataset_bytes_roundtrip(rows in 1usize..20, cols in 1usize..6,
                               with_target in any::<bool>(), nan_every in 2usize..10) {
        let mut m = Matrix::zeros(rows, cols);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = if i % nan_every == 0 { f64::NAN } else { i as f64 * 0.37 - 3.0 };
        }
        let ds = if with_target {
            Dataset::new(m).with_target((0..rows).map(|r| r as f64).collect()).unwrap()
        } else {
            Dataset::new(m)
        };
        let back = Dataset::from_bytes(&ds.to_bytes()).unwrap();
        prop_assert_eq!(back.n_samples(), ds.n_samples());
        prop_assert_eq!(back.n_features(), ds.n_features());
        prop_assert_eq!(back.target().is_some(), with_target);
        for (a, b) in back.features().as_slice().iter().zip(ds.features().as_slice()) {
            prop_assert!(a == b || (a.is_nan() && b.is_nan()));
        }
    }

    /// Corruption never round-trips: flipping any bit of a delta's literal
    /// payload in flight is caught by the end-to-end checksum — apply
    /// errors instead of silently rebuilding wrong data.
    #[test]
    fn corrupted_delta_never_roundtrips(
        base in proptest::collection::vec(any::<u8>(), 0..1024),
        target in proptest::collection::vec(any::<u8>(), 1..1024),
        pick in any::<usize>(), bit in 0u8..8) {
        let mut delta = DeltaCodec::encode(&base, &target, 1, 2);
        let literal_bytes = delta.literal_bytes();
        prop_assume!(literal_bytes > 0);
        // flip one bit of the pick-th literal byte across all Insert ops
        let mut remaining = pick % literal_bytes;
        for op in &mut delta.ops {
            if let coda::store::DeltaOp::Insert(data) = op {
                if remaining < data.len() {
                    let mut raw = data.to_vec();
                    raw[remaining] ^= 1 << bit;
                    *data = Bytes::from(raw);
                    break;
                }
                remaining -= data.len();
            }
        }
        match DeltaCodec::apply(&base, &delta) {
            Err(coda::store::DeltaError::ChecksumMismatch { .. }) => {}
            other => prop_assert!(false, "corruption must be caught, got {:?}", other),
        }
    }

    /// Applying an arbitrary script never panics: copies reaching past the
    /// base or past `usize::MAX`, and target lengths no allocation could
    /// hold, come back as errors.
    #[test]
    fn apply_never_panics_on_arbitrary_scripts(
        base in proptest::collection::vec(any::<u8>(), 0..256),
        ops in proptest::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 0..8),
        target_len in any::<usize>(), sizing in 0u8..3) {
        let span = base.len() + 1;
        let ops: Vec<DeltaOp> = ops
            .into_iter()
            .map(|(kind, a, b)| match kind {
                0 => DeltaOp::Copy { base_offset: a, len: b },
                1 => DeltaOp::Copy { base_offset: a % span, len: b % span },
                _ => DeltaOp::Insert(Bytes::from(vec![a as u8; b % 64])),
            })
            .collect();
        let target_len = match sizing {
            0 => target_len,
            1 => target_len % 512,
            // the size the ops would produce, when every copy is in range
            _ => ops.iter().fold(0usize, |n, op| match op {
                DeltaOp::Copy { len, .. } => n.saturating_add(*len),
                DeltaOp::Insert(b) => n.saturating_add(b.len()),
            }),
        };
        let delta = Delta { base_version: 1, target_version: 2, target_len, target_checksum: 0, ops };
        if let Ok(out) = DeltaCodec::apply(&base, &delta) {
            prop_assert_eq!(out.len(), target_len);
        }
    }

    /// Deltas are encoded lazily, yet the durable state never shows it: a
    /// store's export is the same whichever deltas pulls and pushes
    /// happened to encode, and a store recovered from a snapshot taken with
    /// a partly filled memo exports exactly what the live store does.
    #[test]
    fn export_state_does_not_depend_on_which_deltas_were_read(
        base in proptest::collection::vec(any::<u8>(), 0..600),
        steps in proptest::collection::vec((0u8..5, any::<usize>()), 1..40)) {
        // `read` also serves pulls between the logged ops; `unread` never does
        let mut read = DurableStore::new("h", 3, 5);
        let mut unread = DurableStore::new("h", 3, 5);
        for &(op, pick) in &steps {
            let id = if pick % 2 == 0 { "o0" } else { "o1" };
            match op {
                0 | 1 => {
                    let mut data = base.clone();
                    if !data.is_empty() {
                        let at = pick % data.len();
                        data[at] ^= (pick >> 8) as u8 | 1;
                    }
                    read.put(id, Bytes::from(data.clone()));
                    unread.put(id, Bytes::from(data));
                }
                2 => {
                    let mode = if pick % 3 == 0 { PushMode::NotifyOnly } else { PushMode::Delta };
                    read.subscribe("c", id, mode, 3);
                    unread.subscribe("c", id, mode, 3);
                }
                3 => {
                    read.advance_clock(1);
                    unread.advance_clock(1);
                }
                _ => {
                    let behind = (pick / 2 % 4) as u64;
                    let held = read.current_version(id).map(|v| v.saturating_sub(behind));
                    let _ = read.fetch(id, held);
                }
            }
            prop_assert_eq!(read.export_state(), unread.export_state());
        }
        let expected = read.export_state();
        let (recovered, _) = DurableStore::recover(read.crash(), None);
        prop_assert_eq!(recovered.export_state(), expected);
    }

    /// Corruption never round-trips on the push path either: a full-copy
    /// push whose payload was damaged in flight is rejected by the client
    /// and by a replica, and leaves both copies untouched.
    #[test]
    fn corrupted_full_push_is_rejected(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        pos in any::<usize>(), bit in 0u8..8) {
        let mut corrupted = data.clone();
        corrupted[pos % data.len()] ^= 1 << bit;
        let push = coda::store::UpdateMessage::Full {
            client: "c".to_string(),
            object: "o".to_string(),
            version: 2,
            data: Bytes::from(corrupted),
            checksum: coda::store::content_hash(&data),
            ctx: None,
        };
        let mut client = coda::store::CachingClient::new("c");
        match client.apply_push(&push) {
            Err(ClientError::ChecksumMismatch { .. }) => {}
            other => prop_assert!(false, "corruption must be caught, got {:?}", other),
        }
        prop_assert_eq!(client.held_version("o"), None);
        // a replica store at v1 rejects the same push through the shared path
        let mut replica = DurableStore::new("r", 4, 0);
        replica.put("o", Bytes::from(data.clone()));
        match catch_up(replica.store().current("o"), Incoming::Push(&push)) {
            Err(ClientError::ChecksumMismatch { .. }) => {}
            other => prop_assert!(false, "the replica must reject it too, got {:?}", other),
        }
        prop_assert_eq!(replica.current_version("o"), Some(1));
    }

    /// Train/test split partitions and respects the requested fraction.
    #[test]
    fn train_test_split_partitions(n in 4usize..200, frac in 0.05f64..0.95, seed in any::<u64>()) {
        let ds = Dataset::new(Matrix::zeros(n, 1)).with_target(vec![0.0; n]).unwrap();
        let (train, test) = ds.train_test_split(frac, seed);
        prop_assert_eq!(train.n_samples() + test.n_samples(), n);
        prop_assert!(test.n_samples() >= 1);
        prop_assert!(train.n_samples() >= 1);
    }
}
