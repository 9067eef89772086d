//! CART decision trees for regression and classification (the
//! "Decision Trees" of Fig. 3 and "decision trees" of §III).

use coda_data::{BoxedEstimator, ComponentError, Dataset, Estimator, ParamValue, TaskKind};
use coda_linalg::Matrix;

/// A fitted tree node.
#[derive(Debug, Clone)]
enum Node {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// Growth hyper-parameters shared by the regressor and classifier.
#[derive(Debug, Clone, Copy)]
struct TreeConfig {
    max_depth: usize,
    min_samples_split: usize,
    min_samples_leaf: usize,
    /// Consider only this many randomly-chosen features per split
    /// (`None` = all). Used by random forests.
    max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 10, min_samples_split: 2, min_samples_leaf: 1, max_features: None }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Criterion {
    Variance,
    Gini,
}

/// The fitted tree plus accumulated impurity-decrease importances.
#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

/// A deterministic splittable PRNG for feature subsampling (xorshift64*).
#[derive(Debug, Clone)]
struct SplitRng(u64);

impl SplitRng {
    fn new(seed: u64) -> Self {
        SplitRng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn gen_range(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The impurity of the rows `rows` (a node or one side of a split). A
/// variance is computed in two passes, around the rows' own mean.
fn impurity<I>(y: &[f64], rows: I, criterion: Criterion) -> f64
where
    I: ExactSizeIterator<Item = usize> + Clone,
{
    match criterion {
        Criterion::Variance => {
            if rows.len() < 2 {
                return 0.0;
            }
            let n = rows.len() as f64;
            let m: f64 = rows.clone().map(|i| y[i]).sum::<f64>() / n;
            rows.map(|i| (y[i] - m) * (y[i] - m)).sum::<f64>() / n
        }
        Criterion::Gini => {
            let n = rows.len() as f64;
            let mut counts = std::collections::BTreeMap::new();
            for i in rows {
                *counts.entry(y[i].to_bits()).or_insert(0usize) += 1;
            }
            1.0 - counts.values().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
        }
    }
}

fn leaf_value(y: &[f64], indices: &[usize], criterion: Criterion) -> f64 {
    match criterion {
        Criterion::Variance => {
            indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len().max(1) as f64
        }
        Criterion::Gini => {
            // majority class, ties to the smallest label
            let mut counts = std::collections::BTreeMap::new();
            for &i in indices {
                *counts.entry(y[i].to_bits()).or_insert(0usize) += 1;
            }
            counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .map(|(&bits, _)| f64::from_bits(bits))
                .unwrap_or(0.0)
        }
    }
}

/// A split candidate found by the scan: `(feature, threshold, weighted
/// child impurity)`.
type Split = (usize, f64, f64);

/// Relative width of the variance band: candidates whose running-sum score
/// lies within `BAND * node impurity` of the lowest are re-scored exactly,
/// and all of them are when any running score is not finite.
const BAND: f64 = 1e-9;

/// Appends `rows`' values of feature `f` to `sorted` as `(value, row)` pairs
/// and stably sorts them by value; returns where they start.
fn sort_feature(sorted: &mut Vec<(f64, usize)>, x: &Matrix, rows: &[usize], f: usize) -> usize {
    let start = sorted.len();
    sorted.extend(rows.iter().map(|&i| (x[(i, f)], i)));
    sorted[start..].sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    start
}

/// The rows of a run of sorted `(value, row)` pairs, in order.
fn rows_of(pairs: &[(f64, usize)]) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
    pairs.iter().map(|p| p.1)
}

/// Whether a sorted column splits before position `w`: the threshold falls
/// between two distinct values and both sides keep `min_leaf` rows.
fn splits_at(col: &[(f64, usize)], w: usize, min_leaf: usize) -> bool {
    col[w].0 != col[w - 1].0 && w >= min_leaf && col.len() - w >= min_leaf
}

/// The Gini impurity of `total` rows with the class counts `counts`, summed
/// over the present classes in class order (as `impurity` sums them).
fn gini(counts: impl Iterator<Item = usize>, total: usize) -> f64 {
    let n = total as f64;
    1.0 - counts.filter(|&c| c > 0).map(|c| (c as f64 / n).powi(2)).sum::<f64>()
}

/// One tree's growth: the training rows, the limits, the output, and the
/// buffers that every node's split search reuses.
///
/// The search sorts each candidate feature once per node and scores every
/// threshold in one pass over the sorted column: Gini exactly, from running
/// class counts; variance from running sums, with the [`BAND`] around the
/// lowest score re-scored by the two-pass [`impurity`]. Either way it picks
/// the split an exact scan of every candidate picks (DESIGN.md §2).
struct Grower<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    cfg: &'a TreeConfig,
    criterion: Criterion,
    rng: SplitRng,
    nodes: Vec<Node>,
    importances: Vec<f64>,
    /// Gini: each row's class, numbered in `to_bits` order.
    class_of: Vec<usize>,
    /// Gini: the node's class counts, then the left side's.
    node_counts: Vec<usize>,
    left_counts: Vec<usize>,
    /// The sorted `(value, row)` columns of the node's candidate features,
    /// one after another.
    sorted: Vec<(f64, usize)>,
    /// Variance: every candidate's `(column, position, running score)`, in
    /// scan order.
    candidates: Vec<(usize, usize, f64)>,
}

impl<'a> Grower<'a> {
    fn new(
        x: &'a Matrix,
        y: &'a [f64],
        cfg: &'a TreeConfig,
        criterion: Criterion,
        seed: u64,
    ) -> Self {
        let mut class_of = Vec::new();
        let mut n_classes = 0;
        if criterion == Criterion::Gini {
            let mut labels: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
            labels.sort_unstable();
            labels.dedup();
            class_of = y.iter().map(|v| labels.partition_point(|&b| b < v.to_bits())).collect();
            n_classes = labels.len();
        }
        Grower {
            x,
            y,
            cfg,
            criterion,
            rng: SplitRng::new(seed),
            nodes: Vec::new(),
            importances: vec![0.0; x.cols()],
            class_of,
            node_counts: vec![0; n_classes],
            left_counts: vec![0; n_classes],
            sorted: Vec::new(),
            candidates: Vec::new(),
        }
    }

    fn grow(&mut self, indices: Vec<usize>, depth: usize) -> usize {
        let node_impurity = impurity(self.y, indices.iter().copied(), self.criterion);
        if depth >= self.cfg.max_depth
            || indices.len() < self.cfg.min_samples_split
            || node_impurity <= 1e-12
        {
            return self.leaf(&indices);
        }
        // choose candidate features
        let d = self.x.cols();
        let features: Vec<usize> = match self.cfg.max_features {
            Some(k) if k < d => {
                // Fisher-Yates over a scratch index list
                let mut all: Vec<usize> = (0..d).collect();
                for i in 0..k {
                    let j = i + self.rng.gen_range(d - i);
                    all.swap(i, j);
                }
                all.truncate(k);
                all
            }
            _ => (0..d).collect(),
        };
        let best = match self.criterion {
            Criterion::Variance => self.best_variance_split(&indices, &features, node_impurity),
            Criterion::Gini => self.best_gini_split(&indices, &features),
        };
        let Some((feature, threshold, wi)) = best else {
            return self.leaf(&indices);
        };
        if node_impurity - wi <= 1e-12 {
            return self.leaf(&indices);
        }
        self.importances[feature] += (node_impurity - wi) * indices.len() as f64;
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| self.x[(i, feature)] <= threshold);
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder, patched below
        let left = self.grow(left_idx, depth + 1);
        let right = self.grow(right_idx, depth + 1);
        self.nodes[id] = Node::Split { feature, threshold, left, right };
        id
    }

    fn leaf(&mut self, indices: &[usize]) -> usize {
        self.nodes.push(Node::Leaf { value: leaf_value(self.y, indices, self.criterion) });
        self.nodes.len() - 1
    }

    /// The lowest weighted Gini over every candidate, first in scan order
    /// among equals.
    fn best_gini_split(&mut self, indices: &[usize], features: &[usize]) -> Option<Split> {
        let n = indices.len();
        self.node_counts.fill(0);
        for &i in indices {
            self.node_counts[self.class_of[i]] += 1;
        }
        let mut best: Option<Split> = None;
        for &f in features {
            self.sorted.clear();
            sort_feature(&mut self.sorted, self.x, indices, f);
            self.left_counts.fill(0);
            for w in 1..n {
                self.left_counts[self.class_of[self.sorted[w - 1].1]] += 1;
                if !splits_at(&self.sorted, w, self.cfg.min_samples_leaf) {
                    continue;
                }
                let left = gini(self.left_counts.iter().copied(), w);
                let rest = self.node_counts.iter().zip(&self.left_counts).map(|(t, l)| t - l);
                let right = gini(rest, n - w);
                let wi = (w as f64 * left + (n - w) as f64 * right) / n as f64;
                if best.is_none_or(|(_, _, b)| wi < b) {
                    best = Some((f, (self.sorted[w].0 + self.sorted[w - 1].0) / 2.0, wi));
                }
            }
        }
        best
    }

    /// The lowest weighted variance over every candidate, first in scan
    /// order among equals: scored from running sums, then the band around
    /// the lowest running score re-scored exactly.
    fn best_variance_split(
        &mut self,
        indices: &[usize],
        features: &[usize],
        node_impurity: f64,
    ) -> Option<Split> {
        let (x, y, n) = (self.x, self.y, indices.len());
        let centre = indices.iter().map(|&i| y[i]).sum::<f64>() / n as f64;
        let (s_all, q_all) = indices.iter().fold((0.0, 0.0), |(s, q), &i| {
            let d = y[i] - centre;
            (s + d, q + d * d)
        });
        self.sorted.clear();
        self.candidates.clear();
        for (slot, &f) in features.iter().enumerate() {
            let start = sort_feature(&mut self.sorted, x, indices, f);
            let col = &self.sorted[start..];
            let (mut s, mut q) = (0.0, 0.0);
            for w in 1..n {
                let d = y[col[w - 1].1] - centre;
                s += d;
                q += d * d;
                if !splits_at(col, w, self.cfg.min_samples_leaf) {
                    continue;
                }
                let (s_right, q_right) = (s_all - s, q_all - q);
                let score = (q - s * s / w as f64 + q_right - s_right * s_right / (n - w) as f64)
                    / n as f64;
                self.candidates.push((slot, w, score));
            }
        }
        let exact_all =
            !node_impurity.is_finite() || self.candidates.iter().any(|c| !c.2.is_finite());
        let cutoff = if exact_all {
            f64::INFINITY
        } else {
            let lowest = self.candidates.iter().map(|c| c.2).fold(f64::INFINITY, f64::min);
            lowest + BAND * node_impurity
        };
        let mut best: Option<Split> = None;
        for &(slot, w, score) in &self.candidates {
            if score > cutoff {
                continue;
            }
            let col = &self.sorted[slot * n..(slot + 1) * n];
            let wi = (w as f64 * impurity(y, rows_of(&col[..w]), Criterion::Variance)
                + (n - w) as f64 * impurity(y, rows_of(&col[w..]), Criterion::Variance))
                / n as f64;
            if best.is_none_or(|(_, _, b)| wi < b) {
                best = Some((features[slot], (col[w].0 + col[w - 1].0) / 2.0, wi));
            }
        }
        best
    }
}

impl Tree {
    fn fit(
        x: &Matrix,
        y: &[f64],
        cfg: &TreeConfig,
        criterion: Criterion,
        seed: u64,
        sample_indices: Option<Vec<usize>>,
    ) -> Tree {
        let indices = sample_indices.unwrap_or_else(|| (0..x.rows()).collect());
        let mut grower = Grower::new(x, y, cfg, criterion, seed);
        grower.grow(indices, 0);
        let Grower { nodes, mut importances, .. } = grower;
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            importances.iter_mut().for_each(|v| *v /= total);
        }
        Tree { nodes, importances }
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut cur = 0usize;
        loop {
            match self.nodes[cur] {
                Node::Leaf { value } => return value,
                Node::Split { feature, threshold, left, right } => {
                    cur = if row[feature] <= threshold { left } else { right };
                }
            }
        }
    }

    fn depth(&self) -> usize {
        fn rec(nodes: &[Node], id: usize) -> usize {
            match nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, left).max(rec(nodes, right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// Extracts every root->leaf path as a human-readable if-then rule —
    /// the paper's interpretability requirement (§II): "can it be
    /// described using simple rules?"
    fn rules(&self, feature_names: &[String]) -> Vec<String> {
        fn name(feature_names: &[String], f: usize) -> String {
            feature_names.get(f).cloned().unwrap_or_else(|| format!("x{f}"))
        }
        fn rec(
            nodes: &[Node],
            feature_names: &[String],
            id: usize,
            conditions: &mut Vec<String>,
            out: &mut Vec<String>,
        ) {
            match &nodes[id] {
                Node::Leaf { value } => {
                    let cond = if conditions.is_empty() {
                        "always".to_string()
                    } else {
                        conditions.join(" and ")
                    };
                    out.push(format!("if {cond} then predict {value:.4}"));
                }
                Node::Split { feature, threshold, left, right } => {
                    conditions.push(format!("{} <= {threshold:.4}", name(feature_names, *feature)));
                    rec(nodes, feature_names, *left, conditions, out);
                    conditions.pop();
                    conditions.push(format!("{} > {threshold:.4}", name(feature_names, *feature)));
                    rec(nodes, feature_names, *right, conditions, out);
                    conditions.pop();
                }
            }
        }
        let mut out = Vec::new();
        if !self.nodes.is_empty() {
            rec(&self.nodes, feature_names, 0, &mut Vec::new(), &mut out);
        }
        out
    }
}

macro_rules! tree_estimator {
    ($name:ident, $display:expr, $criterion:expr, $task:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Clone)]
        pub struct $name {
            cfg: TreeConfig,
            tree: Option<Tree>,
            seed: u64,
        }

        impl $name {
            /// Creates a tree with default growth limits (depth 10).
            pub fn new() -> Self {
                $name { cfg: TreeConfig::default(), tree: None, seed: 0 }
            }

            /// Sets the maximum depth.
            pub fn with_max_depth(mut self, depth: usize) -> Self {
                self.cfg.max_depth = depth;
                self
            }

            /// Sets the minimum samples required to split a node.
            pub fn with_min_samples_split(mut self, n: usize) -> Self {
                self.cfg.min_samples_split = n.max(2);
                self
            }

            /// Sets the minimum samples per leaf.
            pub fn with_min_samples_leaf(mut self, n: usize) -> Self {
                self.cfg.min_samples_leaf = n.max(1);
                self
            }

            pub(crate) fn with_max_features(mut self, k: usize) -> Self {
                self.cfg.max_features = Some(k.max(1));
                self
            }

            pub(crate) fn with_seed(mut self, seed: u64) -> Self {
                self.seed = seed;
                self
            }

            pub(crate) fn fit_on_indices(
                &mut self,
                data: &Dataset,
                indices: Vec<usize>,
            ) -> Result<(), ComponentError> {
                let y = data.target_required()?;
                if data.n_samples() == 0 {
                    return Err(ComponentError::InvalidInput("empty dataset".to_string()));
                }
                self.tree = Some(Tree::fit(
                    data.features(),
                    y,
                    &self.cfg,
                    $criterion,
                    self.seed,
                    Some(indices),
                ));
                Ok(())
            }

            /// Predicts every row of `x`.
            pub(crate) fn predict_x(&self, x: &Matrix) -> Result<Vec<f64>, ComponentError> {
                let tree = self
                    .tree
                    .as_ref()
                    .ok_or_else(|| ComponentError::NotFitted(self.name().to_string()))?;
                Ok(x.iter_rows().map(|r| tree.predict_row(r)).collect())
            }

            /// The fitted tree depth (0 for a single leaf).
            pub fn fitted_depth(&self) -> Option<usize> {
                self.tree.as_ref().map(|t| t.depth())
            }

            /// The fitted tree as human-readable if-then rules (§II:
            /// "can it be described using simple rules?"), one per leaf.
            /// Returns `None` before fitting.
            pub fn rules(&self, feature_names: &[String]) -> Option<Vec<String>> {
                self.tree.as_ref().map(|t| t.rules(feature_names))
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl Estimator for $name {
            fn name(&self) -> &str {
                $display
            }

            fn task(&self) -> TaskKind {
                $task
            }

            fn set_param(&mut self, param: &str, value: ParamValue) -> Result<(), ComponentError> {
                let as_pos = |v: &ParamValue| v.as_usize().filter(|&x| x > 0);
                match param {
                    "max_depth" => {
                        self.cfg.max_depth =
                            as_pos(&value).ok_or_else(|| ComponentError::InvalidParam {
                                component: $display.to_string(),
                                param: param.to_string(),
                                reason: "must be a positive integer".to_string(),
                            })?;
                        Ok(())
                    }
                    "min_samples_split" => {
                        self.cfg.min_samples_split = as_pos(&value)
                            .filter(|&x| x >= 2)
                            .ok_or_else(|| ComponentError::InvalidParam {
                                component: $display.to_string(),
                                param: param.to_string(),
                                reason: "must be an integer >= 2".to_string(),
                            })?;
                        Ok(())
                    }
                    "min_samples_leaf" => {
                        self.cfg.min_samples_leaf =
                            as_pos(&value).ok_or_else(|| ComponentError::InvalidParam {
                                component: $display.to_string(),
                                param: param.to_string(),
                                reason: "must be a positive integer".to_string(),
                            })?;
                        Ok(())
                    }
                    _ => Err(ComponentError::UnknownParam {
                        component: self.name().to_string(),
                        param: param.to_string(),
                    }),
                }
            }

            fn fit(&mut self, data: &Dataset) -> Result<(), ComponentError> {
                let all: Vec<usize> = (0..data.n_samples()).collect();
                self.fit_on_indices(data, all)
            }

            fn predict(&self, data: &Dataset) -> Result<Vec<f64>, ComponentError> {
                self.predict_x(data.features())
            }

            fn feature_importances(&self) -> Option<Vec<f64>> {
                self.tree.as_ref().map(|t| t.importances.clone())
            }

            fn clone_box(&self) -> BoxedEstimator {
                let mut fresh = $name::new();
                fresh.cfg = self.cfg;
                fresh.seed = self.seed;
                Box::new(fresh)
            }
        }
    };
}

tree_estimator!(
    DecisionTreeRegressor,
    "decision_tree_regressor",
    Criterion::Variance,
    TaskKind::Regression,
    "CART regression tree minimizing within-node variance.\n\n\
     # Examples\n\n\
     ```\n\
     use coda_data::{synth, Estimator};\n\
     use coda_ml::DecisionTreeRegressor;\n\
     let ds = synth::friedman1(200, 5, 0.1, 3);\n\
     let mut t = DecisionTreeRegressor::new();\n\
     t.fit(&ds)?;\n\
     assert_eq!(t.predict(&ds)?.len(), 200);\n\
     # Ok::<(), Box<dyn std::error::Error>>(())\n\
     ```"
);

impl DecisionTreeRegressor {
    /// Fits on the rows of `x` against `y` directly, with no [`Dataset`]
    /// around them (gradient boosting fits each stage on its residual).
    pub(crate) fn fit_xy(&mut self, x: &Matrix, y: &[f64]) {
        self.tree = Some(Tree::fit(x, y, &self.cfg, Criterion::Variance, self.seed, None));
    }
}

tree_estimator!(
    DecisionTreeClassifier,
    "decision_tree_classifier",
    Criterion::Gini,
    TaskKind::Classification,
    "CART classification tree minimizing Gini impurity."
);

#[cfg(test)]
mod tests {
    use super::*;
    use coda_data::{metrics, synth};
    use proptest::prelude::*;

    /// The split search as it was before the sorted single-pass scan: for
    /// every candidate threshold it collects both sides' rows and recomputes
    /// their impurity from scratch. Kept as the oracle the fast search must
    /// reproduce bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn oracle_grow(
        x: &Matrix,
        y: &[f64],
        indices: Vec<usize>,
        depth: usize,
        cfg: &TreeConfig,
        criterion: Criterion,
        nodes: &mut Vec<Node>,
        importances: &mut [f64],
        rng: &mut SplitRng,
    ) -> usize {
        let node_impurity = impurity(y, indices.iter().copied(), criterion);
        let make_leaf = |nodes: &mut Vec<Node>| {
            let id = nodes.len();
            nodes.push(Node::Leaf { value: leaf_value(y, &indices, criterion) });
            id
        };
        if depth >= cfg.max_depth || indices.len() < cfg.min_samples_split || node_impurity <= 1e-12
        {
            return make_leaf(nodes);
        }
        let d = x.cols();
        let features: Vec<usize> = match cfg.max_features {
            Some(k) if k < d => {
                let mut all: Vec<usize> = (0..d).collect();
                for i in 0..k {
                    let j = i + rng.gen_range(d - i);
                    all.swap(i, j);
                }
                all.truncate(k);
                all
            }
            _ => (0..d).collect(),
        };
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &features {
            let mut vals: Vec<(f64, usize)> = indices.iter().map(|&i| (x[(i, f)], i)).collect();
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            for w in 1..vals.len() {
                if vals[w].0 == vals[w - 1].0 {
                    continue;
                }
                let n_left = w;
                let n_right = vals.len() - w;
                if n_left < cfg.min_samples_leaf || n_right < cfg.min_samples_leaf {
                    continue;
                }
                let left_idx: Vec<usize> = vals[..w].iter().map(|&(_, i)| i).collect();
                let right_idx: Vec<usize> = vals[w..].iter().map(|&(_, i)| i).collect();
                let wi = (n_left as f64 * impurity(y, left_idx.iter().copied(), criterion)
                    + n_right as f64 * impurity(y, right_idx.iter().copied(), criterion))
                    / vals.len() as f64;
                if best.as_ref().is_none_or(|&(_, _, b)| wi < b) {
                    let threshold = (vals[w].0 + vals[w - 1].0) / 2.0;
                    best = Some((f, threshold, wi));
                }
            }
        }
        let Some((feature, threshold, wi)) = best else {
            return make_leaf(nodes);
        };
        if node_impurity - wi <= 1e-12 {
            return make_leaf(nodes);
        }
        importances[feature] += (node_impurity - wi) * indices.len() as f64;
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| x[(i, feature)] <= threshold);
        let id = nodes.len();
        nodes.push(Node::Leaf { value: 0.0 });
        let left = oracle_grow(x, y, left_idx, depth + 1, cfg, criterion, nodes, importances, rng);
        let right =
            oracle_grow(x, y, right_idx, depth + 1, cfg, criterion, nodes, importances, rng);
        nodes[id] = Node::Split { feature, threshold, left, right };
        id
    }

    /// [`Tree::fit`] over the oracle scan.
    fn oracle_fit(
        x: &Matrix,
        y: &[f64],
        cfg: &TreeConfig,
        criterion: Criterion,
        seed: u64,
        sample_indices: Option<Vec<usize>>,
    ) -> Tree {
        let indices = sample_indices.unwrap_or_else(|| (0..x.rows()).collect());
        let mut nodes = Vec::new();
        let mut importances = vec![0.0; x.cols()];
        let mut rng = SplitRng::new(seed);
        oracle_grow(x, y, indices, 0, cfg, criterion, &mut nodes, &mut importances, &mut rng);
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            importances.iter_mut().for_each(|v| *v /= total);
        }
        Tree { nodes, importances }
    }

    /// Both trees have the same nodes, thresholds, leaf values and
    /// importances, compared by their bits.
    fn same_tree(fast: &Tree, oracle: &Tree) -> Result<(), String> {
        if fast.nodes.len() != oracle.nodes.len() {
            return Err(format!("{} nodes, oracle {}", fast.nodes.len(), oracle.nodes.len()));
        }
        for (id, (a, b)) in fast.nodes.iter().zip(&oracle.nodes).enumerate() {
            let same = match (a, b) {
                (Node::Leaf { value: va }, Node::Leaf { value: vb }) => {
                    va.to_bits() == vb.to_bits()
                }
                (
                    Node::Split { feature: fa, threshold: ta, left: la, right: ra },
                    Node::Split { feature: fb, threshold: tb, left: lb, right: rb },
                ) => fa == fb && ta.to_bits() == tb.to_bits() && la == lb && ra == rb,
                _ => false,
            };
            if !same {
                return Err(format!("node {id}: {a:?}, oracle {b:?}"));
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(&fast.importances) != bits(&oracle.importances) {
            return Err(format!(
                "importances {:?}, oracle {:?}",
                fast.importances, oracle.importances
            ));
        }
        Ok(())
    }

    /// The shape of the target in a split-equivalence case.
    #[derive(Debug, Clone, Copy)]
    enum Target {
        /// A smooth function of the features plus noise.
        Smooth,
        /// The same, offset by 1e8.
        Offset,
        /// Three levels: long constant runs.
        Levels,
        /// Smooth, with one NaN.
        WithNan,
        /// A class label out of `n`, mostly set by the first feature.
        Classes(usize),
    }

    /// One seeded split-equivalence case.
    #[derive(Debug, Clone)]
    struct Case {
        seed: u64,
        n: usize,
        d: usize,
        /// Distinct values per feature column; 0 draws continuous values.
        levels: u64,
        /// The last column repeats the first, so features tie.
        twin: bool,
        target: Target,
        /// Fit on a bootstrap sample: rows drawn with replacement.
        bootstrap: bool,
        cfg: TreeConfig,
    }

    impl Case {
        fn data(&self) -> (Matrix, Vec<f64>, Option<Vec<usize>>) {
            let mut rng = SplitRng::new(self.seed);
            let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let mut x = Matrix::zeros(self.n, self.d);
            for r in 0..self.n {
                for c in 0..self.d {
                    x[(r, c)] = match self.levels {
                        0 => unit() * 4.0 - 2.0,
                        k => (unit() * k as f64).floor(),
                    };
                }
                if self.twin && self.d > 1 {
                    x[(r, self.d - 1)] = x[(r, 0)];
                }
            }
            let nan_row = (unit() * self.n as f64) as usize;
            let y = (0..self.n)
                .map(|r| {
                    let row = x.row(r);
                    let smooth = 3.0 * row[0] + row[self.d - 1].powi(2) + unit();
                    match self.target {
                        Target::Smooth => smooth,
                        Target::Offset => smooth + 1e8,
                        Target::Levels => (unit() * 3.0).floor(),
                        Target::WithNan if r == nan_row => f64::NAN,
                        Target::WithNan => smooth,
                        Target::Classes(k) => {
                            let noisy = (row[0] + 2.0) * k as f64 / 4.0 + unit() - 0.5;
                            (noisy.floor().max(0.0) as usize).min(k - 1) as f64
                        }
                    }
                })
                .collect();
            let rows = self.bootstrap.then(|| {
                (0..self.n).map(|_| ((unit() * self.n as f64) as usize).min(self.n - 1)).collect()
            });
            (x, y, rows)
        }

        fn check(&self) -> Result<(), String> {
            let (x, y, rows) = self.data();
            let criterion = match self.target {
                Target::Classes(_) => Criterion::Gini,
                _ => Criterion::Variance,
            };
            let fast = Tree::fit(&x, &y, &self.cfg, criterion, self.seed, rows.clone());
            let oracle = oracle_fit(&x, &y, &self.cfg, criterion, self.seed, rows);
            same_tree(&fast, &oracle)
        }
    }

    impl Case {
        /// Draws every dimension of a case from `seed`.
        fn draw(seed: u64) -> Case {
            let mut rng = SplitRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
            let mut pick = |n: usize| rng.gen_range(n);
            let targets = [
                Target::Smooth,
                Target::Offset,
                Target::Levels,
                Target::WithNan,
                Target::Classes(2),
                Target::Classes(5),
            ];
            let d = 1 + pick(5);
            let cfg = TreeConfig {
                max_depth: 1 + pick(12),
                min_samples_split: 2 + pick(4),
                min_samples_leaf: 1 + pick(4),
                max_features: (pick(2) == 1).then(|| 1 + pick(d)),
            };
            Case {
                seed,
                n: 2 + pick(88),
                d,
                levels: [0, 0, 2, 3, 5][pick(5)],
                twin: pick(3) == 0,
                target: targets[pick(targets.len())],
                bootstrap: pick(2) == 1,
                cfg,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

        /// The sorted single-pass search grows the tree the exact scan grows,
        /// for both criteria, down to the bits of every threshold, leaf value
        /// and importance.
        #[test]
        fn split_search_matches_the_exact_scan(seed in any::<u64>()) {
            let case = Case::draw(seed);
            let outcome = case.check();
            prop_assert!(outcome.is_ok(), "{:?}: {:?}", case, outcome);
        }
    }

    #[test]
    fn split_search_matches_the_exact_scan_at_benchmark_size() {
        // friedman1 at teg-tabular's fold size, as a tree, a forest tree and
        // offset by 1e8
        let ds = synth::friedman1(600, 8, 0.8, 1);
        let x = ds.features();
        let y = ds.target().unwrap().to_vec();
        let offset: Vec<f64> = y.iter().map(|v| v + 1e8).collect();
        let forest = TreeConfig { max_depth: 12, max_features: Some(3), ..TreeConfig::default() };
        let bootstrap: Vec<usize> = (0..600).map(|i| (i * 7919 + 13) % 600).collect();
        for (cfg, y, rows) in [
            (TreeConfig::default(), &y, None),
            (forest, &y, Some(bootstrap)),
            (TreeConfig::default(), &offset, None),
        ] {
            let fast = Tree::fit(x, y, &cfg, Criterion::Variance, 7, rows.clone());
            let oracle = oracle_fit(x, y, &cfg, Criterion::Variance, 7, rows);
            assert_eq!(same_tree(&fast, &oracle), Ok(()));
        }
        let blobs = synth::classification_blobs(600, 4, 5, 1.5, 2);
        let labels = blobs.target().unwrap();
        let fast = Tree::fit(blobs.features(), labels, &forest, Criterion::Gini, 3, None);
        let oracle = oracle_fit(blobs.features(), labels, &forest, Criterion::Gini, 3, None);
        assert_eq!(same_tree(&fast, &oracle), Ok(()));
    }

    #[test]
    fn regressor_fits_training_data_deeply() {
        let ds = synth::friedman1(150, 5, 0.0, 21);
        let mut t = DecisionTreeRegressor::new().with_max_depth(20);
        t.fit(&ds).unwrap();
        let pred = t.predict(&ds).unwrap();
        // noiseless + unlimited depth => near-perfect memorization
        assert!(metrics::r2(ds.target().unwrap(), &pred).unwrap() > 0.99);
    }

    #[test]
    fn regressor_generalizes_nonlinear() {
        let ds = synth::friedman1(600, 5, 0.5, 22);
        let (train, test) = ds.train_test_split(0.25, 3);
        let mut t = DecisionTreeRegressor::new().with_max_depth(8);
        t.fit(&train).unwrap();
        let pred = t.predict(&test).unwrap();
        assert!(metrics::r2(test.target().unwrap(), &pred).unwrap() > 0.6);
    }

    #[test]
    fn depth_limit_respected() {
        let ds = synth::friedman1(300, 5, 0.1, 23);
        let mut t = DecisionTreeRegressor::new().with_max_depth(3);
        t.fit(&ds).unwrap();
        assert!(t.fitted_depth().unwrap() <= 3);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let ds = synth::friedman1(100, 5, 0.1, 24);
        let mut deep = DecisionTreeRegressor::new().with_max_depth(20);
        let mut stumpy = DecisionTreeRegressor::new().with_max_depth(20).with_min_samples_leaf(25);
        deep.fit(&ds).unwrap();
        stumpy.fit(&ds).unwrap();
        assert!(stumpy.fitted_depth().unwrap() < deep.fitted_depth().unwrap());
    }

    #[test]
    fn classifier_separates_blobs() {
        let ds = synth::classification_blobs(300, 2, 3, 0.4, 25);
        let (train, test) = ds.train_test_split(0.3, 4);
        let mut t = DecisionTreeClassifier::new();
        t.fit(&train).unwrap();
        let pred = t.predict(&test).unwrap();
        assert!(metrics::accuracy(test.target().unwrap(), &pred).unwrap() > 0.9);
        // predictions are valid class labels
        for p in pred {
            assert!([0.0, 1.0, 2.0].contains(&p));
        }
    }

    #[test]
    fn pure_node_becomes_leaf() {
        // constant target -> tree is a single leaf predicting that constant
        let ds = synth::linear_regression(50, 2, 0.0, 26);
        let y = vec![7.0; 50];
        let ds = ds.replace_features(ds.features().clone());
        let ds = coda_data::Dataset::new(ds.features().clone()).with_target(y).unwrap();
        let mut t = DecisionTreeRegressor::new();
        t.fit(&ds).unwrap();
        assert_eq!(t.fitted_depth().unwrap(), 0);
        assert!(t.predict(&ds).unwrap().iter().all(|&p| p == 7.0));
    }

    #[test]
    fn importances_identify_relevant_feature() {
        // y depends only on feature 1
        let base = synth::linear_regression(200, 3, 0.0, 27);
        let y: Vec<f64> = base.features().col(1).iter().map(|v| 5.0 * v).collect();
        let ds = coda_data::Dataset::new(base.features().clone()).with_target(y).unwrap();
        let mut t = DecisionTreeRegressor::new();
        t.fit(&ds).unwrap();
        let imp = t.feature_importances().unwrap();
        assert!(imp[1] > 0.9, "importances: {imp:?}");
    }

    #[test]
    fn params_and_errors() {
        let mut t = DecisionTreeRegressor::new();
        t.set_param("max_depth", ParamValue::from(5usize)).unwrap();
        t.set_param("min_samples_split", ParamValue::from(4usize)).unwrap();
        t.set_param("min_samples_leaf", ParamValue::from(2usize)).unwrap();
        assert!(t.set_param("min_samples_split", ParamValue::from(1usize)).is_err());
        assert!(t.set_param("nope", ParamValue::from(1usize)).is_err());
        let ds = synth::friedman1(50, 5, 0.1, 28);
        assert!(DecisionTreeRegressor::new().predict(&ds).is_err());
    }

    #[test]
    fn rules_describe_the_fitted_tree() {
        // y = 1 when x0 > 0: a depth-1 tree with two clean rules
        let mut x = coda_linalg::Matrix::zeros(100, 2);
        let mut y = Vec::with_capacity(100);
        for r in 0..100 {
            let v = (r as f64 / 50.0) - 1.0 + 0.005; // avoid exactly 0
            x[(r, 0)] = v;
            x[(r, 1)] = (r % 7) as f64;
            y.push(if v > 0.0 { 1.0 } else { 0.0 });
        }
        let ds = coda_data::Dataset::new(x)
            .with_target(y)
            .unwrap()
            .with_feature_names(vec!["pressure", "noise"])
            .unwrap();
        let mut t = DecisionTreeClassifier::new();
        assert!(t.rules(&[]).is_none()); // unfitted
        t.fit(&ds).unwrap();
        let rules = t.rules(ds.feature_names()).unwrap();
        assert_eq!(rules.len(), 2, "two leaves: {rules:?}");
        assert!(rules.iter().any(|r| r.contains("pressure <=") && r.ends_with("0.0000")));
        assert!(rules.iter().any(|r| r.contains("pressure >") && r.ends_with("1.0000")));
        assert!(rules.iter().all(|r| !r.contains("noise")), "irrelevant feature unused");
    }

    #[test]
    fn rules_count_equals_leaf_count() {
        let ds = synth::friedman1(150, 5, 0.3, 29);
        let mut t = DecisionTreeRegressor::new().with_max_depth(3);
        t.fit(&ds).unwrap();
        let rules = t.rules(ds.feature_names()).unwrap();
        assert!(!rules.is_empty());
        assert!(rules.len() <= 8, "depth 3 -> at most 8 leaves");
        assert!(rules.iter().all(|r| r.starts_with("if ") && r.contains(" then predict ")));
    }

    #[test]
    fn classifier_ties_break_deterministically() {
        // two samples, two classes, no split possible with min_samples_leaf
        let x = coda_linalg::Matrix::from_rows(&[&[1.0], &[1.0]]);
        let ds = coda_data::Dataset::new(x).with_target(vec![0.0, 1.0]).unwrap();
        let mut t = DecisionTreeClassifier::new();
        t.fit(&ds).unwrap();
        let pred = t.predict(&ds).unwrap();
        assert_eq!(pred[0], pred[1]); // single leaf
        assert_eq!(pred[0], 0.0); // tie -> smaller label
    }
}
