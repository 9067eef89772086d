//! Pipelines: one root→leaf path of a Transformer-Estimator Graph, with the
//! training/prediction semantics of Fig. 5.
//!
//! During `fit`, internal (Transform) nodes run **fit & transform** —
//! refreshing the data for subsequent modelling — and the final (Estimate)
//! node runs **fit**. During `predict`, internal nodes run **transform**
//! only and the final node runs **predict**.

use std::fmt;

use coda_data::traits::split_param_key;
use coda_data::{ComponentError, Dataset, ParamValue, Params, TaskKind};

use crate::node::{Component, Node};

/// A runnable chain of named components ending in an estimator.
#[derive(Debug, Clone)]
pub struct Pipeline {
    nodes: Vec<Node>,
    fitted: bool,
}

impl Pipeline {
    /// Builds a pipeline from nodes. The node sequence is validated lazily:
    /// [`Pipeline::fit`] fails if the last node is not an estimator or an
    /// internal node is.
    pub fn from_nodes(nodes: Vec<Node>) -> Self {
        Pipeline { nodes, fitted: false }
    }

    /// The pipeline's nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node names in order.
    pub fn node_names(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| n.name()).collect()
    }

    /// True after a successful [`Pipeline::fit`].
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// The task kind of the final estimator, if the pipeline is well-formed.
    pub fn task(&self) -> Option<TaskKind> {
        match self.nodes.last().map(|n| n.component()) {
            Some(Component::Estimate(e)) => Some(e.task()),
            _ => None,
        }
    }

    /// A fresh unfitted clone (used per cross-validation fold).
    pub fn fresh_clone(&self) -> Pipeline {
        Pipeline { nodes: self.nodes.clone(), fitted: false }
    }

    /// Applies qualified parameters (`node__param`) to the matching nodes.
    /// Unqualified keys are rejected; unknown node names are errors.
    ///
    /// # Errors
    ///
    /// [`ComponentError::UnknownParam`] for unqualified or unmatched keys,
    /// and any error the target component raises.
    pub fn apply_params(&mut self, params: &Params) -> Result<(), ComponentError> {
        for (key, value) in params {
            let Some((node_name, param)) = split_param_key(key) else {
                return Err(ComponentError::UnknownParam {
                    component: "pipeline".to_string(),
                    param: key.clone(),
                });
            };
            let node = self.nodes.iter_mut().find(|n| n.name() == node_name).ok_or_else(|| {
                ComponentError::UnknownParam {
                    component: "pipeline".to_string(),
                    param: key.clone(),
                }
            })?;
            node.component_mut().set_param(param, value.clone())?;
        }
        Ok(())
    }

    /// Like [`Pipeline::apply_params`] but silently skips parameters whose
    /// node is not on this path — the right behaviour when one grid is
    /// shared by every path of a graph.
    ///
    /// # Errors
    ///
    /// Any error the target component raises for a *matched* key.
    pub fn apply_matching_params(&mut self, params: &Params) -> Result<(), ComponentError> {
        for (key, value) in params {
            if let Some((node_name, param)) = split_param_key(key) {
                if let Some(node) = self.nodes.iter_mut().find(|n| n.name() == node_name) {
                    node.component_mut().set_param(param, value.clone())?;
                }
            }
        }
        Ok(())
    }

    /// Trains the pipeline: internal nodes `fit_transform`, final node `fit`
    /// (the training operation of Fig. 5).
    ///
    /// # Errors
    ///
    /// [`ComponentError::InvalidInput`] for a malformed pipeline, plus any
    /// component error.
    pub fn fit(&mut self, data: &Dataset) -> Result<(), ComponentError> {
        if self.nodes.is_empty() {
            return Err(ComponentError::InvalidInput("empty pipeline".to_string()));
        }
        let last = self.nodes.len() - 1;
        let mut cur = data.clone();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            match node.component_mut() {
                Component::Transform(t) => {
                    if i == last {
                        return Err(ComponentError::InvalidInput(format!(
                            "pipeline ends in transformer {}",
                            t.name()
                        )));
                    }
                    cur = t.fit_transform(&cur)?;
                }
                Component::Estimate(e) => {
                    if i != last {
                        return Err(ComponentError::InvalidInput(format!(
                            "estimator {} is not the final node",
                            e.name()
                        )));
                    }
                    e.fit(&cur)?;
                }
            }
        }
        self.fitted = true;
        Ok(())
    }

    /// Predicts for new data: internal nodes `transform`, final node
    /// `predict` (the prediction operation of Fig. 5).
    ///
    /// # Errors
    ///
    /// [`ComponentError::NotFitted`] before fitting, plus any component
    /// error.
    pub fn predict(&self, data: &Dataset) -> Result<Vec<f64>, ComponentError> {
        self.predict_transformed(&self.transform_only(data)?)
    }

    /// Runs only the final estimator's `predict` on the output of
    /// [`Pipeline::transform_only`]: `predict(d)` equals
    /// `predict_transformed(&transform_only(d)?)`.
    ///
    /// # Errors
    ///
    /// [`ComponentError::NotFitted`] before fitting, plus any estimator
    /// error.
    pub fn predict_transformed(&self, transformed: &Dataset) -> Result<Vec<f64>, ComponentError> {
        if !self.fitted {
            return Err(ComponentError::NotFitted("pipeline".to_string()));
        }
        match self.nodes.last().map(Node::component) {
            Some(Component::Estimate(e)) => e.predict(transformed),
            _ => Err(ComponentError::InvalidInput("pipeline has no estimator".to_string())),
        }
    }

    /// Applies only the internal (Transform) nodes to `data`, returning the
    /// transformed dataset — including any target the transformers derive.
    /// Evaluation scores predictions against this target: windowing
    /// transformers attach the per-window ground truth.
    ///
    /// # Errors
    ///
    /// [`ComponentError::NotFitted`] before fitting, plus any component
    /// error.
    pub fn transform_only(&self, data: &Dataset) -> Result<Dataset, ComponentError> {
        if !self.fitted {
            return Err(ComponentError::NotFitted("pipeline".to_string()));
        }
        let mut cur = data.clone();
        for node in &self.nodes {
            if let Component::Transform(t) = node.component() {
                cur = t.transform(&cur)?;
            }
        }
        Ok(cur)
    }

    /// Convenience: fit on `train`, predict `test`.
    ///
    /// # Errors
    ///
    /// As for [`Pipeline::fit`] and [`Pipeline::predict`].
    pub fn fit_predict(
        &mut self,
        train: &Dataset,
        test: &Dataset,
    ) -> Result<Vec<f64>, ComponentError> {
        self.fit(train)?;
        self.predict(test)
    }

    /// Feature importances of the final estimator, if available.
    pub fn feature_importances(&self) -> Option<Vec<f64>> {
        match self.nodes.last().map(|n| n.component()) {
            Some(Component::Estimate(e)) => e.feature_importances(),
            _ => None,
        }
    }

    /// The canonical spec of this pipeline (node names + applied params) —
    /// the identity used by the DARR to detect redundant computations.
    pub fn spec(&self) -> PipelineSpec {
        PipelineSpec {
            steps: self.nodes.iter().map(|n| n.name().to_string()).collect(),
            params: std::collections::BTreeMap::new(),
        }
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.node_names().join(" -> "))
    }
}

/// A canonical, serializable pipeline description: ordered step names plus
/// parameter assignments. Two equal specs denote the same computation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PipelineSpec {
    /// Ordered node names.
    pub steps: Vec<String>,
    /// Qualified parameter assignments rendered to strings (canonical form).
    pub params: std::collections::BTreeMap<String, String>,
}

serde::impl_serde_struct!(PipelineSpec { steps, params });

impl PipelineSpec {
    /// Creates a spec from step names.
    pub fn new<S: Into<String>>(steps: Vec<S>) -> Self {
        PipelineSpec {
            steps: steps.into_iter().map(Into::into).collect(),
            params: std::collections::BTreeMap::new(),
        }
    }

    /// Attaches parameters (rendered canonically).
    pub fn with_params(mut self, params: &Params) -> Self {
        self.params = params.iter().map(|(k, v)| (k.clone(), render_param(v))).collect();
        self
    }

    /// A stable text key for hashing/indexing.
    pub fn key(&self) -> String {
        let mut s = self.steps.join(">");
        for (k, v) in &self.params {
            s.push_str(&format!(";{k}={v}"));
        }
        s
    }

    /// The canonical cache key of a transformer prefix: the prefix's step
    /// names plus `params` restricted to those steps, rendered through
    /// [`PipelineSpec::key`]. Within one graph, node names uniquely
    /// identify node instances, so this key is canonical for one
    /// evaluation; it is *not* meaningful across different graphs.
    pub fn prefix_key(steps: &[String], params: &Params) -> String {
        let names: std::collections::BTreeSet<&str> = steps.iter().map(String::as_str).collect();
        PipelineSpec::new(steps.to_vec())
            .with_params(&crate::grid::restrict_params(params, &names))
            .key()
    }
}

fn render_param(v: &ParamValue) -> String {
    match v {
        ParamValue::F64(x) => format!("f{x:?}"),
        ParamValue::I64(x) => format!("i{x}"),
        ParamValue::Bool(x) => format!("b{x}"),
        ParamValue::Str(x) => format!("s{x}"),
    }
}

impl fmt::Display for PipelineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! An instrumented transformer that records its operation sequence —
    //! used to verify the Fig. 5 fit/predict semantics.

    use coda_data::{BoxedTransformer, ComponentError, Dataset, Transformer};
    use std::sync::{Arc, Mutex};

    /// Shared call log.
    pub type CallLog = Arc<Mutex<Vec<String>>>;

    #[derive(Debug, Clone)]
    pub struct Probe {
        pub label: String,
        pub log: CallLog,
        fitted: bool,
    }

    impl Probe {
        pub fn new(label: &str, log: CallLog) -> Self {
            Probe { label: label.to_string(), log, fitted: false }
        }
    }

    impl Transformer for Probe {
        fn name(&self) -> &str {
            &self.label
        }

        fn fit(&mut self, _data: &Dataset) -> Result<(), ComponentError> {
            self.log.lock().unwrap().push(format!("{}.fit", self.label));
            self.fitted = true;
            Ok(())
        }

        fn transform(&self, data: &Dataset) -> Result<Dataset, ComponentError> {
            if !self.fitted {
                return Err(ComponentError::NotFitted(self.label.clone()));
            }
            self.log.lock().unwrap().push(format!("{}.transform", self.label));
            Ok(data.clone())
        }

        fn clone_box(&self) -> BoxedTransformer {
            Box::new(Probe { label: self.label.clone(), log: self.log.clone(), fitted: false })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{CallLog, Probe};
    use super::*;
    use coda_data::{synth, BoxedEstimator, BoxedTransformer, NoOp};
    use coda_ml::{LinearRegression, StandardScaler};
    use std::sync::{Arc, Mutex};

    fn simple_pipeline() -> Pipeline {
        Pipeline::from_nodes(vec![
            Node::auto((Box::new(StandardScaler::new()) as BoxedTransformer).into()),
            Node::auto((Box::new(LinearRegression::new()) as BoxedEstimator).into()),
        ])
    }

    #[test]
    fn prefix_key_restricts_params_to_prefix_steps() {
        let steps = vec!["scaler".to_string(), "pca".to_string()];
        let mut params = Params::new();
        params.insert("pca__n_components".to_string(), ParamValue::from(3usize));
        params.insert("knn__k".to_string(), ParamValue::from(5usize));
        let key = PipelineSpec::prefix_key(&steps, &params);
        assert!(key.starts_with("scaler>pca"));
        assert!(key.contains("pca__n_components"), "prefix params are part of the key");
        assert!(!key.contains("knn__k"), "downstream params must not leak into the key");
        // a param change downstream of the prefix leaves the key unchanged
        params.insert("knn__k".to_string(), ParamValue::from(9usize));
        assert_eq!(key, PipelineSpec::prefix_key(&steps, &params));
        // a param change inside the prefix changes the key
        params.insert("pca__n_components".to_string(), ParamValue::from(4usize));
        assert_ne!(key, PipelineSpec::prefix_key(&steps, &params));
    }

    #[test]
    fn fit_then_predict_works() {
        let ds = synth::linear_regression(100, 3, 0.05, 91);
        let mut p = simple_pipeline();
        assert!(!p.is_fitted());
        p.fit(&ds).unwrap();
        assert!(p.is_fitted());
        let pred = p.predict(&ds).unwrap();
        let r2 = coda_data::metrics::r2(ds.target().unwrap(), &pred).unwrap();
        assert!(r2 > 0.95);
        assert_eq!(p.task(), Some(TaskKind::Regression));
    }

    #[test]
    fn predict_before_fit_errors() {
        let ds = synth::linear_regression(10, 2, 0.1, 92);
        let p = simple_pipeline();
        assert!(matches!(p.predict(&ds), Err(ComponentError::NotFitted(_))));
    }

    #[test]
    fn fig5_operation_sequence() {
        // Training: internal nodes fit then transform; final node fit.
        // Prediction: internal nodes transform only.
        let log: CallLog = Arc::new(Mutex::new(Vec::new()));
        let ds = synth::linear_regression(30, 2, 0.1, 93);
        let mut p = Pipeline::from_nodes(vec![
            Node::auto((Box::new(Probe::new("a", log.clone())) as BoxedTransformer).into()),
            Node::auto((Box::new(Probe::new("b", log.clone())) as BoxedTransformer).into()),
            Node::auto((Box::new(LinearRegression::new()) as BoxedEstimator).into()),
        ]);
        p.fit(&ds).unwrap();
        p.predict(&ds).unwrap();
        let calls = log.lock().unwrap().clone();
        assert_eq!(
            calls,
            vec!["a.fit", "a.transform", "b.fit", "b.transform", "a.transform", "b.transform"]
        );
    }

    #[test]
    fn malformed_pipelines_rejected_at_fit() {
        let ds = synth::linear_regression(20, 2, 0.1, 94);
        // ends in transformer
        let mut p = Pipeline::from_nodes(vec![Node::auto(
            (Box::new(NoOp::new()) as BoxedTransformer).into(),
        )]);
        assert!(p.fit(&ds).is_err());
        // estimator mid-path
        let mut p = Pipeline::from_nodes(vec![
            Node::auto((Box::new(LinearRegression::new()) as BoxedEstimator).into()),
            Node::auto((Box::new(LinearRegression::new()) as BoxedEstimator).into()),
        ]);
        assert!(p.fit(&ds).is_err());
        // empty
        let mut p = Pipeline::from_nodes(vec![]);
        assert!(p.fit(&ds).is_err());
    }

    #[test]
    fn apply_params_qualified_names() {
        let mut p = Pipeline::from_nodes(vec![
            Node::auto((Box::new(coda_ml::Pca::new(1)) as BoxedTransformer).into()),
            Node::auto((Box::new(LinearRegression::new()) as BoxedEstimator).into()),
        ]);
        let mut params = Params::new();
        params.insert("pca__n_components".to_string(), ParamValue::from(2usize));
        p.apply_params(&params).unwrap();
        // unqualified key rejected
        let mut bad = Params::new();
        bad.insert("n_components".to_string(), ParamValue::from(2usize));
        assert!(p.apply_params(&bad).is_err());
        // unknown node rejected
        let mut bad2 = Params::new();
        bad2.insert("nope__k".to_string(), ParamValue::from(2usize));
        assert!(p.apply_params(&bad2).is_err());
        // but tolerated by apply_matching_params
        p.apply_matching_params(&bad2).unwrap();
    }

    #[test]
    fn fresh_clone_is_unfitted() {
        let ds = synth::linear_regression(50, 2, 0.1, 95);
        let mut p = simple_pipeline();
        p.fit(&ds).unwrap();
        let clone = p.fresh_clone();
        assert!(!clone.is_fitted());
        assert!(clone.predict(&ds).is_err());
    }

    #[test]
    fn spec_key_stable_and_param_sensitive() {
        let p = simple_pipeline();
        let spec = p.spec();
        assert_eq!(spec.steps, vec!["standard_scaler", "linear_regression"]);
        let mut params = Params::new();
        params.insert("pca__n_components".to_string(), ParamValue::from(3usize));
        let with = PipelineSpec::new(vec!["a", "b"]).with_params(&params);
        let without = PipelineSpec::new(vec!["a", "b"]);
        assert_ne!(with.key(), without.key());
        assert_eq!(with.key(), with.clone().key());
        // float and int renderings are distinct
        let mut pf = Params::new();
        pf.insert("a__x".to_string(), ParamValue::from(3.0));
        let mut pi = Params::new();
        pi.insert("a__x".to_string(), ParamValue::from(3i64));
        assert_ne!(
            PipelineSpec::new(vec!["a"]).with_params(&pf).key(),
            PipelineSpec::new(vec!["a"]).with_params(&pi).key()
        );
    }

    #[test]
    fn display_formats() {
        let p = simple_pipeline();
        assert_eq!(p.to_string(), "standard_scaler -> linear_regression");
        assert!(p.spec().to_string().contains("standard_scaler"));
    }

    #[test]
    fn importances_pass_through() {
        let ds = synth::linear_regression(60, 3, 0.05, 96);
        let mut p = simple_pipeline();
        p.fit(&ds).unwrap();
        assert_eq!(p.feature_importances().unwrap().len(), 3);
    }
}
