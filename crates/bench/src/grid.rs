//! The experiment grid runner: dataset × method × batch-size × seed cells
//! executed in parallel with rayon.

use crate::methods::{make_selector, Method};
use crate::prep::{default_pipeline_config, PreparedDataset};
use chef_core::{AnnotationConfig, Pipeline, PipelineConfig, PipelineReport, Telemetry};
use chef_model::{LogisticRegression, Mlp, Model, WeightedObjective};
use rayon::prelude::*;

/// One cell of an experiment grid.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Dataset name (for reporting).
    pub dataset: String,
    /// Method column.
    pub method: Method,
    /// Per-round batch `b`.
    pub b: usize,
    /// Total budget `B`.
    pub budget: usize,
    /// γ on uncleaned samples.
    pub gamma: f64,
    /// Seed of this repetition.
    pub seed: u64,
    /// Use the MLP (Appendix G.2) instead of logistic regression.
    pub neural: bool,
}

/// The measured outcome of a cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell it belongs to.
    pub cell: Cell,
    /// Test F1 of the uncleaned model.
    pub uncleaned_f1: f64,
    /// Test F1 after cleaning.
    pub cleaned_f1: f64,
    /// Full pipeline report (timings, rounds).
    pub report: PipelineReport,
    /// Exported telemetry.v1 document for this cell.
    pub telemetry_json: String,
}

/// Build the pipeline configuration of a cell.
pub fn cell_config(prepared: &PreparedDataset, cell: &Cell) -> PipelineConfig {
    let mut cfg = default_pipeline_config(prepared.split.train.len(), cell.seed);
    cfg.budget = cell.budget;
    cfg.round_size = cell.b;
    cfg.objective = WeightedObjective::new(cell.gamma, cfg.objective.l2);
    cfg.constructor = cell.method.constructor();
    cfg.annotation = AnnotationConfig {
        strategy: cell.method.strategy(),
        // Expert-grade annotators for the medical datasets, raw crowd
        // workers for the crowdsourced ones (see DatasetSpec docs).
        error_rate: prepared.spec.annotator_error,
        seed: cell.seed ^ 0x77,
    };
    if cell.neural {
        // Non-convex path: gentler steps. Cold restarts keep every round
        // comparable; warm starts were tried and accumulate
        // noise-memorization round over round on the random-label
        // datasets (F1 collapse), so every retrain starts cold.
        cfg.sgd.lr = 0.05;
        cfg.sgd.epochs = 20;
    }
    cfg
}

/// Run one cell on an already-prepared dataset.
///
/// Every cell runs with its own enabled [`Telemetry`] handle (cells run
/// concurrently, so a shared registry would interleave rounds), and the
/// exported document rides along on the result.
pub fn run_cell(prepared: &PreparedDataset, cell: &Cell) -> CellResult {
    let mut cfg = cell_config(prepared, cell);
    let telemetry = Telemetry::enabled();
    cfg.telemetry = telemetry.clone();
    let pipeline = Pipeline::new(cfg);
    let mut selector = make_selector(cell.method, cell.seed, cell.neural);
    let report = if cell.neural {
        let model = Mlp::new(
            prepared.split.train.dim(),
            16,
            prepared.split.train.num_classes(),
        );
        run_with_model(&model, &pipeline, prepared, selector.as_mut())
    } else {
        let model = LogisticRegression::new(
            prepared.split.train.dim(),
            prepared.split.train.num_classes(),
        );
        run_with_model(&model, &pipeline, prepared, selector.as_mut())
    };
    CellResult {
        cell: cell.clone(),
        uncleaned_f1: report.initial_test_f1,
        cleaned_f1: report.final_test_f1(),
        report,
        telemetry_json: telemetry
            .export_json("bench.cell")
            .expect("enabled telemetry exports"),
    }
}

fn run_with_model(
    model: &dyn Model,
    pipeline: &Pipeline,
    prepared: &PreparedDataset,
    selector: &mut dyn chef_core::SampleSelector,
) -> PipelineReport {
    pipeline.run(
        model,
        prepared.split.train.clone(),
        &prepared.split.val,
        &prepared.split.test,
        selector,
    )
}

/// Run many cells in parallel. `prepare` maps `(dataset, seed)` to the
/// prepared data (called once per unique pair, results shared).
pub fn run_grid<F>(cells: Vec<Cell>, prepare: F) -> Vec<CellResult>
where
    F: Fn(&str, u64) -> PreparedDataset + Sync,
{
    cells
        .par_iter()
        .map(|cell| {
            let prepared = prepare(&cell.dataset, cell.seed);
            run_cell(&prepared, cell)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::prepare;
    use chef_data::paper_suite;

    fn tiny_cell(method: Method, b: usize) -> (PreparedDataset, Cell) {
        let spec = paper_suite(400)
            .into_iter()
            .find(|s| s.name == "Twitter")
            .unwrap();
        let prepared = prepare(&spec, 5);
        let cell = Cell {
            dataset: "Twitter".into(),
            method,
            b,
            budget: 10,
            gamma: 0.8,
            seed: 5,
            neural: false,
        };
        (prepared, cell)
    }

    #[test]
    fn run_cell_produces_f1_in_range() {
        let (prepared, cell) = tiny_cell(Method::InflTwo, 5);
        let r = run_cell(&prepared, &cell);
        assert!((0.0..=1.0).contains(&r.uncleaned_f1));
        assert!((0.0..=1.0).contains(&r.cleaned_f1));
        assert_eq!(r.report.rounds.len(), 2);
        assert!(r.telemetry_json.contains("\"schema\":\"telemetry.v1\""));
        assert!(r.telemetry_json.contains("\"kind\":\"bench.cell\""));
    }

    #[test]
    fn neural_cell_runs() {
        let (prepared, mut cell) = tiny_cell(Method::InflOne, 10);
        cell.neural = true;
        let r = run_cell(&prepared, &cell);
        assert!((0.0..=1.0).contains(&r.cleaned_f1));
    }

    #[test]
    fn grid_runs_in_parallel_and_preserves_cells() {
        let cells: Vec<Cell> = [Method::InflTwo, Method::Random]
            .into_iter()
            .map(|m| Cell {
                dataset: "Twitter".into(),
                method: m,
                b: 5,
                budget: 5,
                gamma: 0.8,
                seed: 1,
                neural: false,
            })
            .collect();
        let results = run_grid(cells.clone(), |name, seed| {
            let spec = paper_suite(400)
                .into_iter()
                .find(|s| s.name == name)
                .unwrap();
            prepare(&spec, seed)
        });
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].cell.method, cells[0].method);
        assert_eq!(results[1].cell.method, cells[1].method);
    }
}
