//! A selection owns exactly its entries.
//!
//! The pipeline keeps every round's selections for the rest of the run
//! (`RoundReport::selected`), and a served job keeps its report after it
//! finishes. A selector that maps a pool-sized scoring buffer into its
//! result in place (std's `collect` reuses the allocation when the
//! element layouts match) leaves that buffer behind in every report: a
//! 1,962-row pool costs 47 KB per round that shows only as capacity.
//! Every [`SampleSelector`] here runs two rounds over a 2,400-row pool,
//! and each result must satisfy `capacity == len ≤ b`. The Infl family
//! runs over both an in-memory [`Dataset`] and a sharded mmap store
//! (whose per-shard top-`b` merge is a separate code path).

use chef_baselines::{
    ActiveEntropy, ActiveLeastConfidence, Duti, InflD, InflY, RandomSelector, Tars, O2U,
};
use chef_core::{InflSelector, SampleSelector, SelectorContext};
use chef_data::{generate, generate_train_store, DatasetKind, DatasetSpec, MmapStore};
use chef_model::{Dataset, DatasetStore, LogisticRegression, Model, WeightedObjective};
use chef_weak::random_probabilistic_labels;

const SEED: u64 = 9;
const B: usize = 12;
/// 2,400 rows at 512 per chunk: five shards, the last one short.
const CHUNK_ROWS: usize = 512;

fn spec() -> DatasetSpec {
    DatasetSpec {
        name: "selection_capacity",
        kind: DatasetKind::FullyClean,
        train: 2_400,
        val: 120,
        test: 10,
        dim: 4,
        num_classes: 2,
        class_sep: 1.2,
        positive_rate: 0.5,
        truth_noise: 0.0,
        weak_quality: 0.5,
        annotator_error: 0.05,
    }
}

/// Run two rounds of `selector` over the whole of `data` and check each
/// result's capacity.
fn assert_exact_capacity(
    selector: &mut dyn SampleSelector,
    data: &dyn DatasetStore,
    val: &Dataset,
) {
    let model = LogisticRegression::new(data.dim(), data.num_classes());
    let objective = WeightedObjective::new(0.8, 0.1);
    let w: Vec<f64> = (0..model.num_params())
        .map(|k| 0.1 * (k as f64 + 1.0))
        .collect();
    let mut pool: Vec<usize> = (0..data.len()).collect();
    for round in 0..2 {
        let selected = selector.select(&SelectorContext {
            model: &model,
            objective: &objective,
            data,
            val,
            w: &w,
            pool: &pool,
            b: B,
            round,
        });
        let name = selector.name();
        assert!(
            !selected.is_empty(),
            "{name} round {round}: nothing selected"
        );
        assert!(
            selected.len() <= B,
            "{name} round {round}: {} > b",
            selected.len()
        );
        assert_eq!(
            selected.capacity(),
            selected.len(),
            "{name} round {round}: the result holds {} slots for {} selections",
            selected.capacity(),
            selected.len()
        );
        pool.retain(|i| !selected.iter().any(|s| s.index == *i));
    }
}

#[test]
fn every_selector_returns_exactly_its_selections() {
    let split = {
        let mut split = generate(&spec(), SEED);
        random_probabilistic_labels(&mut split.train, SEED);
        split
    };
    let selectors: Vec<Box<dyn SampleSelector>> = vec![
        Box::new(InflSelector::full()),
        Box::new(InflSelector::incremental()),
        Box::new(RandomSelector::new(1)),
        Box::new(ActiveLeastConfidence),
        Box::new(ActiveEntropy),
        Box::new(Duti::default()),
        Box::new(O2U::default()),
        Box::new(Tars::default()),
        Box::new(InflD::default()),
        Box::new(InflY::default()),
    ];
    for mut selector in selectors {
        assert_exact_capacity(selector.as_mut(), &split.train, &split.val);
    }
}

#[test]
fn infl_selectors_on_a_sharded_store_return_exactly_their_selections() {
    let dir = std::env::temp_dir().join(format!("chef-selection-capacity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, val, _) = generate_train_store(&spec(), SEED, &dir, CHUNK_ROWS).expect("write store");
    let mut store = MmapStore::open(&dir).expect("open store");
    random_probabilistic_labels(&mut store, SEED);
    assert!(
        store.shard_boundaries().len() > 2,
        "the store must be sharded"
    );
    assert_exact_capacity(&mut InflSelector::full(), &store, &val);
    assert_exact_capacity(&mut InflSelector::incremental(), &store, &val);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
