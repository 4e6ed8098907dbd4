//! # chef-data
//!
//! Synthetic dataset substrate for the CHEF reproduction.
//!
//! The paper evaluates on three gated medical-image datasets (MIMIC-CXR,
//! Chexpert, Retina) and three crowdsourced datasets (Fashion, Fact,
//! Twitter), all passed through frozen ResNet50/BERT feature extractors.
//! None of those downloads is available here, so this crate generates
//! **controlled Gaussian-mixture embedding clouds** with per-dataset
//! profiles matching the published statistics (relative split sizes from
//! Table 3, class imbalance, difficulty, ground-truth noise). Because the
//! paper itself trains logistic regression on frozen embeddings, the
//! embedding distribution is the only thing the downstream pipeline ever
//! sees — a mixture with matching overlap exercises identical code paths
//! and preserves the *relative* behaviour the tables report (see
//! DESIGN.md §4 for the substitution argument).
//!
//! [`DatasetSpec`] describes a dataset; [`generate`] materializes a
//! train/val/test [`Split`] whose training labels start as ground truth —
//! the `chef-weak` crate then overwrites them with probabilistic labels.
//!
//! For datasets too large for RAM, the [`store`] module provides the
//! out-of-core store substrate: [`generate_train_store`] streams the
//! training part directly into a sharded on-disk columnar store (a
//! `store.v2` directory carrying per-block checksums) that
//! [`MmapStore`] serves back through `chef_model::DatasetStore` with
//! features memory-mapped instead of heap-allocated, integrity
//! verification eager or first-touch-lazy per [`IntegrityMode`],
//! and an optional background verify-and-warm prefetch thread
//! (`StoreOptions::background_prefetch`; DESIGN.md §15).

#![warn(missing_docs)]

pub mod csv;
pub mod generator;
pub mod spec;
pub mod store;

pub use csv::{read_dataset, read_split, write_dataset, write_split, CsvError};
pub use generator::{generate, generate_train_store, Split};
pub use spec::{by_name, paper_suite, DatasetKind, DatasetSpec};
pub use store::{IntegrityMode, Manifest, MmapStore, StoreError, StoreOptions, StoreWriter};
