//! # khatri-rao-clustering
//!
//! Umbrella crate for the Khatri-Rao clustering reproduction ("Khatri-Rao
//! Clustering for Data Summarization", EDBT 2026). Re-exports the public
//! API of every workspace crate so examples, integration tests, and
//! downstream users need a single dependency.
//!
//! ## Quickstart
//!
//! ```
//! use khatri_rao_clustering::prelude::*;
//!
//! // A dataset whose 9 clusters have additive Khatri-Rao structure.
//! let ds = kr_datasets::synthetic::blobs(300, 2, 9, 0.5, 42);
//! // Summarize with 3 + 3 protocentroids instead of 9 centroids.
//! let model = KrKMeans::new(vec![3, 3])
//!     .with_seed(7)
//!     .with_n_init(5)
//!     .fit(&ds.data)
//!     .unwrap();
//! assert_eq!(model.centroids().nrows(), 9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use kr_autodiff as autodiff;
pub use kr_core as core;
pub use kr_datasets as datasets;
pub use kr_deep as deep;
pub use kr_federated as federated;
pub use kr_linalg as linalg;
pub use kr_metrics as metrics;
pub use kr_stream as stream;

/// Observability layer (spans/counters/histograms + JSONL traces).
/// Present only with the `obs` cargo feature, which also compiles the
/// instrumentation call sites across the stack; see EXPERIMENTS.md
/// "Observability". Recording never changes numeric results
/// (`tests/obs_determinism.rs` pins this bitwise).
#[cfg(feature = "obs")]
pub use kr_obs as obs;

/// Common imports for library users.
///
/// Brings the main entry points into scope and re-exports every workspace
/// crate under its canonical `kr_*` name, so downstream code (and the
/// quickstart above) can write `kr_datasets::synthetic::blobs(..)` with
/// only `khatri_rao_clustering` as a dependency.
pub mod prelude {
    pub use crate::{
        autodiff as kr_autodiff, core as kr_core, datasets as kr_datasets, deep as kr_deep,
        federated as kr_federated, linalg as kr_linalg, metrics as kr_metrics, stream as kr_stream,
    };
    pub use ::kr_core::aggregator::Aggregator;
    pub use ::kr_core::kmeans::KMeans;
    pub use ::kr_core::kr_kmeans::KrKMeans;
    pub use ::kr_linalg::{ExecCtx, Matrix, ThreadPool};
    pub use ::kr_metrics::{
        adjusted_rand_index, inertia, normalized_mutual_information,
        unsupervised_clustering_accuracy,
    };
    pub use ::kr_stream::{CoresetTree, MiniBatchKrKMeans, StreamSummarizer};
}
