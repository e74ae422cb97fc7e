//! External summarization baselines for the Table 2 / Figure 6
//! comparisons.
//!
//! The paper evaluates Khatri-Rao clustering against k-Means and the
//! naïve two-phase decomposition ([`crate::naive`]). This module adds
//! the two stronger summarization baselines named in the roadmap, both
//! sharing the [`ExecCtx`](kr_linalg::ExecCtx) builder pattern and the
//! blocked/deterministic kernels of [`kr_linalg`]:
//!
//! * [`RkMeans`] — Rk-means-style *fast clustering* (Curtin et al.,
//!   "Rk-means: Fast Clustering for Relational Data"): points are first
//!   pre-aggregated on a per-dimension grid into a small set of
//!   **weighted representatives**, then weighted Lloyd iterations run on
//!   the compressed set through [`WeightedKMeans`], a builder over
//!   [`KMeans`](crate::KMeans)'s Lloyd core with cell counts as weights.
//! * [`NnkMeans`] — NNK-Means-style *dictionary-learning summarization*
//!   (Shekkizhar & Ortega, "NNK-Means: Data summarization using
//!   dictionary learning with non-negative kernel regression"): each
//!   point is assigned to a small neighborhood of dictionary atoms with
//!   non-negative regression weights, and atoms are refit in one batched
//!   least-squares update per round.
//!
//! Both baselines are deterministic in their seed at **any** thread
//! count: every parallel step either owns disjoint output rows, merges
//! per-chunk partials in fixed ascending order (the same pattern as the
//! [`KMeans`](crate::KMeans) centroid update), or calls the bitwise
//! thread-invariant blocked kernels
//! ([`pairwise_sqdist_with`](kr_linalg::Matrix::pairwise_sqdist_with),
//! [`matmul_with`](kr_linalg::Matrix::matmul_with)).
//!
//! ```
//! use kr_core::baselines::RkMeans;
//! let data = kr_datasets::synthetic::blobs(300, 2, 4, 0.3, 0).data;
//! let model = RkMeans::new(4).with_bins(64).with_seed(1).fit(&data).unwrap();
//! assert_eq!(model.centroids.nrows(), 4);
//! assert!(model.n_representatives <= 300);
//! ```

pub mod nnk_means;
pub mod rk_means;
pub mod weighted;

pub use nnk_means::{NnkMeans, NnkMeansModel};
pub use rk_means::{RkMeans, RkMeansModel};
pub use weighted::{WeightedKMeans, WeightedKMeansModel};
