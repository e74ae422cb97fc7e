//! # kr-core
//!
//! The paper's primary contribution: the **Khatri-Rao clustering
//! paradigm** and its k-Means instantiation.
//!
//! * [`aggregator`] — the elementwise `⊕ ∈ {+, ×}` aggregators.
//! * [`operator`] — Khatri-Rao operators over `p` protocentroid sets and
//!   the mixed-radix centroid indexer (`i ↔ (j₁, …, j_p)`).
//! * [`kmeans`] — the standard k-Means baseline (Lloyd + k-means++), one
//!   core for plain, weighted and federated fits, on the KR variant's
//!   kernels for fair scalability comparisons (paper Appendix B).
//! * [`kr_kmeans`] — **Khatri-Rao-k-Means** (Algorithm 1) with
//!   closed-form protocentroid updates (Proposition 6.1), arbitrary `p`,
//!   sum/product aggregators, memory- and time-efficient variants.
//! * [`naive`] — the naïve two-phase approach of Section 5 (cluster,
//!   then factor the centroids by coordinate descent, Eq. 8).
//! * [`baselines`] — external summarization baselines for the Table 2 /
//!   Figure 6 comparisons: [`RkMeans`] (grid compression + weighted
//!   Lloyd) and [`NnkMeans`] (non-negative kernel-regression dictionary
//!   learning), both on the shared [`kr_linalg::ExecCtx`] substrate.
//! * [`design`] — the design-choice helpers of Section 8
//!   (Propositions 8.1 and 8.2, budget math, aggregator selection).
//! * [`model_select`] — BIC-driven estimation of the number of clusters
//!   (X-Means-flavored), with a Khatri-Rao variant that grows
//!   protocentroid sets instead of centroid counts.
//!
//! ## Example: exact recovery on Khatri-Rao-structured data
//!
//! ```
//! use kr_core::aggregator::Aggregator;
//! use kr_core::kr_kmeans::KrKMeans;
//! use kr_datasets::synthetic::{kr_structured, StructureKind};
//!
//! let (ds, _, _) = kr_structured(3, 3, 30, 0.05, StructureKind::Additive, 1);
//! let model = KrKMeans::new(vec![3, 3])
//!     .with_aggregator(Aggregator::Sum)
//!     .with_n_init(20) // the paper's default restart count
//!     .with_seed(7)
//!     .fit(&ds.data)
//!     .unwrap();
//! // 6 stored vectors summarize all 9 clusters.
//! assert_eq!(model.n_parameters(), 6 * 2);
//! assert_eq!(model.centroids().nrows(), 9);
//! assert!(model.inertia.is_finite());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregator;
pub mod assign;
pub mod baselines;
pub mod design;
pub mod kmeans;
pub mod kr_kmeans;
pub mod model_select;
pub mod naive;
pub mod operator;
pub mod stats;

pub use aggregator::Aggregator;
pub use assign::{AssignEngine, CcBounds, PruneStats};
pub use baselines::{NnkMeans, NnkMeansModel, RkMeans, RkMeansModel};
pub use kmeans::{KMeans, KMeansModel};
pub use kr_kmeans::{KrKMeans, KrKMeansModel};

/// Errors from clustering entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The dataset has no rows or no columns.
    EmptyInput,
    /// Fewer data points than requested prototypes.
    TooFewPoints {
        /// Number of available points.
        available: usize,
        /// Number of points the configuration requires.
        required: usize,
    },
    /// The dataset contains NaN or infinite values.
    NonFiniteInput,
    /// A configuration value is invalid.
    InvalidConfig(String),
    /// A transport, framing, or protocol failure in a distributed run
    /// (see `kr_federated`).
    Transport(String),
    /// A peer missed a read deadline in a distributed run. Kept distinct
    /// from [`CoreError::Transport`] so failure classification (drop the
    /// shard for the round vs. treat the stream as corrupt) is testable.
    Timeout(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::EmptyInput => write!(f, "input dataset is empty"),
            CoreError::TooFewPoints {
                available,
                required,
            } => {
                write!(f, "need at least {required} points, got {available}")
            }
            CoreError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::Transport(msg) => write!(f, "transport failure: {msg}"),
            CoreError::Timeout(msg) => write!(f, "deadline exceeded: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
