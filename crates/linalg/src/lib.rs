//! # kr-linalg
//!
//! Dense row-major matrix and vector kernels used throughout the
//! Khatri-Rao clustering workspace.
//!
//! The approved offline crate set for this reproduction does not include
//! `ndarray` or `nalgebra`, so the numeric substrate is hand-rolled. The
//! design goals, in order:
//!
//! 1. **Correctness** — every kernel has unit tests and the algebraic
//!    identities are property-tested.
//! 2. **Cache-friendliness on the hot paths** — clustering spends almost
//!    all of its time in pairwise squared-distance evaluation and
//!    accumulation loops, so those are blocked into `MC x KC x NC`
//!    panels with register-tiled micro-kernels over contiguous row
//!    slices (fused distance kernels, `chunks_exact` inner loops).
//! 3. **Determinism under parallelism** — every parallel kernel maps
//!    fixed chunk geometry (a pure function of the input size) onto
//!    disjoint outputs or ordered partial merges, so results are bitwise
//!    identical at any thread count.
//! 4. **Minimal `unsafe`** — bounds checks are avoided structurally
//!    (slices hoisted out of loops) rather than with `get_unchecked`.
//!    The `unsafe` surface is confined to the execution layer's scoped
//!    lifetime erasure and disjoint-chunk slicing ([`pool`],
//!    [`parallel`]), the aligned allocation in [`storage`], and the
//!    `core::arch` intrinsics in [`simd`] — each allowlisted in
//!    `verify.toml` and guarded by documented invariants.
//!
//! The central type is [`Matrix`], a dense row-major `f64` matrix. Free
//! functions over `&[f64]` slices live in [`ops`]. The execution layer —
//! a persistent work-stealing [`pool::ThreadPool`], the [`ExecCtx`]
//! handle that flows through every algorithm in the workspace, and the
//! two chunk-parallel helpers in [`parallel`] (disjoint row chunks and
//! ordered partial reductions) — schedules the hot kernels.

#![warn(missing_docs)]

pub mod exec;
pub mod matrix;
pub mod model;
pub mod ops;
pub mod parallel;
pub mod pool;
pub mod simd;
pub mod storage;

pub use exec::{ExecCtx, KernelMode, PruneMode, Scratch};
pub use matrix::Matrix;
pub use pool::ThreadPool;
pub use storage::AlignedVec;

/// Errors produced by shape-checked linear-algebra entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// A dimension that must be non-zero was zero.
    EmptyDimension(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::EmptyDimension(what) => write!(f, "dimension must be non-zero: {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
