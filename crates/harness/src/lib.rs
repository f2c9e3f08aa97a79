//! # asf-harness — experiment definitions
//!
//! One function per paper table/figure, regenerating the same rows/series
//! from the simulator. The `asf-repro` binary exposes them on the command
//! line; `crates/bench` wraps them in Criterion benches.
//!
//! The heart is [`matrix::Matrix`]: the (benchmark × detector) grid of
//! simulation runs that Figures 1, 2, 8, 9 and 10 are all read off of.
//! Runs are deterministic in `(scale, seed)`; the matrix computes them in
//! parallel with scoped threads (the simulator itself is single-threaded by
//! design — determinism first).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod dash;
pub mod error;
pub mod experiments;
pub mod matrix;
pub mod observe;
pub mod perf;
pub mod scale;
pub mod serve;

pub use error::HarnessError;
pub use matrix::{ComputeOpts, InjectPanic, JobOutcome, Matrix, RunKey};
