//! Harness-level error taxonomy.
//!
//! Every way an experiment run can go wrong, as a value instead of a
//! `panic!`: unknown benchmark names, cells missing from a matrix, cells
//! whose worker job failed (panic or watchdog), shard runs that diverged
//! across thread counts, and forward-progress violations found by the
//! `faults` experiment. The `asf-repro` binary renders these as one-line
//! messages and a non-zero exit code; tests match on the variants.

use std::fmt;

/// Why a harness operation could not produce its result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HarnessError {
    /// A benchmark name not in the Table III suite.
    UnknownBenchmark(String),
    /// A (benchmark, detector) cell the matrix never computed.
    MissingCell {
        /// Benchmark name.
        bench: String,
        /// Detector label.
        detector: String,
    },
    /// A cell whose job failed (panic or simulation error); the matrix
    /// holds the failure instead of stats so sibling cells still render.
    FailedCell {
        /// Benchmark name.
        bench: String,
        /// Detector label.
        detector: String,
        /// Rendered cause (panic payload or simulation error).
        error: String,
    },
    /// A shard-parallel run diverged from its sequential reference — the
    /// worker-thread count leaked into simulated state, which the engine
    /// guarantees never happens.
    Determinism(String),
    /// The `faults` experiment found a workload that lost transactions
    /// under injected pressure — the forward-progress guarantee is broken.
    ProgressViolation(String),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::UnknownBenchmark(name) => {
                write!(f, "unknown benchmark '{name}' (see `asf-repro table3` for the suite)")
            }
            HarnessError::MissingCell { bench, detector } => {
                write!(f, "run ({bench}, {detector}) not in matrix")
            }
            HarnessError::FailedCell { bench, detector, error } => {
                write!(f, "run ({bench}, {detector}) failed: {error}")
            }
            HarnessError::Determinism(msg) => write!(f, "determinism violation: {msg}"),
            HarnessError::ProgressViolation(msg) => {
                write!(f, "forward-progress violation: {msg}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_cell() {
        let e = HarnessError::FailedCell {
            bench: "vacation".into(),
            detector: "sb4".into(),
            error: "worker panicked".into(),
        };
        let s = e.to_string();
        assert!(s.contains("vacation") && s.contains("sb4") && s.contains("panicked"));
        assert!(HarnessError::UnknownBenchmark("nope".into())
            .to_string()
            .contains("'nope'"));
    }
}
