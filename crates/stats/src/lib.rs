//! # asf-stats — measurement layer
//!
//! Everything the paper measures, as reusable accumulators:
//!
//! * [`conflict::ConflictStats`] — total / true / false conflicts with the
//!   WAR / RAW / WAW breakdown (Figures 1, 2, 8, 9);
//! * [`series::TimeSeries`] — cumulative event counts over execution time
//!   (Figure 3);
//! * [`histogram::LineHistogram`] — false conflicts by cache-line index
//!   (Figure 4);
//! * [`histogram::OffsetHistogram`] — accesses by intra-line byte offset
//!   (Figure 5);
//! * [`run::RunStats`] — the per-run bundle the simulator fills in, plus
//!   the transaction / abort accounting behind Figure 10;
//! * [`fault::FaultStats`] — injected-fault accounting for the
//!   deterministic fault layer (kept out of the paper's abort taxonomy);
//! * [`json`] — minimal order-preserving JSON parser and renderer
//!   (`RunStats` round-trips exactly; `BENCH_perf.json` is read and
//!   written through it);
//! * [`atomic_file`] — temp-file + rename writes, so a crash never leaves
//!   a torn file;
//! * [`digest`] — the FNV-1a fold shared by the golden-stats fence and the
//!   serve layer's content-addressed result cache;
//! * [`metrics`] — observability accumulators: named counters,
//!   cycle-bucketed interval gauges and a wall-time phase profiler
//!   (DESIGN.md §13);
//! * [`openmetrics`] — fixed-bucket log2 latency histograms plus a
//!   Prometheus/OpenMetrics text renderer and validating parser
//!   (DESIGN.md §18);
//! * [`slog`] — JSON-lines structured logger with `ASF_LOG` level
//!   filtering and injectable sinks, carrying request correlation ids
//!   through the serve layer;
//! * [`chrome`] — streaming Chrome `trace_event` / Perfetto JSON writer for
//!   the cycle-domain timeline export;
//! * [`table`] — plain-text and CSV rendering for the harness;
//! * [`chart::BarChart`] — terminal bar charts mirroring the paper's figure
//!   style.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic_file;
pub mod chart;
pub mod chrome;
pub mod conflict;
pub mod digest;
pub mod fault;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod openmetrics;
pub mod run;
pub mod series;
pub mod slog;
pub mod table;

pub use atomic_file::atomic_write;
pub use chart::BarChart;
pub use chrome::ChromeTraceWriter;
pub use conflict::ConflictStats;
pub use fault::FaultStats;
pub use histogram::{LineHistogram, OffsetHistogram};
pub use json::JsonValue;
pub use metrics::{MetricsRegistry, PhaseProfiler};
pub use openmetrics::{AtomicHistogram, Histogram};
pub use run::{AbortCause, RunStats};
pub use series::TimeSeries;
pub use table::Table;
