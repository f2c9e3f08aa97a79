//! `asf-serve` — a content-addressed simulation service.
//!
//! The simulator is deterministic: a job spec (benchmark, detector, scale,
//! seed, fault profile, observe flag) *uniquely determines* its result.
//! That makes every completed run a memoizable artifact, and this crate
//! turns the repository into a long-running HTTP/JSON service built on
//! that observation:
//!
//! - [`spec`] — canonical job specs and their content digests,
//! - [`cache`] — an O(1) LRU over digests with a crash-safe, checksummed
//!   disk store,
//! - [`pool`] — a bounded worker pool with immediate-reject admission
//!   control (HTTP 429),
//! - [`runner`] — spec → `Machine::run` → byte-deterministic result body,
//! - [`http`] — tokio-free HTTP/1.1 framing over `std::net`,
//! - [`server`] — the endpoint surface gluing the above together, and the
//!   job table that coalesces concurrent identical submissions onto one
//!   job,
//! - [`loadtest`] — an in-process many-client hammer measuring hit rate
//!   and latency percentiles, plus the CI smoke check,
//! - [`chaos`] — seeded, deterministic fault injection against the
//!   service itself (worker panics, stalls, torn disk writes), driven by
//!   the `asf-repro chaos` soak,
//! - [`metrics`] — request counters by endpoint/status plus log2 latency
//!   histograms behind `GET /v1/metrics/prometheus`,
//! - [`flightrec`] — a bounded ring of recent structured events, dumped
//!   crash-safely when a worker panics or a deadline kills a job.
//!
//! The serving layer is *self-healing*: panicking jobs are caught and the
//! worker respawned ([`pool`]), every job runs under a deadline enforced
//! by a watchdog firing cooperative cancel tokens ([`server`]), persisted
//! cache cells are checksummed and quarantined on corruption ([`cache`]),
//! and request framing is bounded in every dimension ([`http`]).
//!
//! Everything here is std-only: the offline build vendors no async
//! runtime, so concurrency is threads + condvars end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod flightrec;
pub mod http;
pub mod loadtest;
pub mod metrics;
pub mod pool;
pub mod runner;
pub mod server;
pub mod spec;
