//! # bfc-experiments — the paper's evaluation harness
//!
//! This crate glues the whole reproduction together:
//!
//! * [`scheme`] — the registry of evaluated schemes (BFC, BFC-VFID, Ideal-FQ,
//!   DCQCN, DCQCN+Win, DCQCN+Win+SFQ, HPCC, SFQ+InfBuffer) mapping each to a
//!   switch configuration, a queue policy and a host configuration.
//! * [`runner`] — the per-event fabric handler and [`run_experiment`]: it
//!   instantiates the topology, switches, hosts and trace, runs them on the
//!   1-shard conservative engine, and collects
//!   FCT records, buffer occupancy samples, utilization, PFC pause time and
//!   policy statistics into an [`runner::ExperimentResult`]. Each run is a
//!   pure, `Send` unit of work.
//! * [`parallel`] — the [`parallel::ParallelRunner`]: fans independent
//!   (scheme, sweep-point, seed) runs across `std::thread` workers with
//!   order-preserving result collection, so every figure is bit-identical
//!   at any thread count (`BFC_THREADS` controls the worker pool).
//! * [`sharded`] — the one engine: a fabric's switches and hosts split
//!   across shards advancing in conservative lockstep epochs
//!   ([`sharded::run_experiment_sharded`]), bit-identical at any shard
//!   count (`BFC_SHARDS` / `--shards` select it; the default is one shard).
//! * [`replay`] — the [`replay::ReplayTrace`] path: imported CSV traces
//!   (see `bfc_workloads::io`) validated against a topology and replayed
//!   through the same driver with bit-identical results; the `trace-tool`
//!   binary (`synth` / `stats` / `replay` / `scenario`) is its CLI front end.
//! * [`scenario`] — the [`scenario::ScenarioSpec`] layer over
//!   `bfc_net::dynamics`: link-fault scenarios written by label (builder API
//!   or a small text format) and resolved into executable fault schedules
//!   that thread through `run_experiment` / `ParallelRunner` / `ReplayTrace`
//!   via `ExperimentConfig::dynamics`.
//! * [`fuzz`] — the adversarial scenario fuzzer: a seeded random search over
//!   (topology, workload, fault schedule) scored by tail latency, goodput
//!   dip, recovery time or safety violations, with greedy shrinking to
//!   minimal text reproducers (`trace-tool fuzz` is its CLI front end).
//! * [`service`] — service mode: deterministic snapshot/restore of complete
//!   runs ([`service::snapshot_experiment`] / [`service::resume_experiment`],
//!   bit-identical resumes at any shard count) and streaming ingest under an
//!   inflight cap ([`service::serve_experiment`]); `trace-tool`'s
//!   `snapshot` / `resume` / `serve` subcommands are its CLI front end.
//! * [`figures`] — one module per paper table/figure. Each `run` function
//!   regenerates the corresponding rows/series; the `src/bin/figNN_*`
//!   binaries are thin wrappers that print them, and `tests/fig_smoke.rs`
//!   calls the same functions with scaled-down parameters.
//!
//! Absolute numbers differ from the paper (different simulator, synthetic
//! CDFs, scaled-down run lengths by default) but the comparisons the paper
//! makes — who wins, by roughly what factor, and where behaviour crosses
//! over — are preserved.

pub mod figures;
pub mod fuzz;
pub mod parallel;
pub mod replay;
pub mod runner;
pub mod scenario;
pub mod scheme;
pub mod service;
pub mod sharded;

pub use fuzz::{FuzzConfig, FuzzOutcome, Objective, Reproducer};
pub use parallel::ParallelRunner;
pub use replay::{ReplayError, ReplayTrace};
pub use bfc_sim::shard::{BatchPolicy, EpochStats};
pub use runner::{run_experiment, ExperimentConfig, ExperimentResult, RankMode};
pub use scenario::{ScenarioError, ScenarioSpec};
pub use scheme::Scheme;
pub use service::{
    resume_experiment, serve_experiment, serve_experiment_with, snapshot_experiment, MetricsHub,
    ServeReport, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use sharded::{run_experiment_auto, run_experiment_sharded, ShardError, ShardPlan};
