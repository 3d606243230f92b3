//! Experiment harness for the FFMR reproduction.
//!
//! One module per paper artifact — the dataset table, Figs. 5–8 and
//! Table I — plus two ablations (MR push–relabel, the excess-path limit
//! `k`). Each experiment returns structured results *and* renders the
//! same rows/series the paper reports; `src/bin/experiments.rs` is the
//! command-line driver. Wall-clock timing of the real paths lives in
//! the separate `perfbench/` package, against `BENCHMARK.json`.
//!
//! Absolute numbers are not expected to match the paper (we run a cluster
//! *cost model*, not their 21-machine testbed); the *shape* — who wins,
//! by what factor, where rounds plateau — is the reproduction target.
//! See `EXPERIMENTS.md` at the workspace root.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod profiles;
pub mod table;

pub use profiles::{FbFamily, Scale};
pub use table::Report;
