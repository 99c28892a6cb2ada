//! The repo's end-to-end benchmark: four workloads, five bounded end-to-end
//! metrics, and an outside-in per-layer ledger. See `README.md` next to this
//! package for what each workload is there to judge.
//!
//! The serving half ([`driver`], [`wire`], [`stream`], [`server`]) uses none
//! of the repo's crates; everything that does is in [`layers`].

#![warn(missing_docs)]

pub mod compare;
pub mod driver;
pub mod json;
pub mod layers;
pub mod ledger;
pub mod server;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod wire;

/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 15;
