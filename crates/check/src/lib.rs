//! # fg-check
//!
//! Differential kernel fuzzing for the FeatGraph stack.
//!
//! FeatGraph's promise is that template×FDS composition — graph
//! partitioning, feature tiling, thread/block binding, tree reduction,
//! Hilbert traversal — produces *the same answer* as the naive kernel, only
//! faster. This crate checks that promise mechanically: a seeded generator
//! draws adversarial random cases (graph × UDF × reducer × schedule ×
//! execution plan), runs every executor that claims to support the case —
//! the optimized CPU templates, the gpusim GPU templates, and the
//! ligra/gunrock/sparselib baselines — and compares each against
//! [`featgraph::spmm_reference`] /
//! [`featgraph::sddmm_reference`] under a ULP/relative-tolerance
//! float model (`tolerance.rs`).
//!
//! On a mismatch the harness *shrinks* the failing case (fewer edges,
//! smaller feature dimensions, simpler UDF, simpler schedule — each step
//! accepted only if the shrunken case still fails) and prints a replayable
//! one-liner:
//!
//! ```text
//! fgcheck --case 'spmm;g=explicit:3:0-1;u=copy-src:2;r=mean;p=t1.p2.ft1.rt1.tr0.hil0.rpb1.epb256.hyb0.tpb32.bindn;s=7'
//! ```
//!
//! Every case is fully reconstructible from its descriptor
//! ([`Case`] implements `Display`/`FromStr`), so a CI failure anywhere
//! reproduces on any machine with one command. The deterministic smoke
//! sweep (`fgcheck --seed 0 --cases 200`) runs in CI; see the README
//! "Correctness" section.
//!
//! A second case family ([`sampler_sweep`], `fgcheck --sampler`) checks the
//! seeded neighbor sampler the serving tier builds on: determinism,
//! reindex round-trips, fanout caps, and full-fanout bit-identity with
//! full-graph inference. Sampler descriptors start with `sampler;` and
//! replay through the same `--case` flag.

mod case;
mod dtype;
mod exec;
mod runner;
mod sampler;
mod shrink;
mod tolerance;

pub use case::{Case, KernelKind};
pub use dtype::{dtype_sweep, run_dtype_case, DtypeCase};
pub use exec::run_case;
pub use runner::{sweep, SHRINK_BUDGET};
pub use sampler::{run_sampler_case, sampler_sweep, SamplerCase};
pub use shrink::shrink;
