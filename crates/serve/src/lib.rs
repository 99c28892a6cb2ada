//! # fg-serve — backpressured GNN inference serving
//!
//! An embedded inference engine over the `fg-gnn` stack with **one request
//! path**: `INFER` or `INFER_SEEDS`, text or binary, a request becomes one
//! job shape, runs through one executor and ends in one completion. No async runtime — the queue, reply channels and worker
//! pool are hand-rolled on `std::sync` (the workspace's no-external-deps rule).
//!
//! ```text
//!  text line ─┐                                     ┌─▶ format_reply ─▶ text
//!             ├─▶ Request ─▶ dispatch ─▶ WireReply ─┤
//!  FGB1 frame ┘                │                    └─▶ encode_reply ─▶ frame
//!                              ▼ INFER / INFER_SEEDS
//!   admit ─▶ Job{model, rows, view} ─▶ Batcher ─▶ execute ─▶ complete
//!     │ shed: ERR overloaded             │ one job at a time, FIFO
//! ```
//!
//! `execute` answers a `Full`-view job with a **row read** from the
//! full-graph logits its registration computes once, on its first `Full`
//! job (one forward pass over every vertex on one backend), and a
//! `Sampled`-view job on its own sampled subgraph. The server does not
//! shard: that one pass is cheaper than holding a shard split of the graph
//! for the life of the registration. The job shape and the rule for which
//! latency phases a request records are stated once, in `engine.rs`.
//!
//! Layers:
//!
//! * [`protocol`] / [`frame`] — the two wire codecs. Both decode to one
//!   [`protocol::Request`] and encode one [`frame::WireReply`]; a
//!   connection's first four bytes pick its codec.
//! * `server.rs` — TCP front-end: one blocking thread per admitted
//!   connection, and the single verb dispatcher both codecs share.
//! * `engine.rs` — admission control, per-request deadlines, the worker
//!   pool's one executor, graceful drain, typed [`ServeError`]s.
//! * `batcher.rs` — bounded FIFO of single jobs with overload shedding.
//! * `stats.rs` — the one place each serving event is counted: always-on
//!   p50/p95/p99 latency, **per-phase** quantiles, the queue-depth gauge,
//!   event counters, and the slow-request log.
//! * `metrics.rs` — Prometheus-style text exposition behind the `METRICS`
//!   wire command, the one export of every serving number (always-on
//!   `fgserve_*` series plus the telemetry registry).
//!
//! Observability: every request gets a trace id from a 1-in-N
//! [`fg_telemetry::TraceSampler`] ([`ServeConfig::trace_sample`]);
//! sampled requests thread that id through the front-end, batcher, worker,
//! and kernel spans, producing one coherent Chrome-trace tree per request.
//!
//! Memory: the engine rides on `fg-telemetry`'s byte-level accountant —
//! graph topology, features, model params, request scratch, and each
//! registration's full-graph logits are attributed per component, surfaced
//! as the `fgserve_mem_*` metric series ([`Engine::memory_report`]), and
//! optionally enforced by the
//! [`ServeConfig::mem_budget`] admission gate, which sheds with
//! [`ServeError::OverMemoryBudget`] before allocating.

#![warn(missing_docs)]

mod batcher;
mod engine;
pub mod frame;
mod metrics;
mod oneshot;
pub mod protocol;
mod server;
mod stats;

pub use engine::{
    Engine, InferRequest, InferResponse, InferSeedsRequest, SeedsResponse, ServeConfig, ServeError,
};
pub use metrics::{metric_value, parse_exposition, MetricSample};
pub use server::{serve, ServerHandle, PARTIAL_MESSAGE_DEADLINE};
pub use stats::{LatencyRecorder, Phase};
