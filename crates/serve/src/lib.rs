//! # rfkit-serve — design-as-a-service batch server
//!
//! The front door of the stack: a zero-dependency batch server on
//! `std::net` that accepts band-sweep, full design/optimize, netlist
//! verification, and yield-analysis requests over a length-prefixed
//! framed JSON protocol (the `rfkit-obs` JSON writer/parser is the wire
//! codec — see [`protocol`] for the frame layout and request model).
//!
//! Architecture, in request order:
//!
//! * **Acceptor** (`serve-accept` thread) accepts connections and spawns
//!   one reader thread per connection.
//! * **Readers** decode frames defensively — oversized length prefixes
//!   are rejected *before allocation*, malformed JSON and unknown types
//!   get structured `error` responses, disconnects close cleanly; a
//!   protocol error never panics a thread. Cheap `ping`/`stats` requests
//!   are answered inline; evaluation requests go to the scheduler.
//! * **Scheduler**: one bounded FIFO queue shared by the workers, so
//!   requests start in admission order. Past the admission bound the
//!   request is answered `overloaded` — explicit backpressure, never a
//!   silent drop. Per-request deadlines are enforced at dequeue: a
//!   request that waited too long is answered `expired` unevaluated.
//! * **Workers** (`serve-worker-N` threads) evaluate requests with warm
//!   per-worker [`rfkit_circuit::AcWorkspace`]s; compiled `StampPlan`s
//!   and snapped-design band metrics are shared cross-request through
//!   the process-wide plan cache and per-band [`lna::DesignCache`]s.
//!   Degraded/failed sweeps surface grid-ordered per-point diagnostics
//!   (`BandOutcome` mapped onto the wire) and are never memoized.
//! * **Shutdown** drains: the listener stops accepting, admitted work
//!   finishes, every thread joins, and a final `rfkit_obs::flush()`
//!   writes the armed profile.
//!
//! Determinism: a request's result payload is a pure function of the
//! request (the caches only substitute values for themselves), so the
//! same fixed-seed request returns bit-identical bytes whether served
//! alone or interleaved with concurrent mixed traffic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
mod scheduler;
pub mod server;

pub use client::Client;
pub use protocol::{
    read_frame, vars_json, write_frame, FrameError, Request, RequestBody, Response,
    DEFAULT_MAX_FRAME_BYTES,
};
pub use server::{ServeConfig, Server, StatsSnapshot, MAX_BAND_CACHES};
