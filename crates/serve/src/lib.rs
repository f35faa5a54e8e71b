//! Multi-session RIM serving.
//!
//! The paper pitches inertial sensing from commodity WiFi that fleets of
//! devices could stream CSI into; this crate is the process-level serving
//! layer that makes one engine instance do that. A [`SessionManager`]
//! owns N independent [`rim_core::RimStream`] states sharded by session
//! id, admits samples into bounded per-session ingress queues with
//! explicit backpressure ([`Admit`]) — throttling by *predicted latency
//! budget violation* ([`ServeConfig::latency_budget_us`]), not just raw
//! queue depth — and drains them with a deadline-ordered (EDF)
//! cross-session batch scheduler that fans *different* sessions onto one
//! shared [`rim_par::Pool`] as independent tiles. Each session is still
//! analysed with its own state and a serial inner pool, so every
//! session's output is bit-identical to a standalone stream fed the same
//! samples — the repo's central determinism invariant survives
//! multi-tenancy.
//!
//! On top of the manager sits a small length-prefixed binary wire
//! protocol over TCP ([`wire`]) served by a readiness-driven `poll(2)`
//! event loop: a fixed set of reactor threads owns all client sockets,
//! assembles frames from nonblocking reads, and drains responses through
//! per-connection backpressure queues — no thread is ever parked on a
//! socket, so thousands of concurrent sessions cost pollfd entries, not
//! OS threads. The reactors also tick the batch scheduler between
//! admitting what they read and answering it, so an ingest's answer
//! carries the events its own input caused. A blocking [`Client`] is used by the CLI's `serve`
//! subcommand, the integration tests, and the bench. Per-session
//! [`rim_obs::Recorder`]s capture stream/pipeline stages for each tenant,
//! and a manager-wide recorder captures the `serve` stage (admission
//! counters, queue depth, active/evicted sessions, ingest→estimate
//! latency) plus the `reactor` stage (wakeups, ready events, frames,
//! write stalls, backpressure rejections).
//!
//! Configuration flows through one validated constructor path:
//! [`ServeConfig::builder`], shared by [`Server::bind`], the CLI, and
//! self-drive.
// `sys` is the one module allowed to use unsafe: the dependency-free
// `poll(2)` FFI declaration the reactor is built on.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod manager;
mod reactor;
mod server;
mod sys;
pub mod wire;

pub use client::Client;
pub use manager::{Admit, RejectReason, ServeConfig, ServeConfigBuilder, SessionManager};
pub use server::Server;
