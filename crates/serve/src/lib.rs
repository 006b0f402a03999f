//! # aalign-serve — alignment as a long-running service
//!
//! A daemon over the persistent search engine: load the database and
//! build the worker pool once, then answer queries over two front
//! ends that share one [`Dispatcher`], which sweeps through one
//! [`SearchBackend`] — the local engine pool ([`Local`]) or a shard
//! supervisor:
//!
//! - **HTTP/JSON** ([`http::serve_http`]) — hand-rolled HTTP/1.1
//!   over `std::net`, one thread per connection, no framework.
//! - **stdio JSON-RPC** ([`run_daemon`] over [`rpc::respond_line`]) —
//!   line-delimited JSON-RPC 2.0 for embedding under a supervisor.
//!
//! The dispatcher is where service semantics live, identically for
//! both transports:
//!
//! - **Cross-request batching** — concurrent requests with the same
//!   query and `top_n` coalesce onto one engine sweep; followers
//!   share the leader's report and the coalesced count lands in
//!   `SearchMetrics::coalesced`.
//! - **Admission control** — a bounded in-flight budget plus a
//!   bounded queue, tied to each request's deadline: over capacity
//!   means an immediate typed `overloaded` refusal, never an
//!   unbounded wait.
//! - **Cancellation and quotas** — requests carrying an `id` can be
//!   cancelled mid-flight; per-tenant in-flight quotas fence noisy
//!   neighbors.
//! - **Graceful drain** — shutdown completes in-flight requests and
//!   refuses new ones with a typed `draining` response.
//!
//! Failure is always a well-formed document: expired deadlines and
//! fault-injected worker kills produce `partial: true` reports in
//! the same versioned wire schema the CLI emits
//! (`aalign_par::wire`); refusals are typed [`ServeError`]
//! envelopes. [`DispatcherConfig::fault_plan`] hands the engine's
//! deterministic chaos harness to every sweep, so kill/stall plans
//! can be applied to a live daemon under test.
//!
//! [`DispatcherConfig::fault_plan`]: dispatch::DispatcherConfig::fault_plan

pub mod backend;
pub mod daemon;
pub mod dispatch;
pub mod http;
pub mod rpc;
pub mod wire;

pub use backend::{BackendStatus, Local, SearchBackend};
pub use daemon::{run_daemon, DaemonOptions, FrontEnd};
pub use dispatch::{Dispatcher, DispatcherConfig};
pub use wire::{SearchRequest, SearchResponse, ServeError};
