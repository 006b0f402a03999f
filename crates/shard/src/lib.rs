//! # aalign-shard — fault-tolerant multi-process shard supervision
//!
//! One search process is one failure domain: a segfault, OOM kill,
//! or wedged worker takes down the whole query. This crate splits a
//! [`SeqDatabase`] into N contiguous shards, runs one `aalign serve
//! --stdio` child per shard, and merges per-shard [`SearchReport`]s
//! through the engine's own rank order — so an N-shard answer is
//! bit-identical to a single-process sweep, while any single child
//! can die without losing the query.
//!
//! Layers:
//!
//! * [`worker`] — one child process: spawn with piped stdio, a
//!   dedicated reader thread (so receives can time out), JSON-RPC
//!   call/response over the PR 7 line protocol, SIGTERM→grace→SIGKILL
//!   teardown. No new serialization: children speak exactly what
//!   `aalign serve --stdio` speaks.
//! * [`supervisor`] — the robustness core: contiguous partitioning
//!   with `db_index` rebasing, per-query fan-out with the deadline
//!   decremented by elapsed supervisor time, crash detection via
//!   `try_wait` reaping + heartbeat `health` pings, one idempotent
//!   retry on a respawned child, capped-exponential-backoff respawn
//!   ([`aalign_core::retry::Backoff`]), a K-deaths-in-window circuit
//!   breaker, and graceful degradation: the merged report is
//!   `partial: true` with a [`ShardOutcome`] and one
//!   `AlignError::ShardLost` naming each uncovered range. The policy
//!   (50 ms → 2 s backoff, 3 deaths in 60 s, a 1 s heartbeat) is
//!   constants; [`ShardOptions`] carries only the shard count and a
//!   chaos plan.
//! * `fault` — deterministic chaos ([`ShardOptions::fault`]):
//!   SIGKILL a chosen shard's child right after dispatch, so the
//!   retry/breaker/degradation ladder is testable end to end.
//!
//! Supervisor lifecycle events (spawn / exit / retry / breaker) ride
//! the same [`FlightRecorder`] ring the serve stack uses and are
//! auto-dumped on any dirty drain or circuit-breaker trip.
//!
//! [`SeqDatabase`]: aalign_bio::db::SeqDatabase
//! [`SearchReport`]: aalign_par::SearchReport
//! [`ShardOutcome`]: aalign_par::ShardOutcome
//! [`FlightRecorder`]: aalign_obs::FlightRecorder

pub mod fault;
pub mod supervisor;
pub mod worker;

pub use fault::ShardFaultPlan;
pub use supervisor::{ShardOptions, ShardQuery, Supervisor};
pub use worker::WorkerCommand;
