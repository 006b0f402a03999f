//! # aalign-par — multi-threaded database search
//!
//! The paper's Sec. V-E driver: to align one query against a whole
//! database, sort the database by sequence length (descending), build
//! the query profile **once**, share it read-only across threads, and
//! let each thread dynamically pull the next unprocessed subject —
//! an atomic work index, so long subjects never straggle at the end
//! of a static partition.
//!
//! The driver lives in a persistent [`SearchEngine`]: a worker pool
//! spawned once and fed per-query, so back-to-back queries pay zero
//! thread or scratch setup. Each worker keeps its own
//! `AlignScratch`, streams its hits through a bounded top-k heap
//! (`O(workers × top_n)` memory instead of `O(db)`), and reports
//! [`WorkerMetrics`] so the dynamic-binding balance is visible per
//! query. Sweeps honor a [`CancelToken`] and an optional progress
//! callback, and every report carries [`SearchMetrics`].
//!
//! There are two entry points and one sweep: [`SearchEngine::search`]
//! is the sweep, and [`SearchEngine::pipeline`] adds statistics and
//! traceback on top of it. The pool size is set once, when the engine
//! is built; a one-off search builds an engine and drops it. Long-lived
//! consumers (`aalign-serve`) hold an [`EngineHandle`] — a `Clone +
//! Send + Sync` `Arc` façade over the engine — so every layer shares
//! one pool through one code path.
//!
//! The [`wire`] module is the versioned JSON wire format for
//! [`Hit`], [`SearchMetrics`], [`SearchReport`], and
//! `AlignError` — the single representation shared by the CLI's
//! machine-readable output and the serve front ends.

pub mod engine;
pub mod fault;
pub mod handle;
pub mod metrics;
pub mod pipeline;
pub mod protocol;
pub mod search;
pub(crate) mod sync;
pub mod wire;

pub use engine::{rank_hits, SearchEngine};
pub use fault::FaultPlan;
pub use handle::EngineHandle;
pub use metrics::{
    CancelToken, ProgressFn, SearchMetrics, SearchProgress, ShardOutcome, WorkerMetrics,
};
pub use pipeline::{PipelineHit, PipelineOptions, PipelineReport};
pub use search::{Hit, SearchOptions, SearchReport};
