//! Engine-sharing façade: a cheaply clonable, thread-safe handle to
//! one [`SearchEngine`].
//!
//! The CLI and `aalign-serve`'s local backend (the dispatcher only
//! sees the `SearchBackend` trait) both construct their engine through
//! [`EngineHandle::new`], so there is a single code path from
//! "requested thread count" to "running pool". The pool size is the
//! engine's one setting; a sweep engages `min(pool, subjects)` of its
//! workers.
//!
//! [`EngineHandle`] is `Clone + Send + Sync` (an `Arc` around the
//! engine, which is itself `Sync`), so a server can hand one clone to
//! every connection thread while they all share the same worker pool,
//! scratch buffers, and lifetime counters. It derefs to
//! [`SearchEngine`], so every engine method is available directly:
//!
//! ```
//! use aalign_par::{EngineHandle, SearchOptions};
//! use aalign_core::{AlignConfig, Aligner, GapModel};
//! use aalign_bio::matrices::BLOSUM62;
//! use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
//!
//! let engine = EngineHandle::new(2);
//! let worker = engine.clone(); // shares the same pool
//! let mut rng = seeded_rng(1);
//! let query = named_query(&mut rng, 40);
//! let db = swissprot_like_db(2, 8);
//! let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
//! let report = worker.search(&aligner, &query, &db, &SearchOptions::new()).unwrap();
//! assert_eq!(report.hits.len(), 8);
//! ```

use std::ops::Deref;
use std::sync::Arc;

use crate::engine::SearchEngine;

/// Clonable, `Send + Sync` handle to a shared [`SearchEngine`].
///
/// All clones drive the same worker pool; the pool shuts down when
/// the last clone drops. See the [module docs](self) for the sharing
/// model.
#[derive(Debug, Clone)]
pub struct EngineHandle {
    inner: Arc<SearchEngine>,
}

impl EngineHandle {
    /// Spin up a pool of `threads` workers (0 = available
    /// parallelism) and wrap it in a shared handle.
    pub fn new(threads: usize) -> Self {
        Self::from(SearchEngine::new(threads))
    }

    /// Borrow the underlying engine (equivalent to deref).
    pub fn engine(&self) -> &SearchEngine {
        &self.inner
    }
}

impl From<SearchEngine> for EngineHandle {
    fn from(engine: SearchEngine) -> Self {
        Self {
            inner: Arc::new(engine),
        }
    }
}

impl Deref for EngineHandle {
    type Target = SearchEngine;

    fn deref(&self) -> &SearchEngine {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_is_send_sync_and_clonable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<EngineHandle>();
    }

    #[test]
    fn clones_share_one_pool() {
        let a = EngineHandle::new(2);
        let b = a.clone();
        assert!(std::ptr::eq(a.engine(), b.engine()));
    }
}
