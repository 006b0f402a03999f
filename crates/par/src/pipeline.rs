//! A complete homology-search pipeline — the application the paper's
//! introduction motivates, assembled from the workspace's pieces.
//!
//! Stages:
//!
//! 1. **Score sweep** — every subject scored with the hybrid SIMD
//!    kernels, multithreaded ([`SearchEngine::search`]).
//! 2. **Statistics** — bit scores and E-values (Karlin–Altschul) for
//!    the survivors of an E-value cutoff.
//! 3. **Traceback** — full alignments (rows + CIGAR) for the top
//!    hits only, the expensive part amortized over a handful of
//!    subjects.
//!
//! Like the raw sweep, the pipeline runs on a [`SearchEngine`]: hold
//! one and call [`SearchEngine::pipeline`] to serve many queries from
//! the same worker pool.

use aalign_bio::stats::{bit_score, evalue, KarlinParams};
use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::traceback::{traceback_align, Alignment};
use aalign_core::{AlignConfig, AlignError, Aligner, Strategy};

use crate::engine::SearchEngine;
use crate::metrics::SearchMetrics;
use crate::search::SearchOptions;

/// Pipeline tuning, built fluently
/// (`PipelineOptions::new().max_evalue(1e-3).traceback_top(3)`).
///
/// `#[non_exhaustive]`: construct through [`PipelineOptions::new`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PipelineOptions {
    /// Options of the stage-1 sweep: deadline, progress, trace and
    /// `top_n` apply to the sweep; its cancellation token is honored
    /// in every stage.
    pub search: SearchOptions,
    /// Keep hits with E-value at or below this cutoff.
    pub max_evalue: f64,
    /// Reconstruct alignments for at most this many top hits.
    pub traceback_top: usize,
    /// Statistics parameters (λ, K) for bit scores / E-values.
    pub stats: KarlinParams,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            search: SearchOptions::new(),
            max_evalue: 10.0,
            traceback_top: 5,
            stats: aalign_bio::stats::BLOSUM62_GAPPED_11_1,
        }
    }
}

impl PipelineOptions {
    /// Default pipeline options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the stage-1 sweep options.
    pub fn search(mut self, search: SearchOptions) -> Self {
        self.search = search;
        self
    }

    /// Keep hits with E-value at or below `cutoff`.
    pub fn max_evalue(mut self, cutoff: f64) -> Self {
        self.max_evalue = cutoff;
        self
    }

    /// Reconstruct alignments for at most `n` top hits.
    pub fn traceback_top(mut self, n: usize) -> Self {
        self.traceback_top = n;
        self
    }

    /// Set the Karlin–Altschul statistics parameters.
    pub fn stats(mut self, stats: KarlinParams) -> Self {
        self.stats = stats;
        self
    }
}

/// One significant hit.
#[derive(Debug, Clone)]
pub struct PipelineHit {
    /// Database index of the subject.
    pub db_index: usize,
    /// Subject id (resolved once per surviving hit, after the sweep —
    /// the sweep itself allocates no ids).
    pub id: String,
    /// Raw alignment score.
    pub score: i32,
    /// Normalized bit score.
    pub bits: f64,
    /// Expectation value against this database.
    pub evalue: f64,
    /// Full alignment (top hits only).
    pub alignment: Option<Alignment>,
}

/// Pipeline result.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Significant hits, best first.
    pub hits: Vec<PipelineHit>,
    /// Subjects scored in stage 1.
    pub subjects_scored: usize,
    /// Stage-1 sweep metrics (times, GCUPS, kernel counters,
    /// per-worker load).
    pub metrics: SearchMetrics,
    /// The stage-1 sweep's structured trace when
    /// [`SearchOptions::trace`] was set (empty otherwise).
    pub trace_events: Vec<aalign_obs::TraceEvent>,
    /// True when the stage-1 sweep did not cover the whole database
    /// (deadline expiry, per-subject panic, or a lost worker); the
    /// hits and statistics describe the subjects that completed.
    pub partial: bool,
    /// The survivable failures behind a partial sweep (see
    /// [`SearchReport::errors`](crate::SearchReport::errors)).
    pub errors: Vec<AlignError>,
}

impl SearchEngine {
    /// Run the full three-stage pipeline on this engine's pool.
    pub fn pipeline(
        &self,
        cfg: &AlignConfig,
        query: &Sequence,
        db: &SeqDatabase,
        opts: &PipelineOptions,
    ) -> Result<PipelineReport, AlignError> {
        // Stage 1: sweep.
        let aligner = Aligner::new(cfg.clone()).with_strategy(Strategy::Hybrid);
        let report = self.search(&aligner, query, db, &opts.search)?;
        let trace_events = report.trace_events;

        let cancelled = || -> Result<(), AlignError> {
            match &opts.search.cancel {
                Some(token) if token.is_cancelled() => Err(AlignError::Cancelled),
                _ => Ok(()),
            }
        };

        // Stage 2: statistics + cutoff.
        cancelled()?;
        let db_residues: usize = report.total_residues;
        let mut hits: Vec<PipelineHit> = report
            .hits
            .into_iter()
            .filter_map(|h| {
                let bits = bit_score(h.score, opts.stats);
                let ev = evalue(bits, query.len(), db_residues.max(1));
                (ev <= opts.max_evalue).then(|| PipelineHit {
                    db_index: h.db_index,
                    id: db.id(h.db_index).to_string(),
                    score: h.score,
                    bits,
                    evalue: ev,
                    alignment: None,
                })
            })
            .collect();

        // Stage 3: traceback for the top hits.
        for hit in hits.iter_mut().take(opts.traceback_top) {
            cancelled()?;
            hit.alignment = Some(traceback_align(cfg, query, db.get(hit.db_index)));
        }

        Ok(PipelineReport {
            hits,
            subjects_scored: report.subjects,
            metrics: report.metrics,
            trace_events,
            partial: report.partial,
            errors: report.errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalign_bio::matrices::BLOSUM62;
    use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db, Level, PairSpec};
    use aalign_core::GapModel;

    use crate::metrics::CancelToken;

    fn cfg() -> AlignConfig {
        AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62)
    }

    fn pipeline(
        q: &Sequence,
        db: &SeqDatabase,
        opts: PipelineOptions,
    ) -> Result<PipelineReport, AlignError> {
        SearchEngine::new(2).pipeline(&cfg(), q, db, &opts)
    }

    #[test]
    fn finds_planted_homolog_with_significant_evalue() {
        let mut rng = seeded_rng(777);
        let q = named_query(&mut rng, 150);
        let mut seqs = swissprot_like_db(778, 120).sequences().to_vec();
        let planted = PairSpec::new(Level::Hi, Level::Hi)
            .generate(&mut rng, &q)
            .subject;
        let planted_id = planted.id().to_string();
        seqs.push(planted);
        let db = SeqDatabase::new(seqs);

        let report = pipeline(
            &q,
            &db,
            PipelineOptions::new().max_evalue(1e-3).traceback_top(2),
        )
        .unwrap();
        assert!(!report.hits.is_empty());
        assert_eq!(report.hits[0].id, planted_id);
        assert!(report.hits[0].evalue < 1e-10);
        let aln = report.hits[0].alignment.as_ref().unwrap();
        assert_eq!(aln.score, report.hits[0].score);
        assert!(!aln.cigar().is_empty());
        // Noise must not pass a strict cutoff.
        for h in &report.hits {
            assert!(h.evalue <= 1e-3);
        }
        // Sweep metrics ride along on the pipeline report.
        assert!(report.metrics.gcups > 0.0);
        assert!(!report.metrics.per_worker.is_empty());
    }

    #[test]
    fn empty_database_yields_empty_report() {
        let mut rng = seeded_rng(780);
        let q = named_query(&mut rng, 30);
        let report = pipeline(&q, &SeqDatabase::default(), PipelineOptions::new()).unwrap();
        assert!(report.hits.is_empty());
        assert_eq!(report.subjects_scored, 0);
    }

    #[test]
    fn traceback_limit_is_respected() {
        let mut rng = seeded_rng(781);
        let q = named_query(&mut rng, 100);
        let mut seqs = Vec::new();
        for _ in 0..6 {
            seqs.push(
                PairSpec::new(Level::Md, Level::Hi)
                    .generate(&mut rng, &q)
                    .subject,
            );
        }
        let db = SeqDatabase::new(seqs);
        let report = pipeline(
            &q,
            &db,
            PipelineOptions::new().max_evalue(1e9).traceback_top(3),
        )
        .unwrap();
        let with_aln = report.hits.iter().filter(|h| h.alignment.is_some()).count();
        assert_eq!(with_aln, 3);
    }

    #[test]
    fn cancelled_token_aborts_the_pipeline() {
        let mut rng = seeded_rng(782);
        let q = named_query(&mut rng, 60);
        let db = swissprot_like_db(783, 20);
        let token = CancelToken::new();
        token.cancel();
        let opts = PipelineOptions::new().search(SearchOptions::new().cancel(token));
        let err = pipeline(&q, &db, opts).unwrap_err();
        assert_eq!(err, AlignError::Cancelled);
    }

    #[test]
    fn engine_pipeline_reuses_the_pool() {
        let mut rng = seeded_rng(784);
        let db = swissprot_like_db(785, 25);
        let engine = SearchEngine::new(2);
        for n in 1..=2u64 {
            let q = named_query(&mut rng, 80);
            let report = engine
                .pipeline(&cfg(), &q, &db, &PipelineOptions::new().max_evalue(1e9))
                .unwrap();
            assert_eq!(report.subjects_scored, 25);
            for w in &report.metrics.per_worker {
                assert_eq!(w.queries_on_worker, n);
            }
        }
        assert_eq!(engine.queries_served(), 2);
    }
}
