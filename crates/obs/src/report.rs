//! Hybrid decision timelines reconstructed from a parsed trace.
//!
//! [`TraceReport::from_events`] folds a flat event stream back into
//! per-subject structure: runs of consecutive same-strategy columns
//! become [`StrategySegment`]s, and the per-subject counters are
//! cross-checked against the `align_end` summary the kernel reported
//! ([`SubjectTimeline::reconciled`]). That check is the trace's
//! integrity gate: the per-column events must *exactly* explain the
//! striped `RunStats` totals, and striped plus lane columns must cover
//! the subject, or the trace is lying about what the kernels did.
//!
//! [`TraceReport::render`] is the backend of `aalign trace-report`.

use std::fmt::Write as _;

use crate::event::{ProbeOutcome, StrategyKind, TraceEvent};

/// A maximal run of consecutive columns processed by one strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategySegment {
    /// Strategy for every column in the run.
    pub strategy: StrategyKind,
    /// First column of the run (inclusive).
    pub start: u64,
    /// Last column of the run (inclusive).
    pub end: u64,
    /// Lazy-loop sweeps accumulated across the run (iterate only).
    pub lazy_sweeps: u64,
}

impl StrategySegment {
    /// Columns covered by the run.
    pub fn columns(&self) -> u64 {
        self.end - self.start + 1
    }
}

/// One subject's reconstructed alignment timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectTimeline {
    /// Database index of the subject.
    pub subject: u64,
    /// Subject length in residues.
    pub len: u64,
    /// Worker that aligned it.
    pub worker: u64,
    /// Final score from `align_end`.
    pub score: i64,
    /// Alignment wall time in microseconds.
    pub dur_us: u64,
    /// Strategy runs, in column order.
    pub segments: Vec<StrategySegment>,
    /// Iterate→scan switches observed in the column stream.
    pub switches: u64,
    /// Probe columns that kept the kernel in iterate mode.
    pub probes_stayed: u64,
    /// Probe columns that sent the kernel back to scan mode.
    pub probes_returned: u64,
    /// Iterate columns counted from the column stream.
    pub iterate_columns: u64,
    /// Scan columns counted from the column stream.
    pub scan_columns: u64,
    /// Lazy sweeps summed from the column stream.
    pub lazy_sweeps: u64,
    /// Iterate/scan totals the kernel reported in `align_end`.
    pub reported: (u64, u64),
    /// Columns the lane kernel scored, from `align_end` (no column
    /// events describe them).
    pub inter_columns: u64,
    /// Overflow rescues observed, as `(from_bits, to_bits)` widening
    /// steps in stream order.
    pub rescues: Vec<(u64, u64)>,
}

impl SubjectTimeline {
    /// True when the per-column events exactly explain the kernel's
    /// own `align_end` summary and, with the lane columns, cover the
    /// subject — the trace's integrity invariant.
    pub fn reconciled(&self) -> bool {
        (self.iterate_columns, self.scan_columns) == self.reported
            && self.iterate_columns + self.scan_columns + self.inter_columns == self.len
    }
}

/// A whole query's trace, reassembled.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Query id from `query_begin` (empty if the framing was absent).
    pub query: String,
    /// Subject count promised by `query_begin`.
    pub subjects: u64,
    /// Hits reported by `query_end`.
    pub hits: u64,
    /// Total query wall time in microseconds (from `query_end`).
    pub total_us: u64,
    /// Engine stage spans as `(name, dur_us)`, in completion order.
    pub spans: Vec<(String, u64)>,
    /// Per-subject timelines, in stream order.
    pub timelines: Vec<SubjectTimeline>,
}

/// State for the subject currently being folded.
struct OpenSubject {
    timeline: SubjectTimeline,
    prev_strategy: Option<StrategyKind>,
}

impl TraceReport {
    /// Fold a flat event stream into per-subject timelines.
    ///
    /// Structural violations — a `col` outside an `align_begin` /
    /// `align_end` envelope, a dangling `align_begin`, mismatched
    /// subject ids — are hard errors: they mean the producer broke
    /// the framing contract, and any numbers derived from such a
    /// stream would be untrustworthy.
    pub fn from_events(events: &[TraceEvent]) -> Result<TraceReport, String> {
        let mut report = TraceReport::default();
        let mut open: Option<OpenSubject> = None;
        for (i, ev) in events.iter().enumerate() {
            match ev {
                TraceEvent::QueryBegin { query, subjects } => {
                    report.query = query.clone();
                    report.subjects = *subjects;
                }
                TraceEvent::QueryEnd { at_us, hits } => {
                    report.total_us = *at_us;
                    report.hits = *hits;
                }
                TraceEvent::SpanBegin { .. } => {}
                // Serve-stack stage events interleave freely with the
                // engine envelope and carry no kernel decisions; the
                // per-query timeline ignores them.
                TraceEvent::Stage { .. } => {}
                TraceEvent::SpanEnd { span, dur_us, .. } => {
                    report.spans.push((span.clone(), *dur_us));
                }
                TraceEvent::AlignBegin {
                    subject,
                    len,
                    worker,
                } => {
                    if open.is_some() {
                        return Err(format!(
                            "event {i}: align_begin for subject {subject} \
                             while a previous subject is still open"
                        ));
                    }
                    open = Some(OpenSubject {
                        timeline: SubjectTimeline {
                            subject: *subject,
                            len: *len,
                            worker: *worker,
                            score: 0,
                            dur_us: 0,
                            segments: Vec::new(),
                            switches: 0,
                            probes_stayed: 0,
                            probes_returned: 0,
                            iterate_columns: 0,
                            scan_columns: 0,
                            lazy_sweeps: 0,
                            reported: (0, 0),
                            inter_columns: 0,
                            rescues: Vec::new(),
                        },
                        prev_strategy: None,
                    });
                }
                TraceEvent::Hybrid(h) => {
                    let cur = open
                        .as_mut()
                        .ok_or_else(|| format!("event {i}: col outside align envelope"))?;
                    let t = &mut cur.timeline;
                    match h.strategy {
                        StrategyKind::Iterate => t.iterate_columns += 1,
                        StrategyKind::Scan => t.scan_columns += 1,
                    }
                    t.lazy_sweeps += u64::from(h.lazy_sweeps);
                    if h.switched {
                        t.switches += 1;
                    }
                    match h.probe {
                        ProbeOutcome::NotProbe => {}
                        ProbeOutcome::Stayed => t.probes_stayed += 1,
                        ProbeOutcome::Returned => t.probes_returned += 1,
                    }
                    if cur.prev_strategy == Some(h.strategy) {
                        let seg = t.segments.last_mut().expect("segment for prev strategy");
                        seg.end = h.column;
                        seg.lazy_sweeps += u64::from(h.lazy_sweeps);
                    } else {
                        t.segments.push(StrategySegment {
                            strategy: h.strategy,
                            start: h.column,
                            end: h.column,
                            lazy_sweeps: u64::from(h.lazy_sweeps),
                        });
                        cur.prev_strategy = Some(h.strategy);
                    }
                }
                TraceEvent::Rescue {
                    subject,
                    from_bits,
                    to_bits,
                } => {
                    let cur = open
                        .as_mut()
                        .ok_or_else(|| format!("event {i}: rescue outside align envelope"))?;
                    let t = &mut cur.timeline;
                    if t.subject != *subject {
                        return Err(format!(
                            "event {i}: rescue for subject {subject} inside \
                             an envelope opened for subject {}",
                            t.subject
                        ));
                    }
                    // Any columns seen so far belonged to the
                    // discarded narrow run; only the kept run must
                    // reconcile against the `align_end` totals.
                    t.segments.clear();
                    t.switches = 0;
                    t.probes_stayed = 0;
                    t.probes_returned = 0;
                    t.iterate_columns = 0;
                    t.scan_columns = 0;
                    t.lazy_sweeps = 0;
                    cur.prev_strategy = None;
                    t.rescues.push((*from_bits, *to_bits));
                }
                TraceEvent::AlignEnd {
                    subject,
                    score,
                    iterate_columns,
                    scan_columns,
                    inter_columns,
                    dur_us,
                } => {
                    let cur = open
                        .take()
                        .ok_or_else(|| format!("event {i}: align_end without align_begin"))?;
                    let mut t = cur.timeline;
                    if t.subject != *subject {
                        return Err(format!(
                            "event {i}: align_end for subject {subject} closes \
                             an envelope opened for subject {}",
                            t.subject
                        ));
                    }
                    t.score = *score;
                    t.dur_us = *dur_us;
                    t.reported = (*iterate_columns, *scan_columns);
                    t.inter_columns = *inter_columns;
                    report.timelines.push(t);
                }
            }
        }
        if let Some(cur) = open {
            return Err(format!(
                "stream ended with subject {} still open",
                cur.timeline.subject
            ));
        }
        Ok(report)
    }

    /// True when every subject's column stream reconciles with its
    /// kernel-reported totals.
    pub fn reconciled(&self) -> bool {
        self.timelines.iter().all(SubjectTimeline::reconciled)
    }

    /// Subjects that fail [`SubjectTimeline::reconciled`].
    pub fn unreconciled(&self) -> Vec<u64> {
        self.timelines
            .iter()
            .filter(|t| !t.reconciled())
            .map(|t| t.subject)
            .collect()
    }

    /// Render the human-readable report: query header, stage spans,
    /// and up to `max_subjects` per-subject strategy timelines
    /// (subjects with the most strategy activity first).
    pub fn render(&self, max_subjects: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query {:?}: {} subjects, {} hits, {} us total",
            self.query, self.subjects, self.hits, self.total_us
        );
        if !self.spans.is_empty() {
            let _ = writeln!(out, "stages:");
            for (name, dur) in &self.spans {
                let _ = writeln!(out, "  {name:<10} {dur:>10} us");
            }
        }
        let total = self.timelines.len();
        let mut order: Vec<&SubjectTimeline> = self.timelines.iter().collect();
        order.sort_by_key(|t| std::cmp::Reverse((t.segments.len(), t.lazy_sweeps)));
        order.truncate(max_subjects);
        let _ = writeln!(
            out,
            "subjects traced: {total} (showing {} with the most strategy activity)",
            order.len()
        );
        for t in order {
            let _ = writeln!(
                out,
                "subject {:>6} len {:>5} worker {:>2} score {:>7} {:>8} us  \
                 switches {} probes +{}/-{} lazy {}{}{}",
                t.subject,
                t.len,
                t.worker,
                t.score,
                t.dur_us,
                t.switches,
                t.probes_stayed,
                t.probes_returned,
                t.lazy_sweeps,
                if t.rescues.is_empty() {
                    String::new()
                } else {
                    let steps: Vec<String> = t
                        .rescues
                        .iter()
                        .map(|(from, to)| format!("{from}->{to}"))
                        .collect();
                    format!("  rescued {}", steps.join(","))
                },
                if t.reconciled() {
                    ""
                } else {
                    "  [UNRECONCILED]"
                },
            );
            let mut line = String::from("  ");
            for seg in &t.segments {
                let tag = match seg.strategy {
                    StrategyKind::Iterate => "iter",
                    StrategyKind::Scan => "scan",
                };
                let _ = write!(
                    line,
                    "[{}..{} {tag} x{}{}] ",
                    seg.start,
                    seg.end,
                    seg.columns(),
                    if seg.lazy_sweeps > 0 {
                        format!(" lazy {}", seg.lazy_sweeps)
                    } else {
                        String::new()
                    },
                );
            }
            if t.inter_columns > 0 {
                let _ = write!(line, "[lanes x{}]", t.inter_columns);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HybridEvent;

    fn col(column: u64, strategy: StrategyKind, sweeps: u32) -> TraceEvent {
        TraceEvent::Hybrid(HybridEvent {
            column,
            strategy,
            lazy_sweeps: sweeps,
            switched: false,
            probe: ProbeOutcome::NotProbe,
        })
    }

    fn well_formed() -> Vec<TraceEvent> {
        use StrategyKind::{Iterate, Scan};
        vec![
            TraceEvent::QueryBegin {
                query: "q0".to_string(),
                subjects: 1,
            },
            TraceEvent::SpanBegin {
                span: "sweep".to_string(),
                at_us: 0,
            },
            TraceEvent::AlignBegin {
                subject: 4,
                len: 6,
                worker: 2,
            },
            col(0, Iterate, 0),
            col(1, Iterate, 3),
            TraceEvent::Hybrid(HybridEvent {
                column: 2,
                strategy: Iterate,
                lazy_sweeps: 5,
                switched: true,
                probe: ProbeOutcome::NotProbe,
            }),
            col(3, Scan, 0),
            col(4, Scan, 0),
            TraceEvent::Hybrid(HybridEvent {
                column: 5,
                strategy: Iterate,
                lazy_sweeps: 1,
                switched: false,
                probe: ProbeOutcome::Stayed,
            }),
            TraceEvent::AlignEnd {
                subject: 4,
                score: 42,
                iterate_columns: 4,
                scan_columns: 2,
                inter_columns: 0,
                dur_us: 17,
            },
            TraceEvent::SpanEnd {
                span: "sweep".to_string(),
                at_us: 20,
                dur_us: 20,
            },
            TraceEvent::QueryEnd { at_us: 21, hits: 1 },
        ]
    }

    #[test]
    fn folds_segments_and_reconciles() {
        let report = TraceReport::from_events(&well_formed()).unwrap();
        assert_eq!(report.query, "q0");
        assert_eq!(report.hits, 1);
        assert_eq!(report.spans, vec![("sweep".to_string(), 20)]);
        assert_eq!(report.timelines.len(), 1);
        let t = &report.timelines[0];
        assert_eq!(t.subject, 4);
        assert_eq!(t.segments.len(), 3, "iterate / scan / iterate runs");
        assert_eq!(t.segments[0].start, 0);
        assert_eq!(t.segments[0].end, 2);
        assert_eq!(t.segments[0].columns(), 3);
        assert_eq!(t.segments[0].lazy_sweeps, 8);
        assert_eq!(t.segments[1].strategy, StrategyKind::Scan);
        assert_eq!(t.switches, 1);
        assert_eq!(t.probes_stayed, 1);
        assert_eq!(t.probes_returned, 0);
        assert_eq!((t.iterate_columns, t.scan_columns), (4, 2));
        assert!(t.reconciled());
        assert!(report.reconciled());
        assert!(report.unreconciled().is_empty());
    }

    #[test]
    fn detects_unreconciled_totals() {
        let mut events = well_formed();
        // Corrupt the kernel summary so it disagrees with the stream.
        for ev in &mut events {
            if let TraceEvent::AlignEnd {
                iterate_columns, ..
            } = ev
            {
                *iterate_columns += 1;
            }
        }
        let report = TraceReport::from_events(&events).unwrap();
        assert!(!report.reconciled());
        assert_eq!(report.unreconciled(), vec![4]);
        assert!(report.render(10).contains("[UNRECONCILED]"));
    }

    #[test]
    fn rescue_resets_column_accumulators_and_is_recorded() {
        use StrategyKind::Iterate;
        let events = vec![
            TraceEvent::AlignBegin {
                subject: 7,
                len: 2,
                worker: 0,
            },
            // Columns of the saturated 8-bit run (a producer that
            // truncates would drop these; one that doesn't must still
            // reconcile on the kept run only).
            col(0, Iterate, 0),
            col(1, Iterate, 2),
            TraceEvent::Rescue {
                subject: 7,
                from_bits: 8,
                to_bits: 16,
            },
            col(0, Iterate, 0),
            col(1, Iterate, 1),
            TraceEvent::AlignEnd {
                subject: 7,
                score: 200,
                iterate_columns: 2,
                scan_columns: 0,
                inter_columns: 0,
                dur_us: 5,
            },
        ];
        let report = TraceReport::from_events(&events).unwrap();
        let t = &report.timelines[0];
        assert_eq!(t.rescues, vec![(8, 16)]);
        assert_eq!((t.iterate_columns, t.scan_columns), (2, 0));
        assert_eq!(t.lazy_sweeps, 1, "discarded run's sweeps dropped");
        assert!(t.reconciled());
        assert!(report.render(5).contains("rescued 8->16"));

        let orphan = vec![TraceEvent::Rescue {
            subject: 0,
            from_bits: 8,
            to_bits: 16,
        }];
        assert!(TraceReport::from_events(&orphan)
            .unwrap_err()
            .contains("outside align envelope"));
    }

    #[test]
    fn a_lane_envelope_reconciles_on_its_inter_columns() {
        let lane = |inter_columns| {
            vec![
                TraceEvent::AlignBegin {
                    subject: 9,
                    len: 40,
                    worker: 1,
                },
                TraceEvent::AlignEnd {
                    subject: 9,
                    score: 31,
                    iterate_columns: 0,
                    scan_columns: 0,
                    inter_columns,
                    dur_us: 2,
                },
            ]
        };
        let report = TraceReport::from_events(&lane(40)).unwrap();
        assert_eq!(report.timelines[0].inter_columns, 40);
        assert!(report.reconciled());
        assert!(report.render(5).contains("[lanes x40]"));
        let short = TraceReport::from_events(&lane(39)).unwrap();
        assert_eq!(short.unreconciled(), vec![9]);
    }

    #[test]
    fn rejects_broken_framing() {
        let orphan_col = vec![col(0, StrategyKind::Iterate, 0)];
        assert!(TraceReport::from_events(&orphan_col)
            .unwrap_err()
            .contains("outside align envelope"));

        let dangling = vec![TraceEvent::AlignBegin {
            subject: 0,
            len: 1,
            worker: 0,
        }];
        assert!(TraceReport::from_events(&dangling)
            .unwrap_err()
            .contains("still open"));

        let crossed = vec![
            TraceEvent::AlignBegin {
                subject: 0,
                len: 1,
                worker: 0,
            },
            TraceEvent::AlignEnd {
                subject: 1,
                score: 0,
                iterate_columns: 0,
                scan_columns: 0,
                inter_columns: 0,
                dur_us: 0,
            },
        ];
        assert!(TraceReport::from_events(&crossed)
            .unwrap_err()
            .contains("closes an envelope"));
    }

    #[test]
    fn render_mentions_every_shown_strategy_run() {
        let report = TraceReport::from_events(&well_formed()).unwrap();
        let text = report.render(5);
        assert!(text.contains("iter"), "{text}");
        assert!(text.contains("scan"), "{text}");
        assert!(text.contains("lazy"), "{text}");
    }
}
