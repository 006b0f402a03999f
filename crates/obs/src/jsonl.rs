//! JSON Lines trace format: one event per line, `"ev"` discriminator.
//!
//! The *schema* is deliberately flat — every event serializes to a
//! single-level object of strings, integers, and booleans — but the
//! bytes are read and written by the workspace's one JSON codec,
//! [`crate::wire::JsonValue`]; this module only maps events to and
//! from field lists. Decoding is strict (unknown `"ev"` values,
//! missing or mistyped fields, and malformed JSON are hard errors) so
//! `read_events` doubles as the trace-file validator used by CI and
//! by `aalign trace-report`.
//!
//! Wire names:
//!
//! | `"ev"`        | event                     |
//! |---------------|---------------------------|
//! | `query_begin` | [`TraceEvent::QueryBegin`]|
//! | `span_begin`  | [`TraceEvent::SpanBegin`] |
//! | `span_end`    | [`TraceEvent::SpanEnd`]   |
//! | `align_begin` | [`TraceEvent::AlignBegin`]|
//! | `col`         | [`TraceEvent::Hybrid`]    |
//! | `rescue`      | [`TraceEvent::Rescue`]    |
//! | `align_end`   | [`TraceEvent::AlignEnd`]  |
//! | `query_end`   | [`TraceEvent::QueryEnd`]  |
//! | `stage`       | [`TraceEvent::Stage`]     |

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::event::{HybridEvent, ProbeOutcome, StageKind, StrategyKind, TraceEvent};
use crate::wire::{bool_field, i64_field, obj, str_field, u64_field, JsonValue, WireError};

/// Serialize one event to its single-line JSON form (no trailing
/// newline).
pub fn event_to_json(event: &TraceEvent) -> String {
    let fields: Vec<(&str, JsonValue)> = match event {
        TraceEvent::QueryBegin { query, subjects } => vec![
            ("ev", "query_begin".into()),
            ("query", query.as_str().into()),
            ("subjects", (*subjects).into()),
        ],
        TraceEvent::SpanBegin { span, at_us } => vec![
            ("ev", "span_begin".into()),
            ("span", span.as_str().into()),
            ("at_us", (*at_us).into()),
        ],
        TraceEvent::SpanEnd {
            span,
            at_us,
            dur_us,
        } => vec![
            ("ev", "span_end".into()),
            ("span", span.as_str().into()),
            ("at_us", (*at_us).into()),
            ("dur_us", (*dur_us).into()),
        ],
        TraceEvent::AlignBegin {
            subject,
            len,
            worker,
        } => vec![
            ("ev", "align_begin".into()),
            ("subject", (*subject).into()),
            ("len", (*len).into()),
            ("worker", (*worker).into()),
        ],
        TraceEvent::Hybrid(h) => vec![
            ("ev", "col".into()),
            ("column", h.column.into()),
            ("strategy", h.strategy.as_str().into()),
            ("sweeps", h.lazy_sweeps.into()),
            ("switched", h.switched.into()),
            ("probe", h.probe.as_str().into()),
        ],
        TraceEvent::Rescue {
            subject,
            from_bits,
            to_bits,
        } => vec![
            ("ev", "rescue".into()),
            ("subject", (*subject).into()),
            ("from_bits", (*from_bits).into()),
            ("to_bits", (*to_bits).into()),
        ],
        TraceEvent::AlignEnd {
            subject,
            score,
            iterate_columns,
            scan_columns,
            dur_us,
        } => vec![
            ("ev", "align_end".into()),
            ("subject", (*subject).into()),
            ("score", (*score).into()),
            ("iterate_columns", (*iterate_columns).into()),
            ("scan_columns", (*scan_columns).into()),
            ("dur_us", (*dur_us).into()),
        ],
        TraceEvent::QueryEnd { at_us, hits } => vec![
            ("ev", "query_end".into()),
            ("at_us", (*at_us).into()),
            ("hits", (*hits).into()),
        ],
        TraceEvent::Stage {
            request,
            stage,
            at_us,
            dur_us,
            ref_request,
        } => vec![
            ("ev", "stage".into()),
            ("request", (*request).into()),
            ("stage", stage.as_str().into()),
            ("at_us", (*at_us).into()),
            ("dur_us", (*dur_us).into()),
            ("ref_request", (*ref_request).into()),
        ],
    };
    obj(fields).render()
}

/// Buffered JSONL writer for trace streams.
pub struct TraceWriter<W: Write> {
    out: W,
    written: u64,
}

impl<W: Write> std::fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter")
            .field("written", &self.written)
            .finish_non_exhaustive()
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wrap a writer. Callers that care about syscall counts should
    /// hand in a `BufWriter`.
    pub fn new(out: W) -> Self {
        Self { out, written: 0 }
    }

    /// Write one event as one line.
    pub fn write_event(&mut self, event: &TraceEvent) -> io::Result<()> {
        self.out.write_all(event_to_json(event).as_bytes())?;
        self.out.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    /// Write a batch of events.
    pub fn write_all(&mut self, events: &[TraceEvent]) -> io::Result<()> {
        for ev in events {
            self.write_event(ev)?;
        }
        Ok(())
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flush and return the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Why a trace line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line is not a JSON object (carries the codec's
    /// [`WireError`] text).
    Malformed(String),
    /// The object has no `"ev"` field or an unknown discriminator.
    UnknownEvent(String),
    /// A required field is absent or has the wrong type.
    MissingField(&'static str),
    /// An enum-valued field holds an unrecognized wire name.
    BadValue(&'static str, String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed(why) => write!(f, "malformed JSON line: {why}"),
            ParseError::UnknownEvent(ev) => write!(f, "unknown event type {ev:?}"),
            ParseError::MissingField(name) => write!(f, "missing or mistyped field {name:?}"),
            ParseError::BadValue(field, got) => {
                write!(f, "bad value {got:?} for field {field:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSONL trace line back into a [`TraceEvent`].
pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
    let doc = JsonValue::parse(line).map_err(|e| ParseError::Malformed(e.0))?;
    if doc.as_object().is_none() {
        return Err(ParseError::Malformed("expected object".to_string()));
    }
    let missing = |key: &'static str| move |_: WireError| ParseError::MissingField(key);
    let text = |key: &'static str| str_field(&doc, key).map_err(missing(key));
    let uint = |key: &'static str| u64_field(&doc, key).map_err(missing(key));
    let ev = str_field(&doc, "ev")
        .map_err(|_| ParseError::UnknownEvent("<missing \"ev\" field>".to_string()))?;
    match ev {
        "query_begin" => Ok(TraceEvent::QueryBegin {
            query: text("query")?.to_string(),
            subjects: uint("subjects")?,
        }),
        "span_begin" => Ok(TraceEvent::SpanBegin {
            span: text("span")?.to_string(),
            at_us: uint("at_us")?,
        }),
        "span_end" => Ok(TraceEvent::SpanEnd {
            span: text("span")?.to_string(),
            at_us: uint("at_us")?,
            dur_us: uint("dur_us")?,
        }),
        "align_begin" => Ok(TraceEvent::AlignBegin {
            subject: uint("subject")?,
            len: uint("len")?,
            worker: uint("worker")?,
        }),
        "col" => {
            let strategy_name = text("strategy")?;
            let strategy = StrategyKind::parse(strategy_name)
                .ok_or_else(|| ParseError::BadValue("strategy", strategy_name.to_string()))?;
            let probe_name = text("probe")?;
            let probe = ProbeOutcome::parse(probe_name)
                .ok_or_else(|| ParseError::BadValue("probe", probe_name.to_string()))?;
            let sweeps = uint("sweeps")?;
            Ok(TraceEvent::Hybrid(HybridEvent {
                column: uint("column")?,
                strategy,
                lazy_sweeps: u32::try_from(sweeps)
                    .map_err(|_| ParseError::BadValue("sweeps", sweeps.to_string()))?,
                switched: bool_field(&doc, "switched").map_err(missing("switched"))?,
                probe,
            }))
        }
        "rescue" => Ok(TraceEvent::Rescue {
            subject: uint("subject")?,
            from_bits: uint("from_bits")?,
            to_bits: uint("to_bits")?,
        }),
        "align_end" => Ok(TraceEvent::AlignEnd {
            subject: uint("subject")?,
            score: i64_field(&doc, "score").map_err(missing("score"))?,
            iterate_columns: uint("iterate_columns")?,
            scan_columns: uint("scan_columns")?,
            dur_us: uint("dur_us")?,
        }),
        "query_end" => Ok(TraceEvent::QueryEnd {
            at_us: uint("at_us")?,
            hits: uint("hits")?,
        }),
        "stage" => {
            let stage_name = text("stage")?;
            let stage = StageKind::parse(stage_name)
                .ok_or_else(|| ParseError::BadValue("stage", stage_name.to_string()))?;
            Ok(TraceEvent::Stage {
                request: uint("request")?,
                stage,
                at_us: uint("at_us")?,
                dur_us: uint("dur_us")?,
                ref_request: uint("ref_request")?,
            })
        }
        other => Err(ParseError::UnknownEvent(other.to_string())),
    }
}

/// Read and validate a whole JSONL trace stream. Blank lines are
/// skipped; any other line that fails to parse aborts with the
/// 1-based line number attached.
pub fn read_events<R: BufRead>(reader: R) -> Result<Vec<TraceEvent>, (usize, ParseError)> {
    let mut events = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| (idx + 1, ParseError::Malformed(format!("io error: {e}"))))?;
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(&line).map_err(|e| (idx + 1, e))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::QueryBegin {
                query: "Q\"1\"\n".to_string(),
                subjects: 3,
            },
            TraceEvent::SpanBegin {
                span: "sweep".to_string(),
                at_us: 12,
            },
            TraceEvent::AlignBegin {
                subject: 0,
                len: 40,
                worker: 1,
            },
            TraceEvent::Hybrid(HybridEvent {
                column: 5,
                strategy: StrategyKind::Scan,
                lazy_sweeps: 0,
                switched: false,
                probe: ProbeOutcome::Returned,
            }),
            TraceEvent::Hybrid(HybridEvent {
                column: 6,
                strategy: StrategyKind::Iterate,
                lazy_sweeps: 4,
                switched: true,
                probe: ProbeOutcome::NotProbe,
            }),
            TraceEvent::Rescue {
                subject: 0,
                from_bits: 8,
                to_bits: 16,
            },
            TraceEvent::AlignEnd {
                subject: 0,
                score: -3,
                iterate_columns: 30,
                scan_columns: 10,
                dur_us: 88,
            },
            TraceEvent::SpanEnd {
                span: "sweep".to_string(),
                at_us: 100,
                dur_us: 88,
            },
            TraceEvent::QueryEnd {
                at_us: 101,
                hits: 3,
            },
            TraceEvent::Stage {
                request: 41,
                stage: StageKind::BatchWait,
                at_us: 207,
                dur_us: 88,
                ref_request: 40,
            },
            TraceEvent::Stage {
                request: 40,
                stage: StageKind::Sweep,
                at_us: 205,
                dur_us: 90,
                ref_request: 0,
            },
        ]
    }

    #[test]
    fn round_trips_every_event_kind() {
        for ev in samples() {
            let line = event_to_json(&ev);
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "line was {line}");
        }
    }

    #[test]
    fn emitted_bytes_are_pinned() {
        // Trace files outlive the binary that wrote them: key order,
        // escapes and number spelling are a compatibility contract.
        let want = [
            r#"{"ev":"query_begin","query":"Q\"1\"\n","subjects":3}"#,
            r#"{"ev":"span_begin","span":"sweep","at_us":12}"#,
            r#"{"ev":"align_begin","subject":0,"len":40,"worker":1}"#,
            r#"{"ev":"col","column":5,"strategy":"scan","sweeps":0,"switched":false,"probe":"returned"}"#,
            r#"{"ev":"col","column":6,"strategy":"iterate","sweeps":4,"switched":true,"probe":"none"}"#,
            r#"{"ev":"rescue","subject":0,"from_bits":8,"to_bits":16}"#,
            r#"{"ev":"align_end","subject":0,"score":-3,"iterate_columns":30,"scan_columns":10,"dur_us":88}"#,
            r#"{"ev":"span_end","span":"sweep","at_us":100,"dur_us":88}"#,
            r#"{"ev":"query_end","at_us":101,"hits":3}"#,
            r#"{"ev":"stage","request":41,"stage":"batch_wait","at_us":207,"dur_us":88,"ref_request":40}"#,
            r#"{"ev":"stage","request":40,"stage":"sweep","at_us":205,"dur_us":90,"ref_request":0}"#,
        ];
        let got: Vec<String> = samples().iter().map(event_to_json).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn writer_then_reader_round_trips_a_stream() {
        let events = samples();
        let mut writer = TraceWriter::new(Vec::new());
        writer.write_all(&events).unwrap();
        assert_eq!(writer.written(), events.len() as u64);
        let bytes = writer.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), events.len());
        let back = read_events(text.as_bytes()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn parser_rejects_junk_with_line_numbers() {
        let text = "{\"ev\":\"query_end\",\"at_us\":1,\"hits\":0}\n\nnot json\n";
        let err = read_events(text.as_bytes()).unwrap_err();
        assert_eq!(err.0, 3, "blank line skipped, junk line numbered");
        assert!(matches!(err.1, ParseError::Malformed(_)));
    }

    #[test]
    fn parser_rejects_unknown_and_incomplete_events() {
        assert!(matches!(
            parse_line("{\"ev\":\"warp_drive\"}"),
            Err(ParseError::UnknownEvent(_))
        ));
        assert!(matches!(
            parse_line("{\"ev\":\"col\",\"column\":1}"),
            Err(ParseError::MissingField(_))
        ));
        assert!(matches!(
            parse_line("{\"ev\":\"col\",\"column\":1,\"strategy\":\"warp\",\"sweeps\":0,\"switched\":false,\"probe\":\"none\"}"),
            Err(ParseError::BadValue("strategy", _))
        ));
        assert!(matches!(
            parse_line("{\"ev\":\"query_end\",\"at_us\":-5,\"hits\":0}"),
            Err(ParseError::MissingField("at_us"))
        ));
        assert!(matches!(
            parse_line("{\"ev\":\"stage\",\"request\":1,\"stage\":\"warp\",\"at_us\":0,\"dur_us\":0,\"ref_request\":0}"),
            Err(ParseError::BadValue("stage", _))
        ));
        assert!(matches!(
            parse_line("{\"ev\":\"query_end\",\"at_us\":1,\"hits\":0} tail"),
            Err(ParseError::Malformed(_))
        ));
        // The `\u` corpus of `wire.rs`: an escape straddling a
        // multibyte char (a slice panic in the flat parser this module
        // used to carry), a truncated escape, a lone surrogate.
        for query in ["\\u000\u{e9}", "\\u12", "\\ud83d"] {
            let line = format!("{{\"ev\":\"query_begin\",\"query\":\"{query}\",\"subjects\":1}}");
            assert!(
                matches!(parse_line(&line), Err(ParseError::Malformed(_))),
                "{line}"
            );
        }
    }

    #[test]
    fn string_escapes_survive_the_round_trip() {
        let ev = TraceEvent::QueryBegin {
            query: "tab\there \\ quote\" ctrl\u{1} unicode\u{e9}".to_string(),
            subjects: 1,
        };
        let line = event_to_json(&ev);
        assert_eq!(parse_line(&line).unwrap(), ev);
        // Standard encoders escape non-BMP characters as surrogate
        // pairs; those decode here exactly as they do on the wire.
        let paired = r#"{"ev":"query_begin","query":"\ud83d\ude00","subjects":1}"#;
        let TraceEvent::QueryBegin { query, .. } = parse_line(paired).unwrap() else {
            panic!("{paired}");
        };
        assert_eq!(query, "\u{1f600}");
    }
}
