//! Trace sinks: where events go, and how "off" costs nothing.
//!
//! The kernel-facing contract is [`TraceSink`]. Emission sites are
//! written as
//!
//! ```ignore
//! if sink.enabled() {
//!     sink.record(TraceEvent::Hybrid(ev));
//! }
//! ```
//!
//! so a monomorphized [`NullSink`] — whose `enabled` is a constant
//! `false` — deletes the whole site at compile time. The dispatch
//! layer in `aalign-core` checks `enabled()` **once per alignment**
//! and routes disabled runs to the `NullSink` instantiation, which is
//! the exact pre-observability kernel code: `Aligner::align_prepared`
//! *is* that instantiation, so "off" is not a second path that could
//! drift.

use crate::event::{HybridEvent, TraceEvent};

/// Receiver of typed trace events.
///
/// Implementations must keep [`record`](TraceSink::record) cheap —
/// it runs on worker threads between SIMD columns. Buffer locally,
/// flush in batches (as the search engine's workers do, one batch per
/// subject).
pub trait TraceSink {
    /// Whether this sink wants events at all. Emission sites gate on
    /// this; a constant `false` (as in [`NullSink`]) removes them.
    #[inline(always)]
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one event.
    fn record(&mut self, event: TraceEvent);

    /// Convenience wrapper for the kernel's hot path: gate + wrap.
    #[inline(always)]
    fn on_hybrid(&mut self, ev: HybridEvent) {
        if self.enabled() {
            self.record(TraceEvent::Hybrid(ev));
        }
    }
}

/// The no-op sink. Monomorphizing a kernel against `NullSink`
/// produces code identical to one with no tracing support at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

/// Mutable references forward, so `&mut dyn TraceSink` (the shape the
/// runtime dispatch layer threads through non-generic call chains)
/// satisfies the same bound as a concrete sink.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline(always)]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline(always)]
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event);
    }
}

/// An in-memory event buffer. Workers keep one per thread, reuse it
/// across subjects (publishing a batch drains `events`), and never
/// contend inside an alignment.
#[derive(Debug, Default)]
pub struct CollectorSink {
    /// The buffered events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl CollectorSink {
    /// Fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the buffered events, leaving the collector empty (the
    /// allocation is surrendered with them).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl TraceSink for CollectorSink {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ProbeOutcome, StrategyKind};

    fn col(column: u64) -> HybridEvent {
        HybridEvent {
            column,
            strategy: StrategyKind::Iterate,
            lazy_sweeps: 0,
            switched: false,
            probe: ProbeOutcome::NotProbe,
        }
    }

    #[test]
    fn null_sink_is_disabled_and_drops_everything() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.on_hybrid(col(0));
        sink.record(TraceEvent::QueryEnd { at_us: 1, hits: 0 });
        // Nothing observable — the point is it compiles to nothing.
    }

    #[test]
    fn collector_buffers_in_order_and_take_empties() {
        let mut sink = CollectorSink::new();
        assert!(sink.enabled());
        sink.on_hybrid(col(0));
        sink.on_hybrid(col(1));
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert!(sink.events.is_empty());
        match &events[1] {
            TraceEvent::Hybrid(h) => assert_eq!(h.column, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mut_ref_forwards_the_sink_impl() {
        let mut sink = CollectorSink::new();
        {
            let by_ref: &mut dyn TraceSink = &mut sink;
            assert!(by_ref.enabled());
            by_ref.on_hybrid(col(3));
        }
        assert_eq!(sink.events.len(), 1);
    }
}
