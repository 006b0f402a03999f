//! Always-on flight recorder: the last N request-stage events in a
//! fixed-capacity, lock-free ring.
//!
//! The recorder exists for the moment *after* something went wrong —
//! a dirty drain, a worker panic, a quarantine-respawn — when the
//! question is "what was the daemon doing just now?" and the trace
//! feature may well have been disabled. It therefore has to be cheap
//! enough to leave on unconditionally (the `obs_overhead` bench
//! guards the recorder: a request's records must cost <1% of its
//! sweep) and readable at any instant without stopping writers.
//!
//! ## Protocol
//!
//! Each slot is a seqlock: a `seq` word plus the event payload as
//! plain atomic words (no `unsafe`, no uninitialized memory). A
//! writer claims ticket `t` from a global cursor, marks slot
//! `t % capacity` busy by storing the odd value `2t+1`, writes the
//! payload words, then seals the slot with the even value `2t+2`.
//! A reader snapshots a slot by loading `seq`, loading the words,
//! and re-loading `seq`: any overlap with a writer changes `seq`
//! (every ticket yields distinct odd/even values), so the reader
//! discards the slot instead of reporting a torn event. One payload
//! word repeats the ticket as a cross-check.
//!
//! ## Honesty bounds
//!
//! The ring overwrites oldest-first; `snapshot` returns whatever
//! consistent slots exist, ordered by ticket. If a writer stalls
//! (e.g. OS preemption) for longer than it takes the rest of the
//! system to lap the entire ring, its late stores could in principle
//! mix with a newer event in the same slot; the seq re-check plus
//! the ticket cross-check make a torn report astronomically
//! unlikely, and a flight recorder tolerates losing an event where
//! it must never block or slow the request path.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::event::{StageKind, TraceEvent};
use crate::jsonl::event_to_json;

/// Default ring capacity (events retained), used by serve.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Payload words per slot: `at_us`, `request`, `stage code`,
/// `dur_us`, `ref_request`, plus the ticket cross-check.
const WORDS: usize = 6;

/// One recorded request-stage event.
///
/// The flat, all-integer shape is what lets the ring store events as
/// atomic words. Conversion to the JSONL trace envelope goes through
/// [`FlightEvent::to_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the owning recorder's epoch (the caller
    /// supplies the clock; the recorder never reads one).
    pub at_us: u64,
    /// Request id the stage belongs to (never 0).
    pub request: u64,
    /// Which lifecycle stage completed.
    pub stage: StageKind,
    /// Stage duration in microseconds.
    pub dur_us: u64,
    /// For `batch_wait` stages: the leader request whose sweep this
    /// request coalesced onto; 0 otherwise.
    pub ref_request: u64,
}

impl FlightEvent {
    /// View as the shared trace-event envelope (for JSONL dumps).
    pub fn to_trace(self) -> TraceEvent {
        TraceEvent::Stage {
            request: self.request,
            stage: self.stage,
            at_us: self.at_us,
            dur_us: self.dur_us,
            ref_request: self.ref_request,
        }
    }
}

#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = write in progress; even `2t+2` =
    /// sealed by ticket `t`.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; WORDS],
        }
    }
}

/// Fixed-capacity, lock-free ring of the last N [`FlightEvent`]s.
///
/// Writers never block and never allocate; readers never stop
/// writers. See the module docs for the slot protocol.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// Capacity mask (capacity is a power of two).
    mask: usize,
    /// Next ticket to assign; also the count of events ever recorded.
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// Ring with [`DEFAULT_CAPACITY`] slots.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Ring with at least `capacity` slots (rounded up to a power of
    /// two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: cap - 1,
            cursor: AtomicU64::new(0),
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the recorder's lifetime (not the number
    /// currently retained, which caps at [`capacity`](Self::capacity)).
    pub fn recorded(&self) -> u64 {
        // ORDER: Relaxed — a monotone statistic; readers only want a
        // recent value, and snapshot consistency comes from the
        // per-slot seq protocol, not from this counter.
        self.cursor.load(Ordering::Relaxed)
    }

    /// Record one event. Lock-free and wait-free apart from the slot
    /// stores themselves; overwrites the oldest event once the ring
    /// is full.
    pub fn record(&self, ev: FlightEvent) {
        // ORDER: Relaxed — the ticket only needs to be unique and
        // monotone; all slot-content consistency is carried by the
        // per-slot seq protocol below.
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & self.mask];
        let busy = ticket.wrapping_mul(2).wrapping_add(1);
        // ORDER: Acquire — marks the slot busy before any payload
        // word is written; an RMW with Acquire keeps the word stores
        // below from moving above this claim.
        let _ = slot.seq.swap(busy, Ordering::Acquire);
        // ORDER: Release fence — pairs with the fence in `read_slot`:
        // a reader that saw any payload word stored after this point
        // also sees the busy mark (or a later seq value) on its
        // re-check.
        fence(Ordering::Release);
        let words = [
            ev.at_us,
            ev.request,
            u64::from(ev.stage.code()),
            ev.dur_us,
            ev.ref_request,
            ticket,
        ];
        for (w, v) in slot.words.iter().zip(words) {
            // ORDER: Relaxed — a torn or interleaved payload is
            // detected and discarded by the reader's seq re-check;
            // these stores need no ordering of their own.
            w.store(v, Ordering::Relaxed);
        }
        // ORDER: Release — seals the slot; a reader whose first seq
        // load observes this even value also observes every payload
        // word written above.
        slot.seq.store(busy.wrapping_add(1), Ordering::Release);
    }

    /// Attempt a consistent read of one slot. Returns the sealing
    /// ticket and the decoded event, or `None` for slots that are
    /// empty, mid-write, or overwritten during the read.
    fn read_slot(&self, slot: &Slot) -> Option<(u64, FlightEvent)> {
        // ORDER: Acquire — pairs with the sealing Release store so an
        // even seq implies the payload words below are the sealed
        // ones (unless a later writer intervenes, which the re-check
        // catches).
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None;
        }
        let mut words = [0u64; WORDS];
        for (out, w) in words.iter_mut().zip(&slot.words) {
            // ORDER: Relaxed — validated by the seq re-check below;
            // a value from an overlapping writer makes the re-check
            // fail and the slot is skipped.
            *out = w.load(Ordering::Relaxed);
        }
        // ORDER: Acquire fence — orders the payload loads above
        // before the re-check load; pairs with the writer-side fence.
        fence(Ordering::Acquire);
        // ORDER: Relaxed — the fence above already orders this load
        // after the payload loads; equality with the first read is
        // what proves the slot stayed stable.
        let s2 = slot.seq.load(Ordering::Relaxed);
        if s2 != s1 {
            return None;
        }
        let ticket = (s1 / 2).wrapping_sub(1);
        if words[5] != ticket {
            return None;
        }
        let stage = StageKind::from_code(u8::try_from(words[2]).ok()?)?;
        Some((
            ticket,
            FlightEvent {
                at_us: words[0],
                request: words[1],
                stage,
                dur_us: words[3],
                ref_request: words[4],
            },
        ))
    }

    /// Consistent view of the retained events, oldest first. Slots
    /// mid-write or overwritten during the scan are skipped, never
    /// reported torn.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut entries: Vec<(u64, FlightEvent)> = self
            .slots
            .iter()
            .filter_map(|slot| self.read_slot(slot))
            .collect();
        entries.sort_by_key(|(ticket, _)| *ticket);
        entries.into_iter().map(|(_, ev)| ev).collect()
    }

    /// Render the retained events as JSONL (one [`TraceEvent::Stage`]
    /// line per event, oldest first) — the `GET /debug/flight` body
    /// and the stderr post-mortem dump format.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.snapshot() {
            out.push_str(&event_to_json(&ev.to_trace()));
            out.push('\n');
        }
        out
    }

    /// Write the retained events to stderr under a one-line header
    /// naming the owner (`prefix`, e.g. `aalign-serve`) and why — the
    /// post-mortem dump on a dirty drain, a worker respawn or a
    /// breaker trip.
    pub fn dump_to_stderr(&self, prefix: &str, why: &str) {
        let dump = self.dump_jsonl();
        eprintln!(
            "{prefix}: flight recorder dump ({why}; {} event(s) retained, {} recorded):",
            dump.lines().count(),
            self.recorded(),
        );
        eprint!("{dump}");
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::read_events;

    fn ev(request: u64, stage: StageKind, at_us: u64) -> FlightEvent {
        FlightEvent {
            at_us,
            request,
            stage,
            dur_us: at_us / 2,
            ref_request: if stage == StageKind::BatchWait {
                request - 1
            } else {
                0
            },
        }
    }

    #[test]
    fn empty_recorder_reports_nothing() {
        let r = FlightRecorder::with_capacity(16);
        assert_eq!(r.capacity(), 16);
        assert_eq!(r.recorded(), 0);
        assert!(r.snapshot().is_empty());
        assert!(r.dump_jsonl().is_empty());
    }

    #[test]
    fn retains_the_last_capacity_events_in_order() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..20u64 {
            r.record(ev(i + 1, StageKind::Sweep, i * 10));
        }
        assert_eq!(r.recorded(), 20);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 8, "ring keeps exactly capacity events");
        // The survivors are the 8 newest, oldest first.
        let requests: Vec<u64> = snap.iter().map(|e| e.request).collect();
        assert_eq!(requests, (13..=20).collect::<Vec<u64>>());
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(FlightRecorder::with_capacity(0).capacity(), 8);
        assert_eq!(FlightRecorder::with_capacity(9).capacity(), 16);
        assert_eq!(FlightRecorder::with_capacity(1024).capacity(), 1024);
    }

    #[test]
    fn events_round_trip_through_the_ring() {
        let r = FlightRecorder::with_capacity(8);
        let original = ev(42, StageKind::BatchWait, 1234);
        r.record(original);
        assert_eq!(r.snapshot(), vec![original]);
    }

    #[test]
    fn dump_is_valid_jsonl_of_stage_events() {
        let r = FlightRecorder::with_capacity(8);
        r.record(ev(7, StageKind::Queue, 5));
        r.record(ev(7, StageKind::Sweep, 9));
        r.record(ev(8, StageKind::BatchWait, 11));
        let dump = r.dump_jsonl();
        assert_eq!(dump.lines().count(), 3);
        let events = read_events(dump.as_bytes()).expect("dump parses as trace JSONL");
        assert_eq!(events.len(), 3);
        match &events[2] {
            TraceEvent::Stage {
                request,
                stage,
                ref_request,
                ..
            } => {
                assert_eq!(*request, 8);
                assert_eq!(*stage, StageKind::BatchWait);
                assert_eq!(*ref_request, 7);
            }
            other => panic!("expected a stage event, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_writers_and_readers_never_tear() {
        // 4 writer threads × 200 events against a tiny ring, with a
        // reader snapshotting throughout: every event reported must
        // be one some writer actually recorded (payload fields are
        // all derived from the request id, so mixing two writes is
        // detectable), and the final snapshot must fill the ring.
        let r = std::sync::Arc::new(FlightRecorder::with_capacity(16));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let request = t * 1000 + i + 1;
                    r.record(FlightEvent {
                        at_us: request * 3,
                        request,
                        stage: StageKind::ALL[(request as usize) % StageKind::ALL.len()],
                        dur_us: request * 7,
                        ref_request: request * 11,
                    });
                }
            }));
        }
        let reader = {
            let r = std::sync::Arc::clone(&r);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                for _ in 0..50 {
                    for e in r.snapshot() {
                        assert_eq!(e.at_us, e.request * 3, "torn event {e:?}");
                        assert_eq!(e.dur_us, e.request * 7, "torn event {e:?}");
                        assert_eq!(e.ref_request, e.request * 11, "torn event {e:?}");
                        assert_eq!(
                            e.stage,
                            StageKind::ALL[(e.request as usize) % StageKind::ALL.len()]
                        );
                        seen += 1;
                    }
                }
                seen
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(r.recorded(), 800);
        assert_eq!(r.snapshot().len(), 16, "quiescent ring is fully readable");
    }
}
