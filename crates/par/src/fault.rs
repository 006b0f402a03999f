//! Deterministic fault injection for the search engine.
//!
//! A [`FaultPlan`] scripts where the sweep misbehaves — a panic while
//! scoring a given slot, a forced lane saturation, a scheduling
//! stall, a worker-thread kill — so the recovery paths (panic
//! isolation, overflow rescue, deadline partial results, pool
//! self-healing) are exercised by ordinary `cargo test` runs instead
//! of waiting for production entropy. Plans are plain data: the same
//! plan replays the same faults on every run, which is what makes
//! the fault tests deterministic.
//!
//! A plan is an ordinary runtime option, compiled into every build:
//! a query without one pays an `Option` check per slot and per
//! claim, and nothing in the kernels.

use std::fmt;
use std::time::Duration;

use crate::sync::atomic::{AtomicBool, Ordering};

/// A scripted set of faults for one search call.
///
/// Attach with [`SearchOptions::fault_plan`]; build fluently or parse
/// from the CLI's compact `--fault-plan` spec:
///
/// ```
/// use aalign_par::FaultPlan;
/// let plan = FaultPlan::parse("panic@3,saturate@5,stall@2:50ms,kill@1").unwrap();
/// assert!(format!("{plan:?}").contains("panic_slots"));
/// ```
///
/// [`SearchOptions::fault_plan`]: crate::SearchOptions::fault_plan
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Sweep slots whose scoring closure panics.
    panic_slots: Vec<usize>,
    /// Sweep slots whose kernel result is forced to report lane
    /// saturation (driving the rescue ladder without needing a
    /// genuinely overflowing subject).
    saturate_slots: Vec<usize>,
    /// Sleep `pause` before scoring `slot` — lets tests widen race
    /// windows (deadline expiry mid-sweep) deterministically.
    stall: Option<(usize, Duration)>,
    /// Kill the worker occupying this pool slot: the fault unwinds
    /// *outside* the job-boundary catch, so the thread genuinely dies
    /// and the supervisor's disconnect path runs.
    kill_worker: Option<usize>,
    /// One-shot arm for `kill_worker` — the kill fires on the first
    /// job the victim receives, then never again, so the respawned
    /// worker survives.
    kill_armed: AtomicBool,
}

impl Clone for FaultPlan {
    fn clone(&self) -> Self {
        Self {
            panic_slots: self.panic_slots.clone(),
            saturate_slots: self.saturate_slots.clone(),
            stall: self.stall,
            kill_worker: self.kill_worker,
            // ORDER: Relaxed — test-only trigger state; the flag
            // carries no other data, it only decides whether the
            // scripted kill still fires.
            kill_armed: AtomicBool::new(self.kill_armed.load(Ordering::Relaxed)),
        }
    }
}

impl FaultPlan {
    /// Empty plan: injects nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic while scoring sweep slot `slot`.
    pub fn panic_on_slot(mut self, slot: usize) -> Self {
        self.panic_slots.push(slot);
        self
    }

    /// Force the kernel result for sweep slot `slot` to report lane
    /// saturation.
    pub fn saturate_slot(mut self, slot: usize) -> Self {
        self.saturate_slots.push(slot);
        self
    }

    /// Sleep `pause` before scoring sweep slot `slot`.
    pub fn stall_slot(mut self, slot: usize, pause: Duration) -> Self {
        self.stall = Some((slot, pause));
        self
    }

    /// Kill the worker thread occupying pool slot `worker` on its
    /// first job (one-shot).
    pub fn kill_worker(mut self, worker: usize) -> Self {
        self.kill_worker = Some(worker);
        // ORDER: Relaxed — builder runs before the plan is shared.
        self.kill_armed.store(true, Ordering::Relaxed);
        self
    }

    /// Derive a reproducible plan from a seed: picks a panic slot and
    /// a saturate slot out of `slots` via splitmix64. Same seed, same
    /// plan — the harness's property-style entry point.
    pub fn seeded(seed: u64, slots: usize) -> Self {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut state = seed;
        let n = slots.max(1) as u64;
        let panic_at = (splitmix64(&mut state) % n) as usize;
        let mut saturate_at = (splitmix64(&mut state) % n) as usize;
        if saturate_at == panic_at && slots > 1 {
            saturate_at = (saturate_at + 1) % slots;
        }
        Self::new()
            .panic_on_slot(panic_at)
            .saturate_slot(saturate_at)
    }

    /// Parse the CLI spec: comma-separated directives out of
    /// `panic@N`, `saturate@N`, `stall@N:DURms`, `kill@N`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (verb, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("fault directive `{part}` is missing `@`"))?;
            match verb {
                "panic" => plan = plan.panic_on_slot(parse_index(rest, part)?),
                "saturate" => plan = plan.saturate_slot(parse_index(rest, part)?),
                "kill" => plan = plan.kill_worker(parse_index(rest, part)?),
                "stall" => {
                    let (slot, dur) = rest.split_once(':').ok_or_else(|| {
                        format!("stall directive `{part}` needs `stall@SLOT:MILLISms`")
                    })?;
                    let ms: u64 = dur
                        .strip_suffix("ms")
                        .ok_or_else(|| format!("stall duration `{dur}` must end in `ms`"))?
                        .parse()
                        .map_err(|_| format!("stall duration `{dur}` is not a number"))?;
                    plan = plan.stall_slot(parse_index(slot, part)?, Duration::from_millis(ms));
                }
                other => return Err(format!("unknown fault verb `{other}` in `{part}`")),
            }
        }
        Ok(plan)
    }

    /// Should scoring this sweep slot panic?
    pub(crate) fn should_panic(&self, slot: usize) -> bool {
        self.panic_slots.contains(&slot)
    }

    /// Should this sweep slot's kernel result be forced saturated?
    pub(crate) fn should_saturate(&self, slot: usize) -> bool {
        self.saturate_slots.contains(&slot)
    }

    /// Pause to inject before scoring this sweep slot, if any.
    pub(crate) fn stall_for(&self, slot: usize) -> Option<Duration> {
        match self.stall {
            Some((s, pause)) if s == slot => Some(pause),
            _ => None,
        }
    }

    /// The faults that come before a slot's score: its stall, then
    /// its panic. Called inside the catch of whatever scores the slot —
    /// the per-subject pass, or the batch that took it.
    pub(crate) fn before_slot(&self, slot: usize) {
        if let Some(pause) = self.stall_for(slot) {
            std::thread::sleep(pause);
        }
        if self.should_panic(slot) {
            panic!("fault-inject: panic scoring slot {slot}");
        }
    }

    /// Kill hook, called by the worker *outside* its job-boundary
    /// catch: panics (killing the thread) at most once, on the
    /// matching pool slot.
    pub(crate) fn maybe_kill(&self, worker_slot: usize) {
        if self.kill_worker == Some(worker_slot)
            // ORDER: Relaxed — one-shot test trigger; the swap's
            // atomicity (not its ordering) guarantees a single fire.
            && self.kill_armed.swap(false, Ordering::Relaxed)
        {
            panic!("fault-inject: killing worker {worker_slot}");
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        parts.extend(self.panic_slots.iter().map(|s| format!("panic@{s}")));
        parts.extend(self.saturate_slots.iter().map(|s| format!("saturate@{s}")));
        if let Some((slot, pause)) = self.stall {
            parts.push(format!("stall@{slot}:{}ms", pause.as_millis()));
        }
        if let Some(w) = self.kill_worker {
            parts.push(format!("kill@{w}"));
        }
        f.write_str(&parts.join(","))
    }
}

fn parse_index(s: &str, ctx: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("fault directive `{ctx}`: `{s}` is not a slot index"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let spec = "panic@3,saturate@5,stall@2:50ms,kill@1";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.to_string(), spec);
        assert!(plan.should_panic(3) && !plan.should_panic(4));
        assert!(plan.should_saturate(5) && !plan.should_saturate(3));
        assert_eq!(plan.stall_for(2), Some(Duration::from_millis(50)));
        assert_eq!(plan.stall_for(3), None);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["panic", "panic@x", "stall@1", "stall@1:50", "explode@2"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} must not parse");
        }
        // Empty spec and stray commas are fine: an empty plan.
        let empty = FaultPlan::parse(" , ").unwrap();
        assert!(!empty.should_panic(0));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_distinct() {
        let a = FaultPlan::seeded(42, 100);
        let b = FaultPlan::seeded(42, 100);
        assert_eq!(a.to_string(), b.to_string(), "same seed, same plan");
        let c = FaultPlan::seeded(43, 100);
        // Different seeds usually differ; at minimum both stay valid.
        assert!(c.panic_slots[0] < 100 && c.saturate_slots[0] < 100);
        assert_ne!(
            a.panic_slots[0], a.saturate_slots[0],
            "seeded faults target distinct slots"
        );
    }

    #[test]
    fn kill_fires_exactly_once_and_clones_rearm_independently() {
        let plan = FaultPlan::new().kill_worker(2);
        plan.maybe_kill(0); // wrong slot: no fire, stays armed
        let clone = plan.clone(); // snapshot of the armed state
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.maybe_kill(2)));
        assert!(hit.is_err(), "armed kill on the right slot must fire");
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.maybe_kill(2)));
        assert!(again.is_ok(), "kill is one-shot");
        let fresh = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| clone.maybe_kill(2)));
        assert!(fresh.is_err(), "the clone carries its own armed flag");
    }
}
