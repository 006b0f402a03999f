//! Deterministic chaos for the shard supervisor.
//!
//! A [`ShardFaultPlan`] names one shard and SIGKILLs its child right
//! after a query is dispatched to it — after the request line is on
//! the wire, before the reply — which is the worst moment to die:
//! the supervisor must notice the EOF, respawn, and resend. Plans are
//! scripted, not random, so every chaos test replays exactly.
//!
//! Grammar (mirrors the engine's `--fault-plan` spirit):
//!
//! ```text
//! kill@SHARD        SIGKILL shard SHARD's child on every dispatch
//! kill@SHARD:N      … only the first N dispatches
//! ```

use std::fmt;
use std::str::FromStr;

/// A scripted kill schedule against one shard. See the [module
/// docs](self) for the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFaultPlan {
    /// Shard whose child gets killed.
    pub shard: usize,
    /// Kills remaining; `None` = unlimited (every dispatch).
    pub remaining: Option<u64>,
}

impl ShardFaultPlan {
    /// Plan that kills `shard`'s child on its first `n` dispatches.
    pub fn kill_first(shard: usize, n: u64) -> Self {
        ShardFaultPlan {
            shard,
            remaining: Some(n),
        }
    }

    /// True when the child dispatched to `shard` should be killed
    /// now; decrements the budget.
    pub fn should_kill(&mut self, shard: usize) -> bool {
        if shard != self.shard {
            return false;
        }
        match &mut self.remaining {
            None => true,
            Some(0) => false,
            Some(n) => {
                *n -= 1;
                true
            }
        }
    }
}

impl FromStr for ShardFaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix("kill@")
            .ok_or_else(|| format!("bad shard fault plan {s:?}: expected kill@SHARD[:N]"))?;
        let (shard, remaining) = match rest.split_once(':') {
            Some((shard, n)) => (
                shard,
                Some(n.parse::<u64>().map_err(|_| {
                    format!("bad shard fault plan {s:?}: kill count {n:?} is not a number")
                })?),
            ),
            None => (rest, None),
        };
        let shard = shard
            .parse::<usize>()
            .map_err(|_| format!("bad shard fault plan {s:?}: shard {shard:?} is not a number"))?;
        Ok(ShardFaultPlan { shard, remaining })
    }
}

impl fmt::Display for ShardFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.remaining {
            Some(n) => write!(f, "kill@{}:{n}", self.shard),
            None => write!(f, "kill@{}", self.shard),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_forms_and_round_trips() {
        let every: ShardFaultPlan = "kill@2".parse().unwrap();
        assert_eq!(
            every,
            ShardFaultPlan {
                shard: 2,
                remaining: None
            }
        );
        assert_eq!(every.to_string(), "kill@2");

        let bounded: ShardFaultPlan = "kill@0:3".parse().unwrap();
        assert_eq!(bounded, ShardFaultPlan::kill_first(0, 3));
        assert_eq!(bounded.to_string(), "kill@0:3");

        for bad in [
            "", "kill", "kill@", "kill@x", "kill@1:", "kill@1:x", "stall@1",
        ] {
            assert!(bad.parse::<ShardFaultPlan>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn bounded_plan_exhausts_and_ignores_other_shards() {
        let mut plan = ShardFaultPlan::kill_first(1, 2);
        assert!(!plan.should_kill(0));
        assert!(plan.should_kill(1));
        assert!(plan.should_kill(1));
        assert!(!plan.should_kill(1), "budget exhausted");
        assert!(!plan.should_kill(0));
    }

    #[test]
    fn unbounded_plan_never_exhausts() {
        let mut plan: ShardFaultPlan = "kill@0".parse().unwrap();
        for _ in 0..10 {
            assert!(plan.should_kill(0));
        }
    }
}
