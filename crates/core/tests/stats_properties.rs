//! Property tests for [`RunStats::merge`]: saturating accumulation
//! makes the merge associative and commutative, so the search
//! engine's per-worker stats can be folded in any order.

use proptest::prelude::*;

use aalign_core::RunStats;

/// Strategy producing a fully arbitrary `RunStats`.
fn arb_stats() -> impl Strategy<Value = RunStats> {
    (
        (any::<u64>(), any::<u64>(), any::<usize>()),
        (any::<usize>(), any::<usize>(), any::<usize>()),
        (any::<usize>(), any::<usize>(), any::<usize>()),
    )
        .prop_map(
            |((lazy_iters, lazy_sweeps, iterate_columns), rest, inter)| RunStats {
                lazy_iters,
                lazy_sweeps,
                iterate_columns,
                scan_columns: rest.0,
                switches_to_scan: rest.1,
                probes_stayed: rest.2,
                inter_columns: inter.0,
                inter_lane_columns: inter.1,
                inter_saturated: inter.2,
            },
        )
}

fn merged(a: &RunStats, b: &RunStats) -> RunStats {
    let mut out = *a;
    out.merge(b);
    out
}

proptest! {
    #[test]
    fn merge_is_commutative(a in arb_stats(), b in arb_stats()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn merge_is_associative(a in arb_stats(), b in arb_stats(), c in arb_stats()) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn merge_saturates_never_wraps(a in arb_stats()) {
        let ceiling = RunStats {
            lazy_iters: u64::MAX,
            lazy_sweeps: u64::MAX,
            iterate_columns: usize::MAX,
            scan_columns: usize::MAX,
            switches_to_scan: usize::MAX,
            probes_stayed: usize::MAX,
            inter_columns: usize::MAX,
            inter_lane_columns: usize::MAX,
            inter_saturated: usize::MAX,
        };
        let m = merged(&a, &ceiling);
        prop_assert_eq!(m, ceiling);
    }

    #[test]
    fn identity_element_is_default(a in arb_stats()) {
        prop_assert_eq!(merged(&a, &RunStats::default()), a);
        prop_assert_eq!(merged(&RunStats::default(), &a), a);
    }
}
