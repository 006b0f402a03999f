//! The pinned inventory the four baseline passes share.
//!
//! `audit` (unsafe counts), `concurrency` (atomic sites),
//! `conformance` (proof obligations and harness coverage) and
//! `certify` (width verdicts) each count what they found per key and
//! pin the counts in a checked-in baseline of `<key> <count>` lines:
//! the count is the last word, the key everything before it, and `#`
//! lines and blank lines are comments. One rule covers all four: the
//! inventory must equal its baseline exactly, so a new entry, a
//! changed count and a vanished entry are all drift, and a line that
//! does not read as `<key> <count>` is named, not skipped.

use std::collections::BTreeMap;

/// Counts per key; [`Display`](std::fmt::Display) renders the
/// `--print-baseline` text, one `<key> <count>` line per key, sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Inventory(BTreeMap<String, usize>);

impl Inventory {
    /// Count `n` more of `key`; `n == 0` still pins the key.
    pub fn add(&mut self, key: impl Into<String>, n: usize) {
        *self.0.entry(key.into()).or_default() += n;
    }

    /// Read a baseline: the pinned counts, and one complaint per line
    /// that is not `<key> <count>` or pins a key a second time.
    fn parse(text: &str) -> (Self, Vec<String>) {
        let mut pinned = Self::default();
        let mut bad = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let entry = line
                .rsplit_once(' ')
                .and_then(|(key, count)| Some((key.trim_end(), count.parse::<usize>().ok()?)));
            match entry {
                Some((key, count)) if !key.is_empty() => {
                    if pinned.0.insert(key.to_string(), count).is_some() {
                        bad.push(format!("baseline line {}: `{key}` is pinned twice", i + 1));
                    }
                }
                _ => bad.push(format!(
                    "baseline line {} is not `<key> <count>`: `{line}`",
                    i + 1
                )),
            }
        }
        (pinned, bad)
    }

    /// Everything that keeps this inventory from equalling `baseline`:
    /// unreadable baseline lines, then new and changed entries, then
    /// vanished ones. Empty when the two agree.
    pub fn drift(&self, baseline: &str) -> Vec<String> {
        let (pinned, mut problems) = Self::parse(baseline);
        for (key, &count) in &self.0 {
            match pinned.0.get(key) {
                None => problems.push(format!(
                    "new entry `{key} {count}` is not in the baseline — add it deliberately"
                )),
                Some(&want) if want != count => problems.push(format!(
                    "`{key}` count changed {want} → {count} — update the baseline deliberately"
                )),
                Some(_) => {}
            }
        }
        for (key, count) in &pinned.0 {
            if !self.0.contains_key(key) {
                problems.push(format!(
                    "baseline entry `{key} {count}` vanished — remove it so the inventory \
                     stays exact"
                ));
            }
        }
        problems
    }
}

impl std::fmt::Display for Inventory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (key, count) in &self.0 {
            writeln!(f, "{key} {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inventory(entries: &[(&str, usize)]) -> Inventory {
        let mut inv = Inventory::default();
        for &(key, n) in entries {
            inv.add(key, n);
        }
        inv
    }

    #[test]
    fn renders_sorted_lines_and_sums_repeated_keys() {
        let inv = inventory(&[
            ("b.rs store Release", 1),
            ("a.rs", 0),
            ("b.rs store Release", 2),
        ]);
        assert_eq!(inv.to_string(), "a.rs 0\nb.rs store Release 3\n");
    }

    #[test]
    fn its_own_text_is_a_baseline_without_drift() {
        let inv = inventory(&[("sw-aff dna(2,-3) q48 s1000 i8 granted", 1), ("x.rs", 0)]);
        assert_eq!(Inventory::parse(&inv.to_string()), (inv.clone(), vec![]));
        assert!(inv.drift(&inv.to_string()).is_empty());
    }

    #[test]
    fn comment_and_blank_lines_are_skipped() {
        let inv = inventory(&[("avx2.rs", 32)]);
        let baseline = "# unsafe counts\n\n   \n  # indented comment\navx2.rs 32\n\n";
        assert!(inv.drift(baseline).is_empty());
    }

    #[test]
    fn new_changed_and_vanished_entries_are_each_drift() {
        let inv = inventory(&[("kept", 1), ("changed", 2), ("new", 3)]);
        let drift = inv.drift("kept 1\nchanged 5\ngone 4\n");
        assert_eq!(drift.len(), 3, "{drift:?}");
        assert!(
            drift[0].contains("`changed` count changed 5 → 2"),
            "{drift:?}"
        );
        assert!(drift[1].contains("new entry `new 3`"), "{drift:?}");
        assert!(drift[2].contains("`gone 4` vanished"), "{drift:?}");
    }

    #[test]
    fn malformed_lines_are_named_not_skipped() {
        let inv = inventory(&[("avx2.rs", 32)]);
        let baseline = "# header\navx2.rs thirty-two\n42\navx2.rs\n";
        let drift = inv.drift(baseline);
        assert_eq!(drift.len(), 4, "{drift:?}");
        assert_eq!(
            drift[0],
            "baseline line 2 is not `<key> <count>`: `avx2.rs thirty-two`"
        );
        assert!(drift[1].starts_with("baseline line 3 is not"), "{drift:?}");
        assert!(drift[2].starts_with("baseline line 4 is not"), "{drift:?}");
        // The entry the bad line meant to pin is still unpinned.
        assert!(drift[3].contains("new entry `avx2.rs 32`"), "{drift:?}");
    }

    #[test]
    fn a_key_pinned_twice_is_named() {
        let drift = inventory(&[("a.rs", 1)]).drift("a.rs 1\na.rs 1\n");
        assert_eq!(drift, ["baseline line 2: `a.rs` is pinned twice"]);
    }
}
