//! The benchmark must measure the program the root manifest builds:
//! same release profile, same crate features (`trace` on,
//! `fault-inject` off). And `BENCHMARK.json` must list exactly what the
//! code emits.
//!
//! The manifests are read as text — enough TOML for `key = value`
//! entries and bracketed arrays, which is all these tables hold.

use std::collections::BTreeMap;
use std::path::Path;

use aalign_benchmark::measure::{END_TO_END, PER_LAYER, RUN_SECONDS};
use aalign_benchmark::workloads::WORKLOADS;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `key → value` of the TOML table `[name]`; comments dropped, arrays
/// that span lines joined, whitespace squeezed out of values.
fn table(toml: &str, name: &str) -> BTreeMap<String, String> {
    let mut entries = BTreeMap::new();
    let mut inside = false;
    let mut open: Option<(String, String)> = None;
    for line in toml.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.starts_with('[') && open.is_none() {
            inside = line == format!("[{name}]");
            continue;
        }
        if !inside || line.is_empty() {
            continue;
        }
        let (key, mut value) = match open.take() {
            Some((key, value)) => (key, value + line),
            None => {
                let (key, value) = line.split_once('=').expect("key = value");
                (key.trim().to_string(), value.trim().to_string())
            }
        };
        if value.matches('[').count() > value.matches(']').count() {
            open = Some((key, value));
            continue;
        }
        value.retain(|c| !c.is_whitespace());
        entries.insert(key, value.replace(",]", "]"));
    }
    entries
}

#[test]
fn release_profile_is_the_roots() {
    let root = table(&read("../Cargo.toml"), "profile.release");
    let bench = table(&read("Cargo.toml"), "profile.release");
    assert_eq!(
        bench, root,
        "benchmark/Cargo.toml [profile.release] drifted from the root's"
    );
    assert_eq!(root.get("debug").map(String::as_str), Some("true"));
    assert_eq!(root.get("codegen-units").map(String::as_str), Some("1"));
}

#[test]
fn crate_features_are_the_roots_defaults() {
    let root = read("../Cargo.toml");
    // What a plain `cargo build --release` at the root turns on …
    let features = table(&root, "features");
    assert_eq!(features["default"], r#"["trace"]"#);
    assert_eq!(
        features["trace"],
        r#"["aalign-core/trace","aalign-par/trace"]"#
    );
    // … on top of crates whose own defaults the root switches off.
    let root_deps = table(&root, "workspace.dependencies");
    for name in ["aalign-core", "aalign-par", "aalign-serve", "aalign-shard"] {
        assert!(
            root_deps[name].contains("default-features=false"),
            "root no longer builds {name} without its defaults: {}",
            root_deps[name]
        );
    }

    // The same, spelled out per crate, in the benchmark's manifest.
    let bench_deps = table(&read("Cargo.toml"), "dependencies");
    for name in ["aalign-core", "aalign-par"] {
        assert!(
            bench_deps[name].contains("default-features=false"),
            "{name}"
        );
        assert!(bench_deps[name].contains(r#"features=["trace"]"#), "{name}");
    }
    for name in ["aalign-serve", "aalign-shard"] {
        assert!(
            bench_deps[name].contains("default-features=false"),
            "{name}"
        );
        assert!(!bench_deps[name].contains("features=["), "{name}");
    }
    for (name, spec) in &bench_deps {
        assert!(
            !spec.contains("fault-inject"),
            "{name} enables fault injection"
        );
    }
}

#[test]
fn benchmark_json_lists_what_the_code_emits() {
    let json = read("../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in &WORKLOADS {
        let entry = format!(r#"{{"name": "{}", "why": "#, w.name);
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks workload {}",
            w.name
        );
    }
    let listed = json.matches(r#""name": "#).count();
    assert_eq!(
        listed,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json names something the code does not emit"
    );
    assert!(json.contains(&format!(r#""run_seconds": {RUN_SECONDS},"#)));
    assert!(json.contains(r#""paths": ["benchmark"]"#));
}
