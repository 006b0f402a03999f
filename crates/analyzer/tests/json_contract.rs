//! The `--json` contract every analyzer pass documents: stdout is one
//! JSON document whose first key is the `"pass"` name and whose second
//! is the boolean `"ok"` verdict the exit code mirrors.

use std::process::Command;

use aalign_obs::wire::{bool_field, str_field, JsonValue};

fn run(args: &[&str]) -> (bool, JsonValue) {
    let out = Command::new(env!("CARGO_BIN_EXE_aalign-analyzer"))
        .args(args)
        .arg("--json")
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = JsonValue::parse(&stdout).unwrap_or_else(|e| panic!("{args:?}: {e}\n{stdout}"));
    (out.status.success(), doc)
}

fn assert_envelope(doc: &JsonValue, pass: &str, ok: bool) {
    let fields = doc.as_object().expect("top level is an object");
    assert_eq!(fields[0], ("pass".to_string(), pass.into()), "{doc}");
    assert_eq!(fields[1], ("ok".to_string(), ok.into()), "{doc}");
}

#[test]
fn every_pass_emits_the_documented_envelope() {
    for pass in [
        "check",
        "range",
        "audit",
        "concurrency",
        "conformance",
        "certify",
    ] {
        let (success, doc) = run(&[pass]);
        assert!(success, "{pass}: {doc}");
        assert_envelope(&doc, pass, true);
    }
}

#[test]
fn a_rejected_kernel_is_reported_inside_the_envelope() {
    let dir = std::env::temp_dir().join("aalign_analyzer_json_contract");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.seq");
    // Quotes, a backslash and a newline in the diagnostic exercise
    // the shared escaper.
    std::fs::write(&path, "T[i][\"\\\n").unwrap();
    let (success, doc) = run(&["check", path.to_str().unwrap()]);
    assert!(!success, "{doc}");
    assert_envelope(&doc, "check", false);
    let kernel = &doc.get("kernels").and_then(JsonValue::as_array).unwrap()[0];
    assert!(!bool_field(kernel, "ok").unwrap());
    assert!(str_field(kernel, "error").unwrap().contains("parse error"));
}
