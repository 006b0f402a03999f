//! `certify` has three modes — the shipped inventory (no source), one
//! ad-hoc config (a source plus config flags) and the mutation
//! self-test (`--mutate`) — and each refuses, with exit 2 and an
//! `error:` line naming the flag, a flag it would otherwise ignore.

use std::process::Command;

/// Run `certify` with `args`; the exit code and stderr.
fn certify(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_aalign-analyzer"))
        .arg("certify")
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn certify_refuses_the_flags_its_mode_would_ignore() {
    for (args, flag) in [
        // Config flags without a source: the inventory pass would run
        // with its own configs and print `baseline: OK`.
        (&["--open", "-300", "--max-query", "100000"][..], "--open"),
        // A baseline request with a source: an ad-hoc run would print
        // no baseline at all.
        (
            &["--builtin", "alg1", "--print-baseline"][..],
            "--print-baseline",
        ),
        (&["--builtin", "alg1", "--mutate", "2"][..], "--mutate"),
        (&["--mutate", "2", "--matrix", "dna"][..], "--matrix"),
    ] {
        let (code, stderr) = certify(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.starts_with("error: ") && error.contains(flag),
            "{args:?}: {stderr}"
        );
    }
}
