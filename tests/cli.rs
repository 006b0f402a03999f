//! Integration tests driving the `aalign` CLI binary end to end.

use std::io::Write;
use std::process::Command;

fn aalign() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aalign"))
}

fn write_fasta(path: &std::path::Path, records: &[(&str, &str)]) {
    let mut f = std::fs::File::create(path).unwrap();
    for (id, body) in records {
        writeln!(f, ">{id}\n{body}").unwrap();
    }
}

#[test]
fn info_reports_isa_support() {
    let out = aalign().arg("info").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("vector ISA support"));
    assert!(text.contains("best backend for i32"));

    // `info` names the engines the aligner runs, not a second opinion:
    // each width's line equals what `pair --width N` reports.
    let dir = std::env::temp_dir().join("aalign_cli_info");
    std::fs::create_dir_all(&dir).unwrap();
    write_fasta(&dir.join("q.fa"), &[("q", "HEAGAWGHEE")]);
    write_fasta(&dir.join("s.fa"), &[("s", "PAWHEAE")]);
    for bits in ["8", "16", "32"] {
        let named = text
            .lines()
            .find_map(|l| {
                l.trim()
                    .strip_prefix(&format!("best backend for i{bits}: "))
            })
            .unwrap_or_else(|| panic!("no i{bits} line in {text}"));
        let out = aalign()
            .args([
                "pair",
                "--query",
                dir.join("q.fa").to_str().unwrap(),
                "--subject",
                dir.join("s.fa").to_str().unwrap(),
                "--width",
                bits,
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let pair = String::from_utf8(out.stdout).unwrap();
        assert!(
            pair.contains(&format!(" on {named}, i{bits},")),
            "info says {named}, pair --width {bits} says: {pair}"
        );
    }
}

#[test]
fn pair_alignment_with_traceback() {
    let dir = std::env::temp_dir().join("aalign_cli_pair");
    std::fs::create_dir_all(&dir).unwrap();
    write_fasta(&dir.join("q.fa"), &[("q", "HEAGAWGHEE")]);
    write_fasta(&dir.join("s.fa"), &[("s", "PAWHEAE")]);
    let out = aalign()
        .args([
            "pair",
            "--query",
            dir.join("q.fa").to_str().unwrap(),
            "--subject",
            dir.join("s.fa").to_str().unwrap(),
            "--traceback",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("score 17"), "{text}");
    assert!(text.contains("Query"), "{text}");
}

#[test]
fn gen_db_then_search() {
    let dir = std::env::temp_dir().join("aalign_cli_search");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fa");
    let status = aalign()
        .args([
            "gen-db",
            "--count",
            "40",
            "--seed",
            "9",
            "--out",
            db.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(status.success());

    write_fasta(&dir.join("q.fa"), &[("q", "MKVLAARNDWHEAGAWGHEE")]);
    // Every strategy the usage names goes through the one sweep; `seq`
    // used to panic per subject there and exit 0 with no hits.
    let hit_lines = |strategy: &str| {
        let out = aalign()
            .args([
                "search",
                "--query",
                dir.join("q.fa").to_str().unwrap(),
                "--db",
                db.to_str().unwrap(),
                "--top",
                "3",
                "--strategy",
                strategy,
            ])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{strategy}: {err}");
        assert!(!err.contains("panicked"), "{strategy}: {err}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("searched 40 subjects"), "{text}");
        let hits: Vec<String> = text
            .lines()
            .filter(|l| l.contains(" bits "))
            .map(str::to_string)
            .collect();
        assert_eq!(hits.len(), 3, "{text}");
        hits
    };
    assert_eq!(hit_lines("seq"), hit_lines("hybrid"));
}

#[test]
fn search_with_stats_prints_metrics_block() {
    let dir = std::env::temp_dir().join("aalign_cli_stats");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fa");
    let status = aalign()
        .args([
            "gen-db",
            "--count",
            "20",
            "--seed",
            "5",
            "--out",
            db.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(status.success());
    write_fasta(&dir.join("q.fa"), &[("q", "MKVLAARNDWHEAGAWGHEE")]);
    let out = aalign()
        .args([
            "search",
            "--query",
            dir.join("q.fa").to_str().unwrap(),
            "--db",
            db.to_str().unwrap(),
            "--top",
            "2",
            "--threads",
            "2",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("stats: prepare"), "{text}");
    assert!(text.contains("GCUPS"), "{text}");
    assert!(text.contains("kernel:"), "{text}");
    assert!(text.contains("worker   0:"), "{text}");
    assert_eq!(text.matches(" bits ").count(), 2, "{text}");
}

#[test]
fn search_trace_out_then_trace_report_round_trip() {
    let dir = std::env::temp_dir().join("aalign_cli_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fa");
    let status = aalign()
        .args([
            "gen-db",
            "--count",
            "25",
            "--seed",
            "11",
            "--out",
            db.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(status.success());
    write_fasta(&dir.join("q.fa"), &[("q", "MKVLAARNDWHEAGAWGHEE")]);
    let trace = dir.join("trace.jsonl");
    let out = aalign()
        .args([
            "search",
            "--query",
            dir.join("q.fa").to_str().unwrap(),
            "--db",
            db.to_str().unwrap(),
            "--top",
            "3",
            "--stats",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("trace events"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The file is line-delimited JSON: every line parses, and the
    // stream reconstructs into one reconciled query envelope.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        text.lines().count() > 25,
        "one envelope per subject at least"
    );
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }

    let out = aalign()
        .args([
            "trace-report",
            "--trace",
            trace.to_str().unwrap(),
            "--subjects",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("query \"q\""), "{report}");
    assert!(report.contains("subjects traced: 25"), "{report}");
    assert!(report.contains("stages:"), "{report}");
    assert!(!report.contains("UNRECONCILED"), "{report}");
}

#[test]
fn unknown_flags_are_rejected_not_ignored() {
    // `--inter` selected a sweep that no longer exists; like any other
    // unrecognized flag it must fail rather than silently run the
    // default search.
    let dir = std::env::temp_dir().join("aalign_cli_unknown_flag");
    std::fs::create_dir_all(&dir).unwrap();
    write_fasta(&dir.join("q.fa"), &[("q", "HEAGAWGHEE")]);
    write_fasta(&dir.join("db.fa"), &[("s", "PAWHEAE")]);
    let out = aalign()
        .args([
            "search",
            "--query",
            dir.join("q.fa").to_str().unwrap(),
            "--db",
            dir.join("db.fa").to_str().unwrap(),
            "--inter",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag \"--inter\" for search"), "{err}");

    // `loadgen` writes its document to stdout only; the `--out` that fed
    // the retired perf gate is refused like any other unknown flag.
    let out = aalign()
        .args(["loadgen", "--addr", "127.0.0.1:1", "--out", "x.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag \"--out\" for loadgen"), "{err}");
}

#[test]
fn search_metrics_formats() {
    let dir = std::env::temp_dir().join("aalign_cli_metrics_fmt");
    std::fs::create_dir_all(&dir).unwrap();
    write_fasta(&dir.join("q.fa"), &[("q", "MKVLAARNDWHEAGAWGHEE")]);
    write_fasta(
        &dir.join("db.fa"),
        &[("a", "MKVLAARNDW"), ("b", "HEAGAWGHEE"), ("c", "PAWHEAE")],
    );
    let run = |fmt: &str| {
        aalign()
            .args([
                "search",
                "--query",
                dir.join("q.fa").to_str().unwrap(),
                "--db",
                dir.join("db.fa").to_str().unwrap(),
                "--metrics-format",
                fmt,
            ])
            .output()
            .unwrap()
    };
    let json = run("json");
    assert!(json.status.success());
    let text = String::from_utf8(json.stdout).unwrap();
    assert!(text.contains("\"gcups\":"), "{text}");
    assert!(text.contains("\"latency_ns\":"), "{text}");

    let prom = run("prom");
    assert!(prom.status.success());
    let text = String::from_utf8(prom.stdout).unwrap();
    assert!(text.contains("# TYPE aalign_gcups gauge"), "{text}");
    assert!(text.contains("aalign_work_item_seconds_bucket"), "{text}");

    let bad = run("xml");
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("unknown metrics format"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );

    // `--stats` is the one text rendering, and it prints beside a
    // machine format instead of being dropped.
    let text = run("text");
    assert!(!text.status.success());
    let both = aalign()
        .args([
            "search",
            "--query",
            dir.join("q.fa").to_str().unwrap(),
            "--db",
            dir.join("db.fa").to_str().unwrap(),
            "--stats",
            "--metrics-format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(both.status.success());
    let out = String::from_utf8(both.stdout).unwrap();
    assert!(out.contains("stats: prepare"), "{out}");
    assert!(out.contains("\"gcups\":"), "{out}");
}

#[test]
fn trace_report_rejects_junk_input() {
    let dir = std::env::temp_dir().join("aalign_cli_trace_junk");
    std::fs::create_dir_all(&dir).unwrap();
    // Plain junk, and a `\u` escape whose hex window straddles a
    // multibyte character (once a slice panic: exit 101, no message).
    for (name, junk) in [
        ("junk.jsonl", "not json"),
        (
            "straddle.jsonl",
            "{\"ev\":\"query_begin\",\"query\":\"\\u000\u{e9}\",\"subjects\":1}",
        ),
    ] {
        let path = dir.join(name);
        let good = "{\"ev\":\"query_begin\",\"query\":\"q\",\"subjects\":1}";
        std::fs::write(&path, format!("{good}\n{junk}\n")).unwrap();
        let out = aalign()
            .args(["trace-report", "--trace", path.to_str().unwrap()])
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(
            err.contains(&format!("{name}:2: malformed JSON line")),
            "parse errors are typed and carry line numbers: {err}"
        );
    }
}

#[test]
fn codegen_emits_rust_module() {
    let dir = std::env::temp_dir().join("aalign_cli_codegen");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("kernel.seq");
    std::fs::write(
        &input,
        r#"
for (i = 1; i < n + 1; i = i + 1) {
    for (j = 1; j < m + 1; j = j + 1) {
        L[i][j] = max(L[i-1][j] + GAP_EXT, T[i-1][j] + GAP_OPEN);
        U[i][j] = max(U[i][j-1] + GAP_EXT, T[i][j-1] + GAP_OPEN);
        D[i][j] = T[i-1][j-1] + BLOSUM62[ctoi(S[i-1])][ctoi(Q[j-1])];
        T[i][j] = max(0, L[i][j], U[i][j], D[i][j]);
    }
}
"#,
    )
    .unwrap();
    let out = aalign()
        .args(["codegen", "--input", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("pub const LOCAL: bool = true;"), "{text}");
    assert!(text.contains("fn sw_aff_iterate"), "{text}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = aalign().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"));
}

#[test]
fn missing_required_flag_fails() {
    let out = aalign().args(["pair", "--query"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn search_with_zero_timeout_reports_partial_results() {
    let dir = std::env::temp_dir().join("aalign_cli_timeout");
    std::fs::create_dir_all(&dir).unwrap();
    write_fasta(&dir.join("q.fa"), &[("q", "HEAGAWGHEE")]);
    write_fasta(
        &dir.join("db.fa"),
        &[("a", "PAWHEAE"), ("b", "HEAGAWGHEE"), ("c", "MKVLAARND")],
    );
    let out = aalign()
        .args([
            "search",
            "--query",
            dir.join("q.fa").to_str().unwrap(),
            "--db",
            dir.join("db.fa").to_str().unwrap(),
            "--timeout",
            "0",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "a deadline is a degraded mode, not a failure: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("partial results"), "{err}");
    assert!(err.contains("deadline"), "{err}");
    // The CLI emits the same versioned partial wire object a serve
    // front end returns for a deadline-expired request.
    let wire = err
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("partial reports include the wire document");
    assert!(wire.contains("\"schema_version\":1"), "{wire}");
    assert!(wire.contains("\"partial\":true"), "{wire}");
    assert!(wire.contains("\"code\":\"deadline_exceeded\""), "{wire}");
}

#[test]
fn serve_http_smoke_search_then_graceful_shutdown() {
    use std::io::{BufRead, BufReader, Read};

    let dir = std::env::temp_dir().join("aalign_cli_serve_http");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fa");
    assert!(aalign()
        .args([
            "gen-db",
            "--count",
            "30",
            "--seed",
            "3",
            "--out",
            db.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());

    let mut daemon = aalign()
        .args([
            "serve",
            "--db",
            db.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The daemon announces its bound address on stdout.
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .rsplit("http://")
        .next()
        .expect("banner names the listen address")
        .to_string();

    let http = |method: &str, path: &str, body: &str| -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status = response
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|c| c.parse().ok())
            .unwrap();
        let payload = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, payload)
    };

    let (status, body) = http("GET", "/v1/health", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"schema_version\":1"), "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, body) = http(
        "POST",
        "/v1/search",
        "{\"query\":\"MKVLAARNDWHEAGAWGHEE\",\"top_n\":3}",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"schema_version\":1"), "{body}");
    assert!(body.contains("\"partial\":false"), "{body}");
    assert!(body.contains("\"hits\":["), "{body}");

    // Graceful shutdown over the wire: the process drains and exits 0.
    let (status, body) = http("POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"draining\":true"), "{body}");
    let out = daemon.wait_with_output().unwrap();
    assert!(out.status.success(), "daemon must exit clean after drain");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("drained cleanly"), "{err}");
}

#[test]
fn serve_stdio_smoke_json_rpc_round_trip() {
    let dir = std::env::temp_dir().join("aalign_cli_serve_stdio");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fa");
    assert!(aalign()
        .args([
            "gen-db",
            "--count",
            "20",
            "--seed",
            "4",
            "--out",
            db.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());

    let mut daemon = aalign()
        .args([
            "serve",
            "--db",
            db.to_str().unwrap(),
            "--stdio",
            "--threads",
            "2",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = daemon.stdin.take().unwrap();
    let search = r#"{"jsonrpc":"2.0","id":1,"method":"search","params":{"query":"MKVLAARNDWHEAGAWGHEE","top_n":2}}"#;
    let health = r#"{"jsonrpc":"2.0","id":2,"method":"health"}"#;
    writeln!(stdin, "{search}").unwrap();
    writeln!(stdin, "{health}").unwrap();
    drop(stdin); // EOF ends the session; the daemon drains and exits.

    let out = daemon.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains("\"jsonrpc\":\"2.0\""), "{}", lines[0]);
    assert!(lines[0].contains("\"schema_version\":1"), "{}", lines[0]);
    assert!(lines[0].contains("\"hits\":["), "{}", lines[0]);
    assert!(lines[1].contains("\"status\":\"ok\""), "{}", lines[1]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("drained cleanly"));
}

/// Regression: a `shutdown` RPC must produce a complete final reply
/// line and a clean exit *while the supervisor still holds stdin
/// open*. (The shard supervisor relies on this — it reads the
/// shutdown acknowledgement before sending SIGTERM, so the daemon
/// must not wait for EOF to flush and exit.)
#[test]
fn serve_stdio_shutdown_flushes_reply_with_stdin_still_open() {
    let dir = std::env::temp_dir().join("aalign_cli_stdio_shutdown");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fa");
    assert!(aalign()
        .args([
            "gen-db",
            "--count",
            "10",
            "--seed",
            "9",
            "--out",
            db.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());

    let mut daemon = aalign()
        .args(["serve", "--db", db.to_str().unwrap(), "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = daemon.stdin.take().unwrap();
    writeln!(stdin, r#"{{"jsonrpc":"2.0","id":1,"method":"health"}}"#).unwrap();
    writeln!(stdin, r#"{{"jsonrpc":"2.0","id":2,"method":"shutdown"}}"#).unwrap();
    stdin.flush().unwrap();
    // Deliberately keep `stdin` alive: the daemon must exit on its
    // own after acknowledging shutdown, without seeing EOF first.
    let out = daemon.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    drop(stdin); // released only after the daemon has already exited
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains("\"status\":\"ok\""), "{}", lines[0]);
    assert!(lines[1].contains("\"draining\":true"), "{}", lines[1]);
    assert!(
        lines[1].ends_with('}'),
        "shutdown reply must be a complete JSON line: {:?}",
        lines[1]
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("drained cleanly"));
}

/// End-to-end chaos pin at the CLI layer: `search --shards` with an
/// unlimited kill plan degrades to a partial answer naming the dead
/// shard's exact uncovered range, and still exits zero.
#[test]
fn shard_search_cli_degrades_with_exact_uncovered_range_under_kill_plan() {
    let dir = std::env::temp_dir().join("aalign_cli_shard_chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.fa");
    let query = dir.join("q.fa");
    assert!(aalign()
        .args([
            "gen-db",
            "--count",
            "40",
            "--seed",
            "3",
            "--out",
            db.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    write_fasta(&query, &[("q1", "MKVLAARNDWHEAGAWGHEEAEKLFTQ")]);

    let out = aalign()
        .args([
            "search",
            "--query",
            query.to_str().unwrap(),
            "--db",
            db.to_str().unwrap(),
            "--shards",
            "4",
            "--top",
            "3",
            "--shard-fault",
            "kill@1",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    // 40 subjects over 4 shards → shard 1 owns exactly [10, 20).
    assert!(
        stderr.contains("shard 1 lost; database range [10, 20) is uncovered"),
        "{stderr}"
    );
    assert!(stderr.contains("partial results"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shards: 3 ok, 1 failed"), "{stdout}");
}

/// Write `count` subjects from `gen-db --seed 5` into `dir/db.fa` and
/// a fixed protein query into `dir/q.fa`.
fn seed5_db_and_query(dir: &std::path::Path, count: &str) {
    std::fs::create_dir_all(dir).unwrap();
    assert!(aalign()
        .args([
            "gen-db",
            "--count",
            count,
            "--seed",
            "5",
            "--out",
            dir.join("db.fa").to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    write_fasta(&dir.join("q.fa"), &[("q", "MKVLAARNDWHEAGAWGHEE")]);
}

#[test]
fn search_pool_wider_than_the_database_uses_one_thread_per_subject() {
    let dir = std::env::temp_dir().join("aalign_cli_threads");
    seed5_db_and_query(&dir, "3");
    let run = |threads: &str| {
        let out = aalign()
            .args([
                "search",
                "--query",
                dir.join("q.fa").to_str().unwrap(),
                "--db",
                dir.join("db.fa").to_str().unwrap(),
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let hit_lines = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.contains(" bits "))
            .map(str::to_string)
            .collect()
    };
    let wide = run("64");
    assert!(wide.contains(" on 3 threads "), "{wide}");
    let one = run("1");
    assert_eq!(hit_lines(&wide).len(), 3, "{wide}");
    assert_eq!(hit_lines(&wide), hit_lines(&one));
}

#[test]
fn shard_search_zero_timeout_degrades_every_shard() {
    let dir = std::env::temp_dir().join("aalign_cli_shard_timeout");
    seed5_db_and_query(&dir, "40");
    let out = aalign()
        .args([
            "search",
            "--query",
            dir.join("q.fa").to_str().unwrap(),
            "--db",
            dir.join("db.fa").to_str().unwrap(),
            "--shards",
            "2",
            "--timeout",
            "0",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shards: 0 ok, 2 failed"), "{stdout}");
    for range in ["[0, 20)", "[20, 40)"] {
        assert!(
            stderr.contains(&format!("database range {range} is uncovered")),
            "{stderr}"
        );
    }
}

#[test]
fn search_rescues_a_saturating_subject_at_fixed8() {
    let dir = std::env::temp_dir().join("aalign_cli_rescue");
    std::fs::create_dir_all(&dir).unwrap();
    let w = "W".repeat(100);
    write_fasta(&dir.join("q.fa"), &[("q", w.as_str())]);
    write_fasta(
        &dir.join("db.fa"),
        &[("hot", w.as_str()), ("cold", "PAWHEAE")],
    );
    let qpath = dir.join("q.fa");
    let dbpath = dir.join("db.fa");
    let common = [
        "search",
        "--query",
        qpath.to_str().unwrap(),
        "--db",
        dbpath.to_str().unwrap(),
        "--width",
        "8",
    ];
    let out = aalign().args(common).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // W·W = 11 in BLOSUM62: the exact 100-residue self-match score is
    // 1100, far past i8 — only the rescue path can print it.
    assert!(text.contains("rescued 1 lane-saturated subject"), "{text}");
    assert!(text.contains("score   1100"), "{text}");
    // Rescue is not an option: there is no flag that keeps the
    // clamped narrow score.
    let out = aalign().args(common).arg("--no-rescue").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

/// A forced narrow width on a global alignment outside the width's
/// proven bound: the kernel looks at its final cell only, so the run
/// is reported saturated wholesale (it used to print 103, unflagged),
/// and a search rescues it to the exact score.
#[test]
fn forced_narrow_global_run_is_flagged_and_rescued() {
    let dir = std::env::temp_dir().join("aalign_cli_narrow_global");
    std::fs::create_dir_all(&dir).unwrap();
    let (q, s) = (
        "W".repeat(18),
        format!("{}{}", "W".repeat(12), "P".repeat(6)),
    );
    write_fasta(&dir.join("q.fa"), &[("q", q.as_str())]);
    write_fasta(&dir.join("s.fa"), &[("s", s.as_str())]);
    let (qpath, spath) = (dir.join("q.fa"), dir.join("s.fa"));
    let run = |args: &[&str]| {
        let out = aalign().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let pair = |width: &str| {
        run(&[
            "pair",
            "--query",
            qpath.to_str().unwrap(),
            "--subject",
            spath.to_str().unwrap(),
            "--global",
            "--width",
            width,
        ])
    };
    let narrow = pair("8");
    assert!(narrow.contains("lane-saturated: i8"), "{narrow}");
    let wide = pair("32");
    assert!(wide.contains("score 108"), "{wide}");
    assert!(!wide.contains("lane-saturated"), "{wide}");
    let searched = run(&[
        "search",
        "--query",
        qpath.to_str().unwrap(),
        "--db",
        spath.to_str().unwrap(),
        "--global",
        "--width",
        "8",
    ]);
    assert!(
        searched.contains("rescued 1 lane-saturated subject"),
        "{searched}"
    );
    assert!(searched.contains("score    108"), "{searched}");
}

/// `serve` with the fault flag of the other door: refused, naming the
/// flag that door takes, before any child or engine starts.
fn serve_refuses(extra: &[&str], needle: &str) {
    let dir = std::env::temp_dir().join("aalign_cli_serve_fault_door");
    std::fs::create_dir_all(&dir).unwrap();
    write_fasta(&dir.join("db.fa"), &[("a", "PAWHEAE"), ("b", "HEAGAWGHEE")]);
    let out = aalign()
        .args([
            "serve",
            "--db",
            dir.join("db.fa").to_str().unwrap(),
            "--stdio",
        ])
        .args(extra)
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(!out.status.success(), "{extra:?} accepted: {err}");
    assert!(err.contains(needle), "{extra:?}: {err}");
}

/// `search --shards` takes the same fault flag as `serve --shards`,
/// and no trace: the children's sweeps are not recorded.
#[test]
fn sharded_search_refuses_an_engine_fault_plan_and_a_trace() {
    let dir = std::env::temp_dir().join("aalign_cli_search_shard_door");
    seed5_db_and_query(&dir, "4");
    let refused = |extra: &[&str], needle: &str| {
        let out = aalign()
            .args([
                "search",
                "--query",
                dir.join("q.fa").to_str().unwrap(),
                "--db",
                dir.join("db.fa").to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(!out.status.success(), "{extra:?} accepted: {err}");
        assert!(err.contains(needle), "{extra:?}: {err}");
    };
    refused(
        &["--shards", "2", "--fault-plan", "kill@0"],
        "use --shard-fault",
    );
    refused(&["--shard-fault", "kill@0"], "use --fault-plan");
    refused(&["--shards", "2", "--trace-out", "t.jsonl"], "--trace-out");
}

#[test]
fn sharded_serve_refuses_an_engine_fault_plan() {
    serve_refuses(
        &["--shards", "2", "--threads", "1", "--fault-plan", "kill@0"],
        "use --shard-fault",
    );
}

#[test]
fn unsharded_serve_refuses_a_shard_fault_plan() {
    serve_refuses(&["--shard-fault", "kill@0"], "use --fault-plan");
}

#[test]
fn fault_plan_flag_runs_a_valid_spec_and_rejects_a_bad_one() {
    let dir = std::env::temp_dir().join("aalign_cli_faultplan");
    std::fs::create_dir_all(&dir).unwrap();
    write_fasta(&dir.join("q.fa"), &[("q", "HEAGAWGHEE")]);
    write_fasta(&dir.join("db.fa"), &[("a", "PAWHEAE")]);
    let search = |spec: &str| {
        aalign()
            .args([
                "search",
                "--query",
                dir.join("q.fa").to_str().unwrap(),
                "--db",
                dir.join("db.fa").to_str().unwrap(),
                "--fault-plan",
                spec,
            ])
            .output()
            .unwrap()
    };
    // Plan accepted: the scripted panic surfaces as a partial report,
    // not a crash.
    let out = search("panic@0");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{err}");
    assert!(err.contains("partial results"), "{err}");
    // A malformed spec is refused before any search runs.
    let out = search("explode@0");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(!out.status.success());
    assert!(err.contains("--fault-plan: unknown fault verb"), "{err}");
}

/// Bit scores and E-values come from the one fitted (λ, K) pair — local
/// BLOSUM62 with gap open 11 / extend 1 — and any other configuration
/// prints `-` in both columns instead of numbers fitted for another
/// scheme (a global search once printed `bits -22.4  E 1.17e12`).
#[test]
fn search_prints_evalues_only_for_the_fitted_scheme() {
    let dir = std::env::temp_dir().join("aalign_cli_evalue");
    seed5_db_and_query(&dir, "10");
    let columns = |extra: &[&str]| -> Vec<(String, String)> {
        let out = aalign()
            .args([
                "search",
                "--query",
                dir.join("q.fa").to_str().unwrap(),
                "--db",
                dir.join("db.fa").to_str().unwrap(),
                "--top",
                "3",
            ])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        let hits: Vec<_> = text
            .lines()
            .filter(|l| l.contains(" bits "))
            .map(|l| {
                let words: Vec<&str> = l.split_whitespace().collect();
                let after = |label| {
                    let at = words.iter().position(|w| *w == label).unwrap();
                    words[at + 1].to_string()
                };
                (after("bits"), after("E"))
            })
            .collect();
        assert_eq!(hits.len(), 3, "{text}");
        hits
    };
    for extra in [
        &["--global"][..],
        &[],
        &["--open", "-11", "--ext", "-1", "--linear"],
    ] {
        for (bits, e) in columns(extra) {
            assert_eq!((bits.as_str(), e.as_str()), ("-", "-"), "{extra:?}");
        }
    }
    for (bits, e) in columns(&["--open", "-11", "--ext", "-1"]) {
        assert!(bits.parse::<f64>().unwrap() > 0.0, "bits {bits}");
        assert!(e.parse::<f64>().unwrap() >= 0.0, "E {e}");
    }
}
