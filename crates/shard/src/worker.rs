//! One shard child process and its line-protocol plumbing.
//!
//! A [`Worker`] wraps an `aalign serve --stdio` child: requests go
//! down piped stdin as JSON-RPC lines, responses come back through a
//! dedicated reader thread feeding an `mpsc` channel — the same
//! shape the stdio daemon itself uses — so every receive can carry a
//! deadline instead of blocking forever on a wedged child.

use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use aalign_obs::wire::{obj, JsonValue};

/// How a receive failed.
#[derive(Debug)]
pub enum RecvError {
    /// No matching response arrived before the deadline. The child
    /// may be healthy but still computing — the caller decides
    /// whether that is fatal.
    TimedOut,
    /// The child's stdout reached EOF: the process died or closed
    /// its pipe. Always fatal for the worker.
    Closed,
    /// Reading the child's stdout failed. Fatal for the worker.
    Io(io::Error),
}

impl RecvError {
    /// True when the child itself is gone (vs possibly just slow).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, RecvError::TimedOut)
    }
}

/// The command line a shard child runs, minus the `--db` argument
/// (the supervisor appends each shard's own FASTA path).
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Executable to spawn (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments up to but excluding `--db <shard.fa>` — e.g.
    /// `["serve", "--stdio", "--threads", "1", "--open", "-10"]`.
    /// Aligner configuration must ride here so every child scores
    /// exactly like the reference single-process engine.
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// Command running `program serve --stdio <extra…>`.
    pub fn serve_stdio(program: impl Into<PathBuf>, extra: &[String]) -> Self {
        let mut args = vec!["serve".to_string(), "--stdio".to_string()];
        args.extend(extra.iter().cloned());
        WorkerCommand {
            program: program.into(),
            args,
        }
    }
}

/// Send `sig` to a process (declaration-only `kill(2)`, mirroring the
/// daemon's `signal(2)` latch). No-op off unix.
#[cfg(unix)]
pub(crate) fn signal_pid(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: kill(2) with its documented signature, aimed at a child
    // this process spawned; a stale pid at worst returns ESRCH, which
    // is discarded.
    unsafe {
        let _ = kill(pid as i32, sig);
    }
}

#[cfg(not(unix))]
pub(crate) fn signal_pid(_pid: u32, _sig: i32) {}

/// SIGTERM's number — forwarded to children during graceful drain.
pub(crate) const SIGTERM: i32 = 15;

/// One live shard child.
#[derive(Debug)]
pub struct Worker {
    child: Child,
    stdin: ChildStdin,
    rx: mpsc::Receiver<io::Result<String>>,
    reaped: bool,
    /// JSON-RPC id of the last request written: ids only have to be
    /// unique on this child's pipe.
    rpc_seq: u64,
}

impl Worker {
    /// Spawn `cmd` with `--db db_path` appended, stdio piped, and the
    /// reader thread running. The child's stderr is inherited so its
    /// own drain/flight diagnostics stay visible under the
    /// supervisor's.
    pub fn spawn(cmd: &WorkerCommand, db_path: &Path) -> io::Result<Worker> {
        let mut child = Command::new(&cmd.program)
            .args(&cmd.args)
            .arg("--db")
            .arg(db_path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped child stdin");
        let stdout = child.stdout.take().expect("piped child stdout");
        let (tx, rx) = mpsc::channel::<io::Result<String>>();
        std::thread::Builder::new()
            .name("aalign-shard-reader".to_string())
            .spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let stop = line.is_err();
                    if tx.send(line).is_err() || stop {
                        break;
                    }
                }
                // Dropping `tx` signals EOF to every pending receive.
            })?;
        Ok(Worker {
            child,
            stdin,
            rx,
            reaped: false,
            rpc_seq: 0,
        })
    }

    /// OS process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Write one JSON-RPC request line for (`method`, `params`) under
    /// this child's next id, and return that id.
    pub fn send(&mut self, method: &str, params: JsonValue) -> io::Result<u64> {
        self.rpc_seq += 1;
        let line = obj(vec![
            ("jsonrpc", "2.0".into()),
            ("id", self.rpc_seq.into()),
            ("method", method.into()),
            ("params", params),
        ])
        .render();
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        Ok(self.rpc_seq)
    }

    /// Receive until the response whose `id` equals `rpc_id` arrives,
    /// waiting no later than `deadline` (stale responses from abandoned
    /// earlier calls are discarded — retries are idempotent by request
    /// id).
    pub fn recv_matching(
        &mut self,
        rpc_id: u64,
        deadline: Instant,
    ) -> Result<JsonValue, RecvError> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::TimedOut);
            }
            let line = match self.rx.recv_timeout(deadline - now) {
                Ok(Ok(line)) => line,
                Ok(Err(e)) => return Err(RecvError::Io(e)),
                Err(mpsc::RecvTimeoutError::Timeout) => return Err(RecvError::TimedOut),
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(RecvError::Closed),
            };
            let Ok(doc) = JsonValue::parse(&line) else {
                continue;
            };
            if doc.get("id").and_then(JsonValue::as_u64) == Some(rpc_id) {
                return Ok(doc);
            }
        }
    }

    /// Non-blocking liveness check (`try_wait` reaping: a zombie is
    /// collected the moment this observes the exit).
    pub fn is_alive(&mut self) -> bool {
        match self.child.try_wait() {
            Ok(None) => true,
            Ok(Some(_)) => {
                self.reaped = true;
                false
            }
            Err(_) => false,
        }
    }

    /// Forward SIGTERM (graceful-drain first step).
    pub fn sigterm(&self) {
        signal_pid(self.child.id(), SIGTERM);
    }

    /// SIGKILL without waiting (chaos hook / wedged-child response).
    pub fn sigkill(&mut self) {
        let _ = self.child.kill();
    }

    /// Poll for exit up to `grace`; true if the child exited (and was
    /// reaped) in time.
    pub fn wait_with_grace(&mut self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => {
                    self.reaped = true;
                    return true;
                }
                Ok(None) => {}
                Err(_) => return false,
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// SIGKILL and reap, unconditionally.
    pub fn kill_and_reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.reaped = true;
    }
}

impl Drop for Worker {
    /// A dropped worker never leaks a process or a zombie: anything
    /// not already reaped is killed and waited for.
    fn drop(&mut self) {
        if !self.reaped {
            self.kill_and_reap();
        }
    }
}
