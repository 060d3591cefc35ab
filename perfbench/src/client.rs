//! A JSON-lines client for a `matopt serve` child process.

use crate::util::vm_hwm_mb;
use matopt_serve::protocol::Json;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A running `matopt serve`.
pub struct Server {
    child: Child,
    stdin: BufWriter<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

/// One answered request as the client saw it.
pub struct Answer {
    /// Index of the request in the order it was sent.
    pub seq: usize,
    pub latency: Duration,
    /// When the response line was read.
    pub done: Instant,
    pub line_bytes: usize,
    pub response: Json,
}

impl Server {
    /// Spawns `matopt serve` with `args` and waits for the answer to a
    /// first `stats` op, so the returned server is ready to plan.
    pub fn start(matopt: &Path, args: &[&str], log: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut child = Command::new(matopt)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", matopt.display()))?;
        let stdin = BufWriter::new(child.stdin.take().expect("stdin is piped"));
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdin,
            stdout,
        };
        match server.stats() {
            Ok(_) => Ok(server),
            Err(e) => {
                server.kill();
                Err(e)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set of the server process so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(self.pid()).ok_or_else(|| "no VmHWM for the server in /proc".into())
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("write to server: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server closed its output".into()),
            Ok(_) => {
                Json::parse(line.trim_end()).map_err(|e| format!("bad response {line:?}: {e}"))
            }
            Err(e) => Err(format!("read from server: {e}")),
        }
    }

    /// The server's `{"op": "stats"}` answer.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.send("{\"id\": \"stats\", \"op\": \"stats\"}")?;
        let doc = self.recv()?;
        if doc.get("op").and_then(Json::as_str) != Some("stats") {
            return Err(format!("expected a stats answer, got {doc:?}"));
        }
        Ok(doc)
    }

    /// Closed loop with up to `depth` requests in flight: `next(i)`
    /// yields the `i`-th request line, or `None` to stop sending. Every
    /// sent request is answered before this returns; responses arrive
    /// in request order (the serve loop guarantees it), so the client
    /// matches them to send times by position.
    pub fn closed_loop(
        &mut self,
        depth: usize,
        mut next: impl FnMut(usize) -> Option<String> + Send,
    ) -> Result<Vec<Answer>, String> {
        let Server { stdin, stdout, .. } = self;
        let (permit_tx, permit_rx) = mpsc::sync_channel::<()>(depth);
        let (sent_tx, sent_rx) = mpsc::channel::<(usize, Instant, usize)>();
        for _ in 0..depth {
            permit_tx.send(()).expect("receiver is alive");
        }
        std::thread::scope(|scope| {
            let writer = scope.spawn(move || -> Result<(), String> {
                let mut i = 0;
                while permit_rx.recv().is_ok() {
                    let Some(line) = next(i) else { break };
                    let t = Instant::now();
                    stdin
                        .write_all(line.as_bytes())
                        .and_then(|()| stdin.write_all(b"\n"))
                        .and_then(|()| stdin.flush())
                        .map_err(|e| format!("write to server: {e}"))?;
                    sent_tx
                        .send((i, t, line.len()))
                        .expect("reader outlives the writer");
                    i += 1;
                }
                Ok(())
            });
            let mut answers = Vec::new();
            let mut failure = None;
            // The channel closes when the writer is done; every request
            // it recorded is still answered.
            for (seq, sent, line_bytes) in sent_rx {
                let mut line = String::new();
                let read = stdout.read_line(&mut line);
                let done = Instant::now();
                let latency = done - sent;
                match read {
                    Ok(0) => {
                        failure = Some("server closed its output mid-run".to_string());
                        break;
                    }
                    Err(e) => {
                        failure = Some(format!("read from server: {e}"));
                        break;
                    }
                    Ok(_) => {}
                }
                let response = Json::parse(line.trim_end()).unwrap_or(Json::Null);
                answers.push(Answer {
                    seq,
                    latency,
                    done,
                    line_bytes,
                    response,
                });
                // The writer may already have stopped; a closed permit
                // channel is expected then.
                let _ = permit_tx.try_send(());
            }
            drop(permit_tx);
            let written = writer.join().expect("writer thread does not panic");
            match (failure, written) {
                (Some(e), _) | (None, Err(e)) => Err(e),
                (None, Ok(())) => Ok(answers),
            }
        })
    }

    /// Orderly stop: `shutdown` op, then wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self.send("{\"id\": \"bye\", \"op\": \"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return sent,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not stop after shutdown".into());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Normal paths consume the server through `shutdown`; this
        // only reaps a child left behind by an error path.
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}
