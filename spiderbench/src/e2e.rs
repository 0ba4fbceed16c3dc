//! The socket side: boot a real `spiderd`, create the seed sessions, and
//! drive the closed-loop clients for the measured window.

use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use routes_server::json::{self, Json};

use crate::answer::{self, Answer};
use crate::http::Conn;
use crate::workload::{Kind, Step, Target};

/// The flags every run passes; everything else stays at its default
/// (tracing default, profiler off, WAL group commit with synced creates,
/// edits and deletes).
pub const SPIDERD_FLAGS: [&str; 4] = ["--addr", "127.0.0.1:0", "--threads", "2"];

/// A running `spiderd`. Dropping it kills the process (if still running),
/// waits for it, and removes its data directory.
pub struct Spiderd {
    child: Child,
    pub addr: SocketAddr,
    data_dir: PathBuf,
}

impl Spiderd {
    /// Spawn `bin` on a fresh data directory and wait until `/healthz`
    /// answers.
    pub fn spawn(bin: &Path, data_dir: PathBuf, log: &Path) -> Result<Spiderd, String> {
        let _ = fs::remove_dir_all(&data_dir);
        fs::create_dir_all(&data_dir).map_err(|e| format!("data dir: {e}"))?;
        let mut cmd = Command::new(bin);
        cmd.args(SPIDERD_FLAGS).arg("--data-dir").arg(&data_dir);
        // Defaults only: no inherited ROUTES_* knob may change the server.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("ROUTES_") {
                cmd.env_remove(key);
            }
        }
        let log = File::create(log).map_err(|e| format!("spiderd log: {e}"))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut server = Spiderd {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            data_dir,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => server.addr = addr,
            _ => return Err(format!("spiderd did not report its address: {line:?}")),
        }
        let mut conn = Conn::new(server.addr);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match conn.request("GET", "/healthz", b"") {
                Ok(reply) if reply.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => return Err("spiderd never became healthy".into()),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
    }

    /// `POST /shutdown` and wait for the process to exit by itself.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = Conn::new(self.addr).request("POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("spiderd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("spiderd did not shut down".into()),
            }
        }
    }
}

impl Drop for Spiderd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = fs::remove_dir_all(&self.data_dir);
    }
}

/// The admission `queue_wait_us` histogram from `GET /metrics`, as
/// `(upper bound in µs, count)` with `u64::MAX` for the open bucket.
pub fn queue_wait_histogram(addr: SocketAddr) -> Result<Vec<(u64, u64)>, String> {
    let reply = Conn::new(addr)
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("metrics: {e}"))?;
    let text = String::from_utf8(reply.body).map_err(|_| "metrics are not UTF-8".to_owned())?;
    let doc = json::parse(&text).map_err(|e| format!("metrics: {e}"))?;
    let buckets = doc
        .get("admission")
        .and_then(|a| a.get("queue_wait_us"))
        .and_then(Json::as_array)
        .ok_or("metrics lack admission.queue_wait_us")?;
    Ok(buckets
        .iter()
        .map(|b| {
            let le = b
                .get("le_us")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .unwrap_or(u64::MAX);
            (le, b.get("count").and_then(Json::as_u64).unwrap_or(0))
        })
        .collect())
}

/// Create the seed sessions; returns their ids and create answers.
pub fn create_seed_sessions(
    addr: SocketAddr,
    bodies: &[String],
) -> Result<Vec<(u64, Answer)>, String> {
    let mut conn = Conn::new(addr);
    bodies
        .iter()
        .map(|body| {
            let reply = conn
                .request("POST", "/sessions", body.as_bytes())
                .map_err(|e| format!("seed create: {e}"))?;
            if reply.status != 201 {
                return Err(format!("seed create answered HTTP {}", reply.status));
            }
            let (answer, id) = answer::parse(Kind::Create, &reply.body)?;
            Ok((id.expect("create answers carry an id"), answer))
        })
        .collect()
}

/// One answered (or failed) request.
pub struct Sample {
    pub client: usize,
    /// Index into the client's script.
    pub step: usize,
    pub kind: Kind,
    /// Sent during the warm-up: checked, but not timed.
    pub warmup: bool,
    /// When the request was sent, from the start of the warm-up.
    pub sent: Duration,
    pub latency: Duration,
    pub outcome: Result<Answer, String>,
}

pub struct Window {
    pub samples: Vec<Sample>,
    /// From the end of the warm-up to the last completed request.
    pub elapsed: Duration,
}

/// Run every client's script in a closed loop, cycling: first for `warmup`
/// seconds, whose requests are checked but not timed, then for `seconds`
/// more, the measured window. Requests already sent when the window closes
/// complete.
pub fn run_window(
    addr: SocketAddr,
    scripts: &[Vec<Step>],
    seed_ids: &[u64],
    warmup: f64,
    seconds: f64,
) -> Window {
    let start = Instant::now();
    let measured = start + Duration::from_secs_f64(warmup);
    let deadline = measured + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Sample>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(client, script)| {
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut current: Option<u64> = None;
                    let mut samples = Vec::new();
                    let mut last = measured;
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let step = &script[i % script.len()];
                        let id = match step.target {
                            Target::Service => 0,
                            Target::Seed(k) => seed_ids[k],
                            Target::Current => current.unwrap_or(0),
                        };
                        let (method, path) = step.request_line(id);
                        let sent = Instant::now();
                        let reply = conn.request(method, &path, step.body.as_bytes());
                        last = Instant::now();
                        let outcome = match reply {
                            Ok(r) if (200..300).contains(&r.status) => {
                                answer::parse(step.kind, &r.body).map(|(answer, created)| {
                                    if step.kind == Kind::Create {
                                        current = created;
                                    }
                                    answer
                                })
                            }
                            Ok(r) => Err(format!(
                                "HTTP {}: {}",
                                r.status,
                                String::from_utf8_lossy(&r.body[..r.body.len().min(200)])
                            )),
                            Err(e) => Err(format!("transport: {e}")),
                        };
                        if step.kind == Kind::Create && outcome.is_err() {
                            current = None;
                        }
                        samples.push(Sample {
                            client,
                            step: i % script.len(),
                            kind: step.kind,
                            warmup: sent < measured,
                            sent: sent - start,
                            latency: last - sent,
                            outcome,
                        });
                        i += 1;
                    }
                    (samples, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = per_client
        .iter()
        .map(|(_, last)| *last)
        .max()
        .unwrap_or(measured);
    Window {
        samples: per_client.into_iter().flat_map(|(s, _)| s).collect(),
        elapsed: end.saturating_duration_since(measured),
    }
}
