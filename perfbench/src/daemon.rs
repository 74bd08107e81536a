//! The daemon under test runs as a child process of this binary
//! (`avoc-perfbench daemon ...`), so its CPU time, peak RSS and thread
//! census are its own, and a crash is a real SIGKILL.

use crate::workload::Workload;
use avoc_serve::{Persistence, ServeConfig, SpecRegistry, TcpServer, VoterService};
use avoc_vdx::VdxSpec;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Child side: start the service, announce its ports on stdout, then obey
/// `compact` / `stop` lines on stdin. Stdin closing (the benchmark died)
/// stops the daemon too, so no orphan outlives its parent.
pub fn daemon_main(args: &[String]) -> ! {
    let mut shards = 1usize;
    let mut reactors = 1usize;
    let mut max_sessions = 1024usize;
    let mut state_dir: Option<PathBuf> = None;
    let mut checkpoint_every = 1u64;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_default();
        match args[i].as_str() {
            "--shards" => shards = value.parse().expect("--shards N"),
            "--reactors" => reactors = value.parse().expect("--reactors N"),
            "--max-sessions" => max_sessions = value.parse().expect("--max-sessions N"),
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            "--checkpoint-every" => checkpoint_every = value.parse().expect("--checkpoint-every N"),
            other => panic!("daemon: unknown flag {other}"),
        }
        i += 2;
    }
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards,
            reactors,
            max_sessions,
            // The generator keeps every session busy; idle eviction would
            // only reap sessions the load schedule has not reached yet.
            idle_ticks: u64::MAX,
            admin_addr: Some("127.0.0.1:0".into()),
            write_deadline: std::time::Duration::from_secs(60),
            persistence: Persistence {
                state_dir,
                checkpoint_every,
                ..Persistence::default()
            },
            ..ServeConfig::default()
        },
        Arc::new(registry),
    ));
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("daemon bind");
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "READY {} {} {} {} {} {}",
        server.local_addr(),
        server.admin_addr().expect("admin endpoint configured"),
        server.reactor_backend(),
        server.accept_mode(),
        service.shards(),
        server.reactor_count(),
    )
    .and_then(|()| out.flush())
    .expect("announce ports");
    for line in io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "compact" => {
                let t = Instant::now();
                let report = service.compact_now();
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let folded = report.map_or(0, |r| r.folded_sessions);
                writeln!(out, "COMPACTED {ms} {folded}")
                    .and_then(|()| out.flush())
                    .expect("answer compact");
            }
            "stop" => break,
            _ => {}
        }
    }
    server.shutdown();
    std::process::exit(0);
}

/// Parent side: one running daemon child.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    ended: bool,
    pub addr: SocketAddr,
    pub admin: String,
    pub backend: String,
    pub accept_mode: String,
    pub shards: usize,
    pub reactors: usize,
}

impl Daemon {
    pub fn spawn(w: &Workload, state_dir: Option<&Path>) -> io::Result<Daemon> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.arg("daemon")
            .args(["--shards", &w.shards.to_string()])
            .args(["--reactors", &w.reactors.to_string()])
            .args(["--max-sessions", &(w.sessions as usize * 2).to_string()])
            .args(["--checkpoint-every", &w.checkpoint_every.to_string()]);
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 7 || f[0] != "READY" {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("daemon did not start: {line:?}")));
        }
        Ok(Daemon {
            addr: f[1].parse().map_err(io::Error::other)?,
            admin: f[2].to_string(),
            backend: f[3].to_string(),
            accept_mode: f[4].to_string(),
            shards: f[5].parse().map_err(io::Error::other)?,
            reactors: f[6].parse().map_err(io::Error::other)?,
            child,
            stdin,
            stdout,
            ended: false,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Runs `VoterService::compact_now` in the daemon; returns (ms, sessions
    /// folded).
    pub fn compact(&mut self) -> io::Result<(f64, u64)> {
        let stdin = self.stdin.as_mut().expect("daemon stdin");
        writeln!(stdin, "compact")?;
        stdin.flush()?;
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["COMPACTED", ms, folded] => Ok((
                ms.parse().map_err(io::Error::other)?,
                folded.parse().map_err(io::Error::other)?,
            )),
            _ => Err(io::Error::other(format!("bad compact answer {line:?}"))),
        }
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        self.end(true);
    }

    /// Graceful stop, then reap.
    pub fn stop(mut self) {
        self.end(false);
    }

    fn end(&mut self, hard: bool) {
        if self.ended {
            return;
        }
        self.ended = true;
        if hard {
            let _ = self.child.kill();
        } else {
            drop(self.stdin.take());
        }
        let _ = self.child.wait();
    }

    fn tasks(&self) -> Vec<PathBuf> {
        std::fs::read_dir(format!("/proc/{}/task", self.pid()))
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default()
    }

    /// User+system CPU of every live daemon thread, in ns (schedstat).
    pub fn cpu_ns(&self) -> u64 {
        self.tasks()
            .iter()
            .filter_map(|t| std::fs::read_to_string(t.join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum()
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn vm_hwm_kb(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
            })
            .unwrap_or(0)
    }

    /// Data-plane threads (shard workers and reactors) from `/proc`;
    /// `comm` is truncated to 15 bytes.
    pub fn data_plane_threads(&self) -> u64 {
        self.tasks()
            .iter()
            .filter_map(|t| std::fs::read_to_string(t.join("comm")).ok())
            .filter(|c| c.starts_with("avoc-serve-shar") || c.starts_with("avoc-net-reacto"))
            .count() as u64
    }

    /// The daemon's counters snapshot (`/stats`).
    pub fn stats(&self) -> io::Result<serde_json::Value> {
        let (status, body) = avoc_obs::http::get(&self.admin, "/stats")?;
        if status != 200 {
            return Err(io::Error::other(format!("/stats answered {status}")));
        }
        serde_json::from_str(&body).map_err(|e| io::Error::other(format!("{e:?}")))
    }

    /// One histogram (`count`, `p50`, `p99`, ...) from the JSON scrape.
    /// Only that object is parsed: the full document carries a histogram
    /// per tenant.
    pub fn histogram(&self, name: &str) -> io::Result<serde_json::Value> {
        let (status, body) = avoc_obs::http::get(&self.admin, "/metrics?format=json")?;
        if status != 200 {
            return Err(io::Error::other(format!("scrape answered {status}")));
        }
        let key = format!("\"{name}\": ");
        let Some(at) = body.find(&key) else {
            return Ok(serde_json::Value::Null);
        };
        let rest = &body[at + key.len()..];
        let mut depth = 0usize;
        let mut end = rest.len();
        for (i, ch) in rest.char_indices() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        serde_json::from_str(&rest[..end]).map_err(|e| io::Error::other(format!("{e:?}")))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.end(true);
    }
}

/// A counter from a `/stats` snapshot (`0` when absent).
pub fn counter(stats: &serde_json::Value, name: &str) -> u64 {
    stats[name].as_u64().unwrap_or(0)
}
