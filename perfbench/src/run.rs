//! One benchmark run: set-up, saturation, open loop, crash recovery and the
//! replay oracle against a daemon child process over loopback TCP.

use crate::daemon::{counter, Daemon};
use crate::layers;
use crate::oracle;
use crate::stats::{median, now_ns, quantile};
use crate::trace::{Tracer, ROOT};
use crate::wire::{self, Ledger, Phase, Rx, RxOutcome, Schedule, Tx, TxOutcome};
use crate::workload::{tick_order, Inputs, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

/// Trials per run. Each trial is a fresh daemon that goes through set-up,
/// saturation, open loop and one crash recovery; every end-to-end figure is
/// the median over trials, so a run is not at the mercy of where one
/// daemon's threads happened to land.
const TRIALS: u64 = 8;
/// Span buffer capacity of the traced run (spans past it are counted, not
/// kept).
const SPAN_CAP: usize = 1 << 18;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run measured.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, unit, value) in report order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Free-form environment and validity record (JSON object body).
    pub env: Vec<(String, String)>,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

/// A running daemon with the generator's data connection to it.
struct Instance {
    daemon: Daemon,
    tx: Tx,
    rx: Rx,
    /// Ledger verdict count when this instance started serving.
    verdicts_at_start: u64,
}

impl Instance {
    fn start(w: &Workload, dir: Option<&Path>, ledger: &Ledger) -> Result<Instance, String> {
        let daemon = Daemon::spawn(w, dir).map_err(|e| format!("spawn daemon: {e}"))?;
        let (tx, rx) = wire::connect(daemon.addr, w.modules as usize, w.rounds_per_frame as usize)
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Instance {
            daemon,
            tx,
            rx,
            verdicts_at_start: ledger.received,
        })
    }

    /// Conservation at a quiescent point: readings in = rounds fused ×
    /// modules + readings dropped, and rounds fused = verdicts received +
    /// results dropped.
    fn conservation(&self, w: &Workload, ledger: &Ledger) -> Result<serde_json::Value, String> {
        let doc = self.daemon.stats().map_err(|e| format!("/stats: {e}"))?;
        let fused = counter(&doc, "rounds_fused");
        let dropped = counter(&doc, "readings_dropped");
        let results_dropped = counter(&doc, "results_dropped");
        let readings_in = self.tx.readings_out;
        let verdicts = ledger.received - self.verdicts_at_start;
        if readings_in != fused * u64::from(w.modules) + dropped {
            return Err(format!(
                "conservation: {readings_in} readings in, but {fused} rounds fused x {} modules + {dropped} dropped",
                w.modules
            ));
        }
        if fused != verdicts + results_dropped {
            return Err(format!(
                "conservation: {fused} rounds fused, but {verdicts} verdicts received + {results_dropped} results dropped"
            ));
        }
        Ok(doc)
    }
}

/// Phase progress on stderr, stamped with seconds since start.
fn progress(what: &str) {
    eprintln!("[{:8.3} s] {what}", now_ns() as f64 / 1e9);
}

/// Waits (at most 15 s) until no task has stalled on I/O for a whole
/// second, per the kernel's pressure counter, so a run does not start in
/// the write-back of whatever ran before it. Returns the seconds waited.
fn wait_for_quiet_disk() -> f64 {
    let stalled_us = || -> Option<u64> {
        let text = std::fs::read_to_string("/proc/pressure/io").ok()?;
        let some = text.lines().find(|l| l.starts_with("some"))?;
        some.split_whitespace()
            .find_map(|f| f.strip_prefix("total="))?
            .parse()
            .ok()
    };
    let t0 = now_ns();
    let Some(mut last) = stalled_us() else {
        return 0.0;
    };
    while now_ns() - t0 < 15_000_000_000 {
        std::thread::sleep(std::time::Duration::from_secs(1));
        let Some(now) = stalled_us() else { break };
        if now == last {
            break;
        }
        last = now;
    }
    (now_ns() - t0) as f64 / 1e9
}

/// Disk bytes (checkpoints plus segments) and rounds fused, summed over
/// every daemon instance of the run.
#[derive(Default)]
struct DiskLedger {
    bytes: u64,
    rounds: u64,
}

/// The last look at an instance before it is stopped or killed: checks
/// conservation and books its disk traffic.
fn retire(
    inst: &Instance,
    w: &Workload,
    ledger: &Ledger,
    disk: &mut DiskLedger,
) -> Result<(), String> {
    let doc = inst.conservation(w, ledger)?;
    disk.bytes += counter(&doc, "checkpoint_bytes") + counter(&doc, "segment_bytes_written");
    disk.rounds += counter(&doc, "rounds_fused");
    Ok(())
}

/// Live threads of this process (tasks not yet exiting).
fn generator_threads() -> u64 {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| {
        d.flatten()
            .filter(|t| {
                std::fs::read_to_string(t.path().join("stat")).is_ok_and(|st| {
                    let state = st
                        .rsplit(')')
                        .next()
                        .and_then(|r| r.split_whitespace().next());
                    !matches!(state, Some("Z" | "X" | "x"))
                })
            })
            .count() as u64
    })
}

/// Runs a closed-window phase on `inst`.
#[allow(clippy::too_many_arguments)]
fn windowed(
    inst: &mut Instance,
    ledger: &mut Ledger,
    inputs: &Inputs,
    order: &[u32],
    first_round: u64,
    frames: u64,
    w: &Workload,
    tracer: &mut Tracer,
    max_threads: Option<&mut u64>,
) -> (TxOutcome, RxOutcome) {
    let phase = Phase::new(u64::MAX);
    let rx_tracer = Tracer::new(tracer.on(), SPAN_CAP / 4);
    let Instance { tx, rx, .. } = inst;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| wire::receive(rx, ledger, &phase, None, 0, rx_tracer));
        let tx_out = wire::send_windowed(
            tx,
            inputs,
            order,
            first_round,
            frames,
            u64::from(w.rounds_per_frame),
            w.window_rounds,
            &phase,
            tracer,
        );
        if tx_out.error.is_some() {
            phase.target.store(0, Ordering::Release);
        }
        // Sampled (on long phases only) once the sending is done: the
        // receiver still runs, and threads of earlier phases have long
        // exited.
        if let Some(max) = max_threads {
            *max = (*max).max(generator_threads());
        }
        let mut rx_out = handle.join().expect("receiver thread");
        if let Some(t) = rx_out.tracer.take() {
            tracer.absorb(t);
        }
        (tx_out, rx_out)
    })
}

fn phase_error(what: &str, tx: &TxOutcome, rx: &RxOutcome) -> Option<String> {
    tx.error
        .as_ref()
        .or(rx.error.as_ref())
        .map(|e| format!("{what}: {e}"))
}

pub fn source_revision() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
    {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    // Not a git checkout: identify the source by a digest of the crates.
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::from("crates")];
    while let Some(dir) = stack.pop() {
        if let Ok(rd) = std::fs::read_dir(&dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                    files.push(p);
                }
            }
        }
    }
    files.sort();
    let mut h = crate::stats::Fnv::new();
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default().chunks(8) {
            let mut w = [0u8; 8];
            w[..b.len()].copy_from_slice(b);
            h.word(u64::from_le_bytes(w));
        }
    }
    format!("source-fnv:{:016x}", h.0)
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let w = &args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    // The generator is one sending and one receiving thread on one data
    // connection per daemon.
    if nproc < 2 {
        return Err(format!(
            "the generator needs 2 threads but nproc is {nproc}"
        ));
    }
    let work = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}-{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir: {e}"))?;
    let waited = wait_for_quiet_disk();
    let mut result = run_in(args, w, nproc, &work);
    let _ = std::fs::remove_dir_all(&work);
    if w.durable {
        // Freed blocks are discarded at the file system's next journal
        // commit (every 5 s): let that land inside this run, not the next.
        std::thread::sleep(std::time::Duration::from_secs(6));
        wait_for_quiet_disk();
    }
    if let Ok(r) = &mut result {
        r.env.push(("disk_quiet_wait_s".into(), waited.to_string()));
    }
    result
}

/// Frames per session of each phase of one trial.
struct Plan {
    warm: u64,
    sat: u64,
    open: u64,
    /// Frames per session between two checkpoints.
    align: u64,
}

impl Plan {
    fn new(w: &Workload, seconds: f64) -> Plan {
        let f = u64::from(w.rounds_per_frame);
        // Every phase ends on a checkpoint boundary (whole multiples of
        // `checkpoint_every` rounds per session), so a SIGKILL between
        // phases loses no fused round and the oracle's uninterrupted replay
        // stays exact.
        let align = (w.checkpoint_every / f).max(1);
        let aligned = |frames: u64| frames.div_ceil(align).max(1) * align;
        // Half the run saturates, half runs the open loop, split evenly
        // over the trials.
        let per_trial = |rate: f64| {
            aligned(
                (seconds / 2.0 * rate / (f64::from(w.sessions) * f as f64 * TRIALS as f64)).round()
                    as u64,
            )
            .max(2)
        };
        Plan {
            warm: aligned(u64::from(w.warm_rounds) / f),
            sat: per_trial(w.nominal_saturation),
            open: per_trial(w.open_rate),
            align,
        }
    }

    fn rounds(&self, w: &Workload) -> u64 {
        u64::from(w.rounds_per_frame) * (self.warm + self.sat + self.open + self.align)
    }
}

/// What one trial measured.
struct Trial {
    setup_s: f64,
    sat_readings_per_s: f64,
    sat_traced: bool,
    p50_ms: f64,
    p99_ms: f64,
    latency_samples: u64,
    cpu_ns_per_reading: f64,
    rss_mb: f64,
    recovery_s: f64,
    late_ns: Vec<u64>,
    /// The daemon's readiness backend and accept mode.
    backend: (String, String),
    attempted: u64,
    failed: u64,
}

/// What the traced run keeps from its last trial for the per-layer ledger.
struct LastTrial {
    doc: serde_json::Value,
    checkpoint_hist: serde_json::Value,
    threads: u64,
    wire: (u64, u64, u64, u64),
    oracle: oracle::Outcome,
}

#[allow(clippy::too_many_arguments)]
fn run_trial(
    args: &Args,
    w: &Workload,
    plan: &Plan,
    index: u64,
    inputs: &Inputs,
    order: &[u32],
    work: &Path,
    tracer: &mut Tracer,
    disk: &mut DiskLedger,
    max_threads: &mut u64,
    feed: &mut (u64, u64),
    scrape_ms: &mut Vec<f64>,
    problems: &mut Vec<String>,
    notes: &mut Vec<String>,
    last: &mut Option<LastTrial>,
) -> Result<Trial, String> {
    let s_count = w.sessions as usize;
    let f = u64::from(w.rounds_per_frame);
    let m = u64::from(w.modules);
    let state_dir = work.join(format!("state-{index}"));
    let state = w.durable.then_some(state_dir.as_path());
    if let Some(d) = state {
        std::fs::create_dir_all(d).map_err(|e| format!("state dir: {e}"))?;
    }
    let mut ledger = Ledger::new(s_count, plan.rounds(w) as usize);
    let mut off = Tracer::new(false, 0);

    // Set-up: daemon start to every session open and warm.
    let t0 = now_ns();
    let mut inst = Instance::start(w, state, &ledger)?;
    let warm = wire::resume_all(
        &mut inst.tx,
        &mut inst.rx,
        s_count,
        w.modules,
        args.seed,
        None,
    )
    .map_err(|e| format!("open sessions: {e}"))?;
    if warm.iter().any(|&x| x) {
        return Err("a brand-new session resumed warm".into());
    }
    let (tx_out, rx_out) = windowed(
        &mut inst,
        &mut ledger,
        inputs,
        order,
        0,
        plan.warm,
        w,
        &mut off,
        None,
    );
    if let Some(e) = phase_error("warm-up", &tx_out, &rx_out) {
        return Err(e);
    }
    let setup_s = (now_ns() - t0) as f64 / 1e9;
    let mut next_round = plan.warm * f;

    // Saturation: a fixed amount of work, bounded in flight. The traced
    // run traces every other trial's, so it can also report the overhead.
    let sat_traced = args.trace && index % 2 == 1;
    let tr = if sat_traced { &mut *tracer } else { &mut off };
    let span = tr.begin("phase.saturation", ROOT, 0, next_round);
    tr.parent = span;
    let (tx_out, rx_out) = windowed(
        &mut inst,
        &mut ledger,
        inputs,
        order,
        next_round,
        plan.sat,
        w,
        tr,
        Some(max_threads),
    );
    tr.parent = ROOT;
    tr.end(span);
    if let Some(e) = phase_error("saturation", &tx_out, &rx_out) {
        return Err(e);
    }
    let sat_end = rx_out.last_ns.max(tx_out.end_ns);
    let sat_readings_per_s = tx_out.readings as f64 / ((sat_end - tx_out.start_ns) as f64 / 1e9);
    feed.0 += tx_out.allocs;
    feed.1 += tx_out.readings;
    next_round += plan.sat * f;

    // Durable: hard kill, restart over the same state, compact before
    // tenants re-attach (every WAL is cold then), resume warm.
    if w.durable {
        retire(&inst, w, &ledger, disk)?;
        inst.daemon.kill();
        let mut fresh = Instance::start(w, state, &ledger)?;
        let (ms, folded) = fresh
            .daemon
            .compact()
            .map_err(|e| format!("compact: {e}"))?;
        notes.push(format!(
            "trial {index}: mid-run compact_now folded {folded} sessions in {ms:.3} ms"
        ));
        let warm = wire::resume_all(
            &mut fresh.tx,
            &mut fresh.rx,
            s_count,
            w.modules,
            args.seed,
            Some(next_round - 1),
        )
        .map_err(|e| format!("resume after compaction: {e}"))?;
        let cold = warm.iter().filter(|&&x| !x).count();
        if cold > 0 {
            problems.push(format!(
                "trial {index}: {cold} session(s) resumed cold after the mid-run restart"
            ));
        }
        inst = fresh;
    }

    // Open loop at the workload's fixed rate.
    let open_r0 = next_round;
    let open_r1 = open_r0 + plan.open * f;
    let mut pos = vec![0u32; s_count];
    for (i, &s) in order.iter().enumerate() {
        pos[s as usize] = i as u32;
    }
    let schedule = Schedule {
        t0_ns: now_ns() + 2_000_000,
        frames_per_s: w.open_rate / f as f64,
        r0: open_r0,
        r1: open_r1,
        rounds_per_frame: f,
        sessions: s_count as u64,
        pos,
    };
    let open_rounds = (open_r1 - open_r0) * s_count as u64;
    let total_frames = plan.open * s_count as u64;
    // Mid-phase: the thread census, and in the traced run one `/metrics`
    // scrape under load.
    let probe_points = [total_frames / 2];
    let admin = inst.daemon.admin.clone();
    let phase = Phase::new(u64::MAX);
    let open_span = tracer.begin("phase.open_loop", ROOT, 0, open_r0);
    tracer.parent = open_span;
    let mut rx_tracer = Tracer::new(args.trace, SPAN_CAP / 4);
    rx_tracer.parent = open_span;
    let cpu0 = inst.daemon.cpu_ns();
    let (tx_out, rx_out) = {
        let Instance { tx, rx, .. } = &mut inst;
        let ledger = &mut ledger;
        let (phase, schedule) = (&phase, &schedule);
        let tracer = &mut *tracer;
        let trace_on = args.trace;
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                wire::receive(
                    rx,
                    ledger,
                    phase,
                    Some(schedule),
                    open_rounds as usize,
                    rx_tracer,
                )
            });
            let mut probe = |_k: u64| {
                *max_threads = (*max_threads).max(generator_threads());
                if trace_on {
                    let t = now_ns();
                    if let Ok((200, _)) = avoc_obs::http::get(&admin, "/metrics") {
                        scrape_ms.push((now_ns() - t) as f64 / 1e6);
                    }
                }
            };
            let tx_out = wire::send_open_loop(
                tx,
                inputs,
                order,
                schedule,
                w.window_rounds,
                phase,
                tracer,
                &probe_points,
                &mut probe,
            );
            if tx_out.error.is_some() {
                phase.target.store(0, Ordering::Release);
            }
            let mut rx_out = handle.join().expect("receiver thread");
            if let Some(t) = rx_out.tracer.take() {
                tracer.absorb(t);
            }
            (tx_out, rx_out)
        })
    };
    let cpu1 = inst.daemon.cpu_ns();
    tracer.parent = ROOT;
    tracer.end(open_span);
    if let Some(e) = phase_error("open loop", &tx_out, &rx_out) {
        problems.push(format!("trial {index}: {e}"));
    }
    feed.0 += tx_out.allocs;
    feed.1 += tx_out.readings;
    let cpu_ns_per_reading = (cpu1 - cpu0) as f64 / (open_rounds * m) as f64;
    let mut lat_ms: Vec<f64> = rx_out.latencies.iter().map(|&n| n as f64 / 1e6).collect();
    let latency_samples = lat_ms.len() as u64;
    // A round without a verdict missed every latency limit.
    lat_ms.resize(open_rounds as usize, f64::INFINITY);
    let p50_ms = quantile(&mut lat_ms, 0.50);
    let p99_ms = quantile(&mut lat_ms, 0.99);
    let late_ns = tx_out.late_ns;
    if backlog_growing(&late_ns) {
        notes.push(format!(
            "FLAG: trial {index}: the open-loop backlog grew over the phase: frames left later and later (rounds in flight at ten points: {:?})",
            tx_out.backlog
        ));
    }
    next_round = open_r1;

    // Quiescent census, conservation and (traced) scrape.
    let threads = inst.daemon.data_plane_threads();
    if threads != (inst.daemon.shards + inst.daemon.reactors) as u64 {
        problems.push(format!(
            "daemon census: {threads} data-plane threads, expected shards {} + reactors {}",
            inst.daemon.shards, inst.daemon.reactors
        ));
    }
    let doc = inst.conservation(w, &ledger)?;
    let checkpoint_hist = if args.trace {
        inst.daemon
            .histogram("avoc_checkpoint_latency_ns")
            .map_err(|e| format!("scrape: {e}"))?
    } else {
        serde_json::Value::Null
    };
    let rss_mb = inst.daemon.vm_hwm_kb() as f64 / 1024.0;
    let fresh_backend = (inst.daemon.backend.clone(), inst.daemon.accept_mode.clone());
    let wire_totals = (
        inst.tx.bytes_out,
        inst.tx.readings_out,
        ledger.bytes_in,
        ledger.received,
    );

    // Crash recovery: SIGKILL to every session resumed and delivering its
    // next verdicts.
    retire(&inst, w, &ledger, disk)?;
    let t0 = now_ns();
    inst.daemon.kill();
    let mut fresh = Instance::start(w, state, &ledger)?;
    let warm = wire::resume_all(
        &mut fresh.tx,
        &mut fresh.rx,
        s_count,
        w.modules,
        args.seed,
        Some(next_round - 1),
    )
    .map_err(|e| format!("resume after kill: {e}"))?;
    let cold = warm.iter().filter(|&&x| !x).count();
    if w.durable && cold > 0 {
        problems.push(format!(
            "trial {index}: {cold} durable session(s) resumed cold after SIGKILL"
        ));
    }
    // A memory-only daemon loses its sessions: they restart fresh.
    let resets = if w.durable { vec![] } else { vec![next_round] };
    let (tx_out, rx_out) = windowed(
        &mut fresh,
        &mut ledger,
        inputs,
        order,
        next_round,
        plan.align,
        w,
        &mut off,
        None,
    );
    if let Some(e) = phase_error("recovery", &tx_out, &rx_out) {
        return Err(e);
    }
    let recovery_s = (now_ns() - t0) as f64 / 1e9;
    next_round += f * plan.align;
    retire(&fresh, w, &ledger, disk)?;
    fresh.daemon.stop();

    // The oracle: every verdict of the trial against an in-process replay.
    let timed = args.trace && index + 1 == TRIALS;
    let verdict = oracle::replay(inputs, s_count, next_round, &resets, &ledger, timed, 2);
    let attempted = next_round * s_count as u64;
    let failed = (verdict.mismatched
        + verdict.missing
        + verdict.extra
        + ledger.duplicates
        + ledger.out_of_range
        + ledger.errors.saturating_sub(verdict.engine_errors)
        + attempted.saturating_sub(verdict.rounds))
    .min(attempted);
    if failed > 0 {
        problems.push(format!(
            "trial {index}: {failed} of {attempted} rounds lack a bit-identical verdict ({} mismatched, {} missing, {} extra, {} duplicates, {} daemon errors)",
            verdict.mismatched, verdict.missing, verdict.extra, ledger.duplicates, ledger.errors
        ));
    }
    if timed {
        *last = Some(LastTrial {
            doc,
            checkpoint_hist,
            threads,
            wire: wire_totals,
            oracle: verdict,
        });
    }
    Ok(Trial {
        setup_s,
        sat_readings_per_s,
        sat_traced,
        p50_ms,
        p99_ms,
        latency_samples,
        cpu_ns_per_reading,
        rss_mb,
        recovery_s,
        late_ns,
        backend: fresh_backend,
        attempted,
        failed,
    })
}

fn run_in(args: &Args, w: &Workload, nproc: u64, work: &Path) -> Result<RunResult, String> {
    let plan = Plan::new(w, args.seconds);
    let mut problems: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut tracer = Tracer::new(args.trace, SPAN_CAP);
    let mut max_threads = 0u64;
    let mut disk = DiskLedger::default();
    let mut feed = (0u64, 0u64);
    let mut scrape_ms = Vec::new();
    let mut last = None;

    let t_gen = now_ns();
    let inputs = Inputs::generate(w, args.seed);
    let order = tick_order(w.sessions, args.seed);
    notes.push(format!(
        "inputs: {} sessions x {} rows x {} modules generated in {:.3} s, digest {:016x}",
        w.sessions,
        inputs.rows,
        inputs.modules,
        (now_ns() - t_gen) as f64 / 1e9,
        inputs.digest()
    ));
    notes.push(format!(
        "plan per trial: {} trials x frames per session: warm {}, saturation {}, open loop {}, recovery {}",
        TRIALS, plan.warm, plan.sat, plan.open, plan.align
    ));
    let mut trials = Vec::with_capacity(TRIALS as usize);
    for index in 0..TRIALS {
        let trial = run_trial(
            args,
            w,
            &plan,
            index,
            &inputs,
            &order,
            work,
            &mut tracer,
            &mut disk,
            &mut max_threads,
            &mut feed,
            &mut scrape_ms,
            &mut problems,
            &mut notes,
            &mut last,
        )?;
        progress(&format!("trial {index} done"));
        trials.push(trial);
    }
    let med = |pick: fn(&Trial) -> f64| median(&trials.iter().map(pick).collect::<Vec<_>>());
    let attempted: u64 = trials.iter().map(|t| t.attempted).sum();
    let failed: u64 = trials.iter().map(|t| t.failed).sum();
    let (feed_allocs, feed_readings) = feed;
    if feed_allocs > 0 {
        problems.push(format!(
            "generator feed path allocated {feed_allocs} times over {feed_readings} readings"
        ));
    }
    if max_threads > nproc {
        problems.push(format!(
            "generator ran {max_threads} threads on {nproc} cores"
        ));
    }
    let mut late_ms: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.late_ns.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let late_p99_ms = quantile(&mut late_ms, 0.99);
    let sat = |traced: bool| {
        let rates: Vec<f64> = trials
            .iter()
            .filter(|t| t.sat_traced == traced)
            .map(|t| t.sat_readings_per_s)
            .collect();
        (!rates.is_empty()).then(|| median(&rates))
    };
    let readings_per_s = sat(false).unwrap_or(f64::NAN);
    let verdict_p50_ms = med(|t| t.p50_ms);
    let verdict_p99_ms = med(|t| t.p99_ms);
    notes.push(format!(
        "unbounded client-side figures (traced ledger: gen.readings_per_s, gen.verdict_p99_ms): readings_per_s = {readings_per_s} 1/s, verdict_p99_ms = {verdict_p99_ms} ms"
    ));
    for (name, pick) in [
        ("setup_s", (|t: &Trial| t.setup_s) as fn(&Trial) -> f64),
        ("saturation readings/s", |t| t.sat_readings_per_s),
        ("verdict p50 ms", |t| t.p50_ms),
        ("verdict p99 ms", |t| t.p99_ms),
        ("cpu ns/reading", |t| t.cpu_ns_per_reading),
        ("recovery_s", |t| t.recovery_s),
    ] {
        notes.push(format!(
            "per trial {name}: {:?}",
            trials.iter().map(pick).collect::<Vec<_>>()
        ));
    }
    let latency_samples: u64 = trials.iter().map(|t| t.latency_samples).sum();

    let env: Vec<(String, String)> = vec![
        ("workload".into(), format!("\"{}\"", w.name)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("backend".into(), format!("\"{}\"", trials[0].backend.0)),
        ("accept_mode".into(), format!("\"{}\"", trials[0].backend.1)),
        ("shards".into(), w.shards.to_string()),
        ("reactors".into(), w.reactors.to_string()),
        ("revision".into(), format!("\"{}\"", source_revision())),
        ("generator_threads".into(), max_threads.to_string()),
        ("data_connections".into(), "1".into()),
        ("trials".into(), TRIALS.to_string()),
        ("sessions".into(), w.sessions.to_string()),
        ("modules".into(), w.modules.to_string()),
        ("rounds_per_frame".into(), w.rounds_per_frame.to_string()),
        ("durable".into(), w.durable.to_string()),
        ("checkpoint_every".into(), w.checkpoint_every.to_string()),
        ("open_rate_rounds_per_s".into(), w.open_rate.to_string()),
        (
            "saturation_window_rounds".into(),
            w.window_rounds.to_string(),
        ),
        ("latency_samples".into(), latency_samples.to_string()),
        ("gen_late_p99_ms".into(), late_p99_ms.to_string()),
        (
            "backlog_growing".into(),
            notes.iter().any(|n| n.starts_with("FLAG")).to_string(),
        ),
        (
            "error_frac".into(),
            (failed as f64 / attempted as f64).to_string(),
        ),
        (
            "input_digest".into(),
            format!("\"{:016x}\"", inputs.digest()),
        ),
    ];

    let mut metrics = Vec::new();
    if args.trace {
        let last = last.expect("the traced run times its last trial");
        let ctx = layers::Context {
            w,
            inputs: &inputs,
            doc: &last.doc,
            checkpoint_hist: &last.checkpoint_hist,
            disk_bytes_per_round: disk.bytes as f64 / disk.rounds.max(1) as f64,
            work,
            verdict_p50_ms,
            verdict_p99_ms,
            traced_readings_per_s: sat(true),
            untraced_readings_per_s: readings_per_s,
            late_p99_ms,
            scrape_ms: &scrape_ms,
            threads: last.threads,
            bytes_out: last.wire.0,
            readings_out: last.wire.1,
            bytes_in: last.wire.2,
            verdicts_in: last.wire.3,
            feed_allocs,
            feed_readings,
            oracle: &last.oracle,
            tracer: &tracer,
        };
        metrics = layers::measure(&ctx, &mut notes)?;
        let path =
            PathBuf::from(".perfbench_work").join(format!("trace-{}-{}.jsonl", w.name, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write spans: {e}"))?;
        notes.push(format!(
            "spans: {} written to {} ({} not kept)",
            tracer.spans().len(),
            path.display(),
            tracer.overflow
        ));
        for (name, count, total, own) in tracer.self_times() {
            notes.push(format!(
                "span {name}: {count} spans, total {:.3} ms, self {:.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
    } else {
        metrics.push(("setup_s", "s", med(|t| t.setup_s)));
        metrics.push(("verdict_p50_ms", "ms", verdict_p50_ms));
        metrics.push(("cpu_ns_per_reading", "ns", med(|t| t.cpu_ns_per_reading)));
        metrics.push(("rss_mb", "MB", med(|t| t.rss_mb)));
        metrics.push(("recovery_s", "s", med(|t| t.recovery_s)));
    }
    Ok(RunResult {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        env,
        problems,
        notes,
    })
}

/// An open-loop backlog grows when frames leave ever later: the mean
/// lateness of the last tenth of the schedule exceeds twice that of the
/// first tenth plus 1 ms (the in-flight cap turns a growing queue into
/// growing lateness).
fn backlog_growing(late_ns: &[u64]) -> bool {
    let tenth = late_ns.len() / 10;
    if tenth == 0 {
        return false;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let head = mean(&late_ns[..tenth]);
    let tail = mean(&late_ns[late_ns.len() - tenth..]);
    tail > 2.0 * head + 1e6
}
