//! The traced run's per-layer ledger. Each number comes from the
//! benchmark's own calls into one layer's public functions (timed around
//! the call), from spans recorded at the generator's layer boundaries, or
//! from the daemon's own counters scraped at a quiescent point.

use crate::daemon::counter;
use crate::oracle::{self, Outcome};
use crate::stats::{median, now_ns, quantile};
use crate::trace::Tracer;
use crate::workload::{session_id, session_token, Inputs, Workload};
use avoc_core::{HistoryStore, ModuleId};
use avoc_net::{BatchReading, Message, SensorHub, SpecSource};
use avoc_serve::{Persistence, ServeConfig, SpecRegistry, VoterService};
use avoc_store::{session_wal_path, Durability, FileHistory, TieredStore, VerdictRecord};
use avoc_vdx::{build_engine, VdxSpec};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Sessions the store layers write and read back.
const STORE_SESSIONS: usize = 8;
/// Rounds per session the store layers write.
const STORE_ROUNDS: u64 = 1024;
/// Sessions and rounds of the stateless-engine anchor.
const ANCHOR_SESSIONS: usize = 8;
const ANCHOR_ROUNDS: u64 = 1024;
/// Wall-clock budget of each in-process service measurement.
const SERVICE_BUDGET_NS: u64 = 1_000_000_000;

pub struct Context<'a> {
    pub w: &'a Workload,
    pub inputs: &'a Inputs,
    /// `/stats` of the daemon that served the open loop, at a quiescent
    /// point, and its checkpoint latency histogram.
    pub doc: &'a serde_json::Value,
    pub checkpoint_hist: &'a serde_json::Value,
    /// Checkpoint plus segment bytes written per fused round, whole run.
    pub disk_bytes_per_round: f64,
    pub work: &'a Path,
    pub verdict_p50_ms: f64,
    pub verdict_p99_ms: f64,
    pub traced_readings_per_s: Option<f64>,
    pub untraced_readings_per_s: f64,
    pub late_p99_ms: f64,
    pub scrape_ms: &'a [f64],
    pub threads: u64,
    /// Wire totals of the daemon that served the open loop.
    pub bytes_out: u64,
    pub readings_out: u64,
    pub bytes_in: u64,
    pub verdicts_in: u64,
    pub feed_allocs: u64,
    pub feed_readings: u64,
    pub oracle: &'a Outcome,
    pub tracer: &'a Tracer,
}

type Metric = (&'static str, &'static str, f64);

fn span_mean_ns(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .self_times()
        .into_iter()
        .find(|r| r.0 == name)
        .map_or(0.0, |(_, count, total, _)| total as f64 / count as f64)
}

pub fn measure(c: &Context, notes: &mut Vec<String>) -> Result<Vec<Metric>, String> {
    let w = c.w;
    let modules = f64::from(w.modules);
    let mut out: Vec<Metric> = Vec::new();

    // net.message: spans around the generator's encode and decode calls.
    let encode_ns = span_mean_ns(c.tracer, "net.message.encode");
    let decode_ns = span_mean_ns(c.tracer, "net.message.decode");
    out.push(("net.message.encode_ns_per_frame", "ns", encode_ns));
    out.push(("net.message.decode_ns_per_frame", "ns", decode_ns));
    out.push((
        "net.message.bytes_per_reading",
        "B",
        c.bytes_out as f64 / c.readings_out as f64,
    ));
    out.push((
        "net.message.bytes_per_verdict",
        "B",
        c.bytes_in as f64 / c.verdicts_in as f64,
    ));

    // net.hub and core.engine: timed inside the oracle's replay.
    let hub_ns = c.oracle.hub_ns as f64 / c.oracle.hub_readings.max(1) as f64;
    out.push(("net.hub.ns_per_reading", "ns", hub_ns));
    let mut engine: Vec<f64> = c.oracle.engine_ns.iter().map(|&n| n as f64).collect();
    let engine_p50 = quantile(&mut engine, 0.50);
    let engine_p99 = quantile(&mut engine, 0.99);
    out.push(("core.engine.ns_per_round_p50", "ns", engine_p50));
    out.push(("core.engine.ns_per_round_p99", "ns", engine_p99));
    out.push((
        "core.engine.bootstrap_rounds",
        "count",
        c.oracle.bootstrap_rounds as f64,
    ));
    let anchor_sessions = ANCHOR_SESSIONS.min(w.sessions as usize);
    let stateless = VdxSpec::preset("stateless").expect("stateless preset");
    let mut anchor: Vec<f64> =
        oracle::engine_ns_per_round(c.inputs, &stateless, anchor_sessions, ANCHOR_ROUNDS)
            .into_iter()
            .map(|n| n as f64)
            .collect();
    out.push((
        "core.engine.stateless_ns_per_round",
        "ns",
        quantile(&mut anchor, 0.5),
    ));

    // store.wal and store.tiered: the bench writes this workload's rounds
    // through FileHistory itself, then folds and reads them back.
    let store_dir = c.work.join("store");
    std::fs::create_dir_all(&store_dir).map_err(|e| format!("store dir: {e}"))?;
    let store = store_layers(c.inputs, w, &store_dir)?;
    out.push((
        "store.wal.append_ns_per_round",
        "ns",
        store.append_ns_per_round,
    ));
    out.push(("store.wal.bytes_per_round", "B", store.bytes_per_round));
    out.push((
        "store.wal.replay_ms_per_session",
        "ms",
        store.replay_ms_per_session,
    ));
    out.push(("store.tiered.compact_ms", "ms", store.compact_ms));
    out.push((
        "store.tiered.load_ms_per_session",
        "ms",
        store.load_ms_per_session,
    ));
    out.push(("store.tiered.history_at_us", "us", store.history_at_us));

    // serve.service: the same service in-process, no TCP.
    let svc = service_layer(c.inputs, w, &c.work.join("inproc"))?;
    out.push(("serve.service.verdict_p50_us", "us", svc.verdict_p50_us));
    out.push(("serve.service.verdict_p99_us", "us", svc.verdict_p99_us));
    out.push(("serve.service.feed_ns_per_call", "ns", svc.feed_ns_per_call));
    out.push(("serve.service.readings_per_s", "1/s", svc.readings_per_s));

    // serve.server / serve.shard / serve.persist: the daemon's counters.
    let doc = c.doc;
    let readings = c.readings_out as f64;
    let rounds = counter(doc, "rounds_fused") as f64;
    let syscalls = counter(doc, "writer_writes") + counter(doc, "epoll_wakeups");
    let flushes = counter(doc, "writer_flushes").max(1) as f64;
    out.push((
        "serve.server.gap_p50_us",
        "us",
        c.verdict_p50_ms * 1e3 - svc.verdict_p50_us,
    ));
    out.push((
        "serve.server.syscalls_per_1k_readings",
        "count",
        syscalls as f64 * 1e3 / readings,
    ));
    out.push((
        "serve.server.frames_per_flush",
        "count",
        counter(doc, "frames_sent") as f64 / flushes,
    ));
    out.push(("serve.server.threads", "count", c.threads as f64));
    out.push((
        "serve.shard.handoff_sends_per_1k_readings",
        "count",
        counter(doc, "shard_handoff_sends") as f64 * 1e3 / readings,
    ));
    out.push((
        "serve.shard.queue_high_water",
        "count",
        doc["shard_queue_high_water"].as_array().map_or(0.0, |a| {
            a.iter().filter_map(|v| v.as_f64()).fold(0.0, f64::max)
        }),
    ));
    out.push((
        "serve.shard.readings_dropped",
        "count",
        counter(doc, "readings_dropped") as f64,
    ));
    out.push((
        "serve.shard.results_dropped",
        "count",
        counter(doc, "results_dropped") as f64,
    ));
    let ckpt_p50 = c.checkpoint_hist["p50"].as_f64().unwrap_or(0.0) / 1e3;
    let ckpt_per_round = c.checkpoint_hist["count"].as_f64().unwrap_or(0.0) / rounds.max(1.0);
    out.push(("serve.persist.checkpoint_p50_us", "us", ckpt_p50));
    out.push((
        "serve.persist.checkpoint_p99_us",
        "us",
        c.checkpoint_hist["p99"].as_f64().unwrap_or(0.0) / 1e3,
    ));
    out.push((
        "serve.persist.checkpoints_per_round",
        "count",
        ckpt_per_round,
    ));
    out.push((
        "serve.persist.disk_bytes_per_round",
        "B",
        c.disk_bytes_per_round,
    ));

    out.push((
        "serve.client.allocs_per_reading",
        "count",
        c.feed_allocs as f64 / c.feed_readings.max(1) as f64,
    ));
    out.push(("obs.scrape_ms", "ms", median(c.scrape_ms)));
    out.push(("gen.late_p99_ms", "ms", c.late_p99_ms));
    // Client-observed, but too unsteady on a shared 2-vCPU host to carry
    // an end-to-end bound (run-to-run IQR/median 0.3 for saturation
    // throughput, above 1 for p99); they stay in the ledger, unbounded.
    out.push(("gen.readings_per_s", "1/s", c.untraced_readings_per_s));
    out.push(("gen.verdict_p99_ms", "ms", c.verdict_p99_ms));

    // One round's own work on each layer of its blocking path — its
    // frame's encode, round assembly of its readings, its fusion, its share
    // of checkpoints, its frame's decode — over its median latency. The
    // rest is the wire, the reactor, queueing and the frame's other rounds.
    let blocking_ns =
        encode_ns + modules * hub_ns + engine_p50 + ckpt_per_round * ckpt_p50 * 1e3 + decode_ns;
    out.push((
        "trace.accounted_frac",
        "ratio",
        blocking_ns / (c.verdict_p50_ms * 1e6),
    ));
    let overhead = c
        .traced_readings_per_s
        .map_or(0.0, |t| 1.0 - t / c.untraced_readings_per_s);
    out.push(("trace.overhead_frac", "ratio", overhead));
    notes.push(format!(
        "blocking path per round: encode {encode_ns:.0} ns + hub {:.0} ns + engine {engine_p50:.0} ns + checkpoint share {:.0} ns + decode {decode_ns:.0} ns = {:.1} us of verdict p50 {:.1} us",
        modules * hub_ns,
        ckpt_per_round * ckpt_p50 * 1e3,
        blocking_ns / 1e3,
        c.verdict_p50_ms * 1e3
    ));

    Ok(out)
}

struct StoreNumbers {
    append_ns_per_round: f64,
    bytes_per_round: f64,
    replay_ms_per_session: f64,
    compact_ms: f64,
    load_ms_per_session: f64,
    history_at_us: f64,
}

/// Writes `STORE_ROUNDS` rounds of `STORE_SESSIONS` sessions the way a
/// durable session checkpoints them (changed history records, then the
/// verdict and a commit stamp), replays the WALs, folds them into
/// segments and reads the segments back.
fn store_layers(inputs: &Inputs, w: &Workload, dir: &Path) -> Result<StoreNumbers, String> {
    let sessions = STORE_SESSIONS.min(w.sessions as usize);
    let expected: Vec<ModuleId> = (0..w.modules).map(ModuleId::new).collect();
    let spec = VdxSpec::avoc();
    let mut append_ns = 0u64;
    let mut bytes = 0u64;
    let mut rounds = 0u64;
    for s in 0..sessions {
        let path = session_wal_path(dir, session_id(s));
        let mut wal =
            FileHistory::open_with(&path, Durability::Flush).map_err(|e| format!("wal: {e}"))?;
        let mut hub = SensorHub::new(expected.clone())
            .with_lag_tolerance(ServeConfig::default().lag_tolerance);
        let mut engine = build_engine(&spec).map_err(|e| format!("engine: {e}"))?;
        let mut last: Vec<(ModuleId, f64)> = Vec::new();
        let mut changed: Vec<(ModuleId, f64)> = Vec::new();
        for r in 0..STORE_ROUNDS {
            for m in 0..inputs.modules {
                let ready = hub.accept(Message::Reading {
                    module: ModuleId::new(m as u32),
                    round: r,
                    value: inputs.value(s, r, m),
                });
                for round in ready {
                    let (value, voted) = match engine.submit_ref(&round) {
                        Ok(res) => (res.number(), res.is_voted()),
                        Err(_) => continue,
                    };
                    let now = engine.histories();
                    changed.clear();
                    changed.extend(now.iter().filter(|rec| !last.contains(rec)).copied());
                    last = now;
                    let verdict = [VerdictRecord {
                        round: round.round,
                        value,
                        voted,
                    }];
                    let t = now_ns();
                    if !changed.is_empty() {
                        wal.set_batch(&changed);
                    }
                    wal.append_markers(&verdict, Some(round.round));
                    append_ns += now_ns() - t;
                    rounds += 1;
                }
            }
        }
        bytes += wal.bytes_logged();
    }
    let t = now_ns();
    for s in 0..sessions {
        let wal = FileHistory::open_with(session_wal_path(dir, session_id(s)), Durability::Flush)
            .map_err(|e| format!("wal replay: {e}"))?;
        std::hint::black_box(wal.log_len());
    }
    let replay_ms_per_session = (now_ns() - t) as f64 / 1e6 / sessions as f64;

    let tier = TieredStore::open(dir).map_err(|e| format!("tiered open: {e}"))?;
    let t = now_ns();
    let report = tier.compact().map_err(|e| format!("compact: {e}"))?;
    let compact_ms = (now_ns() - t) as f64 / 1e6;
    if report.folded_sessions != sessions {
        return Err(format!(
            "compaction folded {} of {sessions} sessions",
            report.folded_sessions
        ));
    }
    let t = now_ns();
    for s in 0..sessions {
        let summary = tier
            .session_summary(session_id(s))
            .map_err(|e| format!("session_summary: {e}"))?;
        if summary.is_none() {
            return Err("a folded session has no segment summary".into());
        }
    }
    let load_ms_per_session = (now_ns() - t) as f64 / 1e6 / sessions as f64;
    let t = now_ns();
    for s in 0..sessions {
        tier.history_at(session_id(s), STORE_ROUNDS / 2)
            .map_err(|e| format!("history_at: {e}"))?
            .ok_or("history_at found no history")?;
    }
    let history_at_us = (now_ns() - t) as f64 / 1e3 / sessions as f64;
    Ok(StoreNumbers {
        append_ns_per_round: append_ns as f64 / rounds as f64,
        bytes_per_round: bytes as f64 / rounds as f64,
        replay_ms_per_session,
        compact_ms,
        load_ms_per_session,
        history_at_us,
    })
}

struct ServiceNumbers {
    verdict_p50_us: f64,
    verdict_p99_us: f64,
    feed_ns_per_call: f64,
    readings_per_s: f64,
}

/// Counts the verdicts in one sink message.
fn verdicts_in(msg: &Message) -> u64 {
    match msg {
        Message::SessionResult { .. } => 1,
        Message::ResultBatch { results, .. } => results.len() as u64,
        _ => 0,
    }
}

/// The service layer in-process: `open_session`/`feed_batch` into a
/// `ResultSink` channel, with the daemon's configuration and no TCP.
fn service_layer(inputs: &Inputs, w: &Workload, dir: &Path) -> Result<ServiceNumbers, String> {
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    if w.durable {
        std::fs::create_dir_all(dir).map_err(|e| format!("inproc dir: {e}"))?;
    }
    let service = VoterService::start(
        ServeConfig {
            shards: w.shards,
            reactors: w.reactors,
            max_sessions: w.sessions as usize * 2,
            idle_ticks: u64::MAX,
            persistence: Persistence {
                state_dir: w.durable.then(|| dir.to_path_buf()),
                checkpoint_every: w.checkpoint_every,
                ..Persistence::default()
            },
            ..ServeConfig::default()
        },
        Arc::new(registry),
    );
    let (sink, results) = crossbeam::channel::unbounded::<Message>();
    let sessions = w.sessions as usize;
    let spec = SpecSource::Named("avoc".into());
    for s in 0..sessions {
        service
            .resume_session(
                session_id(s),
                w.modules,
                &spec,
                session_token(0, s),
                None,
                sink.clone(),
            )
            .map_err(|e| format!("in-process open: {e}"))?;
    }
    let mut resumed = 0;
    while resumed < sessions {
        match results.recv_timeout(Duration::from_secs(10)) {
            Ok(Message::Resumed { .. }) => resumed += 1,
            Ok(Message::Error { message, .. }) => {
                return Err(format!("in-process open: {message}"))
            }
            Ok(_) => {}
            Err(_) => return Err("in-process open timed out".into()),
        }
    }
    let f = u64::from(w.rounds_per_frame);
    let m = inputs.modules;
    let mut batch = vec![
        BatchReading {
            module: ModuleId::new(0),
            round: 0,
            value: 0.0
        };
        m * f as usize
    ];
    let mut next_round = vec![0u64; sessions];
    let fill = |batch: &mut [BatchReading], s: usize, first: u64| {
        for (i, slot) in batch.iter_mut().enumerate() {
            let round = first + (i / m) as u64;
            slot.module = ModuleId::new((i % m) as u32);
            slot.round = round;
            slot.value = inputs.value(s, round, i % m);
        }
    };
    let wait = |want: u64| -> Result<(), String> {
        let mut got = 0;
        while got < want {
            let msg = results
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| "in-process verdict timed out".to_string())?;
            got += verdicts_in(&msg);
        }
        Ok(())
    };

    // Throughput: whole ticks, at most the workload's window in flight.
    let t0 = now_ns();
    let mut in_flight = 0u64;
    let mut readings = 0u64;
    while now_ns() - t0 < SERVICE_BUDGET_NS {
        for (s, next) in next_round.iter_mut().enumerate() {
            fill(&mut batch, s, *next);
            *next += f;
            service
                .feed_batch(session_id(s), &batch)
                .map_err(|e| format!("feed: {e}"))?;
            readings += batch.len() as u64;
            in_flight += f;
            while in_flight + f > w.window_rounds {
                let msg = results
                    .recv_timeout(Duration::from_secs(10))
                    .map_err(|_| "in-process verdict timed out".to_string())?;
                in_flight -= verdicts_in(&msg).min(in_flight);
            }
        }
    }
    wait(in_flight)?;
    let readings_per_s = readings as f64 / ((now_ns() - t0) as f64 / 1e9);

    // Latency: one frame at a time, from the feed call to each of its
    // rounds' verdicts (per round, like the end-to-end figure).
    let mut lat_us = Vec::new();
    let mut feed_ns = Vec::new();
    let t0 = now_ns();
    let mut k = 0usize;
    while now_ns() - t0 < SERVICE_BUDGET_NS {
        let s = k % sessions;
        k += 1;
        fill(&mut batch, s, next_round[s]);
        next_round[s] += f;
        let t = now_ns();
        service
            .feed_batch(session_id(s), &batch)
            .map_err(|e| format!("feed: {e}"))?;
        feed_ns.push((now_ns() - t) as f64);
        let mut got = 0;
        while got < f {
            let msg = results
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| "in-process verdict timed out".to_string())?;
            let n = verdicts_in(&msg);
            let us = (now_ns() - t) as f64 / 1e3;
            lat_us.extend(std::iter::repeat_n(us, n as usize));
            got += n;
        }
    }
    service.drain();
    Ok(ServiceNumbers {
        verdict_p50_us: quantile(&mut lat_us.clone(), 0.5),
        verdict_p99_us: quantile(&mut lat_us, 0.99),
        feed_ns_per_call: median(&feed_ns),
        readings_per_s,
    })
}
