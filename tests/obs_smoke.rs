//! Observability smoke tests: a real daemon with the admin endpoint bound
//! and pipeline tracing on, driven over loopback TCP and scraped over
//! plain HTTP — the same surface `BENCH_serve.json` and the CI `obs-smoke`
//! step exercise.

use avoc::core::ModuleId;
use avoc::net::{BatchReading, Message, SpecSource};
use avoc::obs::http;
use avoc::serve::{ServeClient, ServeConfig, SpecRegistry, TcpServer, VoterService};
use avoc::vdx::VdxSpec;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const SESSIONS: u64 = 4;
const ROUNDS: u64 = 32;
const MODULES: u32 = 3;

/// Starts a daemon with the admin endpoint on an ephemeral port and every
/// round traced (`trace_sample: 1`), so a short replay reliably leaves
/// spans in the ring.
fn start_daemon() -> (TcpServer, SocketAddr, SocketAddr) {
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    let service = Arc::new(VoterService::start(
        ServeConfig {
            idle_ticks: u64::MAX,
            admin_addr: Some("127.0.0.1:0".into()),
            trace_sample: 1,
            trace_capacity: 1024,
            ..ServeConfig::default()
        },
        Arc::new(registry),
    ));
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind wire port");
    let wire = server.local_addr();
    let admin = server.admin_addr().expect("admin endpoint configured");
    (server, wire, admin)
}

/// Opens `SESSIONS` tenants on one connection and fuses `ROUNDS` rounds
/// in each, draining every verdict.
fn replay(client: &mut ServeClient) {
    for session in 0..SESSIONS {
        client
            .open_session(session, MODULES, SpecSource::Named("avoc".into()))
            .expect("open_session");
    }
    let mut batch = vec![
        BatchReading {
            module: ModuleId::new(0),
            round: 0,
            value: 0.0,
        };
        MODULES as usize
    ];
    for round in 0..ROUNDS {
        for session in 0..SESSIONS {
            for (m, slot) in batch.iter_mut().enumerate() {
                slot.module = ModuleId::new(m as u32);
                slot.round = round;
                slot.value = 20.0 + 0.01 * m as f64;
            }
            client.send_batch(session, &batch).expect("send_batch");
        }
    }
    let mut verdicts = 0;
    while verdicts < SESSIONS * ROUNDS {
        match client.recv().expect("recv") {
            Message::SessionResult { .. } => verdicts += 1,
            Message::Error { message, .. } => panic!("daemon error: {message}"),
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

#[test]
fn admin_endpoint_serves_metrics_sessions_and_traces() {
    let (server, wire, admin) = start_daemon();
    let admin_str = admin.to_string();

    let (status, body) = http::get(&admin_str, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let mut client = ServeClient::connect(wire).expect("connect");
    replay(&mut client);
    let fused = SESSIONS * ROUNDS;

    // Prometheus text exposition: counters moved, and the global fuse
    // histogram is non-empty with one observation per fused round.
    let (status, text) = http::get(&admin_str, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert!(text.contains(&format!("avoc_rounds_fused_total {fused}")));
    assert!(text.contains(&format!("avoc_fuse_latency_ns_count {fused}")));
    assert!(text.contains("avoc_fuse_latency_ns_bucket{le=\"+Inf\"}"));
    // One series per quantity: writer egress is scraped under the daemon's
    // own names only, never a second `avoc_net_*` copy.
    for name in ["avoc_bytes_sent_total", "avoc_writer_flushes_total"] {
        assert!(text.contains(&format!("\n{name} ")), "{name} missing");
    }
    for name in [
        "avoc_net_frames_sent_total",
        "avoc_net_writer_flushes_total",
        "avoc_net_writer_writes_total",
        "avoc_net_bytes_sent_total",
    ] {
        assert!(!text.contains(name), "duplicate series {name} scraped");
    }

    // JSON exposition: one per-tenant histogram per session, and their
    // counts sum to the rounds fused.
    let (status, json) = http::get(&admin_str, "/metrics?format=json").expect("metrics json");
    assert_eq!(status, 200);
    let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let hists = doc["histograms"].as_object().expect("histograms object");
    let tenant_counts: Vec<u64> = hists
        .iter()
        .filter(|(k, _)| k.starts_with("avoc_session_fuse_latency_ns{"))
        .map(|(_, v)| v["count"].as_u64().unwrap())
        .collect();
    assert_eq!(tenant_counts.len(), SESSIONS as usize);
    assert_eq!(tenant_counts.iter().sum::<u64>(), fused);

    // The live session directory knows every tenant and its shard pin.
    let (status, sessions) = http::get(&admin_str, "/sessions").expect("sessions");
    assert_eq!(status, 200);
    let dir: serde_json::Value = serde_json::from_str(&sessions).expect("valid JSON");
    let dir = dir.as_array().expect("sessions array");
    assert_eq!(dir.len(), SESSIONS as usize);
    for entry in dir {
        assert_eq!(entry["rounds_fused"].as_u64().unwrap(), ROUNDS);
    }

    // Every pipeline stage left spans in the trace ring, and the
    // per-session filter narrows to one tenant.
    let (status, trace) = http::get(&admin_str, "/trace").expect("trace");
    assert_eq!(status, 200);
    for stage in ["ingest", "queue", "fuse", "flush"] {
        assert!(
            trace.contains(&format!("\"stage\": \"{stage}\"")),
            "no {stage} span in {trace}"
        );
    }
    let (status, filtered) = http::get(&admin_str, "/trace?session=1").expect("trace filter");
    assert_eq!(status, 200);
    assert!(filtered.contains("\"session\": 1"));
    assert!(!filtered.contains("\"session\": 0,"));

    // The wire protocol serves the same counters without HTTP: a
    // StatsRequest frame answers with the legacy snapshot JSON.
    let stats = client.stats().expect("wire stats");
    let snap: serde_json::Value = serde_json::from_str(&stats).expect("valid JSON");
    assert_eq!(snap["rounds_fused"].as_u64().unwrap(), fused);
    let (status, admin_stats) = http::get(&admin_str, "/stats").expect("stats");
    assert_eq!(status, 200);
    let admin_snap: serde_json::Value = serde_json::from_str(&admin_stats).expect("valid JSON");
    assert_eq!(admin_snap["rounds_fused"].as_u64().unwrap(), fused);
    assert_eq!(
        admin_snap["fuse_latency"]["samples"].as_u64().unwrap(),
        fused,
        "fuse-latency samples come from the same histogram as the scrape"
    );

    // Closing the tenants empties the directory; the metric series stay.
    for session in 0..SESSIONS {
        client.close_session(session).expect("close_session");
    }
    drop(client);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (_, sessions) = http::get(&admin_str, "/sessions").expect("sessions");
        if sessions.trim() == "[]" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sessions never drained: {sessions}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let snapshot = server.shutdown();
    assert_eq!(snapshot.rounds_fused, fused);
}

#[test]
fn healthz_reports_degradation_and_recovery() {
    let (server, _wire, admin) = start_daemon();
    let admin_str = admin.to_string();

    // Healthy daemon: the plain-text fast path.
    let (status, body) = http::get(&admin_str, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // A domain degrades (here driven directly through the shared health
    // handle — the same one the persistence and accept planes feed): the
    // endpoint flips to 503 with machine-readable reasons.
    let health = server.service().health();
    health.set(
        "persistence",
        avoc::obs::HealthLevel::Degraded,
        "2 session(s) running memory-only after repeated checkpoint failures",
    );
    let (status, body) = http::get(&admin_str, "/healthz").expect("degraded healthz");
    assert_eq!(status, 503, "degraded daemon must fail health probes");
    let doc: serde_json::Value = serde_json::from_str(&body).expect("healthz JSON");
    assert_eq!(doc["status"].as_str(), Some("degraded"));
    let domains = doc["domains"].as_array().expect("domains array");
    assert_eq!(domains.len(), 1);
    assert_eq!(domains[0]["domain"].as_str(), Some("persistence"));
    assert_eq!(domains[0]["level"].as_str(), Some("degraded"));
    assert!(domains[0]["reason"]
        .as_str()
        .expect("reason string")
        .contains("memory-only"));

    // Recovery clears the domain and the endpoint goes back to 200.
    health.set("persistence", avoc::obs::HealthLevel::Ok, "");
    let (status, body) = http::get(&admin_str, "/healthz").expect("healed healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.shutdown();
}

/// Sends raw bytes to the admin socket and returns the status line.
fn raw_status(admin: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(admin).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // The peer may reset the connection after answering (it closes while
    // unread request bytes are still in flight for oversized payloads), so
    // both the tail of the write and the tail of the read are best-effort.
    let _ = stream.write_all(payload);
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
        }
    }
    let response = String::from_utf8_lossy(&bytes);
    response.lines().next().unwrap_or("").to_string()
}

#[test]
fn admin_endpoint_survives_hostile_requests() {
    let (server, _wire, admin) = start_daemon();
    let admin_str = admin.to_string();

    assert!(raw_status(admin, b"POST /metrics HTTP/1.1\r\n\r\n").contains("405"));
    assert!(raw_status(admin, b"GET\r\n\r\n").contains("400"));
    assert!(raw_status(admin, b"\x00\xffnonsense\r\n\r\n").contains("400"));
    let oversized = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
    assert!(raw_status(admin, oversized.as_bytes()).contains("431"));
    assert!(raw_status(admin, b"GET /nope HTTP/1.1\r\n\r\n").contains("404"));

    let (status, _) = http::get(&admin_str, "/trace?session=banana").expect("bad session");
    assert_eq!(status, 400);

    // None of that took the daemon down.
    let (status, body) = http::get(&admin_str, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.shutdown();
}

#[test]
fn admin_endpoint_caps_in_flight_handlers() {
    let (server, _wire, admin) = start_daemon();
    let admin_str = admin.to_string();

    // Idle peers that never send a head each pin one handler thread
    // (until the 5 s head timeout). Past the cap, the accept thread
    // answers 503 itself instead of spawning another.
    let idle: Vec<TcpStream> = (0..http::MAX_IN_FLIGHT)
        .map(|_| TcpStream::connect(admin).expect("idle connect"))
        .collect();
    assert!(raw_status(admin, b"").contains("503"));

    // Releasing them frees the handlers; the endpoint serves again. Until
    // the accept thread has reaped them, a probe may still meet the cap:
    // the 503 is written without reading the request, so the close can
    // reset the connection before the probe reads the answer.
    drop(idle);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match http::get(&admin_str, "/healthz") {
            Ok((200, body)) => {
                assert_eq!(body, "ok\n");
                break;
            }
            Ok((503, _)) | Err(_) => {}
            Ok(other) => panic!("unexpected healthz answer {other:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "admin endpoint never recovered"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
