//! The admin endpoint's routes: the daemon's HTTP/1.1 observability
//! surface.
//!
//! The server loop is the shared [`avoc_obs::http::serve`] (GET-only,
//! `Connection: close`, bounded handler threads), so the daemon grows a
//! scrape surface without an HTTP dependency. Off by default; enabled via
//! [`crate::ServeConfig::admin_addr`], which makes [`crate::TcpServer`]
//! start it.
//!
//! Routes:
//!
//! * `/healthz` — health: `200 ok` when every domain is healthy, `503`
//!   with a JSON body naming the degraded domains and reasons otherwise
//!   (memory-only persistence, paused accept, …).
//! * `/metrics` — the full registry in Prometheus text exposition;
//!   `?format=json` renders the same cells as one JSON object.
//! * `/stats` — the legacy [`crate::CountersSnapshot`] JSON dump (same
//!   bytes a drain returns and a wire `StatsRequest` frame fetches).
//! * `/sessions` — live sessions: id, shard pin, resumability, rounds fused.
//! * `/segments` — the segment tier: live segment files (seq, generation,
//!   bytes, rows) and lifetime compaction statistics.
//! * `/trace` — sampled pipeline spans, oldest first; `?session=<id>`
//!   filters to one tenant.
//!
//! Hostile input never panics the daemon: the shared loop answers
//! oversized requests `431`, non-GET methods `405`, malformed heads `400`;
//! unknown paths get `404` here.

use avoc_obs::http::Request;

use crate::service::VoterService;

/// Maps a parsed request to `(status, content type, body)`.
pub(crate) fn route(req: &Request, service: &VoterService) -> (u16, &'static str, String) {
    const TEXT: &str = "text/plain; charset=utf-8";
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    const JSON: &str = "application/json";
    match req.path() {
        // Healthy daemons answer the legacy `200 ok` byte-for-byte; a
        // degraded one fails the check with `503` and machine-readable
        // per-domain reasons, so load balancers and operators read the
        // same signal.
        "/healthz" => {
            let health = service.health();
            if health.is_ok() {
                (200, TEXT, "ok\n".to_string())
            } else {
                (health.status_code(), JSON, health.render_json())
            }
        }
        "/metrics" => {
            if req.query_param("format") == Some("json") {
                (200, JSON, service.obs_registry().render_json())
            } else {
                (200, PROM, service.obs_registry().render_prometheus())
            }
        }
        "/stats" => (200, JSON, service.counters().to_json()),
        // `?scope=durable` lists the ids with durable state this node owns
        // (a flat id array) — what a draining gateway unions with its
        // placement table; the default is the live in-memory view.
        "/sessions" => {
            if req.query_param("scope") == Some("durable") {
                (200, JSON, service.durable_sessions_json())
            } else {
                (200, JSON, service.sessions_json())
            }
        }
        "/segments" => (200, JSON, service.segments_json()),
        "/trace" => {
            let session = req
                .query_param("session")
                .and_then(|v| v.parse::<u64>().ok());
            if req.query_param("session").is_some() && session.is_none() {
                return (400, TEXT, "bad session id\n".to_string());
            }
            (200, JSON, service.trace().render_json(session))
        }
        _ => (404, TEXT, "not found\n".to_string()),
    }
}
