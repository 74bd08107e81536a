//! Durable session state: one per-session WAL plus an identity sidecar.
//!
//! With persistence enabled, every session owns two files in the state
//! directory:
//!
//! * `session-<id:016x>.wal` — an [`avoc_store::FileHistory`] binary log of
//!   the engine's history records, the fused verdict rows and a `commit`
//!   round stamp per checkpoint, written write-behind through
//!   [`avoc_store::CachedHistory`];
//! * `session-<id:016x>.meta` — the session's identity (resume token,
//!   module count, resumable flag, owning node, governing spec) as
//!   `key=value` lines, replaced atomically (tmp + rename) only when the
//!   identity changes: at open, on export (the `node=` flip) and on import.
//!
//! A checkpoint is one WAL frame — dirty records, the verdict rows fused
//! since the previous checkpoint, and the `commit` stamp — so it has one
//! commit point: after a crash the frame either replays whole or is a torn
//! tail `FileHistory` truncates away. Resume state comes from the log alone:
//! the high-water round is the last `commit` stamp (or, once the log has
//! been folded, the segment tier's last verdict), and the unacked-result
//! ring is rebuilt from the logged verdict rows (read through
//! [`TieredStore::verdicts_in`] once they have been folded).
//!
//! Corruption anywhere — unreadable sidecar, mid-file WAL damage — makes
//! [`SessionStore::load`] return `None`, and the caller falls back to a
//! fresh session whose AVOC engine re-bootstraps from live data, exactly as
//! if persistence were off.

use avoc_core::history::HistoryStore;
use avoc_core::ModuleId;
use avoc_net::SpecSource;
use avoc_store::{
    session_wal_path, CachedHistory, Durability, FileHistory, TieredPin, TieredStore, VerdictRecord,
};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use sysio::fault::Site;
use sysio::fio;

/// Crash-safety configuration for [`crate::VoterService`].
#[derive(Debug, Clone)]
pub struct Persistence {
    /// Where session WALs and identity sidecars live. `None` disables
    /// persistence entirely (the default): sessions are memory-only and a
    /// restart re-bootstraps from live data.
    pub state_dir: Option<PathBuf>,
    /// `true` fsyncs every WAL append ([`Durability::Fsync`]); the default
    /// flushes to the OS and lets the kernel schedule the write — a daemon
    /// crash loses nothing, a machine crash may lose the tail (which
    /// recovery then truncates).
    pub fsync: bool,
    /// Checkpoint cadence in fused rounds. `1` (the default) checkpoints
    /// after every round, making a hard kill bit-identically recoverable;
    /// larger values amortise the per-checkpoint WAL write (one frame, one
    /// flush) and accept losing up to `checkpoint_every - 1` rounds of
    /// history on a crash.
    pub checkpoint_every: u64,
    /// Background compaction interval in milliseconds. `0` (the default)
    /// disables the compactor thread; the segment tier still opens, so
    /// previously folded segments remain readable and
    /// `VoterService::compact_now` works on demand.
    pub compact_interval_ms: u64,
    /// This daemon's cluster node id, stamped into every identity sidecar
    /// it writes. After a migration the source's leftover sidecar names the
    /// *target* node, so boot recovery skips it instead of double-owning
    /// the session. `0` (the default) is a valid id for single-node
    /// deployments.
    pub node_id: u64,
    /// Shared inter-node secret gating the cluster verbs (`ExportSession` /
    /// `SessionState` import). Exports ship the session's resume token, so
    /// a frame whose `auth` field does not match this secret is refused.
    /// `None` (the default) disables the cluster verbs entirely — a
    /// standalone daemon exposes no migration surface.
    pub cluster_secret: Option<u64>,
}

impl Default for Persistence {
    fn default() -> Self {
        Persistence {
            state_dir: None,
            fsync: false,
            checkpoint_every: 1,
            compact_interval_ms: 0,
            node_id: 0,
            cluster_secret: None,
        }
    }
}

impl Persistence {
    /// Whether sessions should be persisted at all.
    pub fn enabled(&self) -> bool {
        self.state_dir.is_some()
    }

    pub(crate) fn durability(&self) -> Durability {
        if self.fsync {
            Durability::Fsync
        } else {
            Durability::Flush
        }
    }
}

/// One re-emittable session result: `(round, value, voted)`.
pub(crate) type StoredResult = (u64, Option<f64>, bool);

/// How many recent results a session retains for re-emission on resume —
/// exactly the verdict tail a replayed WAL keeps in memory. A client more
/// than this many rounds behind its own acks loses the overwritten tail
/// (counted via `results_dropped` at emission time, as any slow tenant's
/// overflow is).
pub(crate) const RESULT_RING: usize = avoc_store::VERDICT_TAIL;

/// A session's identity: the decoded contents of its sidecar.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetaState {
    pub(crate) token: u64,
    pub(crate) modules: u32,
    pub(crate) resumable: bool,
    pub(crate) spec: SpecSource,
    /// The cluster node owning the session.
    pub(crate) node: u64,
}

impl MetaState {
    /// Whether a daemon with id `node_id` owns this sidecar.
    pub(crate) fn owned_by(&self, node_id: u64) -> bool {
        self.node == node_id
    }
}

/// What a [`SessionStore::load`] had to do — the resume-cost attribution
/// the metrics layer splits `wal_replay_ms` / `segment_load_ms` on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LoadInfo {
    /// The seed state came from the segment tier alone (the WAL had been
    /// retired by a fold).
    pub(crate) from_segments: bool,
    /// `FileHistory` truncated a torn final frame during replay.
    pub(crate) torn_tail: bool,
}

/// A session's durable state as [`SessionStore::load`] found it.
#[derive(Debug)]
pub(crate) struct Loaded {
    pub(crate) store: SessionStore,
    pub(crate) meta: MetaState,
    /// The log's last `commit` stamp — the highest fully checkpointed round.
    pub(crate) high_round: Option<u64>,
    /// The unacked-result ring as of `high_round`, rebuilt from the logged
    /// verdict rows.
    pub(crate) results: VecDeque<StoredResult>,
    pub(crate) info: LoadInfo,
}

/// A session's durable state: its history WAL (write-behind cached) plus
/// its identity sidecar, pinned into the segment tier while alive.
pub(crate) struct SessionStore {
    history: CachedHistory<FileHistory>,
    session: u64,
    wal_path: PathBuf,
    meta_path: PathBuf,
    /// The identity the sidecar on disk holds.
    meta: MetaState,
    /// `bytes_logged()` at the previous checkpoint, for the delta counter.
    logged_floor: u64,
    /// Highest verdict round already durable (WAL or segment) — verdicts at
    /// or below it are not re-logged.
    verdict_floor: Option<u64>,
    /// The segment tier, for forget-on-remove. `None` when tiering is off.
    tiered: Option<Arc<TieredStore>>,
    /// Holds the compactor off this session while it is live.
    _pin: Option<TieredPin>,
}

impl std::fmt::Debug for SessionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStore")
            .field("wal", &self.wal_path)
            .field("meta", &self.meta_path)
            .finish_non_exhaustive()
    }
}

/// Everything [`StoreRecipe::create`] needs to lay down a fresh session's
/// durable state. A session whose store failed to create at open keeps its
/// recipe, and its heal probe retries the creation.
#[derive(Debug, Clone)]
pub(crate) struct StoreRecipe {
    pub(crate) dir: PathBuf,
    pub(crate) session: u64,
    pub(crate) meta: MetaState,
    pub(crate) durability: Durability,
    pub(crate) tiered: Option<Arc<TieredStore>>,
}

fn wal_path(dir: &Path, session: u64) -> PathBuf {
    // The name is shared with the segment compactor, which scans for these
    // files — one definition, owned by avoc-store.
    session_wal_path(dir, session)
}

fn meta_path(dir: &Path, session: u64) -> PathBuf {
    dir.join(format!("session-{session:016x}.meta"))
}

/// Session ids that have a sidecar in `dir` (the recovery scan).
pub(crate) fn list_sessions(dir: &Path) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut ids: Vec<u64> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            let hex = name.strip_prefix("session-")?.strip_suffix(".meta")?;
            u64::from_str_radix(hex, 16).ok()
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Reads and decodes a session's sidecar; `None` if missing or corrupt.
pub(crate) fn read_meta(dir: &Path, session: u64) -> Option<MetaState> {
    let text = std::fs::read_to_string(meta_path(dir, session)).ok()?;
    parse_meta(&text)
}

/// Re-reads a migrated-away session's shipped state from disk — the
/// idempotent transfer-retry path. A completed export leaves the sidecar
/// naming `target_node` even if the shipped bytes were lost in flight, so
/// re-asking re-ships the same state. `None` when the sidecar is missing,
/// corrupt, or names any other owner (nothing to re-ship).
pub(crate) fn read_exported_blobs(
    dir: &Path,
    session: u64,
    target_node: u64,
) -> Option<(Vec<u8>, Vec<u8>)> {
    let meta = read_meta(dir, session)?;
    if meta.node != target_node {
        return None;
    }
    let meta_bytes = std::fs::read(meta_path(dir, session)).ok()?;
    let wal_bytes = std::fs::read(wal_path(dir, session)).ok()?;
    Some((meta_bytes, wal_bytes))
}

/// Decodes a shipped sidecar blob and re-stamps it with the importing
/// node's id, returning the parsed identity plus the exact bytes to land on
/// disk — the exported sidecar with ownership adopted. `None` when the
/// blob is not UTF-8 or fails to parse.
pub(crate) fn adopt_meta(meta: &[u8], node_id: u64) -> Option<(MetaState, Vec<u8>)> {
    let mut state = parse_meta(std::str::from_utf8(meta).ok()?)?;
    state.node = node_id;
    let rendered = render_meta(&state).into_bytes();
    Some((state, rendered))
}

const META_HEADER: &str = "avoc-session-meta v2";

fn parse_meta(text: &str) -> Option<MetaState> {
    let mut lines = text.lines();
    if lines.next()? != META_HEADER {
        return None;
    }
    let token = lines.next()?.strip_prefix("token=")?.parse().ok()?;
    let modules = lines.next()?.strip_prefix("modules=")?.parse().ok()?;
    let resumable = match lines.next()?.strip_prefix("resumable=")? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let node = lines.next()?.strip_prefix("node=")?.parse().ok()?;
    let spec = match lines.next()? {
        "spec=named" => SpecSource::Named(lines.collect::<Vec<_>>().join("\n")),
        "spec=inline" => SpecSource::Inline(lines.collect::<Vec<_>>().join("\n")),
        _ => return None,
    };
    Some(MetaState {
        token,
        modules,
        resumable,
        spec,
        node,
    })
}

fn render_meta(meta: &MetaState) -> String {
    let (kind, text) = match &meta.spec {
        SpecSource::Named(n) => ("named", n.as_str()),
        SpecSource::Inline(v) => ("inline", v.as_str()),
    };
    format!(
        "{META_HEADER}\ntoken={}\nmodules={}\nresumable={}\nnode={}\nspec={kind}\n{text}",
        meta.token,
        meta.modules,
        u8::from(meta.resumable),
        meta.node,
    )
}

/// Replaces the sidecar at `path` with `bytes` via tmp + rename: readers
/// see the old identity or the new one, never a torn file.
fn write_meta(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("meta.tmp");
    {
        fio::check_op(Site::MetaWrite)?;
        let mut f = std::fs::File::create(&tmp)?;
        fio::write_all(Site::MetaWrite, &mut f, bytes)?;
        fio::flush(Site::MetaWrite, &mut f)?;
    }
    fio::check_op(Site::MetaWrite)?;
    std::fs::rename(&tmp, path)
}

/// The re-emittable result ring as of `high`: the logged verdict rows of
/// the last [`RESULT_RING`] rounds — from the tail the WAL replay kept,
/// topped up from the segment tier when a fold has moved older rows out of
/// the log. Rows come back in round order.
fn restore_ring(
    wal_tail: Vec<VerdictRecord>,
    tiered: Option<&Arc<TieredStore>>,
    session: u64,
    high: Option<u64>,
    folded: bool,
) -> VecDeque<StoredResult> {
    let Some(high) = high else {
        return VecDeque::new();
    };
    let lo = high.saturating_sub(RESULT_RING as u64 - 1);
    let mut ring: BTreeMap<u64, StoredResult> = BTreeMap::new();
    let mut keep = |v: VerdictRecord| {
        if (lo..=high).contains(&v.round) {
            ring.insert(v.round, (v.round, v.value, v.voted));
        }
    };
    let wal_covers_window = wal_tail.first().is_some_and(|v| v.round <= lo);
    if folded && !wal_covers_window {
        if let Some(rows) = tiered.and_then(|t| t.verdicts_in(session, lo..=high).ok()) {
            rows.into_iter().for_each(&mut keep);
        }
    }
    // The WAL's copy of a round wins over a folded one.
    wal_tail.into_iter().for_each(&mut keep);
    ring.into_values().collect()
}

impl StoreRecipe {
    /// Creates fresh durable state for a new session — an empty WAL, then
    /// the identity sidecar — removing any stale files a previous occupant
    /// of this id left behind and *forgetting* its folded segment rows so
    /// the old life cannot bleed into the new.
    pub(crate) fn create(&self) -> io::Result<SessionStore> {
        let (dir, session) = (self.dir.as_path(), self.session);
        std::fs::create_dir_all(dir)?;
        // Pin first: a fold in flight for this id finishes before we touch
        // its files, and none can start while the session lives.
        let pin = self.tiered.as_ref().map(|t| t.pin(session));
        if let Some(t) = &self.tiered {
            t.forget_session(session)?;
        }
        let wal = wal_path(dir, session);
        let meta = meta_path(dir, session);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&meta);
        let history = CachedHistory::new(FileHistory::open_with(&wal, self.durability)?);
        write_meta(&meta, render_meta(&self.meta).as_bytes())?;
        Ok(SessionStore {
            history,
            session,
            wal_path: wal,
            meta_path: meta,
            meta: self.meta.clone(),
            logged_floor: 0,
            verdict_floor: None,
            tiered: self.tiered.clone(),
            _pin: pin,
        })
    }
}

impl SessionStore {
    /// Loads a session's durable state. `None` when the sidecar or WAL is
    /// missing or corrupt — the caller falls back to a fresh session (AVOC
    /// re-bootstraps). A torn WAL tail is repaired by `FileHistory` and
    /// does not fail the load.
    ///
    /// Resume precedence for the history seed: the WAL overlays the segment
    /// tier (a WAL record is always at least as new as a folded one), and a
    /// fresh session is the fallback when neither tier knows the id. When
    /// the WAL has been retired by a complete fold, the seed comes from the
    /// segment tier alone — the cheap path [`LoadInfo::from_segments`]
    /// reports and `bench_store` measures.
    pub(crate) fn load(
        dir: &Path,
        session: u64,
        durability: Durability,
        tiered: Option<&Arc<TieredStore>>,
    ) -> Option<Loaded> {
        // Pin before reading anything: an in-flight fold of this session
        // completes (or is skipped) before we open its files.
        let pin = tiered.map(|t| t.pin(session));
        let meta = read_meta(dir, session)?;
        let wal = wal_path(dir, session);
        let wal_existed = wal.exists();
        let mut file = FileHistory::open_with(&wal, durability).ok()?;
        let mut info = LoadInfo {
            from_segments: false,
            torn_tail: file.recovered_torn_tail(),
        };
        let summary = match tiered {
            Some(t) => t.session_summary(session).ok().flatten(),
            None => None,
        };
        let folded_verdicts = summary.as_ref().and_then(|s| s.max_verdict_round);
        // Every checkpoint's frame ends in a `commit` stamp, and a fold
        // keeps every verdict row: the later of the two is the round the
        // session had fully checkpointed.
        let high_round = file.committed_round().max(folded_verdicts);
        let results = restore_ring(
            file.take_replayed_verdicts(),
            tiered,
            session,
            high_round,
            folded_verdicts.is_some(),
        );
        let logged_floor = file.bytes_logged();
        let verdict_floor = file.max_verdict_round().max(folded_verdicts);
        // Merge tiers: segment latest state underneath, WAL records on top.
        // A WAL `clear` wipes everything before it — including segments.
        let history = match &summary {
            Some(s) if !file.saw_clear() => {
                info.from_segments = !wal_existed;
                let mut merged: BTreeMap<ModuleId, f64> = s.latest.iter().copied().collect();
                for (m, v) in file.snapshot() {
                    merged.insert(m, v);
                }
                CachedHistory::with_seed(file, merged)
            }
            _ => CachedHistory::new(file),
        };
        let store = SessionStore {
            history,
            session,
            wal_path: wal,
            meta_path: meta_path(dir, session),
            meta: meta.clone(),
            logged_floor,
            verdict_floor,
            tiered: tiered.map(Arc::clone),
            _pin: pin,
        };
        Some(Loaded {
            store,
            meta,
            high_round,
            results,
            info,
        })
    }

    /// The history records to seed a restored engine with.
    pub(crate) fn seed_records(&self) -> Vec<(ModuleId, f64)> {
        self.history.snapshot()
    }

    /// Stages the engine's current history into the write-behind cache,
    /// writing only records that actually changed since the last note.
    pub(crate) fn note_history(&mut self, records: &[(ModuleId, f64)]) {
        for &(m, v) in records {
            if self.history.get(m) != Some(v) {
                self.history.set(m, v);
            }
        }
    }

    /// Checkpoints: one WAL frame holding the dirty history records, the
    /// verdict rows the log does not have yet, and a `commit` stamp for
    /// `high_round` — one write, one flush, no sidecar. Returns the bytes
    /// written.
    ///
    /// The `commit` stamp is what makes the WAL resumable and foldable: a
    /// crash mid-frame leaves a torn tail that replay drops whole, so the
    /// log's last stamp always names a round whose records and verdicts
    /// are complete.
    ///
    /// # Errors
    ///
    /// Reports a sick WAL (any append since the last healthy checkpoint
    /// failed — e.g. `ENOSPC`) as [`io::ErrorKind::Other`] so the caller's
    /// degradation state machine can react; the staged history stays
    /// cached in memory either way.
    pub(crate) fn checkpoint(
        &mut self,
        high_round: Option<u64>,
        results: &VecDeque<StoredResult>,
    ) -> io::Result<u64> {
        let records = self.history.take_pending();
        let fresh: Vec<VerdictRecord> = results
            .iter()
            .filter(|(round, ..)| self.verdict_floor.is_none_or(|f| *round > f))
            .map(|&(round, value, voted)| VerdictRecord {
                round,
                value,
                voted,
            })
            .collect();
        let backing = self.history.backing_mut();
        let commit = high_round.filter(|&r| {
            !records.is_empty() || !fresh.is_empty() || backing.committed_round() != Some(r)
        });
        if !records.is_empty() || !fresh.is_empty() || commit.is_some() {
            backing.append_checkpoint(&records, &fresh, commit);
        }
        if backing.write_failed() {
            // The verdict floor stays put so the next healthy checkpoint
            // re-logs what this one could not.
            return Err(io::Error::other(
                "session WAL is sick: an append failed since the last healthy checkpoint",
            ));
        }
        if let Some(v) = fresh.last() {
            self.verdict_floor = self.verdict_floor.max(Some(v.round));
        }
        let logged = backing.bytes_logged();
        let wal_delta = logged.saturating_sub(self.logged_floor);
        self.logged_floor = logged;
        Ok(wal_delta)
    }

    /// Rebuilds the WAL wholesale from the in-memory record cache — the
    /// re-probe a degraded session runs against a possibly-healed disk.
    /// Success clears the WAL's sick flag; the caller then takes a fresh
    /// checkpoint to restore full durability.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors — the disk is still sick and the session
    /// stays degraded (the original log file remains as it was).
    pub(crate) fn heal(&mut self) -> io::Result<()> {
        self.history.flush();
        let backing = self.history.backing_mut();
        backing.compact()?;
        self.logged_floor = backing.bytes_logged();
        // The rewrite drops verdict rows; lower the floor to what the
        // segment tier already folded so the next checkpoint re-logs
        // whatever the results ring still holds above it.
        self.verdict_floor = match &self.tiered {
            Some(t) => t
                .session_summary(self.session)
                .ok()
                .flatten()
                .and_then(|s| s.max_verdict_round),
            None => None,
        };
        Ok(())
    }

    /// Quiesces this session's durable state for shipping to `target_node`:
    /// compacts the WAL down to the full live record set, appends a final
    /// checkpoint (the whole result ring plus the `commit` stamp), flips
    /// the sidecar's owner to the target, and returns
    /// `(meta_bytes, wal_bytes)` read back from disk.
    ///
    /// Ordering is the migration protocol's crash story: the sidecar names
    /// the target *before* any bytes leave this node, so if the transfer
    /// dies mid-flight this node's boot recovery skips the session (it is
    /// the gateway's job to retry or re-place) rather than resurrecting a
    /// copy that may also be running elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and refuses (`InvalidData`) when the state
    /// would not fit a single transfer frame under
    /// [`avoc_net::message::MAX_FRAME_LEN`] — better an explicit failure
    /// than an undecodable frame on the wire.
    pub(crate) fn export_blobs(
        &mut self,
        target_node: u64,
        high_round: Option<u64>,
        results: &VecDeque<StoredResult>,
    ) -> io::Result<(Vec<u8>, Vec<u8>)> {
        // The shipped WAL must carry every live record, including those a
        // resume seeded from segments (which do not ship): log the whole
        // cache, then compact it into a minimal log.
        let live = self.history.snapshot();
        self.history.discard_pending();
        let backing = self.history.backing_mut();
        backing.set_batch(&live);
        backing.compact()?;
        self.logged_floor = backing.bytes_logged();
        self.verdict_floor = None;
        self.checkpoint(high_round, results)?;
        let flipped = MetaState {
            node: target_node,
            ..self.meta.clone()
        };
        let meta = render_meta(&flipped).into_bytes();
        let wal = std::fs::read(&self.wal_path)?;
        // Frame budget: session + epoch + auth + two length prefixes + header.
        const TRANSFER_OVERHEAD: usize = 1 + 8 + 8 + 8 + 4 + 4;
        if meta.len() + wal.len() + TRANSFER_OVERHEAD > avoc_net::message::MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "session state exceeds the transfer frame cap even after compaction",
            ));
        }
        write_meta(&self.meta_path, &meta)?;
        self.meta = flipped;
        Ok((meta, wal))
    }

    /// Lands a shipped session's blobs in `dir` — WAL first, then the
    /// sidecar via tmp + rename, so a crash between the two leaves no
    /// sidecar pointing at a missing WAL. Any prior occupant of the id
    /// (files and folded segment rows) is cleared first.
    pub(crate) fn write_imported(
        dir: &Path,
        session: u64,
        meta: &[u8],
        wal: &[u8],
        tiered: Option<&Arc<TieredStore>>,
    ) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let _pin = tiered.map(|t| t.pin(session));
        if let Some(t) = tiered {
            t.forget_session(session)?;
        }
        let meta_dst = meta_path(dir, session);
        let _ = std::fs::remove_file(&meta_dst);
        std::fs::write(wal_path(dir, session), wal)?;
        write_meta(&meta_dst, meta)
    }

    /// Abandons staged-but-unflushed history — the hard-kill path. The
    /// files keep whatever the last completed checkpoint wrote.
    pub(crate) fn discard(&mut self) {
        self.history.discard_pending();
    }

    /// Deletes the session's durable state (explicit close: the tenant is
    /// done, nothing to resume), including its folded segment rows.
    pub(crate) fn remove(mut self) {
        self.history.discard_pending();
        let _ = std::fs::remove_file(&self.wal_path);
        let _ = std::fs::remove_file(&self.meta_path);
        if let Some(t) = &self.tiered {
            let _ = t.forget_session(self.session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("avoc-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn recipe(dir: &Path, session: u64, token: u64, spec: SpecSource, node: u64) -> StoreRecipe {
        StoreRecipe {
            dir: dir.to_path_buf(),
            session,
            meta: MetaState {
                token,
                modules: 3,
                resumable: true,
                spec,
                node,
            },
            durability: Durability::Flush,
            tiered: None,
        }
    }

    fn load(dir: &Path, session: u64) -> Option<Loaded> {
        SessionStore::load(dir, session, Durability::Flush, None)
    }

    #[test]
    fn checkpoint_round_trips_identity_history_and_ring() {
        let dir = tmpdir("roundtrip");
        let spec = SpecSource::Inline("{\"algorithm_name\": \"AVOC\"}".into());
        let mut store = recipe(&dir, 0x2a, u64::MAX, spec.clone(), 0)
            .create()
            .unwrap();
        store.note_history(&[(ModuleId::new(0), 0.75), (ModuleId::new(1), 1.0)]);
        let mut ring = VecDeque::new();
        ring.push_back((4u64, Some(19.700000000000003f64), true));
        ring.push_back((5u64, None, false));
        let bytes = store.checkpoint(Some(5), &ring).unwrap();
        assert!(bytes > 0);
        drop(store);

        let loaded = load(&dir, 0x2a).unwrap();
        assert_eq!(loaded.meta.token, u64::MAX, "token must survive byte-exact");
        assert_eq!(loaded.meta.modules, 3);
        assert!(loaded.meta.resumable);
        assert_eq!(loaded.meta.spec, spec);
        assert_eq!(loaded.high_round, Some(5), "the log's last commit stamp");
        // The awkward float round-trips exactly (bit-identity requirement).
        assert_eq!(
            loaded.results,
            vec![(4, Some(19.700000000000003), true), (5, None, false)]
        );
        assert_eq!(
            loaded.store.seed_records(),
            vec![(ModuleId::new(0), 0.75), (ModuleId::new(1), 1.0)]
        );
        assert_eq!(list_sessions(&dir), vec![0x2a]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_meta_or_wal_loads_as_none() {
        let dir = tmpdir("corrupt");
        let spec = SpecSource::Named("avoc".into());
        for id in [7, 8] {
            let mut store = recipe(&dir, id, 1, spec.clone(), 0).create().unwrap();
            store.note_history(&[(ModuleId::new(0), 0.5)]);
            store.checkpoint(Some(0), &VecDeque::new()).unwrap();
            store.note_history(&[(ModuleId::new(0), 0.25)]);
            store.checkpoint(Some(1), &VecDeque::new()).unwrap();
        }

        // Scribble over the sidecar: the load must degrade to None, not error.
        std::fs::write(dir.join("session-0000000000000007.meta"), "garbage").unwrap();
        assert!(load(&dir, 7).is_none());
        // Damage before the WAL's tail is corruption, not a torn append.
        let wal = dir.join("session-0000000000000008.wal");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[12] ^= 0x01;
        std::fs::write(&wal, &bytes).unwrap();
        assert!(load(&dir, 8).is_none());
        // Missing entirely behaves the same.
        assert!(load(&dir, 99).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discard_drops_staged_history_and_remove_deletes_files() {
        let dir = tmpdir("discard");
        let mut r = recipe(&dir, 3, 9, SpecSource::Named("avoc".into()), 0);
        r.meta.resumable = false;
        r.durability = Durability::Fsync;
        let mut store = r.create().unwrap();
        store.note_history(&[(ModuleId::new(0), 0.4)]);
        store.checkpoint(Some(0), &VecDeque::new()).unwrap();
        store.note_history(&[(ModuleId::new(0), 0.9)]);
        store.discard(); // hard kill: the 0.9 write never lands
        drop(store);
        let loaded = load(&dir, 3).unwrap();
        assert!(!loaded.meta.resumable);
        assert_eq!(loaded.store.seed_records(), vec![(ModuleId::new(0), 0.4)]);
        loaded.store.remove();
        assert!(list_sessions(&dir).is_empty());
        assert!(load(&dir, 3).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sidecar_names_its_node_and_older_formats_are_not_ours() {
        let dir = tmpdir("node");
        let store = recipe(&dir, 11, 5, SpecSource::Named("avoc".into()), 7)
            .create()
            .unwrap();
        drop(store);
        let meta = read_meta(&dir, 11).unwrap();
        assert_eq!(meta.node, 7);
        assert!(meta.owned_by(7));
        assert!(!meta.owned_by(3));

        // A v1 sidecar (it carried the high round and the result ring,
        // beside a JSON-lines WAL) is not recovered: its log is unreadable
        // now, so the session resumes cold instead.
        let v1 = "avoc-session-meta v1\ntoken=5\nmodules=2\nresumable=1\n\
                  high_round=4\nnode=7\nresults=1\nr 4 19.5 1\nspec=named\navoc";
        assert!(parse_meta(v1).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_blobs_flip_ownership_and_restore_elsewhere() {
        let src = tmpdir("export-src");
        let dst = tmpdir("export-dst");
        let spec = SpecSource::Named("avoc".into());
        let mut store = recipe(&src, 0x5e, 77, spec.clone(), 1).create().unwrap();
        store.note_history(&[(ModuleId::new(0), 0.75), (ModuleId::new(2), 0.25)]);
        let mut ring = VecDeque::new();
        ring.push_back((9u64, Some(18.150000000000002f64), true));
        store.checkpoint(Some(9), &ring).unwrap();

        let (meta_bytes, wal_bytes) = store.export_blobs(2, Some(9), &ring).unwrap();
        drop(store);

        // The source's leftover sidecar now names the target: node 1 no
        // longer owns it, node 2 does — and the blob is what is on disk.
        let leftover = read_meta(&src, 0x5e).unwrap();
        assert_eq!(leftover.node, 2);
        assert!(!leftover.owned_by(1));
        assert_eq!(
            read_exported_blobs(&src, 0x5e, 2),
            Some((meta_bytes.clone(), wal_bytes.clone()))
        );

        // Landing the blobs on the target restores byte-exact state.
        let (adopted, rendered) = adopt_meta(&meta_bytes, 2).unwrap();
        assert_eq!(rendered, meta_bytes, "only the owner could differ");
        SessionStore::write_imported(&dst, 0x5e, &rendered, &wal_bytes, None).unwrap();
        let loaded = load(&dst, 0x5e).unwrap();
        assert_eq!(loaded.meta, adopted);
        assert_eq!(loaded.meta.token, 77);
        assert_eq!(loaded.meta.spec, spec);
        assert_eq!(loaded.high_round, Some(9));
        assert_eq!(loaded.results, vec![(9, Some(18.150000000000002), true)]);
        assert_eq!(
            loaded.store.seed_records(),
            vec![(ModuleId::new(0), 0.75), (ModuleId::new(2), 0.25)]
        );
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    /// Once a fold retires the WAL, resume state comes from the segment
    /// tier: the high round is the last folded verdict, the ring is read
    /// back through `verdicts_in`, and an export still ships every record.
    #[test]
    fn folded_sessions_resume_and_export_from_segments() {
        let dir = tmpdir("folded");
        let dst = tmpdir("folded-dst");
        let tier = Arc::new(TieredStore::open(&dir).unwrap());
        let mut r = recipe(&dir, 4, 8, SpecSource::Named("avoc".into()), 0);
        r.tiered = Some(Arc::clone(&tier));
        let mut store = r.create().unwrap();
        let mut ring = VecDeque::new();
        for round in 0..300u64 {
            let trust = 0.5 + (round % 7) as f64 / 100.0;
            store.note_history(&[(ModuleId::new(0), trust), (ModuleId::new(1), 1.0)]);
            if ring.len() == RESULT_RING {
                ring.pop_front();
            }
            ring.push_back((round, Some(18.0 + round as f64 / 8.0), round % 5 != 0));
            store.checkpoint(Some(round), &ring).unwrap();
        }
        let expected_records = store.seed_records();
        drop(store); // unpins the session so the fold may take it
        let report = tier.compact().unwrap();
        assert_eq!(report.wals_retired, 1);

        let mut loaded = SessionStore::load(&dir, 4, Durability::Flush, Some(&tier)).unwrap();
        assert!(loaded.info.from_segments);
        assert_eq!(loaded.high_round, Some(299));
        assert_eq!(loaded.results, ring, "the ring reads back through the tier");
        assert_eq!(loaded.store.seed_records(), expected_records);

        let (meta, wal) = loaded
            .store
            .export_blobs(1, loaded.high_round, &loaded.results)
            .unwrap();
        drop(loaded);
        let (_, rendered) = adopt_meta(&meta, 1).unwrap();
        SessionStore::write_imported(&dst, 4, &rendered, &wal, None).unwrap();
        let shipped = load(&dst, 4).unwrap();
        assert_eq!(shipped.store.seed_records(), expected_records);
        assert_eq!(shipped.high_round, Some(299));
        assert_eq!(shipped.results, ring);
        drop(tier);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }
}
