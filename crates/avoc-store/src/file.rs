//! Durable history records backed by a binary write-ahead log.
//!
//! ```text
//! log     := "AVWAL2\n\0" frame*
//! frame   := payload_len (varint) │ crc32(payload) (u32 LE) │ payload
//! payload := entry+
//! entry   := SET             │ module (varint) │ trust (XOR-prev f64)
//!          | CLEAR
//!          | COMMIT          │ round (zigzag delta)
//!          | VERDICT + flags │ round (zigzag delta) │ [value (XOR-prev f64)]
//! ```
//!
//! Every append is exactly one frame, built from the [`crate::codec`]
//! primitives the segment format shares; the delta and XOR cursors restart
//! at zero in each frame, so frames decode independently. A crash mid-append
//! leaves a *short* final frame, and replay stops there — the torn tail is
//! truncated away and everything before it is applied. A frame that fails
//! its CRC with more bytes after it is damage rather than a torn append and
//! fails the open.

use crate::codec::{crc32, put_delta, put_u32_le, put_varint, put_xor_f64, DecodeError, Reader};
use avoc_core::history::{HistoryStore, INITIAL_HISTORY};
use avoc_core::ModuleId;
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use sysio::fault::Site;
use sysio::fio;

/// How hard [`FileHistory`] pushes each append toward the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Flush the userspace buffer per write (the default): an application
    /// crash loses nothing, an OS crash may lose the tail of the log.
    #[default]
    Flush,
    /// Additionally `fsync` (`File::sync_data`) per write: an OS crash or
    /// power loss loses nothing either. Orders of magnitude slower — the
    /// paper's "datastore writes are the bottleneck" observation, dialled
    /// to eleven; pair with a write-behind [`crate::CachedHistory`].
    Fsync,
}

/// Leading file magic (8 bytes): a log without it is not ours and fails
/// the open instead of being "repaired" into an empty one.
const WAL_MAGIC: &[u8; 8] = b"AVWAL2\n\0";

/// Entry tags. A verdict's tag also carries its `VOTED`/`HAS_VALUE` flags.
const SET: u8 = 1;
const CLEAR: u8 = 2;
const COMMIT: u8 = 3;
const VERDICT: u8 = 4;
const VOTED: u8 = 0x10;
const HAS_VALUE: u8 = 0x20;

/// How many of the last verdict rows replayed at open a [`FileHistory`]
/// hands over ([`FileHistory::take_replayed_verdicts`]) — a resuming
/// session's re-emittable result ring.
pub const VERDICT_TAIL: usize = 256;

/// One logged operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WalEntry {
    /// Record write.
    Set {
        /// Module index.
        module: u32,
        /// Record value.
        value: f64,
    },
    /// Store cleared.
    Clear,
    /// Round stamp: every `set`/`clear` logged since the previous `commit`
    /// describes state as of `round`. The segment compactor folds only
    /// stamped entries — an unstamped tail is an in-flight checkpoint.
    Commit {
        /// The fused round the preceding entries belong to.
        round: u64,
    },
    /// A fused verdict — the output stream row, logged so time-travel reads
    /// and resumes can replay verdicts as well as trust state.
    Verdict(VerdictRecord),
}

/// A fused verdict row as stamped into the WAL and folded into segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictRecord {
    /// Fused round index.
    pub round: u64,
    /// Fused value (`None` when the round produced no quorum).
    pub value: Option<f64>,
    /// Whether a quorum voted.
    pub voted: bool,
}

/// Appends `entries` to `payload` as one frame's body.
fn encode_payload(payload: &mut Vec<u8>, entries: impl Iterator<Item = WalEntry>) {
    let (mut round, mut bits) = (0u64, 0u64);
    for entry in entries {
        match entry {
            WalEntry::Set { module, value } => {
                payload.push(SET);
                put_varint(payload, u64::from(module));
                put_xor_f64(payload, value, &mut bits);
            }
            WalEntry::Clear => payload.push(CLEAR),
            WalEntry::Commit { round: r } => {
                payload.push(COMMIT);
                put_delta(payload, r, &mut round);
            }
            WalEntry::Verdict(v) => {
                let mut tag = VERDICT;
                if v.voted {
                    tag |= VOTED;
                }
                if v.value.is_some() {
                    tag |= HAS_VALUE;
                }
                payload.push(tag);
                put_delta(payload, v.round, &mut round);
                if let Some(value) = v.value {
                    put_xor_f64(payload, value, &mut bits);
                }
            }
        }
    }
}

/// Appends `payload` framed: its length, its CRC-32, then the bytes.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_varint(out, payload.len() as u64);
    put_u32_le(out, crc32(payload));
    out.extend_from_slice(payload);
}

/// Decodes one frame's body into `out`. Any malformed byte fails the whole
/// frame — the caller applies nothing from it.
fn decode_payload(payload: &[u8], out: &mut Vec<WalEntry>) -> Result<(), DecodeError> {
    let mut r = Reader::new(payload);
    let (mut round, mut bits) = (0u64, 0u64);
    while r.remaining() > 0 {
        let at = r.pos();
        let tag = r.u8()?;
        let entry = match tag {
            SET => {
                let module = u32::try_from(r.varint()?).map_err(|_| DecodeError {
                    at,
                    reason: "module index overflows u32",
                })?;
                let value = r.xor_f64(&mut bits)?;
                WalEntry::Set { module, value }
            }
            CLEAR => WalEntry::Clear,
            COMMIT => WalEntry::Commit {
                round: r.delta(&mut round)?,
            },
            t if t & !(VOTED | HAS_VALUE) == VERDICT => {
                let round = r.delta(&mut round)?;
                let value = if t & HAS_VALUE != 0 {
                    Some(r.xor_f64(&mut bits)?)
                } else {
                    None
                };
                WalEntry::Verdict(VerdictRecord {
                    round,
                    value,
                    voted: t & VOTED != 0,
                })
            }
            _ => {
                return Err(DecodeError {
                    at,
                    reason: "unknown WAL entry tag",
                })
            }
        };
        out.push(entry);
    }
    Ok(())
}

/// Where replaying a log image stopped.
#[derive(Debug, Clone, Copy)]
struct ReplayEnd {
    /// Bytes of the magic plus every intact frame — the truncation point
    /// when the tail is torn (0 when not even the magic is whole).
    good_bytes: u64,
    /// A short (or final, corrupt) frame ended the log.
    torn_tail: bool,
}

/// Decodes every intact frame of a WAL image in order, handing each entry
/// to `visit`. This is the one decoder shared by replay, torn-tail repair
/// and the segment compactor — the same bytes can never parse two ways.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the image does not start with the
/// WAL magic, or a frame fails its CRC or decode with bytes after it.
fn replay(bytes: &[u8], mut visit: impl FnMut(WalEntry)) -> io::Result<ReplayEnd> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    if !bytes.starts_with(WAL_MAGIC) {
        // A crash while the magic itself was being written leaves a prefix.
        if WAL_MAGIC.starts_with(bytes) {
            return Ok(ReplayEnd {
                good_bytes: 0,
                torn_tail: !bytes.is_empty(),
            });
        }
        return Err(invalid("not an AVOC history log (bad magic)".into()));
    }
    let mut pos = WAL_MAGIC.len();
    let mut entries = Vec::new();
    while pos < bytes.len() {
        let mut r = Reader::new(&bytes[pos..]);
        let frame = (|| {
            let len = r.count(usize::MAX)?;
            let crc = r.u32_le()?;
            Ok::<_, DecodeError>((crc, r.bytes(len)?))
        })();
        let torn = ReplayEnd {
            good_bytes: pos as u64,
            torn_tail: true,
        };
        // A frame header or body running past the end is a torn append.
        let Ok((crc, payload)) = frame else {
            return Ok(torn);
        };
        let end = pos + r.pos();
        entries.clear();
        if crc32(payload) != crc || decode_payload(payload, &mut entries).is_err() {
            if end < bytes.len() {
                return Err(invalid(format!("corrupt history log frame at byte {pos}")));
            }
            return Ok(torn);
        }
        for &entry in &entries {
            visit(entry);
        }
        pos = end;
    }
    Ok(ReplayEnd {
        good_bytes: pos as u64,
        torn_tail: false,
    })
}

/// Result of a checked WAL scan: every entry of every intact frame in file
/// order, plus whether a torn tail ended it.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Entries decoded from intact frames, in file order.
    pub(crate) entries: Vec<WalEntry>,
    /// A torn final frame was found (and skipped).
    pub(crate) torn_tail: bool,
}

/// Scans a WAL file without modifying it. Missing file ⇒ `Ok(None)`.
///
/// # Errors
///
/// As the open: a log that is not ours, or damaged before its tail, is
/// [`io::ErrorKind::InvalidData`].
pub(crate) fn scan_wal(path: &Path) -> io::Result<Option<WalScan>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut entries = Vec::new();
    let end = replay(&bytes, |e| entries.push(e))?;
    Ok(Some(WalScan {
        entries,
        torn_tail: end.torn_tail,
    }))
}

/// A durable [`HistoryStore`] backed by a binary write-ahead log.
///
/// Every [`HistoryStore::set`] appends one frame and flushes; reopening the
/// file replays the log. [`FileHistory::compact`] rewrites the log to one
/// frame holding each live record. This deliberately mirrors the paper's
/// "datastore reads and writes being the bottleneck" observation: the
/// per-write flush is what a benchmark run measures against the in-memory
/// store.
///
/// # Example
///
/// ```no_run
/// use avoc_core::history::HistoryStore;
/// use avoc_core::ModuleId;
/// use avoc_store::FileHistory;
///
/// let mut store = FileHistory::open("/tmp/avoc-history.wal")?;
/// store.set(ModuleId::new(0), 0.8);
/// drop(store);
/// let reopened = FileHistory::open("/tmp/avoc-history.wal")?;
/// assert_eq!(reopened.get(ModuleId::new(0)), Some(0.8));
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct FileHistory {
    path: PathBuf,
    file: File,
    records: BTreeMap<ModuleId, f64>,
    /// Log entries since the last compaction.
    dirty_entries: usize,
    durability: Durability,
    /// Whether `open` found (and truncated away) a torn final frame.
    recovered_torn_tail: bool,
    /// Bytes appended to the log by this handle (compactions excluded) —
    /// a checkpoint-cost signal for the service layer.
    bytes_logged: u64,
    /// Whether any `clear` entry was replayed — when true the records map
    /// already reflects the wipe and earlier tiers (segments) must not be
    /// merged underneath it.
    saw_clear: bool,
    /// Highest `commit` round stamp seen or appended.
    max_commit_round: Option<u64>,
    /// Highest `verdict` round seen or appended.
    max_verdict_round: Option<u64>,
    /// The last [`VERDICT_TAIL`] verdict rows replayed at open, oldest
    /// first, until taken.
    replayed_verdicts: VecDeque<VerdictRecord>,
    /// An append/flush/fsync since open (or the last successful
    /// [`FileHistory::compact`]) failed: the on-disk log may be missing
    /// entries, so checkpoints built on it must not be trusted until a
    /// rewrite succeeds. In-memory records stay correct throughout.
    write_failed: bool,
    /// Reused frame buffers: an append allocates nothing once warm.
    payload: Vec<u8>,
    frame: Vec<u8>,
}

impl FileHistory {
    /// Opens (or creates) a log file and replays it, with
    /// [`Durability::Flush`] semantics.
    ///
    /// A *torn final frame* — exactly what a crash mid-append leaves behind
    /// — is tolerated: the tail is truncated away and replay keeps every
    /// frame before it (the state minus at most the last append). A corrupt
    /// frame with bytes *after* it is damage, not a torn append, and still
    /// fails hard.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a file that is not a history log, or a
    /// corrupt frame anywhere but the tail, yields
    /// [`io::ErrorKind::InvalidData`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(path, Durability::Flush)
    }

    /// Opens (or creates) a log file with an explicit [`Durability`] mode.
    ///
    /// # Errors
    ///
    /// As [`FileHistory::open`].
    pub fn open_with(path: impl AsRef<Path>, durability: Durability) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut store = FileHistory {
            file: OpenOptions::new().create(true).append(true).open(&path)?,
            path,
            records: BTreeMap::new(),
            dirty_entries: 0,
            durability,
            recovered_torn_tail: false,
            bytes_logged: 0,
            saw_clear: false,
            max_commit_round: None,
            max_verdict_round: None,
            replayed_verdicts: VecDeque::new(),
            write_failed: false,
            payload: Vec::new(),
            frame: Vec::new(),
        };
        let mut tail = VecDeque::new();
        let end = replay(&bytes, |entry| {
            if let WalEntry::Verdict(v) = entry {
                if tail.len() == VERDICT_TAIL {
                    tail.pop_front();
                }
                tail.push_back(v);
            }
            store.apply(entry);
        })?;
        store.replayed_verdicts = tail;
        if end.torn_tail {
            store.file.set_len(end.good_bytes)?;
            store.recovered_torn_tail = true;
        }
        if end.good_bytes == 0 {
            // New (or torn-at-birth) log: lay down the magic. Not logging:
            // excluded from `bytes_logged`.
            fio::write_all(Site::WalAppend, &mut store.file, WAL_MAGIC)?;
        }
        Ok(store)
    }

    /// Applies one replayed or appended entry to the in-memory view.
    fn apply(&mut self, entry: WalEntry) {
        self.dirty_entries += 1;
        match entry {
            WalEntry::Set { module, value } => {
                self.records.insert(ModuleId::new(module), value);
            }
            WalEntry::Clear => {
                self.records.clear();
                self.saw_clear = true;
            }
            WalEntry::Commit { round } => {
                self.max_commit_round = self.max_commit_round.max(Some(round));
            }
            WalEntry::Verdict(v) => {
                self.max_verdict_round = self.max_verdict_round.max(Some(v.round));
            }
        }
    }

    /// Whether any append since open (or the last successful
    /// [`FileHistory::compact`]) failed to reach the log. A sick log is the
    /// persistence layer's degradation signal: the in-memory store keeps
    /// serving, but the WAL has gaps and must be rebuilt before checkpoints
    /// count again.
    pub fn write_failed(&self) -> bool {
        self.write_failed
    }

    /// Applies `entries` in memory and appends them as one frame — one
    /// write, one flush and (under [`Durability::Fsync`]) one fsync, each
    /// through the injectable `sysio` facade, which retries real and
    /// injected `EINTR` and resumes short writes. A terminal failure marks
    /// the handle sick; memory keeps the entries either way.
    fn append_frame(&mut self, entries: impl Iterator<Item = WalEntry> + Clone) {
        self.payload.clear();
        encode_payload(&mut self.payload, entries.clone());
        if self.payload.is_empty() {
            return;
        }
        for entry in entries {
            self.apply(entry);
        }
        self.frame.clear();
        put_frame(&mut self.frame, &self.payload);
        let result = (|| {
            fio::write_all(Site::WalAppend, &mut self.file, &self.frame)?;
            fio::flush(Site::WalFlush, &mut self.file)?;
            if self.durability == Durability::Fsync {
                fio::check_op(Site::WalSync)?;
                self.file.sync_data()?;
            }
            Ok::<_, io::Error>(())
        })();
        match result {
            Ok(()) => self.bytes_logged += self.frame.len() as u64,
            Err(_) => self.write_failed = true,
        }
    }

    /// Whether `open` truncated a torn final frame left by a crash
    /// mid-append.
    pub fn recovered_torn_tail(&self) -> bool {
        self.recovered_torn_tail
    }

    /// Whether replay encountered a `clear`: the records already reflect the
    /// wipe, so older tiers (segments) must not be merged underneath them.
    pub fn saw_clear(&self) -> bool {
        self.saw_clear
    }

    /// Highest round stamped by a `commit` entry (replayed or appended) —
    /// everything logged before it is fold-eligible.
    pub fn committed_round(&self) -> Option<u64> {
        self.max_commit_round
    }

    /// Highest round carrying a logged `verdict` (replayed or appended).
    pub fn max_verdict_round(&self) -> Option<u64> {
        self.max_verdict_round
    }

    /// Hands over the last [`VERDICT_TAIL`] verdict rows the open replayed,
    /// oldest first. The handle keeps no copy: a second call (or one on a
    /// new log) returns nothing.
    pub fn take_replayed_verdicts(&mut self) -> Vec<VerdictRecord> {
        std::mem::take(&mut self.replayed_verdicts).into()
    }

    /// Appends verdict rows and an optional `commit` round stamp as one
    /// frame — the round-marker analogue of [`HistoryStore::set_batch`].
    /// Best-effort like every append: write errors surface through
    /// [`FileHistory::write_failed`].
    pub fn append_markers(&mut self, verdicts: &[VerdictRecord], commit: Option<u64>) {
        self.append_checkpoint(&[], verdicts, commit);
    }

    /// Appends a whole checkpoint — record writes, verdict rows and an
    /// optional `commit` stamp — as one frame: after a crash either all of
    /// it replays or none of it does, so the log's last `commit` always
    /// names a round whose records and verdicts are complete.
    pub fn append_checkpoint(
        &mut self,
        records: &[(ModuleId, f64)],
        verdicts: &[VerdictRecord],
        commit: Option<u64>,
    ) {
        let sets = records.iter().map(|&(module, value)| WalEntry::Set {
            module: module.index(),
            value: value.clamp(0.0, 1.0),
        });
        let rows = verdicts.iter().map(|&v| WalEntry::Verdict(v));
        let stamp = commit.map(|round| WalEntry::Commit { round });
        self.append_frame(sets.chain(rows).chain(stamp));
    }

    /// Bytes appended through this handle (a checkpoint-cost signal).
    pub fn bytes_logged(&self) -> u64 {
        self.bytes_logged
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of log entries accumulated since the last compaction —
    /// a compaction-scheduling signal.
    pub fn log_len(&self) -> usize {
        self.dirty_entries
    }

    /// Rewrites the log to one frame holding a `set` per live record plus a
    /// final `commit` stamp preserving the round watermark. Verdict rows are
    /// dropped — round-preserving compaction is the segment fold's job
    /// (see the `tiered` module); this rewrite is for standalone stores.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the original log remains valid (the
    /// rewrite goes through a temporary file + rename).
    pub fn compact(&mut self) -> io::Result<()> {
        let sets = self.records.iter().map(|(&m, &value)| WalEntry::Set {
            module: m.index(),
            value,
        });
        let stamp = self
            .max_commit_round
            .map(|round| WalEntry::Commit { round });
        let entries = self.records.len() + usize::from(stamp.is_some());
        let mut payload = Vec::new();
        encode_payload(&mut payload, sets.chain(stamp));
        let mut image = WAL_MAGIC.to_vec();
        if !payload.is_empty() {
            put_frame(&mut image, &payload);
        }
        let tmp = self.path.with_extension("compact-tmp");
        {
            fio::check_op(Site::WalAppend)?;
            let mut f = File::create(&tmp)?;
            fio::write_all(Site::WalAppend, &mut f, &image)?;
            fio::flush(Site::WalFlush, &mut f)?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.dirty_entries = entries;
        // The rewrite holds only live records: any replayed `clear` is now
        // physically gone from the log, and so are the verdict rows.
        self.saw_clear = false;
        self.max_verdict_round = None;
        // The log is whole again — a full rewrite from in-memory state is
        // exactly the repair a sick WAL needs.
        self.write_failed = false;
        Ok(())
    }
}

impl HistoryStore for FileHistory {
    fn get(&self, module: ModuleId) -> Option<f64> {
        self.records.get(&module).copied()
    }

    fn set(&mut self, module: ModuleId, value: f64) {
        self.append_checkpoint(&[(module, value)], &[], None);
    }

    fn set_batch(&mut self, records: &[(ModuleId, f64)]) {
        // One frame — one write + one flush (+ one fsync) — for the whole
        // batch: the CorkedWriter discipline applied to the WAL. With
        // per-write `Fsync` durability this is the difference between N
        // platter waits and one.
        self.append_checkpoint(records, &[], None);
    }

    fn snapshot(&self) -> Vec<(ModuleId, f64)> {
        self.records.iter().map(|(&m, &v)| (m, v)).collect()
    }

    fn clear(&mut self) {
        self.append_frame(std::iter::once(WalEntry::Clear));
    }

    fn get_or_init(&mut self, module: ModuleId) -> f64 {
        match self.get(module) {
            Some(v) => v,
            None => {
                self.set(module, INITIAL_HISTORY);
                INITIAL_HISTORY
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("avoc-store-test-{name}-{}", std::process::id()));
        p
    }

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    #[test]
    fn set_get_round_trip() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut s = FileHistory::open(&path).unwrap();
        s.set(m(0), 0.5);
        s.set(m(1), 0.75);
        assert_eq!(s.get(m(0)), Some(0.5));
        assert_eq!(s.snapshot().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn survives_reopen() {
        let path = tmp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(0), 0.3);
            s.set(m(0), 0.4); // later write wins
            s.set(m(7), 0.9);
        }
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.4));
        assert_eq!(s.get(m(7)), Some(0.9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clear_persists() {
        let path = tmp_path("clear");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(0), 0.3);
            s.clear();
            s.set(m(1), 0.6);
        }
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), None);
        assert_eq!(s.get(m(1)), Some(0.6));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_shrinks_log() {
        let path = tmp_path("compact");
        let _ = std::fs::remove_file(&path);
        let mut s = FileHistory::open(&path).unwrap();
        for i in 0..100 {
            s.set(m(0), (i as f64) / 100.0);
        }
        assert_eq!(s.log_len(), 100);
        s.compact().unwrap();
        assert_eq!(s.log_len(), 1);
        // Data still correct after compaction and reopen.
        s.set(m(1), 0.5);
        drop(s);
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.99));
        assert_eq!(s.get(m(1)), Some(0.5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn values_clamped_to_unit_interval() {
        let path = tmp_path("clamp");
        let _ = std::fs::remove_file(&path);
        let mut s = FileHistory::open(&path).unwrap();
        s.set(m(0), 2.0);
        s.set(m(1), -1.0);
        assert_eq!(s.get(m(0)), Some(1.0));
        assert_eq!(s.get(m(1)), Some(0.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_mid_file_is_invalid_data() {
        let path = tmp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(0), 0.5);
            s.set(m(1), 0.25);
        }
        // A bad frame *followed by another frame* is damage, not a torn
        // append: flip the first frame's last payload byte (both frames
        // have the same length).
        let mut bytes = std::fs::read(&path).unwrap();
        let first_frame_end = WAL_MAGIC.len() + (bytes.len() - WAL_MAGIC.len()) / 2;
        bytes[first_frame_end - 1] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = FileHistory::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_files_are_rejected_not_truncated() {
        let path = tmp_path("foreign");
        // A JSON-lines log (the format before this one) is not ours: the
        // open fails instead of "repairing" it into an empty log.
        let legacy = "{\"op\":\"set\",\"module\":0,\"value\":0.5}\n";
        std::fs::write(&path, legacy).unwrap();
        let err = FileHistory::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), legacy);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_tolerated() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(0), 0.25);
            s.set(m(1), 0.75);
            s.set(m(2), 0.5);
        }
        // Crash mid-append: the last frame lost its final bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let torn_len = std::fs::metadata(&path).unwrap().len();

        let s = FileHistory::open(&path).unwrap();
        assert!(s.recovered_torn_tail());
        assert_eq!(s.get(m(0)), Some(0.25));
        assert_eq!(s.get(m(1)), Some(0.75));
        assert_eq!(s.get(m(2)), None);
        // The tail was physically truncated, so the next append produces a
        // clean log again.
        assert!(std::fs::metadata(&path).unwrap().len() < torn_len);
        drop(s);
        let s = FileHistory::open(&path).unwrap();
        assert!(!s.recovered_torn_tail());
        assert_eq!(s.snapshot().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_append_after_recovery_round_trips() {
        let path = tmp_path("torn-append");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(3), 0.5);
            s.clear();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        {
            let mut s = FileHistory::open(&path).unwrap();
            assert!(s.recovered_torn_tail());
            s.set(m(4), 0.9);
        }
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(3)), Some(0.5));
        assert_eq!(s.get(m(4)), Some(0.9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_checkpoint_frame_replays_whole_or_not_at_all() {
        let path = tmp_path("atomic-checkpoint");
        let _ = std::fs::remove_file(&path);
        let before = {
            let mut s = FileHistory::open(&path).unwrap();
            s.append_checkpoint(&[(m(0), 0.5)], &[], Some(1));
            let before = std::fs::metadata(&path).unwrap().len() as usize;
            s.append_checkpoint(
                &[(m(0), 0.25), (m(1), 0.75)],
                &[VerdictRecord {
                    round: 2,
                    value: Some(18.5),
                    voted: true,
                }],
                Some(2),
            );
            before
        };
        let bytes = std::fs::read(&path).unwrap();
        for cut in before..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut s = FileHistory::open(&path).unwrap();
            assert_eq!(s.committed_round(), Some(1), "cut at {cut}");
            assert_eq!(s.snapshot(), vec![(m(0), 0.5)], "cut at {cut}");
            assert!(s.take_replayed_verdicts().is_empty(), "cut at {cut}");
        }
        std::fs::write(&path, &bytes).unwrap();
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.committed_round(), Some(2));
        assert_eq!(s.snapshot(), vec![(m(0), 0.25), (m(1), 0.75)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_mode_round_trips_and_counts_bytes() {
        let path = tmp_path("fsync");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileHistory::open_with(&path, Durability::Fsync).unwrap();
            s.set(m(0), 0.5);
            s.set(m(1), 0.25);
            assert!(s.bytes_logged() > 0);
            let len = std::fs::metadata(&path).unwrap().len();
            assert_eq!(s.bytes_logged(), len - WAL_MAGIC.len() as u64);
        }
        let s = FileHistory::open_with(&path, Durability::Fsync).unwrap();
        assert_eq!(s.get(m(0)), Some(0.5));
        assert_eq!(s.get(m(1)), Some(0.25));
        assert_eq!(s.bytes_logged(), 0, "a fresh handle starts its own count");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn get_or_init_persists_the_initial_record() {
        let path = tmp_path("init");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileHistory::open(&path).unwrap();
            assert_eq!(s.get_or_init(m(4)), INITIAL_HISTORY);
        }
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(4)), Some(INITIAL_HISTORY));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn round_markers_survive_reopen_and_one_write() {
        let path = tmp_path("markers");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set_batch(&[(m(0), 0.5), (m(1), 0.75)]);
            let before = s.bytes_logged();
            s.append_markers(
                &[
                    VerdictRecord {
                        round: 3,
                        value: Some(19.25),
                        voted: true,
                    },
                    VerdictRecord {
                        round: 4,
                        value: None,
                        voted: false,
                    },
                ],
                Some(4),
            );
            assert!(s.bytes_logged() > before);
            assert_eq!(s.committed_round(), Some(4));
            assert_eq!(s.max_verdict_round(), Some(4));
        }
        let mut s = FileHistory::open(&path).unwrap();
        assert_eq!(s.committed_round(), Some(4));
        assert_eq!(s.max_verdict_round(), Some(4));
        let rows = s.take_replayed_verdicts();
        assert_eq!(rows[0].value, Some(19.25));
        assert_eq!(
            (rows[1].round, rows[1].value, rows[1].voted),
            (4, None, false)
        );
        assert_eq!(s.get(m(0)), Some(0.5));
        assert_eq!(s.get(m(1)), Some(0.75));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replayed_verdicts_keep_the_last_tail_in_order() {
        let path = tmp_path("verdict-tail");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileHistory::open(&path).unwrap();
            for round in 0..(VERDICT_TAIL as u64 + 10) {
                let value = (round % 3 != 0).then_some(round as f64 * 0.5);
                s.append_markers(
                    &[VerdictRecord {
                        round,
                        value,
                        voted: value.is_some(),
                    }],
                    Some(round),
                );
            }
        }
        let mut s = FileHistory::open(&path).unwrap();
        let tail = s.take_replayed_verdicts();
        assert_eq!(tail.len(), VERDICT_TAIL);
        assert_eq!(tail[0].round, 10);
        let last = tail[VERDICT_TAIL - 1];
        assert_eq!(last.round, VERDICT_TAIL as u64 + 9);
        assert_eq!(last.value, Some(last.round as f64 * 0.5));
        assert!(s.take_replayed_verdicts().is_empty(), "handed over once");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_preserves_commit_watermark() {
        let path = tmp_path("compact-commit");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(0), 0.5);
            s.append_markers(&[], Some(9));
            s.compact().unwrap();
            assert_eq!(s.committed_round(), Some(9));
        }
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.committed_round(), Some(9));
        assert_eq!(s.get(m(0)), Some(0.5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn set_batch_is_one_physical_write() {
        let path = tmp_path("set-batch");
        let _ = std::fs::remove_file(&path);
        let mut s = FileHistory::open(&path).unwrap();
        s.set_batch(&[(m(0), 0.1), (m(1), 0.2), (m(2), 0.3)]);
        assert_eq!(s.log_len(), 3);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(s.bytes_logged(), len - WAL_MAGIC.len() as u64);
        drop(s);
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.snapshot().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_marks_the_log_sick_and_compact_heals_it() {
        use sysio::fault::{self, Kind, Plan};

        let _g = crate::fault_gate();
        let path = tmp_path("sick-heal");
        let _ = std::fs::remove_file(&path);
        let mut s = FileHistory::open(&path).unwrap();
        s.set(m(0), 0.5);
        assert!(!s.write_failed());

        // The disk fills: the append is lost but in-memory state survives.
        fault::install(
            Plan::new(21)
                .rule(Site::WalAppend, Kind::Enospc, 1, 1)
                .thread_only(),
        );
        s.set(m(1), 0.75);
        fault::clear();
        assert!(s.write_failed(), "the lost append marks the handle sick");
        assert_eq!(s.get(m(1)), Some(0.75), "memory keeps serving");

        // Heal: a compact rewrites the whole log from memory and clears
        // the flag...
        s.compact().unwrap();
        assert!(!s.write_failed());
        drop(s);
        // ...so a reopen sees the entry the failed append dropped.
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.5));
        assert_eq!(s.get(m(1)), Some(0.75));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_fails_while_the_disk_is_still_sick() {
        use sysio::fault::{self, Kind, Plan};

        let _g = crate::fault_gate();
        let path = tmp_path("sick-probe");
        let _ = std::fs::remove_file(&path);
        let mut s = FileHistory::open(&path).unwrap();
        s.set(m(0), 0.5);
        // A re-probe against a still-full disk must fail (and leave the
        // original log untouched behind the tmp+rename protocol)...
        fault::install(
            Plan::new(23)
                .rule(Site::WalAppend, Kind::Enospc, 1, 1)
                .thread_only(),
        );
        assert!(s.compact().is_err());
        fault::clear();
        // ...and a later probe against a healed disk succeeds.
        s.compact().unwrap();
        drop(s);
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn eintr_and_short_writes_on_the_wal_are_invisible() {
        use sysio::fault::{self, Kind, Plan};

        let _g = crate::fault_gate();
        let path = tmp_path("wal-eintr");
        let _ = std::fs::remove_file(&path);
        let mut s = FileHistory::open(&path).unwrap();
        fault::install(
            Plan::new(25)
                .rule(Site::WalAppend, Kind::Eintr, 1, 3)
                .rule(Site::WalAppend, Kind::ShortWrite, 5, 3)
                .rule(Site::WalFlush, Kind::Eintr, 1, 2)
                .thread_only(),
        );
        s.set(m(0), 0.25);
        s.set_batch(&[(m(1), 0.5), (m(2), 0.75)]);
        fault::clear();
        assert!(!s.write_failed(), "retryable faults never mark sickness");
        drop(s);
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.25));
        assert_eq!(s.get(m(1)), Some(0.5));
        assert_eq!(s.get(m(2)), Some(0.75));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn works_as_voter_backend() {
        use avoc_core::algorithms::{StandardVoter, Voter};
        use avoc_core::{Round, VoterConfig};

        let path = tmp_path("voter");
        let _ = std::fs::remove_file(&path);
        {
            let store = FileHistory::open(&path).unwrap();
            let mut voter = StandardVoter::new(VoterConfig::default(), store);
            for r in 0..3 {
                voter
                    .vote(&Round::from_numbers(r, &[18.0, 18.1, 20.0]))
                    .unwrap();
            }
        }
        // Records survive process "restart".
        let store = FileHistory::open(&path).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap[2].1 < snap[0].1, "outlier record must have decayed");
        std::fs::remove_file(&path).unwrap();
    }
}
