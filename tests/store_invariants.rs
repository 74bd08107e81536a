//! Durability invariants for the on-disk history store: a WAL truncated at
//! *any* byte offset — the artefact a crash mid-append leaves behind —
//! recovers to the state of some prefix of the log: every fully-written
//! entry before the cut is applied, the torn entry (if any) is discarded,
//! and the open never errors and never fabricates state. A single flipped
//! bit anywhere recovers the intact prefix or fails the open cleanly.

use avoc::core::history::HistoryStore;
use avoc::core::ModuleId;
use avoc::store::FileHistory;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "avoc-store-inv-{tag}-{}-{n}.wal",
        std::process::id()
    ))
}

/// Writes `ops` (`Some((module, value))` is a set, `None` a clear) to a
/// fresh log and returns its bytes plus the log length after the open and
/// after each operation — the entry boundaries.
fn write_log(ops: &[Option<(u32, f64)>]) -> (Vec<u8>, Vec<usize>) {
    let path = scratch("full");
    let len = |p: &std::path::Path| std::fs::metadata(p).unwrap().len() as usize;
    let mut boundaries = Vec::with_capacity(ops.len() + 1);
    {
        let mut h = FileHistory::open(&path).unwrap();
        boundaries.push(len(&path));
        for op in ops {
            match op {
                Some((m, v)) => h.set(ModuleId::new(*m), *v),
                None => h.clear(),
            }
            boundaries.push(len(&path));
        }
    }
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    (bytes, boundaries)
}

/// The state after replaying the first `n` operations.
fn prefix_state(ops: &[Option<(u32, f64)>], n: usize) -> BTreeMap<u32, f64> {
    let mut expected = BTreeMap::new();
    for op in &ops[..n] {
        match op {
            // The store clamps on write; mirror it.
            Some((m, v)) => {
                expected.insert(*m, v.clamp(0.0, 1.0));
            }
            None => expected.clear(),
        }
    }
    expected
}

fn state_of(h: &FileHistory) -> BTreeMap<u32, f64> {
    h.snapshot()
        .into_iter()
        .map(|(m, v)| (m.index(), v))
        .collect()
}

proptest! {
    /// Write a log of set/clear operations, then truncate the file at every
    /// byte offset and reopen. Each reopen must succeed with exactly the
    /// state of the operations whose entries were wholly written before
    /// the cut.
    #[test]
    fn truncation_at_every_offset_yields_a_prefix_state(
        // `Some((module, value))` is a set, `None` is a clear.
        ops in prop::collection::vec(prop::option::of((0u32..6, 0.0f64..1.0)), 1..8),
    ) {
        let (bytes, boundaries) = write_log(&ops);
        prop_assert!(!bytes.is_empty());
        prop_assert_eq!(boundaries[ops.len()], bytes.len());

        let torn = scratch("torn");
        for cut in 0..=bytes.len() {
            // Entry k is durable iff the log ended at or past its boundary.
            let durable = boundaries[1..].iter().filter(|&&b| b <= cut).count();
            let expected = prefix_state(&ops, durable);

            std::fs::write(&torn, &bytes[..cut]).unwrap();
            let h = FileHistory::open(&torn).unwrap_or_else(|e| {
                panic!("cut at {cut}/{} must recover, got {e}", bytes.len())
            });
            prop_assert_eq!(&state_of(&h), &expected, "cut at {}", cut);
            // A cut at an entry boundary (or of the whole file) is clean;
            // anywhere else it severed an entry, which is a torn tail.
            let clean = cut == 0 || boundaries.contains(&cut);
            prop_assert_eq!(h.recovered_torn_tail(), !clean, "cut at {}", cut);
        }
        let _ = std::fs::remove_file(&torn);
    }

    /// Flip every single bit of the log in turn and reopen. Each open must
    /// either recover the longest intact prefix — every entry before the
    /// damaged one, nothing from it or after it — or stop cleanly with
    /// `InvalidData`. It never panics and never returns a wrong value.
    #[test]
    fn a_flipped_bit_yields_the_intact_prefix_or_a_clean_stop(
        ops in prop::collection::vec(prop::option::of((0u32..6, 0.0f64..1.0)), 1..8),
    ) {
        let (bytes, boundaries) = write_log(&ops);
        let flipped = scratch("flip");
        for bit in 0..bytes.len() * 8 {
            let byte = bit / 8;
            // Entries wholly before the damaged byte are the intact prefix.
            let intact = boundaries[1..].iter().filter(|&&b| b <= byte).count();
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1 << (bit % 8);
            std::fs::write(&flipped, &damaged).unwrap();
            match FileHistory::open(&flipped) {
                Ok(h) => prop_assert_eq!(
                    &state_of(&h),
                    &prefix_state(&ops, intact),
                    "bit {} of {}",
                    bit,
                    bytes.len() * 8
                ),
                Err(e) => prop_assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::InvalidData,
                    "bit {}: {}",
                    bit,
                    e
                ),
            }
        }
        let _ = std::fs::remove_file(&flipped);
    }

    /// After torn-tail recovery the log is append-ready: new writes land,
    /// reopen round-trips them, and nothing of the torn entry resurfaces.
    #[test]
    fn torn_tail_recovery_is_append_ready(
        keep in 0u32..4,
        cut_back in 1usize..10,
    ) {
        let path = scratch("append");
        {
            let mut h = FileHistory::open(&path).unwrap();
            for m in 0..=keep {
                h.set(ModuleId::new(m), f64::from(m) / 10.0);
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len().saturating_sub(cut_back.min(bytes.len() - 1));
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let mut h = FileHistory::open(&path).unwrap();
        h.set(ModuleId::new(9), 0.9);
        drop(h);

        let h = FileHistory::open(&path).unwrap();
        prop_assert!(!h.recovered_torn_tail(), "the rewritten log must be clean");
        prop_assert_eq!(h.get(ModuleId::new(9)), Some(0.9));
        let _ = std::fs::remove_file(&path);
    }
}
