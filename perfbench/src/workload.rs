//! The benchmark's workloads and their seeded inputs.
//!
//! The daemon sees only the generated readings: every value comes from an
//! `avoc-sim` light trace seeded per session from the run seed, so the same
//! seed always yields byte-identical inputs.

use crate::stats::{mix, Fnv};
use avoc_sim::{FaultInjector, FaultKind, LightScenario};

/// One named traffic mix and the daemon configuration it runs against.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub sessions: u32,
    pub modules: u32,
    /// Rounds carried by one `FeedBatch` frame.
    pub rounds_per_frame: u32,
    /// Persistence on (fsync off) or memory-only.
    pub durable: bool,
    /// Checkpoint cadence in fused rounds when durable.
    pub checkpoint_every: u64,
    /// The paper's +6 klm offset fault on sensor E4.
    pub offset_fault: bool,
    /// Pinned daemon shard and reactor counts.
    pub shards: usize,
    pub reactors: usize,
    /// Warm-up rounds per session, part of set-up.
    pub warm_rounds: u32,
    /// Fixed open-loop arrival rate, in rounds per second across all
    /// sessions, set once from saturation measured on a 2-core host.
    pub open_rate: f64,
    /// Sizes the saturation phase's fixed amount of work: `seconds / 2`
    /// times this many rounds. Set near the measured saturation rate, so
    /// the phase takes about half the run; for durable workloads set lower,
    /// so the run's disk writes stay within what the disk sustains.
    pub nominal_saturation: f64,
    /// Bound on rounds in flight on the connection during saturation. The
    /// daemon queues at most 256 result frames per connection and drops
    /// (and counts) the overflow, so the window keeps every verdict.
    pub window_rounds: u64,
    /// Generated rows per session; rounds past it wrap around.
    pub trace_rows: u32,
}

pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        // Many sessions, one tiny frame per session per tick: the wire
        // codec, reactor and shard handoff do the work, over a per-session
        // working set far larger than cache. No store, little fusion.
        "fleet" => Some(Workload {
            name: "fleet",
            sessions: 4096,
            modules: 4,
            rounds_per_frame: 1,
            durable: false,
            checkpoint_every: 1,
            offset_fault: false,
            shards: 1,
            reactors: 1,
            warm_rounds: 4,
            open_rate: 40_000.0,
            nominal_saturation: 160_000.0,
            window_rounds: 192,
            trace_rows: 128,
        }),
        // Few sessions, large frames, persistence on: WAL appends and the
        // per-round meta rewrite dominate; history voting and the AVOC
        // bootstrap do real work; wire cost is small.
        "durable_history" => Some(Workload {
            name: "durable_history",
            sessions: 64,
            modules: 5,
            rounds_per_frame: 16,
            durable: true,
            checkpoint_every: 64,
            offset_fault: true,
            shards: 1,
            reactors: 1,
            warm_rounds: 64,
            open_rate: 8_000.0,
            nominal_saturation: 60_000.0,
            window_rounds: 64 * 16,
            trace_rows: 2048,
        }),
        _ => None,
    }
}

pub const WORKLOADS: &[&str] = &["fleet", "durable_history"];

/// Every session's readings, `rows x modules` values each.
pub struct Inputs {
    pub modules: usize,
    pub rows: usize,
    values: Vec<Vec<f64>>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let modules = w.modules as usize;
        let rows = w.trace_rows as usize;
        let values = (0..w.sessions)
            .map(|s| {
                let session_seed = mix(seed, u64::from(s));
                let mut trace = LightScenario::new(modules, rows, session_seed).generate();
                if w.offset_fault {
                    trace = FaultInjector::new(3, FaultKind::Offset(6.0))
                        .apply(&trace, mix(session_seed, 4));
                }
                let mut flat = Vec::with_capacity(rows * modules);
                for r in 0..rows {
                    for v in trace.row(r) {
                        flat.push(v.expect("light traces have no missing readings"));
                    }
                }
                flat
            })
            .collect();
        Inputs {
            modules,
            rows,
            values,
        }
    }

    /// The reading of `module` in `round` of session index `s`.
    #[inline]
    pub fn value(&self, s: usize, round: u64, module: usize) -> f64 {
        let row = (round % self.rows as u64) as usize;
        self.values[s][row * self.modules + module]
    }

    /// FNV-1a over every generated value, in session/row/module order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for session in &self.values {
            for v in session {
                h.word(v.to_bits());
            }
        }
        h.0
    }
}

/// The order sessions are visited within a tick: a seeded permutation.
pub fn tick_order(sessions: u32, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..sessions).collect();
    for i in (1..order.len()).rev() {
        let j = (mix(seed ^ 0x7469_636b, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Wire id of session index `s` (ids start at 1).
pub fn session_id(s: usize) -> u64 {
    s as u64 + 1
}

/// Resume token of session index `s`.
pub fn session_token(seed: u64, s: usize) -> u64 {
    mix(seed ^ 0x0074_6f6b_656e, s as u64) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for name in WORKLOADS {
            let mut w = by_name(name).unwrap();
            w.sessions = w.sessions.min(32);
            let a = Inputs::generate(&w, 7);
            let b = Inputs::generate(&w, 7);
            let c = Inputs::generate(&w, 8);
            assert_eq!(a.values, b.values, "{name}: seed 7 twice differs");
            assert_eq!(a.digest(), b.digest());
            assert_ne!(a.digest(), c.digest(), "{name}: seeds 7 and 8 collide");
            assert_eq!(tick_order(w.sessions, 7), tick_order(w.sessions, 7));
        }
    }

    #[test]
    fn durable_inputs_carry_the_offset_fault_on_e4() {
        let mut w = by_name("durable_history").unwrap();
        w.sessions = 2;
        let inputs = Inputs::generate(&w, 3);
        let healthy = inputs.value(0, 10, 2);
        let faulty = inputs.value(0, 10, 3);
        assert!(faulty - healthy > 4.0, "E4 should read about +6 klm high");
    }
}
