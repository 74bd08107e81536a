//! The correctness oracle behind `failed`/`error_frac`: replays every
//! session's generated readings in-process through the same layers the
//! daemon runs (`SensorHub` round assembly, `build_engine`,
//! `VotingEngine::submit_ref`) and compares every verdict bit for bit.

use crate::stats::now_ns;
use crate::wire::{Ledger, GOT, SOME, VOTED};
use crate::workload::Inputs;
use avoc_core::{ModuleId, RoundResult};
use avoc_net::{Message, SensorHub};
use avoc_serve::ServeConfig;
use avoc_vdx::{build_engine, VdxSpec};

#[derive(Default)]
pub struct Outcome {
    /// Rounds the oracle fused (each should have one identical verdict).
    pub rounds: u64,
    /// Verdicts that differ from the replay in value bits or `voted`.
    pub mismatched: u64,
    /// Replayed rounds the daemon never answered.
    pub missing: u64,
    /// Verdicts for rounds the replay never fused.
    pub extra: u64,
    /// Rounds the replay surfaced as engine errors.
    pub engine_errors: u64,
    /// Rounds whose verdict came from AVOC's clustering bootstrap.
    pub bootstrap_rounds: u64,
    /// Timed replay only: total ns in `SensorHub::accept`, and readings.
    pub hub_ns: u64,
    pub hub_readings: u64,
    /// Timed replay only: ns per `submit_ref` call.
    pub engine_ns: Vec<u64>,
}

impl Outcome {
    fn merge(&mut self, o: Outcome) {
        self.rounds += o.rounds;
        self.mismatched += o.mismatched;
        self.missing += o.missing;
        self.extra += o.extra;
        self.engine_errors += o.engine_errors;
        self.bootstrap_rounds += o.bootstrap_rounds;
        self.hub_ns += o.hub_ns;
        self.hub_readings += o.hub_readings;
        self.engine_ns.extend(o.engine_ns);
    }
}

/// Replays sessions `range` for rounds `0..rounds`; a memory-only daemon
/// restarted at round `r` (in `resets`) starts from a fresh hub and engine
/// there, exactly as the replay does.
fn replay_range(
    inputs: &Inputs,
    spec: &VdxSpec,
    range: std::ops::Range<usize>,
    rounds: u64,
    resets: &[u64],
    ledger: &Ledger,
    timed: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let lag = ServeConfig::default().lag_tolerance;
    let expected: Vec<ModuleId> = (0..inputs.modules as u32).map(ModuleId::new).collect();
    let fresh = || {
        (
            SensorHub::new(expected.clone()).with_lag_tolerance(lag),
            build_engine(spec).expect("spec builds"),
        )
    };
    for s in range {
        let (mut hub, mut engine) = fresh();
        let mut fused = vec![false; rounds as usize];
        for r in 0..rounds {
            if resets.contains(&r) {
                (hub, engine) = fresh();
            }
            for m in 0..inputs.modules {
                let msg = Message::Reading {
                    module: ModuleId::new(m as u32),
                    round: r,
                    value: inputs.value(s, r, m),
                };
                let t = if timed { now_ns() } else { 0 };
                let ready = hub.accept(msg);
                if timed {
                    out.hub_ns += now_ns() - t;
                    out.hub_readings += 1;
                }
                for round in ready {
                    let t = if timed { now_ns() } else { 0 };
                    let result = engine.submit_ref(&round);
                    if timed {
                        out.engine_ns.push(now_ns() - t);
                    }
                    let idx = round.round as usize;
                    let flag = ledger.flags[s].get(idx).copied().unwrap_or(0);
                    match result {
                        Ok(res) => {
                            out.rounds += 1;
                            if idx < fused.len() {
                                fused[idx] = true;
                            }
                            if let RoundResult::Voted(v) = res {
                                if v.bootstrapped {
                                    out.bootstrap_rounds += 1;
                                }
                            }
                            let mut want = GOT;
                            let mut bits = 0;
                            if let Some(v) = res.number() {
                                want |= SOME;
                                bits = v.to_bits();
                            }
                            if res.is_voted() {
                                want |= VOTED;
                            }
                            if flag & GOT == 0 {
                                out.missing += 1;
                            } else if flag != want
                                || (want & SOME != 0 && ledger.values[s][idx] != bits)
                            {
                                out.mismatched += 1;
                            }
                        }
                        Err(_) => out.engine_errors += 1,
                    }
                }
            }
        }
        out.extra += ledger.flags[s]
            .iter()
            .zip(&fused)
            .filter(|(f, done)| **f & GOT != 0 && !**done)
            .count() as u64;
    }
    out
}

/// Replays every session on `threads` scoped threads.
pub fn replay(
    inputs: &Inputs,
    sessions: usize,
    rounds: u64,
    resets: &[u64],
    ledger: &Ledger,
    timed: bool,
    threads: usize,
) -> Outcome {
    let spec = VdxSpec::avoc();
    let per = sessions.div_ceil(threads.max(1));
    let mut total = Outcome::default();
    // The calling thread replays the last range itself, so the process
    // never runs more than `threads` threads.
    let starts: Vec<usize> = (0..sessions).step_by(per.max(1)).collect();
    std::thread::scope(|scope| {
        let spec = &spec;
        let handles: Vec<_> = starts[..starts.len().saturating_sub(1)]
            .iter()
            .map(|&start| {
                let end = (start + per).min(sessions);
                scope.spawn(move || {
                    replay_range(inputs, spec, start..end, rounds, resets, ledger, timed)
                })
            })
            .collect();
        if let Some(&start) = starts.last() {
            total.merge(replay_range(
                inputs,
                spec,
                start..sessions,
                rounds,
                resets,
                ledger,
                timed,
            ));
        }
        for h in handles {
            total.merge(h.join().expect("replay worker"));
        }
    });
    total
}

/// Times `submit_ref` alone for sessions `0..sessions` over `rounds`
/// under `spec` (rounds pre-assembled, so only the engine is measured).
pub fn engine_ns_per_round(
    inputs: &Inputs,
    spec: &VdxSpec,
    sessions: usize,
    rounds: u64,
) -> Vec<u64> {
    let lag = ServeConfig::default().lag_tolerance;
    let expected: Vec<ModuleId> = (0..inputs.modules as u32).map(ModuleId::new).collect();
    let mut ns = Vec::with_capacity(sessions * rounds as usize);
    for s in 0..sessions {
        let mut hub = SensorHub::new(expected.clone()).with_lag_tolerance(lag);
        let mut engine = build_engine(spec).expect("spec builds");
        for r in 0..rounds {
            for m in 0..inputs.modules {
                let ready = hub.accept(Message::Reading {
                    module: ModuleId::new(m as u32),
                    round: r,
                    value: inputs.value(s, r, m),
                });
                for round in ready {
                    let t = now_ns();
                    let _ = engine.submit_ref(&round);
                    ns.push(now_ns() - t);
                }
            }
        }
    }
    ns
}
