//! The edge voter service: the full Fig. 1 pipeline, VDX-configured.
//!
//! "We proposed voting definition format VDX that can be used to describe a
//! voting procedure to a compatible voter service running on an edge node"
//! (§8) — [`EdgeVoter`] is that service in-process: it takes a VDX document,
//! feeds every sensor's wire messages to a [`SensorHub`] and fuses each
//! assembled round on a [`VotingEngine`] — the same `hub.accept` →
//! `engine.submit_ref` path a daemon session runs, on the caller's thread.

use crate::hub::SensorHub;
use crate::message::Message;
use avoc_core::{ModuleId, Round, RoundResult, VotingEngine};
use avoc_sim::RecordedTrace;
use avoc_vdx::{build_engine, VdxError, VdxSpec};

/// One fused output, tagged with its round.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkOutput {
    /// The round this outcome belongs to.
    pub round: u64,
    /// The engine's outcome (vote, fallback, skip) or the surfaced error
    /// rendered as a string.
    pub result: Result<RoundResult, String>,
}

/// A VDX-configured edge voting service.
///
/// # Example
///
/// ```
/// use avoc_net::EdgeVoter;
/// use avoc_sim::LightScenario;
/// use avoc_vdx::VdxSpec;
///
/// let trace = LightScenario::new(5, 20, 3).generate();
/// let outputs = EdgeVoter::new(VdxSpec::avoc())?.run_trace(&trace);
/// assert_eq!(outputs.len(), 20);
/// assert!(outputs.iter().all(|o| o.result.is_ok()));
/// # Ok::<(), avoc_vdx::VdxError>(())
/// ```
#[derive(Debug)]
pub struct EdgeVoter {
    spec: VdxSpec,
}

impl EdgeVoter {
    /// Creates the service, validating the spec eagerly.
    ///
    /// # Errors
    ///
    /// Propagates [`VdxSpec::validate`] failures.
    pub fn new(spec: VdxSpec) -> Result<Self, VdxError> {
        spec.validate()?;
        Ok(EdgeVoter { spec })
    }

    /// The service's VDX definition.
    pub fn spec(&self) -> &VdxSpec {
        &self.spec
    }

    /// Replays a recorded trace through the full pipeline: each round,
    /// every sensor's `Reading`/`Missing` message goes to the hub, and every
    /// round the hub assembles is fused by the engine. Returns the
    /// per-round outputs in round order. Runs on the calling thread.
    pub fn run_trace(&self, trace: &RecordedTrace) -> Vec<SinkOutput> {
        let mut engine = build_engine(&self.spec).expect("spec validated in constructor");
        let mut hub = SensorHub::new(
            (0..trace.modules().len())
                .map(|i| ModuleId::new(i as u32))
                .collect(),
        );
        let mut outputs = Vec::with_capacity(trace.rounds());
        for idx in 0..trace.rounds() {
            let round = idx as u64;
            for (i, &value) in trace.row(idx).iter().enumerate() {
                let module = ModuleId::new(i as u32);
                let msg = match value {
                    Some(value) => Message::Reading {
                        module,
                        round,
                        value,
                    },
                    None => Message::Missing { module, round },
                };
                for ready in hub.accept(msg) {
                    outputs.push(fuse(&mut engine, &ready));
                }
            }
        }
        for ready in hub.flush_all() {
            outputs.push(fuse(&mut engine, &ready));
        }
        outputs
    }
}

fn fuse(engine: &mut VotingEngine, round: &Round) -> SinkOutput {
    SinkOutput {
        round: round.round,
        result: engine.submit_ref(round).cloned().map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_sim::{FaultInjector, FaultKind, LightScenario};

    #[test]
    fn pipeline_votes_every_round() {
        let trace = LightScenario::new(5, 40, 1).generate();
        let outputs = EdgeVoter::new(VdxSpec::avoc()).unwrap().run_trace(&trace);
        assert_eq!(outputs.len(), 40);
        for (i, o) in outputs.iter().enumerate() {
            assert_eq!(o.round, i as u64);
            assert!(o.result.is_ok());
        }
    }

    #[test]
    fn pipeline_masks_injected_fault() {
        let clean = LightScenario::new(5, 30, 2).generate();
        let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 0);
        let voter = EdgeVoter::new(VdxSpec::avoc()).unwrap();
        let outputs = voter.run_trace(&faulty);
        for o in &outputs {
            let val = match o.result.as_ref().unwrap() {
                RoundResult::Voted(v) => v.number().unwrap(),
                other => panic!("expected vote, got {other:?}"),
            };
            assert!(val < 20.0, "fault leaked into output: {val}");
        }
    }

    #[test]
    fn pipeline_handles_missing_values() {
        let clean = LightScenario::new(5, 30, 3).generate();
        let sparse =
            FaultInjector::new(1, FaultKind::Dropout { probability: 0.5 }).apply(&clean, 1);
        let mut spec = VdxSpec::avoc();
        // Majority quorum so dropped readings don't kill rounds.
        spec.quorum = avoc_vdx::QuorumKind::Majority;
        let outputs = EdgeVoter::new(spec).unwrap().run_trace(&sparse);
        assert_eq!(outputs.len(), 30);
        assert!(outputs.iter().all(|o| o.result.is_ok()));
    }

    #[test]
    fn invalid_spec_is_rejected_up_front() {
        let mut spec = VdxSpec::avoc();
        spec.params.error = f64::NAN;
        assert!(EdgeVoter::new(spec).is_err());
    }
}
