//! The full middleware pipeline of Fig. 1, in-process: every sensor's
//! wire-protocol `Reading`/`Missing` messages → hub assembling rounds →
//! a VDX-configured voting engine fusing each one. Dropout faults are
//! injected so the missing-value path is exercised end to end.
//!
//! ```text
//! cargo run --release --example edge_pipeline
//! ```

use avoc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 5 light sensors, 200 rounds; sensor E2 drops 30% of its packets and
    // E4 reads +6 klm high.
    let clean = LightScenario::new(5, 200, 99).generate();
    let with_fault = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 1);
    let trace =
        FaultInjector::new(1, FaultKind::Dropout { probability: 0.3 }).apply(&with_fault, 2);
    println!("input: {trace}");

    // The edge voter service, configured purely by a VDX document.
    let mut spec = VdxSpec::avoc();
    spec.quorum = avoc::vdx::QuorumKind::Majority; // tolerate dropouts
    let outputs = EdgeVoter::new(spec)?.run_trace(&trace);

    let voted = outputs
        .iter()
        .filter(|o| matches!(o.result, Ok(RoundResult::Voted(_))))
        .count();
    let fallbacks = outputs
        .iter()
        .filter(|o| matches!(o.result, Ok(RoundResult::Fallback { .. })))
        .count();
    println!(
        "pipeline fused {} rounds: {} voted, {} fell back to last-good",
        outputs.len(),
        voted,
        fallbacks
    );

    // Spot-check: the fused output never follows the +6 klm fault.
    let mut max_out = f64::NEG_INFINITY;
    for o in &outputs {
        if let Ok(result) = &o.result {
            if let Some(v) = result.number() {
                max_out = max_out.max(v);
            }
        }
    }
    println!("maximum fused output: {max_out:.2} klm (faulty sensor reads ~24.5)");
    assert!(
        max_out < 20.0,
        "the fault must not leak through the pipeline"
    );
    println!("fault fully masked by the edge voter.");
    Ok(())
}
