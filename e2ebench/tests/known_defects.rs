//! Reproductions of defects the benchmark found, kept out of the
//! measured workloads so that their figures stay comparable, and
//! ignored until the defect is fixed. Run with
//! `cargo test --release -- --ignored`.

use dpu_e2ebench::ledger::Build;
use dpu_e2ebench::workloads::{sim_switch_scenario, SimSwitchShape};

/// `sim_switch` with 0.01% link loss: on seed 3 a switch seq→hier
/// leaves part of the 1024 stacks without 164 of 237 broadcasts,
/// permanently (the simulation goes quiet; a 40 s drain changes
/// nothing). Without loss, or with seq→seq switches under the same
/// loss, every broadcast is delivered everywhere.
#[test]
#[ignore = "known defect: a switch to or from abcast.hier under link loss stalls some stacks"]
fn hier_switch_under_loss_delivers_everything() {
    let shape = SimSwitchShape { rate: 60.0, load_s: 4.0, loss: 0.0001, ..SimSwitchShape::BENCH };
    let rep = sim_switch_scenario(shape, 3, 1, &Build::Plain);
    assert!(rep.out.violations.is_empty(), "{:?}", rep.out.violations);
    assert_eq!(
        rep.out.failed, 0,
        "{} of {} broadcasts missed some stack",
        rep.out.failed, rep.out.attempted
    );
}
