//! End-to-end chaos recovery proof.
//!
//! Drives the quick fig07 campaign under the pinned chaos seed — worker
//! panics, stalls, torn checkpoints, failed fsyncs, and whole-process
//! kills, all injected deterministically — and asserts the supervision
//! layer's headline guarantees:
//!
//! - the campaign completes (within the restart budget) and its reports
//!   materialize with every row present;
//! - every cell the chaos run recovered is **byte-identical** to the
//!   fault-free reference run;
//! - cells that exhaust their retries are quarantined into
//!   `failures.json` and tagged in the report, never silently dropped;
//! - every fault class in [`ChaosKind::ALL`] observably fired.
//!
//! The `chaos` binary runs the same proof from the command line;
//! `scripts/verify.sh` wires it into CI and records the recovery
//! overhead in `BENCH_chaos.json`.

use bear_bench::chaos::{drive, DriveConfig, SMOKE_SEED};
use bear_sim::faultinject::ChaosKind;
use std::fs;
use std::path::PathBuf;

#[test]
fn seeded_chaos_campaign_recovers_byte_identically() {
    let work_dir = std::env::temp_dir().join(format!("bear_chaos_test_{}", std::process::id()));
    let cfg = DriveConfig::smoke(
        SMOKE_SEED,
        PathBuf::from(env!("CARGO_BIN_EXE_all_experiments")),
        work_dir.clone(),
    );
    let outcome = drive(&cfg).unwrap_or_else(|e| panic!("chaos recovery proof failed: {e}"));

    // The pinned seed draws at least one of everything (see
    // `chaos::tests::smoke_seed_covers_every_chaos_kind`), so each
    // recovery path must leave its footprint.
    assert!(
        outcome.restarts >= 1,
        "a kill point must have fired (restarts = {})",
        outcome.restarts
    );
    assert!(
        outcome.rows_quarantined >= 1,
        "a persistent fault must have quarantined a cell"
    );
    assert!(
        outcome.healed >= 1,
        "a transient fault must have healed through retry"
    );
    assert!(
        outcome.absorbed >= 1,
        "a checkpoint fault must have been absorbed"
    );
    assert!(
        outcome.rows_identical >= 1,
        "recovered healthy rows must byte-match the reference"
    );
    for kind in ChaosKind::ALL {
        assert!(
            outcome.covered.iter().any(|c| c == kind.label()),
            "fault kind {:?} never fired under SMOKE_SEED (covered: {:?})",
            kind.label(),
            outcome.covered
        );
    }
    fs::remove_dir_all(&work_dir).ok();
}

/// A malformed supervision knob is a campaign-level fault: the campaign
/// must fail loudly instead of degrading every cell to a zeroed,
/// unrecorded placeholder row and publishing the report.
#[test]
fn malformed_retry_budget_fails_the_campaign() {
    let out = std::env::temp_dir().join(format!("bear_bad_retries_{}", std::process::id()));
    fs::remove_dir_all(&out).ok();
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_fig07_bab"))
        .arg("--out")
        .arg(&out)
        .env("BEAR_QUICK", "1")
        .env("BEAR_WARMUP", "2000")
        .env("BEAR_CYCLES", "2000")
        .env("BEAR_MAX_RETRIES", "abc")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run fig07_bab");
    assert!(!status.success(), "a malformed BEAR_MAX_RETRIES must fail");
    assert!(
        !out.join("fig07.json").exists(),
        "a failed campaign must not publish its report"
    );
    fs::remove_dir_all(&out).ok();
}
