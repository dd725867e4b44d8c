//! Harness-level chaos injection and the campaign recovery proof.
//!
//! The supervision layer ([`crate::supervisor`]) claims that campaigns
//! survive worker panics, wedged cells, torn checkpoints, failed fsyncs,
//! and whole-process kills. This module makes that claim testable the
//! same way the PR 3 shadow oracle made the cycle model testable: by
//! deterministically *injecting* every one of those faults into a real
//! campaign and asserting the recovered output.
//!
//! Two halves:
//!
//! - **Injection** (in-process): when `BEAR_CHAOS_SEED` is set, the
//!   campaign driver arms a seeded, replayable
//!   [`ChaosPlan`](bear_sim::faultinject::ChaosPlan). The supervisor
//!   consults it per attempt ([`attempt_fault`]) to inject worker panics
//!   and stalls; the checkpoint layer consults it per store
//!   ([`checkpoint_fault_for`]) to tear files or fail fsyncs; and every
//!   successful cell completion ([`on_cell_complete`]) may hit a kill
//!   point that aborts the whole process. Kill points are gated by
//!   marker files under the report directory, so a resumed campaign does
//!   not re-fire a spent kill. All decisions key on the cell's stable
//!   identity hash — worker count, scheduling, and restarts cannot
//!   change which cells draw which faults.
//!
//! - **Driving** (out-of-process): [`drive`] runs a fault-free reference
//!   campaign and then the same campaign under chaos (restarting it each
//!   time a kill point fires), and compares the recovered report against
//!   the reference — **byte-identical** rows for every cell the chaos
//!   run completed. The `chaos` binary and the `tests/chaos.rs` suite
//!   are thin wrappers over it; `scripts/verify.sh` runs it with the
//!   pinned [`SMOKE_SEED`] and publishes `BENCH_chaos.json`.

use crate::report::Json;
use crate::{checkpoint, config_for, RunPlan};
use bear_core::config::{BearFeatures, DesignKind, SystemConfig};
use bear_sim::error::SimError;
use bear_sim::faultinject::{ChaosFault, ChaosKind, ChaosPlan};
use bear_workloads::Workload;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::Instant;

/// How long an injected stall wedges its attempt (must exceed
/// [`STALL_DEADLINE_MS`], so the deadline — not the sleep — decides).
const STALL_SLEEP_MS: u64 = 400;

/// The per-attempt deadline a chaos stall carries with it: short, so the
/// injected wedge converts into a [`SimError::Timeout`] quickly instead
/// of stretching the test suite.
const STALL_DEADLINE_MS: u64 = 150;

/// The fixed seed `scripts/verify.sh` and the chaos test suite drive the
/// quick fig07 grid with. Pinned (see `smoke_seed_covers_every_chaos_kind`)
/// to draw every fault class in [`ChaosKind::ALL`] — transient and
/// persistent attempt faults, both checkpoint faults, and the kill
/// points — on that grid.
pub const SMOKE_SEED: u64 = 41;

/// Armed chaos state for this process.
#[derive(Debug)]
struct Armed {
    plan: ChaosPlan,
    /// Report directory: kill markers live in `out/chaos-kills/`.
    out: PathBuf,
    /// Successful cell completions so far (kill-point clock).
    completed: u64,
}

static ARMED: Mutex<Option<Armed>> = Mutex::new(None);

/// Arms chaos injection from `BEAR_CHAOS_SEED`, if set. Campaign drivers
/// call this once at startup; without the variable this is a no-op and
/// the campaign behaves exactly as before this layer existed.
///
/// # Panics
///
/// Panics when `BEAR_CHAOS_SEED` is set without an `--out` directory
/// (kill markers and the failure manifest need somewhere durable) or is
/// not an integer.
pub fn arm_from_env(out: Option<&Path>) {
    let Ok(v) = std::env::var("BEAR_CHAOS_SEED") else {
        return;
    };
    let seed: u64 = v.parse().expect("BEAR_CHAOS_SEED must be an integer");
    let out = out
        .unwrap_or_else(|| {
            panic!("BEAR_CHAOS_SEED requires --out DIR (kill markers land in DIR/chaos-kills/)")
        })
        .to_path_buf();
    let plan = ChaosPlan::new(seed);
    eprintln!(
        "[chaos: armed with seed {seed}; kill points at completions {:?}]",
        plan.kill_points
    );
    *ARMED.lock().expect("chaos state poisoned") = Some(Armed {
        plan,
        out,
        completed: 0,
    });
}

/// The armed chaos seed, if any (recorded in the failure manifest).
pub fn armed_seed() -> Option<u64> {
    ARMED
        .lock()
        .expect("chaos state poisoned")
        .as_ref()
        .map(|a| a.plan.seed)
}

/// The attempt-level fault to inject into attempt `attempt` of the cell
/// identified by `key`, if chaos is armed and the plan drew one.
pub(crate) fn attempt_fault(key: u64, attempt: u32) -> Option<ChaosFault> {
    ARMED
        .lock()
        .expect("chaos state poisoned")
        .as_ref()
        .and_then(|a| a.plan.attempt_fault(key, attempt))
}

/// The deadline (ms) an injected stall imposes on its attempt, if
/// `fault` is a stall. Other faults defer to the campaign policy.
pub(crate) fn stall_deadline_ms(fault: Option<ChaosFault>) -> Option<u64> {
    fault
        .filter(|f| f.kind == ChaosKind::Stall)
        .map(|_| STALL_DEADLINE_MS)
}

/// Applies `fault` at the start of an attempt. A worker panic panics
/// (recovered by the supervisor's panic capture); a stall sleeps past
/// its deadline and returns a synthetic stalled error — the attempt
/// never reaches the real simulation, so an abandoned stalled attempt
/// cannot race its own retry. Returns `None` (run the real attempt) for
/// no fault or checkpoint-level kinds.
pub(crate) fn apply_attempt_fault(fault: Option<ChaosFault>) -> Option<SimError> {
    match fault.map(|f| f.kind) {
        Some(ChaosKind::WorkerPanic) => panic!("chaos: injected worker panic"),
        Some(ChaosKind::Stall) => {
            std::thread::sleep(std::time::Duration::from_millis(STALL_SLEEP_MS));
            Some(SimError::Stalled {
                cycle: 0,
                snapshot: "chaos: injected stall".into(),
            })
        }
        _ => None,
    }
}

/// The checkpoint-persistence fault to inject when storing the given
/// cell, if chaos is armed and the plan drew one.
pub(crate) fn checkpoint_fault_for(cfg: &SystemConfig, workload: &Workload) -> Option<ChaosKind> {
    let key = checkpoint::cell_hash(cfg, workload);
    ARMED
        .lock()
        .expect("chaos state poisoned")
        .as_ref()
        .and_then(|a| a.plan.checkpoint_fault(key))
}

/// Notes one successful cell completion; if the plan scheduled a kill at
/// this count (and it has not fired in a previous incarnation of this
/// campaign — marker files under `out/chaos-kills/` gate each point),
/// aborts the whole process, exactly as `kill -9` would.
pub(crate) fn on_cell_complete() {
    let mut guard = ARMED.lock().expect("chaos state poisoned");
    let Some(armed) = guard.as_mut() else {
        return;
    };
    armed.completed += 1;
    let Some(point) = armed.plan.kill_due(armed.completed) else {
        return;
    };
    let dir = armed.out.join("chaos-kills");
    let marker = dir.join(format!("kill-{point}.marker"));
    if marker.exists() {
        return; // this kill point already fired in a previous run
    }
    fs::create_dir_all(&dir).ok();
    if let Ok(f) = fs::File::create(&marker) {
        f.sync_all().ok();
    }
    eprintln!(
        "[chaos: kill point {point} at completion {} — aborting]",
        armed.completed
    );
    std::process::abort();
}

// ---------------------------------------------------------------------
// The out-of-process driver: fault-free reference vs chaos run.
// ---------------------------------------------------------------------

/// Parameters of one chaos campaign drive.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Chaos seed for the run under test.
    pub seed: u64,
    /// Path of the `all_experiments` campaign binary.
    pub campaign_bin: PathBuf,
    /// Scratch directory (wiped): reference and chaos runs land in
    /// `ref/` and `chaos/` beneath it.
    pub work_dir: PathBuf,
    /// Experiment subset to drive (`--only`), normally `"fig07"`.
    pub only: String,
    /// Restart budget for kill points; exceeded = failure.
    pub max_restarts: u32,
}

impl DriveConfig {
    /// The standard smoke drive: `seed` on the quick fig07 grid.
    pub fn smoke(seed: u64, campaign_bin: PathBuf, work_dir: PathBuf) -> Self {
        DriveConfig {
            seed,
            campaign_bin,
            work_dir,
            only: "fig07".into(),
            max_restarts: 8,
        }
    }
}

/// What a [`drive`] proved, plus the overhead numbers for
/// `BENCH_chaos.json`.
#[derive(Debug, Clone)]
pub struct DriveOutcome {
    /// Times the chaos campaign was restarted after a kill point.
    pub restarts: u32,
    /// Wall-clock of the fault-free reference run, seconds.
    pub fault_free_secs: f64,
    /// Total wall-clock of the chaos run across restarts, seconds.
    pub chaos_secs: f64,
    /// Rows whose full bytes matched the reference.
    pub rows_identical: usize,
    /// Rows degraded to quarantine placeholders.
    pub rows_quarantined: usize,
    /// Healed cells (failed at least once, recovered by retry).
    pub healed: usize,
    /// Absorbed checkpoint faults.
    pub absorbed: usize,
    /// Chaos fault labels that observably fired (manifest + kills).
    pub covered: Vec<String>,
}

impl DriveOutcome {
    /// The `BENCH_chaos.json` document for this outcome.
    pub fn bench_json(&self, seed: u64, only: &str) -> Json {
        Json::Obj(vec![
            ("benchmark".into(), Json::Str("chaos-recovery".into())),
            ("seed".into(), Json::uint(seed)),
            ("grid".into(), Json::Str(format!("{only} (quick)"))),
            ("fault_free_secs".into(), Json::Num(self.fault_free_secs)),
            ("chaos_secs".into(), Json::Num(self.chaos_secs)),
            (
                "recovery_overhead".into(),
                Json::Num(self.chaos_secs / self.fault_free_secs.max(1e-9)),
            ),
            ("restarts".into(), Json::uint(self.restarts as u64)),
            (
                "rows_identical".into(),
                Json::uint(self.rows_identical as u64),
            ),
            (
                "rows_quarantined".into(),
                Json::uint(self.rows_quarantined as u64),
            ),
            ("healed".into(), Json::uint(self.healed as u64)),
            ("absorbed".into(), Json::uint(self.absorbed as u64)),
            (
                "covered".into(),
                Json::Arr(self.covered.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
        ])
    }
}

/// The pinned environment both the reference and the chaos campaign run
/// under: quick suite, short windows, two workers (so worker scheduling
/// differs from the serial reference order — determinism must not lean
/// on it).
fn campaign_env(cmd: &mut Command) {
    cmd.env("BEAR_QUICK", "1")
        .env("BEAR_WARMUP", "30000")
        .env("BEAR_CYCLES", "80000")
        .env("BEAR_SCALE", "12")
        .env("BEAR_WORKERS", "2")
        .env_remove("BEAR_CHAOS_SEED")
        .env_remove("BEAR_CELL_DEADLINE_MS");
}

/// The smoke grid's pinned plan (must match [`campaign_env`]).
fn smoke_plan() -> RunPlan {
    RunPlan {
        warmup: 30_000,
        measure: 80_000,
        scale_shift: 12,
    }
}

/// Cell identity keys of the chaos smoke grid: fig07 (Alloy baseline ×
/// BAB) over the quick suite, under the pinned plan [`drive`] uses. The
/// seed-coverage test checks [`SMOKE_SEED`] against exactly these keys.
pub fn smoke_grid_keys() -> Vec<u64> {
    let plan = smoke_plan();
    let cfgs = [
        config_for(DesignKind::Alloy, BearFeatures::none(), &plan),
        config_for(DesignKind::Alloy, BearFeatures::bab(), &plan),
    ];
    let mut suite: Vec<Workload> = bear_workloads::rate_workloads();
    suite.truncate(4);
    let mut mixes = bear_workloads::mix_workloads();
    mixes.truncate(2);
    suite.extend(mixes);
    cfgs.iter()
        .flat_map(|c| suite.iter().map(|w| checkpoint::cell_hash(c, w)))
        .collect()
}

/// Runs the campaign binary once; returns `Ok(secs)` on clean exit,
/// `Err(secs)` when it died (a fired kill point).
fn run_campaign(cfg: &DriveConfig, out: &Path, chaos: bool) -> Result<f64, f64> {
    let mut cmd = Command::new(&cfg.campaign_bin);
    cmd.args(["--only", &cfg.only, "--out"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    campaign_env(&mut cmd);
    if chaos {
        cmd.env("BEAR_CHAOS_SEED", cfg.seed.to_string())
            .env("BEAR_MAX_RETRIES", "2")
            .env("BEAR_RETRY_BASE_MS", "1");
    }
    let t0 = Instant::now();
    let status = cmd.status().expect("spawn campaign binary");
    let secs = t0.elapsed().as_secs_f64();
    if status.success() {
        Ok(secs)
    } else {
        Err(secs)
    }
}

/// Runs the full recovery proof: fault-free reference, chaos campaign
/// (restarted across kill points), then the row-by-row comparison and
/// fault-coverage accounting described in the module docs.
///
/// # Errors
///
/// A human-readable explanation of the first violated property: the
/// reference failing, the restart budget exhausting, a recovered row
/// differing from the reference, or a manifest inconsistency.
pub fn drive(cfg: &DriveConfig) -> Result<DriveOutcome, String> {
    fs::remove_dir_all(&cfg.work_dir).ok();
    let ref_dir = cfg.work_dir.join("ref");
    let chaos_dir = cfg.work_dir.join("chaos");
    fs::create_dir_all(&ref_dir).map_err(|e| format!("creating {ref_dir:?}: {e}"))?;

    let fault_free_secs =
        run_campaign(cfg, &ref_dir, false).map_err(|_| "reference campaign failed".to_string())?;

    let mut restarts = 0u32;
    let mut chaos_secs = 0.0;
    loop {
        match run_campaign(cfg, &chaos_dir, true) {
            Ok(secs) => {
                chaos_secs += secs;
                break;
            }
            Err(secs) => {
                chaos_secs += secs;
                restarts += 1;
                if restarts > cfg.max_restarts {
                    return Err(format!(
                        "chaos campaign still dying after {restarts} restarts"
                    ));
                }
            }
        }
    }

    let report_name = format!("{}.json", cfg.only);
    let ref_doc = read_json(&ref_dir.join(&report_name))?;
    let chaos_doc = read_json(&chaos_dir.join(&report_name))?;
    let manifest = read_json(&chaos_dir.join("failures.json"))?;

    compare_reports(&ref_doc, &chaos_doc, &manifest, restarts).map(|mut outcome| {
        outcome.restarts = restarts;
        outcome.fault_free_secs = fault_free_secs;
        outcome.chaos_secs = chaos_secs;
        outcome
    })
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parsing {path:?}: {e}"))
}

fn rows_of(doc: &Json) -> Result<&[Json], String> {
    doc.get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| "report has no rows array".to_string())
}

fn row_key(row: &Json) -> (String, String) {
    (
        row.get("config")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        row.get("workload")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
    )
}

/// The recovered-report checks: every chaos row either byte-matches the
/// reference (healthy cells — including ones that were healed, torn, or
/// resumed across a kill) or carries a `status` tag matched by a
/// quarantine entry in the manifest. Cell-local `stats` must match the
/// reference even for rows whose *speedup* was polluted by a failed
/// baseline cell of the same workload.
fn compare_reports(
    ref_doc: &Json,
    chaos_doc: &Json,
    manifest: &Json,
    restarts: u32,
) -> Result<DriveOutcome, String> {
    let ref_rows = rows_of(ref_doc)?;
    let chaos_rows = rows_of(chaos_doc)?;
    if ref_rows.len() != chaos_rows.len() {
        return Err(format!(
            "row count diverged: reference {}, chaos {}",
            ref_rows.len(),
            chaos_rows.len()
        ));
    }

    let section = |name: &str| -> Vec<&Json> {
        manifest
            .get(name)
            .and_then(Json::as_arr)
            .map(|a| a.iter().collect())
            .unwrap_or_default()
    };
    let quarantined = section("quarantined");
    let healed = section("healed");
    let absorbed = section("absorbed");

    // Workloads touched by any quarantine: their *other* rows have
    // baseline-polluted speedups, so only their stats are comparable.
    let failed_workloads: Vec<String> = quarantined
        .iter()
        .filter_map(|r| r.get("workload").and_then(Json::as_str))
        .map(str::to_string)
        .collect();

    let mut rows_identical = 0usize;
    let mut rows_quarantined = 0usize;
    for (r, c) in ref_rows.iter().zip(chaos_rows) {
        if row_key(r) != row_key(c) {
            return Err(format!(
                "row order diverged: {:?} vs {:?}",
                row_key(r),
                row_key(c)
            ));
        }
        let (config, workload) = row_key(c);
        if let Some(status) = c.get("status").and_then(Json::as_str) {
            rows_quarantined += 1;
            // Manifest entries carry the cell's design label; report rows
            // carry the experiment's label for the config. The row's
            // stats.design bridges the two (placeholders inherit it from
            // their config), mirroring `Report::mark_degraded_rows`.
            let design = c
                .get("stats")
                .and_then(|s| s.get("design"))
                .and_then(Json::as_str)
                .unwrap_or_default();
            let matched = quarantined.iter().any(|q| {
                q.get("workload").and_then(Json::as_str) == Some(&workload)
                    && q.get("config")
                        .and_then(Json::as_str)
                        .is_some_and(|qc| qc == config || qc == design)
            });
            if !matched {
                return Err(format!(
                    "row {config} × {workload} has status {status:?} \
                     but no quarantine entry in failures.json"
                ));
            }
            continue;
        }
        if c.get("stats").map(Json::to_string) != r.get("stats").map(Json::to_string) {
            return Err(format!(
                "recovered stats for {config} × {workload} differ from the fault-free run"
            ));
        }
        if failed_workloads.contains(&workload) {
            continue; // speedup is baseline-polluted; stats matched above
        }
        if c.to_string() != r.to_string() {
            return Err(format!(
                "recovered row {config} × {workload} is not byte-identical \
                 to the fault-free run"
            ));
        }
        rows_identical += 1;
    }

    if rows_quarantined == 0 {
        let (r, c) = (
            ref_doc.get("rows").map(Json::to_string),
            chaos_doc.get("rows").map(Json::to_string),
        );
        if r != c {
            return Err("no quarantines, yet the rows arrays differ".into());
        }
    }

    // Every quarantined cell must appear as a failure in the report too
    // (graceful degradation: the report itself names what broke).
    let report_failures = chaos_doc
        .get("failures")
        .and_then(Json::as_arr)
        .ok_or("report has no failures array")?;
    if report_failures.len() != quarantined.len() {
        return Err(format!(
            "report failures ({}) and manifest quarantines ({}) disagree",
            report_failures.len(),
            quarantined.len()
        ));
    }

    let mut covered: Vec<String> = quarantined
        .iter()
        .chain(&healed)
        .chain(&absorbed)
        .filter_map(|r| r.get("chaos").and_then(Json::as_str))
        .map(str::to_string)
        .collect();
    if restarts > 0 {
        covered.push(ChaosKind::Kill.label().to_string());
    }
    covered.sort();
    covered.dedup();

    Ok(DriveOutcome {
        restarts: 0,
        fault_free_secs: 0.0,
        chaos_secs: 0.0,
        rows_identical,
        rows_quarantined,
        healed: healed.len(),
        absorbed: absorbed.len(),
        covered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// What the smoke seed must draw on the smoke grid for the chaos
    /// suite to exercise every recovery path.
    fn coverage(seed: u64, keys: &[u64]) -> (BTreeSet<&'static str>, bool, bool) {
        let plan = ChaosPlan::new(seed);
        let mut labels = BTreeSet::new();
        let (mut transient, mut persistent) = (false, false);
        let mut quarantined = 0u64;
        for &key in keys {
            let fault = plan.attempt_fault(key, 0);
            if let Some(f) = fault {
                labels.insert(f.kind.label());
                transient |= !f.persistent;
                persistent |= f.persistent;
                quarantined += u64::from(f.persistent);
            }
            // A checkpoint fault only fires when the cell actually
            // stores; a persistently-failing cell never reaches the
            // checkpoint layer, so its draw is masked at runtime.
            if fault.is_none_or(|f| !f.persistent) {
                if let Some(k) = plan.checkpoint_fault(key) {
                    labels.insert(k.label());
                }
            }
        }
        // A kill point at completion count `k` fires only if that many
        // cells can complete; quarantined cells never do.
        let cells = keys.len() as u64;
        let kills_reachable = plan.kill_points.iter().all(|&k| k + quarantined <= cells);
        if kills_reachable {
            labels.insert(ChaosKind::Kill.label());
        }
        (labels, transient, persistent)
    }

    #[test]
    fn smoke_seed_covers_every_chaos_kind() {
        let keys = smoke_grid_keys();
        assert_eq!(
            keys.len(),
            12,
            "fig07 quick grid is 2 configs × 6 workloads"
        );
        let (labels, transient, persistent) = coverage(SMOKE_SEED, &keys);
        for kind in ChaosKind::ALL {
            assert!(
                labels.contains(kind.label()),
                "SMOKE_SEED {SMOKE_SEED} does not draw {:?} on the smoke \
                 grid (drew {labels:?}); re-pin the seed",
                kind.label()
            );
        }
        assert!(transient, "need a healed (transient) fault");
        assert!(persistent, "need a quarantined (persistent) fault");
    }

    /// Seed scout: run with `--ignored --nocapture` to re-pin
    /// [`SMOKE_SEED`] after the smoke grid changes.
    #[test]
    #[ignore = "manual seed search tool"]
    fn find_smoke_seed() {
        let keys = smoke_grid_keys();
        for seed in 0..100_000u64 {
            let (labels, transient, persistent) = coverage(seed, &keys);
            if transient && persistent && ChaosKind::ALL.iter().all(|k| labels.contains(k.label()))
            {
                println!("seed {seed} covers: {labels:?}");
                return;
            }
        }
        panic!("no covering seed below 100000");
    }

    #[test]
    fn disarmed_chaos_is_inert() {
        assert_eq!(armed_seed(), None);
        assert_eq!(attempt_fault(123, 0), None);
        assert_eq!(apply_attempt_fault(None), None);
        on_cell_complete(); // no plan, no kill
    }
}
