#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Experiment harness for the BEAR reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). This library holds the shared
//! machinery: configuration presets, suite selection, normalized-speedup
//! computation, plain-text table formatting, the parallel grid [`runner`],
//! machine-readable [`report`]s, and the dependency-free [`microbench`]
//! harness.
//!
//! Environment knobs (all optional):
//! - `BEAR_QUICK=1` — shrink the suite (first 4 rate + 2 mixes) and halve
//!   the simulated windows; useful for smoke-testing every binary.
//! - `BEAR_WARMUP` / `BEAR_CYCLES` — override warmup/measure cycles.
//! - `BEAR_SCALE` — override the joint capacity scale shift.
//! - `BEAR_WORKERS` — worker threads for the grid runner (`1` = serial).
//!
//! Every experiment binary accepts `--out DIR` and then writes a
//! machine-readable JSON report next to its human-readable tables (see
//! [`report`] for the schema). `--scale {1/512,1/64,1/8,1}` selects a
//! joint capacity/budget preset (see
//! [`ScalePreset`](bear_core::config::ScalePreset)); the environment
//! knobs above still override it field by field.

use bear_core::config::{BearFeatures, DesignKind, ScalePreset, SystemConfig};
use bear_core::metrics::RunStats;
use bear_core::system::System;
use bear_cpu::metrics::{normalized_weighted_speedup, rate_mode_speedup};
use bear_sim::stats::geometric_mean;
use bear_workloads::{mix_workloads, named_mixes, rate_workloads, Workload};

pub mod chaos;
pub mod checkpoint;
pub mod cli;
pub mod daemon;
pub mod experiments;
pub mod metrics;
pub mod microbench;
pub mod report;
pub mod runner;
pub mod supervisor;
pub mod telemetry;

use bear_sim::error::RunOutcome;
use std::sync::Mutex;

/// Campaign-wide `--scale` preset, consulted by [`RunPlan::from_env`].
/// `None` means the default [`ScalePreset::Half512`] (the historical
/// 2 MB development scale).
static SCALE_PRESET: Mutex<Option<ScalePreset>> = Mutex::new(None);

/// Selects the joint capacity/budget scale for the rest of the process.
///
/// The CLI layer calls this once, before any plan is built; every
/// subsequent [`RunPlan::from_env`] picks the preset up. Explicit
/// `BEAR_SCALE` / `BEAR_WARMUP` / `BEAR_CYCLES` overrides still win over
/// the preset, knob by knob.
pub fn set_scale_preset(preset: ScalePreset) {
    *SCALE_PRESET.lock().unwrap() = Some(preset);
}

/// The active `--scale` preset (default [`ScalePreset::Half512`]).
pub fn scale_preset() -> ScalePreset {
    SCALE_PRESET.lock().unwrap().unwrap_or_default()
}

/// Cycle/scale parameters for one experiment campaign.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Warmup cycles before statistics reset.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Joint capacity scale shift (see DESIGN.md §2).
    pub scale_shift: u32,
}

impl RunPlan {
    /// The default experiment plan, honoring the active `--scale` preset
    /// and the environment knobs.
    pub fn from_env() -> Self {
        Self::from_env_with(scale_preset())
    }

    /// [`RunPlan::from_env`] under an explicit preset: the preset sets
    /// the capacity shift and multiplies the cycle budget (bigger caches
    /// need longer windows to warm), then the environment knobs override
    /// whichever fields they name.
    pub fn from_env_with(preset: ScalePreset) -> Self {
        let quick = quick_mode();
        let factor = preset.budget_factor();
        let mut plan = RunPlan {
            warmup: if quick { 400_000 } else { 1_500_000 } * factor,
            measure: if quick { 300_000 } else { 1_000_000 } * factor,
            scale_shift: preset.shift(),
        };
        if let Ok(v) = std::env::var("BEAR_WARMUP") {
            plan.warmup = v.parse().expect("BEAR_WARMUP must be an integer");
        }
        if let Ok(v) = std::env::var("BEAR_CYCLES") {
            plan.measure = v.parse().expect("BEAR_CYCLES must be an integer");
        }
        if let Ok(v) = std::env::var("BEAR_SCALE") {
            plan.scale_shift = v.parse().expect("BEAR_SCALE must be an integer");
        }
        plan
    }

    /// Applies the plan to a configuration.
    pub fn configure(&self, mut cfg: SystemConfig) -> SystemConfig {
        cfg.scale_shift = self.scale_shift;
        cfg.warmup_cycles = self.warmup;
        cfg.measure_cycles = self.measure;
        cfg
    }
}

/// Whether `BEAR_QUICK` is set.
pub fn quick_mode() -> bool {
    std::env::var("BEAR_QUICK").is_ok_and(|v| v != "0")
}

/// The rate-mode suite (possibly truncated in quick mode).
pub fn suite_rate() -> Vec<Workload> {
    let mut v = rate_workloads();
    if quick_mode() {
        v.truncate(4);
    }
    v
}

/// The mix suite (possibly truncated in quick mode).
pub fn suite_mix() -> Vec<Workload> {
    let mut v = mix_workloads();
    if quick_mode() {
        v.truncate(2);
    }
    v
}

/// The full evaluation suite.
pub fn suite_all() -> Vec<Workload> {
    let mut v = suite_rate();
    v.extend(suite_mix());
    v
}

/// Reduced suite for multi-configuration sensitivity sweeps (the paper
/// reports only aggregate bars for these): 16 rate + 8 named mixes.
pub fn suite_sensitivity() -> Vec<Workload> {
    let mut v = suite_rate();
    let mut m = named_mixes();
    if quick_mode() {
        m.truncate(2);
    }
    v.extend(m);
    v
}

/// Builds a configuration for `design` with `bear` features under `plan`.
pub fn config_for(design: DesignKind, bear: BearFeatures, plan: &RunPlan) -> SystemConfig {
    let mut cfg = plan.configure(SystemConfig::paper_baseline(design));
    if matches!(design, DesignKind::Alloy) {
        cfg.bear = bear;
    }
    cfg
}

/// Runs one workload under one configuration.
///
/// # Panics
///
/// Panics on any simulation failure. Grid code uses [`try_run_one`]
/// instead, which reports failures as typed errors.
pub fn run_one(cfg: &SystemConfig, workload: &Workload) -> RunStats {
    try_run_one(cfg, workload)
        .unwrap_or_else(|e| panic!("{} × {} failed: {e}", cfg.design.label(), workload.name))
}

/// Watches a freshly simulated cell: arms its system before the run and
/// collects from it afterwards. A cell reloaded from a store is never
/// built, so it is never observed — a resumed campaign does not rewrite
/// a finished cell's telemetry.
pub trait CellObserver {
    /// Called once the system is built, before the run starts.
    fn arm(&self, sys: &mut System);

    /// Called after a successful run, before the cell is committed.
    fn collect(&self, _cfg: &SystemConfig, _workload: &Workload, _sys: &mut System) {}
}

/// The one cell runner shared by campaigns and the daemon. Reloads the
/// cell when `store` holds it; otherwise builds it (validating the
/// configuration), lets `observer` arm it, runs it under the
/// forward-progress watchdog and commits the result to `store`. Returns
/// the stats and whether they were reloaded. Reads no process-wide seam
/// except an armed chaos plan at commit.
///
/// # Errors
///
/// Bad configs, watchdog stalls, and (in debug builds) invariant
/// violations, as typed errors.
pub fn run_cell_in(
    store: Option<&checkpoint::CellStore>,
    observer: Option<&dyn CellObserver>,
    cfg: &SystemConfig,
    workload: &Workload,
) -> RunOutcome<(RunStats, bool)> {
    if let Some(cached) = store.and_then(|s| s.load(cfg, workload)) {
        return Ok((cached, true));
    }
    let mut sys = System::try_build(cfg, workload)?;
    if let Some(o) = observer {
        o.arm(&mut sys);
    }
    let mut stats = sys.run_monitored(cfg.warmup_cycles, cfg.measure_cycles)?;
    stats.workload = workload.name.clone();
    if let Some(o) = observer {
        o.collect(cfg, workload, &mut sys);
    }
    if let Some(s) = store {
        s.commit(cfg, workload, &stats);
    }
    Ok((stats, false))
}

/// Fallible campaign cell runner: [`run_cell_in`] against the
/// campaign's active [`checkpoint`] store and [`telemetry`] sink, so an
/// interrupted campaign resumes and every experiment shares the cells
/// another one ran. Failures come back as typed
/// [`SimError`](bear_sim::error::SimError)s instead of panics.
///
/// When a campaign armed a [`metrics`] registry (`--metrics-out`), each
/// freshly simulated cell additionally records its attributed byte
/// decomposition there, and a reloaded cell counts as reused —
/// observability-only, never touching the stats.
///
/// # Errors
///
/// Whatever [`run_cell_in`] rejects.
pub fn try_run_one(cfg: &SystemConfig, workload: &Workload) -> RunOutcome<RunStats> {
    let sink = telemetry::active();
    let observer = sink.as_ref().map(|s| s as &dyn CellObserver);
    let (stats, reused) = run_cell_in(checkpoint::active().as_ref(), observer, cfg, workload)?;
    if reused {
        metrics::record_reuse(cfg);
    } else {
        metrics::record_cell(cfg, workload, &stats);
    }
    runner::heartbeat(cfg, workload);
    Ok(stats)
}

/// Normalized speedup of `sys` over `base` for `workload` (rate mode uses
/// throughput, mixes use weighted speedup — Section 3.3).
///
/// A quarantined *baseline* cell leaves zeroed placeholder stats behind;
/// dividing by those would violate the metrics' positive-baseline
/// contract and panic the whole experiment. Such a cell degrades to a
/// speedup of `0.0` instead — exactly the value [`gmean`] filters out —
/// so one dead baseline pollutes its workload's column, not the campaign.
pub fn speedup(workload: &Workload, sys: &RunStats, base: &RunStats) -> f64 {
    if base.ipc_per_core.len() != sys.ipc_per_core.len() {
        return 0.0;
    }
    if workload.is_rate {
        if base.ipc_per_core.iter().sum::<f64>() <= 0.0 {
            return 0.0;
        }
        rate_mode_speedup(&sys.ipc_per_core, &base.ipc_per_core)
    } else {
        if !base.ipc_per_core.iter().all(|&b| b > 0.0) {
            return 0.0;
        }
        normalized_weighted_speedup(&sys.ipc_per_core, &base.ipc_per_core)
    }
}

/// Geometric mean over the *surviving* values: non-finite and
/// non-positive entries — the speedups that quarantined placeholder
/// cells produce (0, `inf` against a zeroed baseline, `NaN`) — are
/// excluded, so one dead cell degrades its aggregate instead of
/// poisoning the whole experiment. With every cell healthy this is the
/// plain geometric mean, bit for bit.
pub fn gmean(values: &[f64]) -> f64 {
    let survivors: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    geometric_mean(&survivors)
}

/// Prints a row of fixed-width cells.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<16}");
    for c in cells {
        print!(" {c:>10}");
    }
    println!();
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_configures_config() {
        let plan = RunPlan {
            warmup: 10,
            measure: 20,
            scale_shift: 9,
        };
        let cfg = plan.configure(SystemConfig::paper_baseline(DesignKind::Alloy));
        assert_eq!(cfg.warmup_cycles, 10);
        assert_eq!(cfg.measure_cycles, 20);
        assert_eq!(cfg.scale_shift, 9);
    }

    #[test]
    fn scale_presets_move_shift_and_budget_together() {
        // Compare presets against each other rather than against absolute
        // numbers so the test is immune to BEAR_QUICK in the environment.
        let base = RunPlan::from_env_with(ScalePreset::Half512);
        assert_eq!(base.scale_shift, 9, "historical default preserved");
        for preset in ScalePreset::ALL {
            let plan = RunPlan::from_env_with(preset);
            assert_eq!(plan.scale_shift, preset.shift());
            assert_eq!(plan.warmup, base.warmup * preset.budget_factor());
            assert_eq!(plan.measure, base.measure * preset.budget_factor());
        }
    }

    #[test]
    fn config_for_applies_bear_only_to_alloy() {
        let plan = RunPlan {
            warmup: 1,
            measure: 1,
            scale_shift: 9,
        };
        let bear = config_for(DesignKind::Alloy, BearFeatures::full(), &plan);
        assert!(bear.bear.ntc);
        let lh = config_for(DesignKind::LohHill, BearFeatures::full(), &plan);
        assert!(!lh.bear.ntc, "non-Alloy designs ignore BEAR features");
    }

    #[test]
    fn speedup_dispatches_on_mode() {
        let rate = Workload::rate(bear_workloads::BenchmarkProfile::by_name("mcf").unwrap());
        let a = RunStats {
            ipc_per_core: vec![1.0, 1.0],
            ..Default::default()
        };
        let b = RunStats {
            ipc_per_core: vec![2.0, 0.5],
            ..Default::default()
        };
        // Rate: throughput ratio (2.5/2); weighted: (2 + 0.5)/2 = 1.25.
        assert!((speedup(&rate, &b, &a) - 1.25).abs() < 1e-12);
        let mix = Workload::mix(
            "m",
            ["mcf", "lbm", "mcf", "lbm", "mcf", "lbm", "mcf", "lbm"],
        );
        let a8 = RunStats {
            ipc_per_core: vec![1.0; 8],
            ..Default::default()
        };
        let mut b8 = RunStats {
            ipc_per_core: vec![1.0; 8],
            ..Default::default()
        };
        b8.ipc_per_core[0] = 3.0;
        assert!((speedup(&mix, &b8, &a8) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn quarantined_baseline_degrades_speedup_instead_of_panicking() {
        let rate = Workload::rate(bear_workloads::BenchmarkProfile::by_name("mcf").unwrap());
        let mix = Workload::mix(
            "m",
            ["mcf", "lbm", "mcf", "lbm", "mcf", "lbm", "mcf", "lbm"],
        );
        let healthy = RunStats {
            ipc_per_core: vec![1.0; 8],
            ..Default::default()
        };
        // A quarantined cell's placeholder: zeroed stats.
        let placeholder = RunStats::default();
        assert_eq!(speedup(&rate, &healthy, &placeholder), 0.0);
        assert_eq!(speedup(&mix, &healthy, &placeholder), 0.0);
        let mut one_dead_core = healthy.clone();
        one_dead_core.ipc_per_core[3] = 0.0;
        assert_eq!(speedup(&mix, &healthy, &one_dead_core), 0.0);
        // Rate mode only needs positive total throughput.
        assert!(speedup(&rate, &healthy, &one_dead_core) > 1.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
