//! The simulated cells the benchmark runs, their digests, and the
//! fidelity arithmetic shared with fig12 / fig13 / table4.

use bear_bench::report::stats_to_json;
use bear_bench::{config_for, RunPlan};
use bear_core::config::{BearFeatures, DesignKind, ScalePreset, SystemConfig};
use bear_core::metrics::{BloatBreakdown, RunStats};
use bear_core::system::System;
use bear_workloads::{mix_workloads, rate_workloads, BenchmarkProfile, Workload};
use std::time::Instant;

/// The paper's headline deltas of BEAR over Alloy (ALL54, Section 6).
pub const PAPER_SPEEDUP_PCT: f64 = 10.1;
/// Bloat-factor change of BEAR vs Alloy in the paper, percent.
pub const PAPER_BLOAT_PCT: f64 = -32.0;
/// Hit-latency change of BEAR vs Alloy in the paper, percent.
pub const PAPER_HIT_LATENCY_PCT: f64 = -24.0;

/// The development plan at 1/512 scale (what `all_experiments` runs by
/// default), spelled out so environment knobs cannot change it.
pub fn dev_plan() -> RunPlan {
    RunPlan {
        warmup: 1_500_000,
        measure: 1_000_000,
        scale_shift: ScalePreset::Half512.shift(),
    }
}

/// The `BEAR_QUICK=1` plan at 1/512 scale.
pub fn quick_plan() -> RunPlan {
    RunPlan {
        warmup: 400_000,
        measure: 300_000,
        scale_shift: ScalePreset::Half512.shift(),
    }
}

/// One (configuration, workload) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Design label used in reports (`Alloy`, `BEAR`, `LohHill`, `TIS`).
    pub label: &'static str,
    /// Fully configured system.
    pub cfg: SystemConfig,
    /// Workload the cores run.
    pub workload: Workload,
}

/// The rate-mode workload for a SPEC benchmark name.
fn rate(name: &str) -> Workload {
    Workload::rate(BenchmarkProfile::by_name(name).expect("known benchmark"))
}

fn cell(
    label: &'static str,
    design: DesignKind,
    bear: BearFeatures,
    wl: &str,
    plan: &RunPlan,
) -> Cell {
    Cell {
        label,
        cfg: config_for(design, bear, plan),
        workload: rate(wl),
    }
}

/// Benchmarks of the `rate_pairs_dev` grid: write-heavy (lbm, gcc,
/// omnetpp) beside read-mostly (sphinx3, mcf) and milc.
pub const PAIR_BENCHMARKS: [&str; 6] = ["mcf", "lbm", "sphinx3", "omnetpp", "gcc", "milc"];

/// The `rate_pairs_dev` grid under `plan`: Alloy and BEAR on each of
/// [`PAIR_BENCHMARKS`], then LohHill × gcc and TIS × omnetpp. The first
/// twelve cells alternate Alloy, BEAR per benchmark.
pub fn rate_pairs(plan: &RunPlan, seed: Option<u64>) -> Vec<Cell> {
    let mut cells = Vec::new();
    for wl in PAIR_BENCHMARKS {
        cells.push(cell(
            "Alloy",
            DesignKind::Alloy,
            BearFeatures::none(),
            wl,
            plan,
        ));
        cells.push(cell(
            "BEAR",
            DesignKind::Alloy,
            BearFeatures::full(),
            wl,
            plan,
        ));
    }
    cells.push(cell(
        "LohHill",
        DesignKind::LohHill,
        BearFeatures::none(),
        "gcc",
        plan,
    ));
    cells.push(cell(
        "TIS",
        DesignKind::TagsInSram,
        BearFeatures::none(),
        "omnetpp",
        plan,
    ));
    if let Some(seed) = seed {
        for c in &mut cells {
            c.cfg.seed = seed;
        }
    }
    cells
}

/// Alloy and BEAR over the quick suite (4 rate + 2 mixes) at the quick
/// plan: cells the quick campaign's fig12 and table4 steps commit.
pub fn campaign_cells() -> Vec<Cell> {
    let plan = quick_plan();
    let mut suite: Vec<Workload> = rate_workloads().into_iter().take(4).collect();
    suite.extend(mix_workloads().into_iter().take(2));
    let mut cells = Vec::new();
    for (label, bear) in [
        ("Alloy", BearFeatures::none()),
        ("BEAR", BearFeatures::full()),
    ] {
        for wl in &suite {
            cells.push(Cell {
                label,
                cfg: config_for(DesignKind::Alloy, bear, &plan),
                workload: wl.clone(),
            });
        }
    }
    cells
}

/// One finished cell run.
pub struct CellRun {
    /// Host seconds in `System::try_build`.
    pub setup_s: f64,
    /// Host seconds in `System::run_monitored`.
    pub run_s: f64,
    /// Measured-window statistics (workload name normalized).
    pub stats: RunStats,
    /// The system after the run, for loop counters and device stats.
    pub sys: System,
}

/// Builds and runs `cell` exactly as `bear_bench::try_run_one` does,
/// timing the build and the run separately.
pub fn run(cell: &Cell) -> Result<CellRun, String> {
    let t0 = Instant::now();
    let sys = System::try_build(&cell.cfg, &cell.workload).map_err(|e| e.to_string())?;
    run_built(cell, sys, t0.elapsed().as_secs_f64())
}

/// Runs an already-built system (the traced path builds its own).
pub fn run_built(cell: &Cell, mut sys: System, setup_s: f64) -> Result<CellRun, String> {
    let t0 = Instant::now();
    let mut stats = sys
        .run_monitored(cell.cfg.warmup_cycles, cell.cfg.measure_cycles)
        .map_err(|e| format!("{} × {}: {e}", cell.label, cell.workload.name))?;
    let run_s = t0.elapsed().as_secs_f64();
    stats.workload = cell.workload.name.clone();
    Ok(CellRun {
        setup_s,
        run_s,
        stats,
        sys,
    })
}

/// Simulated cycles one cell executes (warm-up plus measurement).
pub fn cycles(cell: &Cell) -> u64 {
    cell.cfg.warmup_cycles + cell.cfg.measure_cycles
}

/// Instructions retired in the measured window, summed over cores.
pub fn insts(stats: &RunStats) -> u64 {
    stats.insts_per_core.iter().sum()
}

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Order-sensitive digest of a list of statistics, over the same JSON the
/// reports and the checkpoint store serialize.
pub fn digest<'a>(stats: impl IntoIterator<Item = &'a RunStats>) -> u64 {
    let mut text = String::new();
    for s in stats {
        text.push_str(&stats_to_json(s).to_string());
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

/// Table 4's suite aggregation: read-weighted hit latency.
fn hit_latency(stats: &[&RunStats]) -> f64 {
    let (mut sum, mut hits) = (0.0, 0.0);
    for s in stats {
        sum += s.l4.hit_latency * s.l4.read_hits as f64;
        hits += s.l4.read_hits as f64;
    }
    sum / hits.max(1.0)
}

/// BEAR-vs-Alloy deltas on the Alloy/BEAR pairs of `cells`, in percent:
/// (gmean speedup − 1, bloat-factor change, hit-latency change).
///
/// Speedups use fig12's `speedups` + `gmean`; bloat merges breakdowns as
/// fig13 does; hit latency weights by read hits as table4 does.
pub fn fidelity(cells: &[Cell], stats: &[RunStats]) -> (f64, f64, f64) {
    let pick = |label: &str| -> (Vec<Workload>, Vec<&RunStats>) {
        cells
            .iter()
            .zip(stats)
            .filter(|(c, _)| c.label == label)
            .map(|(c, s)| (c.workload.clone(), s))
            .unzip()
    };
    let (suite, alloy) = pick("Alloy");
    let (_, bear) = pick("BEAR");
    let owned = |v: &[&RunStats]| v.iter().map(|s| (*s).clone()).collect::<Vec<_>>();
    let spd = bear_bench::experiments::speedups(&suite, &owned(&bear), &owned(&alloy));
    let speedup_pct = (bear_bench::gmean(&spd) - 1.0) * 100.0;
    let merged = |v: &[&RunStats]| {
        let mut b = BloatBreakdown::default();
        for s in v {
            b.merge(&s.bloat);
        }
        b.factor()
    };
    let bloat_pct = (merged(&bear) / merged(&alloy) - 1.0) * 100.0;
    let hit_pct = (hit_latency(&bear) / hit_latency(&alloy) - 1.0) * 100.0;
    (speedup_pct, bloat_pct, hit_pct)
}
