//! Campaign-side metrics registry: `--metrics-out` plumbing.
//!
//! Mirrors [`crate::telemetry`]'s seam: a process-wide active
//! [`Registry`] is armed by the campaign driver ([`set_active`]) and fed
//! transparently by `try_run_one` — each freshly simulated cell records
//! its bandwidth-attribution decomposition (per-category cache bytes
//! from the ledger-backed [`BloatBreakdown`]), memory bytes, and bloat
//! factor, and each cell reloaded from the campaign's cell store counts
//! as reused, so `bear_cells_total` + `bear_cells_reused_total` is the
//! number of cells requested. The driver dumps the registry's stable JSON at campaign end
//! via [`write_active`].
//!
//! Observability-only by construction: nothing here touches `RunStats`
//! or the report files, so a campaign with no `--metrics-out` stays
//! byte-identical (the double-gate guard test in `tests/telemetry.rs`
//! pins this for an *armed* registry too).
//!
//! [`BloatBreakdown`]: bear_core::metrics::BloatBreakdown

use bear_core::config::SystemConfig;
use bear_core::metrics::RunStats;
use bear_telemetry::Registry;
use bear_workloads::Workload;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The campaign-wide active registry, consulted by `try_run_one`.
static ACTIVE: Mutex<Option<Registry>> = Mutex::new(None);

/// Activates (or, with `None`, deactivates) metrics collection for
/// subsequently simulated cells.
pub fn set_active(registry: Option<Registry>) {
    *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = registry;
}

/// A clone of the active registry, if one is armed.
pub fn active() -> Option<Registry> {
    ACTIVE.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Records one freshly simulated cell into the active registry (no-op
/// when none is armed): per-category attributed cache bytes, memory
/// bytes, bloat factor, and a cell counter, all labelled by design and
/// workload.
pub(crate) fn record_cell(cfg: &SystemConfig, workload: &Workload, stats: &RunStats) {
    let Some(reg) = active() else {
        return;
    };
    let design = cfg.design.label();
    let workload = workload.name.as_str();
    reg.set_help("bear_cells_total", "Cells simulated by this campaign");
    reg.counter("bear_cells_total", &[("design", design)]).inc();
    reg.set_help(
        "bear_cell_cache_bytes_total",
        "DRAM-cache bytes attributed per bloat category",
    );
    for (key, &bytes) in bear_telemetry::CACHE_BYTE_KEYS
        .iter()
        .zip(&stats.bloat.bytes)
    {
        reg.counter(
            "bear_cell_cache_bytes_total",
            &[
                ("design", design),
                ("workload", workload),
                ("category", key),
            ],
        )
        .add(bytes);
    }
    reg.set_help("bear_cell_mem_bytes_total", "Main-memory bytes moved");
    reg.counter(
        "bear_cell_mem_bytes_total",
        &[("design", design), ("workload", workload)],
    )
    .add(stats.mem_bytes);
    reg.set_help(
        "bear_cell_bloat_factor",
        "Cache bytes moved per useful byte delivered",
    );
    reg.gauge(
        "bear_cell_bloat_factor",
        &[("design", design), ("workload", workload)],
    )
    .set(stats.bloat.factor());
}

/// Counts one cell reloaded from the campaign's cell store instead of
/// simulated (no-op when no registry is armed).
pub(crate) fn record_reuse(cfg: &SystemConfig) {
    let Some(reg) = active() else {
        return;
    };
    reg.set_help(
        "bear_cells_reused_total",
        "Cells reloaded from the cell store instead of simulated",
    );
    reg.counter("bear_cells_reused_total", &[("design", cfg.design.label())])
        .inc();
}

/// Writes the active registry's stable JSON dump to `path`, atomically
/// (tmp → rename). No-op returning `path` when no registry is armed.
///
/// # Errors
///
/// Propagates the underlying filesystem error; callers treat metrics
/// persistence as best-effort.
pub fn write_active(path: &Path) -> std::io::Result<PathBuf> {
    let Some(reg) = active() else {
        return Ok(path.to_path_buf());
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(reg.to_json().as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Json;
    use bear_core::config::DesignKind;
    use bear_core::metrics::RunStats;

    /// Serializes tests that flip the process-global [`ACTIVE`] seam.
    static SEAM: Mutex<()> = Mutex::new(());

    fn sample_stats() -> RunStats {
        let mut stats = RunStats::default();
        stats.bloat.bytes[0] = 640;
        stats.bloat.bytes[2] = 320;
        stats.bloat.useful_lines = 10;
        stats.mem_bytes = 128;
        stats
    }

    #[test]
    fn record_cell_is_inert_without_a_registry() {
        let _guard = SEAM.lock().unwrap_or_else(|e| e.into_inner());
        set_active(None);
        let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        let workload = bear_workloads::rate_workloads().remove(0);
        record_cell(&cfg, &workload, &sample_stats());
        assert!(active().is_none());
    }

    #[test]
    fn record_cell_attributes_bytes_and_dump_parses() {
        let _guard = SEAM.lock().unwrap_or_else(|e| e.into_inner());
        let reg = Registry::new();
        set_active(Some(reg.clone()));
        let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        let workload = bear_workloads::rate_workloads().remove(0);
        record_cell(&cfg, &workload, &sample_stats());
        set_active(None);
        let hit = reg.counter(
            "bear_cell_cache_bytes_total",
            &[
                ("design", cfg.design.label()),
                ("workload", &workload.name),
                ("category", "hit"),
            ],
        );
        assert_eq!(hit.get(), 640);
        let dump = reg.to_json();
        let doc = Json::parse(&dump).expect("dump parses");
        let metrics = doc.get("metrics").and_then(Json::as_arr).expect("metrics");
        assert!(!metrics.is_empty());
        // Write + read back through the atomic path.
        let path = std::env::temp_dir().join(format!("bear_metrics_{}.json", std::process::id()));
        set_active(Some(reg));
        write_active(&path).expect("write dump");
        set_active(None);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, dump);
        std::fs::remove_file(&path).ok();
    }
}
