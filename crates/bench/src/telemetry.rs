//! Campaign-side telemetry sink: per-cell JSONL time series on disk.
//!
//! The simulator produces telemetry (see `bear_core::telemetry`); this
//! module decides *whether* a campaign collects it and *where* it lands.
//! Mirroring [`crate::checkpoint`], a process-wide active sink is set by
//! the campaign driver ([`set_active`]) and handed by `try_run_one` to
//! the cell runner as the cell's [`CellObserver`]: when a sink is
//! active, every freshly simulated cell is armed with
//! [`TelemetryConfig::sampling`] and its windowed samples are written to
//!
//! ```text
//! DIR/telemetry/<cell_stem>.jsonl     one JSON object per sample window
//! ```
//!
//! where `<cell_stem>` is the same `<design>-<workload>-<hash>` stem the
//! checkpoint store uses, so a cell's time series and its checkpointed
//! stats correlate by filename.
//!
//! # Resume semantics
//!
//! Checkpoint-cached cells return from the cell runner *before* the
//! observer is armed, so a resumed campaign never re-arms or re-writes
//! telemetry for a finished cell: its `.jsonl` from the original run
//! stays intact, with no duplicated or torn windows. Files are written
//! with the same
//! tmp → rename protocol as checkpoints, so an interrupt mid-write leaves
//! an ignorable `.tmp`, never a half sample.
//!
//! With no active sink (the default), cells run with
//! [`TelemetryConfig::Off`]; armed or not, a cell's report bytes are
//! identical — the `telemetry_off_is_free` guard test pins this.

use crate::checkpoint::cell_stem;
use crate::CellObserver;
use bear_core::config::SystemConfig;
use bear_core::system::System;
use bear_telemetry::{Sample, TelemetryConfig, TelemetryOptions};
use bear_workloads::Workload;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Destination and options for campaign telemetry collection.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    dir: PathBuf,
    opts: TelemetryOptions,
}

impl TelemetrySink {
    /// Sink writing sampling-only telemetry under `OUT_DIR/telemetry/`
    /// with the given window (`None` → the default window).
    pub fn new(out_dir: &Path, sample_window: Option<u64>) -> TelemetrySink {
        let mut opts = TelemetryOptions::default();
        if let Some(w) = sample_window {
            opts.sample_window = w;
        }
        TelemetrySink {
            dir: out_dir.join("telemetry"),
            opts,
        }
    }

    /// The telemetry configuration cells should be armed with.
    pub fn config(&self) -> TelemetryConfig {
        TelemetryConfig::On(self.opts.clone())
    }

    /// Writes one cell's samples as JSONL, atomically (tmp → rename).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error; callers treat
    /// telemetry persistence as best-effort.
    pub fn write(
        &self,
        cfg: &SystemConfig,
        workload: &Workload,
        samples: &[Sample],
    ) -> std::io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{}.jsonl", cell_stem(cfg, workload)));
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut f = File::create(&tmp)?;
            for s in samples {
                f.write_all(s.to_json_line().as_bytes())?;
                f.write_all(b"\n")?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// The campaign-wide active sink, consulted by `try_run_one`. `None`
/// (the default) leaves every cell's telemetry off.
static ACTIVE: Mutex<Option<TelemetrySink>> = Mutex::new(None);

/// Activates (or, with `None`, deactivates) telemetry collection for
/// subsequently simulated cells.
pub fn set_active(sink: Option<TelemetrySink>) {
    *ACTIVE.lock().expect("telemetry sink poisoned") = sink;
}

/// The active sink, if any.
pub(crate) fn active() -> Option<TelemetrySink> {
    ACTIVE.lock().expect("telemetry sink poisoned").clone()
}

/// A sink arms each freshly simulated cell for windowed sampling and
/// drains its samples to disk. Write errors degrade to a warning —
/// telemetry must never fail a finished simulation.
impl CellObserver for TelemetrySink {
    fn arm(&self, sys: &mut System) {
        sys.set_telemetry(self.config());
    }

    fn collect(&self, cfg: &SystemConfig, workload: &Workload, sys: &mut System) {
        let Some(report) = sys.take_telemetry() else {
            return;
        };
        if let Err(e) = self.write(cfg, workload, &report.samples) {
            eprintln!(
                "[warning: failed to write telemetry for {} × {}: {e}]",
                cfg.design.label(),
                workload.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_core::config::DesignKind;

    #[test]
    fn sink_writes_one_line_per_sample() {
        let dir = std::env::temp_dir().join(format!("bear_telem_sink_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        let workload = bear_workloads::rate_workloads().remove(0);
        let samples = vec![
            Sample {
                window: 0,
                start_cycle: 0,
                end_cycle: 100,
                ..Default::default()
            },
            Sample {
                window: 1,
                start_cycle: 100,
                end_cycle: 200,
                ..Default::default()
            },
        ];
        let sink = TelemetrySink::new(&dir, Some(100));
        let path = sink.write(&cfg, &workload, &samples).expect("write jsonl");
        let text = fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            crate::report::Json::parse(line).expect("each line is valid JSON");
        }
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("Alloy"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn window_override_reaches_the_config() {
        let sink = TelemetrySink::new(Path::new("/tmp/x"), Some(1234));
        let TelemetryConfig::On(opts) = sink.config() else {
            panic!("sink config must be On");
        };
        assert_eq!(opts.sample_window, 1234);
        assert!(!opts.trace, "campaign sink is sampling-only");
        assert!(!opts.profile, "campaign sink is sampling-only");
    }
}
