//! Campaign fault-tolerance integration tests.
//!
//! The headline acceptance check for the checkpoint/resume layer: a
//! campaign killed with SIGKILL mid-flight, rerun with the same
//! `--out DIR`, resumes from the committed cells and produces a merged
//! report **byte-identical** to an uninterrupted campaign.

use bear_bench::checkpoint::{self, CellStore};
use bear_bench::report::{stats_to_json, Json};
use bear_bench::{config_for, metrics, try_run_one, RunPlan};
use bear_core::config::{BearFeatures, DesignKind};
use bear_telemetry::Registry;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the in-process tests: they all set the process-global
/// active cell store (and metrics registry).
static ACTIVE_STORE: Mutex<()> = Mutex::new(());

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bear_resume_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn in_process_resume_reloads_identical_stats() {
    let _serial = ACTIVE_STORE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("inproc");
    let plan = RunPlan {
        warmup: 2_000,
        measure: 3_000,
        scale_shift: 12,
    };
    let cfg = config_for(DesignKind::Alloy, BearFeatures::full(), &plan);
    let workload = bear_workloads::rate_workloads().remove(0);
    checkpoint::set_active(Some(CellStore::new(&dir)));
    let first = try_run_one(&cfg, &workload).expect("first run");
    let resumed = try_run_one(&cfg, &workload).expect("resumed run");
    checkpoint::set_active(None);
    assert_eq!(
        first, resumed,
        "a reloaded cell must round-trip bit-for-bit"
    );
    let committed = fs::read_dir(dir.join("cells"))
        .expect("cells directory")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "done"))
        .count();
    assert_eq!(committed, 1);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn cell_torn_by_a_kill_mid_store_is_rerun_not_trusted() {
    let _serial = ACTIVE_STORE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("torn");
    let plan = RunPlan {
        warmup: 2_000,
        measure: 3_000,
        scale_shift: 12,
    };
    let cfg = config_for(DesignKind::Alloy, BearFeatures::full(), &plan);
    let workload = bear_workloads::rate_workloads().remove(0);
    checkpoint::set_active(Some(CellStore::new(&dir)));
    let first = try_run_one(&cfg, &workload).expect("first run");

    // Truncate the committed data file while its `.done` marker stands —
    // the artifact a `kill -9` (or a torn page-cache flush) can leave
    // between a cell's data write and its durability.
    let store = CellStore::new(&dir);
    let path = store
        .committed_path(&cfg, &workload)
        .expect("cell must be committed");
    let bytes = fs::read(&path).expect("committed cell bytes");
    fs::write(&path, &bytes[..bytes.len() / 2]).expect("tearing cell");
    assert!(
        store.load(&cfg, &workload).is_none(),
        "a torn cell must fail its digest check, not parse"
    );

    // The resumed run must re-simulate (not trust the torn bytes), land
    // on identical stats, and leave the cell loadable again.
    let resumed = try_run_one(&cfg, &workload).expect("resumed run");
    checkpoint::set_active(None);
    assert_eq!(
        first, resumed,
        "re-running a torn cell must reproduce the original stats"
    );
    assert!(
        store.load(&cfg, &workload).is_some(),
        "the re-run must recommit a digest-valid cell"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_store_reuses_a_cell_and_counts_the_hit() {
    let _serial = ACTIVE_STORE.lock().unwrap_or_else(|e| e.into_inner());
    let plan = RunPlan {
        warmup: 2_000,
        measure: 3_000,
        scale_shift: 12,
    };
    let cfg = config_for(DesignKind::Alloy, BearFeatures::full(), &plan);
    let mut suite = bear_workloads::rate_workloads();
    let (repeated, other) = (suite.remove(0), suite.remove(0));
    let reg = Registry::new();
    metrics::set_active(Some(reg.clone()));
    checkpoint::set_active(Some(CellStore::in_memory()));
    let first = try_run_one(&cfg, &repeated).expect("first run");
    let reused = try_run_one(&cfg, &repeated).expect("reused run");
    try_run_one(&cfg, &other).expect("other cell");
    checkpoint::set_active(None);
    metrics::set_active(None);
    assert_eq!(
        stats_to_json(&first).to_string_pretty(),
        stats_to_json(&reused).to_string_pretty(),
        "a reused cell must return the first result bit-for-bit"
    );
    assert_eq!(first, reused);

    let design = [("design", cfg.design.label())];
    let simulated = reg.counter("bear_cells_total", &design).get();
    let hits = reg.counter("bear_cells_reused_total", &design).get();
    assert_eq!((simulated, hits), (2, 1), "three requests, one reuse");
    let attributed: u64 = bear_telemetry::CACHE_BYTE_KEYS
        .iter()
        .map(|key| {
            reg.counter(
                "bear_cell_cache_bytes_total",
                &[
                    ("design", cfg.design.label()),
                    ("workload", &repeated.name),
                    ("category", key),
                ],
            )
            .get()
        })
        .sum();
    assert_eq!(
        attributed,
        first.bloat.total_bytes(),
        "a reused cell's bytes are attributed once, not once per request"
    );
}

/// The campaign under test: `all_experiments --only STEPS [--out DIR]`,
/// scaled down but long enough (~seconds) that a kill lands mid-run.
fn campaign_cmd(only: &str, out: Option<&Path>) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_all_experiments"));
    if let Some(out) = out {
        c.arg("--out").arg(out);
    }
    c.args(["--only", only])
        .env("BEAR_QUICK", "1")
        .env("BEAR_WARMUP", "50000")
        .env("BEAR_CYCLES", "150000")
        .env("BEAR_SCALE", "12")
        .env("BEAR_WORKERS", "2")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    c
}

fn done_cells(cells: &Path) -> usize {
    fs::read_dir(cells)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "done"))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn killed_campaign_resumes_to_byte_identical_report() {
    let dir_killed = tmp("killed");
    let dir_fresh = tmp("fresh");

    // Start a campaign, wait until at least two cells are committed, then
    // SIGKILL it (`Child::kill` is SIGKILL on unix) — no destructors, no
    // flushing, the harshest interrupt available.
    let mut child = campaign_cmd("fig07", Some(&dir_killed))
        .spawn()
        .expect("spawn campaign");
    let cells = dir_killed.join("cells");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if done_cells(&cells) >= 2 || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign committed no cells in time"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // (If the campaign was so fast it already finished, the rerun below
    // still exercises the every-cell-cached path.)
    child.kill().ok();
    child.wait().expect("reap child");
    let committed_before_resume = done_cells(&cells);

    // Resume in the same directory: must finish cleanly.
    let status = campaign_cmd("fig07", Some(&dir_killed))
        .status()
        .expect("resume campaign");
    assert!(status.success(), "resumed campaign failed");
    assert!(
        done_cells(&cells) >= committed_before_resume,
        "resume must keep committed cells"
    );

    // Uninterrupted reference campaign in a clean directory.
    let status = campaign_cmd("fig07", Some(&dir_fresh))
        .status()
        .expect("fresh campaign");
    assert!(status.success(), "fresh campaign failed");

    let resumed = fs::read(dir_killed.join("fig07.json")).expect("resumed report");
    let fresh = fs::read(dir_fresh.join("fig07.json")).expect("fresh report");
    assert!(!resumed.is_empty());
    assert_eq!(
        resumed, fresh,
        "report after kill -9 + resume must be byte-identical to an \
         uninterrupted campaign"
    );

    fs::remove_dir_all(&dir_killed).ok();
    fs::remove_dir_all(&dir_fresh).ok();
}

/// Stems of the committed cells under `cells`, and the identity hash each
/// committed document records.
fn committed(cells: &Path) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut stems = BTreeSet::new();
    let mut hashes = BTreeSet::new();
    for entry in fs::read_dir(cells).expect("cells directory").flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "done") {
            let doc = Json::parse(&fs::read_to_string(path.with_extension("json")).expect("cell"))
                .expect("cell parses");
            hashes.insert(doc.get("cell_hash").and_then(Json::as_str).unwrap().into());
            stems.insert(path.file_stem().unwrap().to_string_lossy().into_owned());
        }
    }
    (stems, hashes)
}

/// Sum of every series named `name` in a `--metrics-out` dump.
fn metric_sum(dump: &Path, name: &str) -> u64 {
    let doc = Json::parse(&fs::read_to_string(dump).expect("metrics dump")).expect("dump parses");
    doc.get("metrics")
        .and_then(Json::as_arr)
        .expect("metrics array")
        .iter()
        .filter(|m| m.get("name").and_then(Json::as_str) == Some(name))
        .filter_map(|m| m.get("value").and_then(Json::as_u64))
        .sum()
}

#[test]
fn steps_share_one_store_and_simulate_each_cell_once() {
    let dir_both = tmp("both");
    let dir_fig12 = tmp("fig12");
    let dir_table4 = tmp("table4");
    let dump = dir_both.join("metrics.json");
    let both = campaign_cmd("fig12,table4", Some(&dir_both))
        .arg("--metrics-out")
        .arg(&dump)
        .stderr(Stdio::piped())
        .output()
        .expect("campaign");
    assert!(both.status.success(), "fig12,table4 failed");
    // The heartbeat prints one `[cell i/N ...]` line per cell requested.
    let requested = String::from_utf8_lossy(&both.stderr)
        .lines()
        .filter(|l| l.starts_with("[cell "))
        .count();
    for (only, dir) in [("fig12", &dir_fig12), ("table4", &dir_table4)] {
        let status = campaign_cmd(only, Some(dir)).status().expect("campaign");
        assert!(status.success(), "{only} failed");
    }

    // One committed cell per distinct identity, each simulated once.
    let (stems, hashes) = committed(&dir_both.join("cells"));
    assert_eq!(done_cells(&dir_both.join("cells")), hashes.len());
    let simulated = metric_sum(&dump, "bear_cells_total");
    let reused = metric_sum(&dump, "bear_cells_reused_total");
    assert_eq!(
        simulated as usize,
        stems.len(),
        "each identity simulated once"
    );
    assert!(reused > 0, "table4 reloads fig12's cells");
    assert_eq!(
        (simulated + reused) as usize,
        requested,
        "simulated + reused = requested"
    );

    // Without --out the store lives in memory and deduplicates the same.
    let mem_dump = dir_both.join("metrics-in-memory.json");
    let status = campaign_cmd("fig12,table4", None)
        .arg("--metrics-out")
        .arg(&mem_dump)
        .status()
        .expect("campaign");
    assert!(status.success(), "in-memory fig12,table4 failed");
    assert_eq!(metric_sum(&mem_dump, "bear_cells_total"), simulated);
    assert_eq!(metric_sum(&mem_dump, "bear_cells_reused_total"), reused);

    // table4 asks only for cells fig12 already committed: it adds none.
    let (fig12_stems, _) = committed(&dir_fig12.join("cells"));
    let (table4_stems, _) = committed(&dir_table4.join("cells"));
    assert_eq!(stems, fig12_stems, "table4 adds no cell to fig12's");
    assert!(table4_stems.is_subset(&stems));

    // Reused cells produce the report a fresh table4 run writes.
    let shared = fs::read(dir_both.join("table4.json")).expect("shared report");
    let alone = fs::read(dir_table4.join("table4.json")).expect("fresh report");
    assert!(!shared.is_empty());
    assert_eq!(
        shared, alone,
        "table4 from reused cells must be byte-identical"
    );

    for dir in [dir_both, dir_fig12, dir_table4] {
        fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn campaign_honors_the_scale_preset() {
    // table5 simulates nothing, so this costs milliseconds; the report's
    // plan block records the capacity shift the campaign ran under.
    let dir = tmp("scale");
    let status = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(["--only", "table5", "--scale", "1/64", "--out"])
        .arg(&dir)
        .env_remove("BEAR_SCALE")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("campaign");
    assert!(status.success(), "table5 --scale 1/64 failed");
    let text = fs::read_to_string(dir.join("table5.json")).expect("table5 report");
    let shift = Json::parse(&text)
        .expect("report is JSON")
        .get("plan")
        .and_then(|p| p.get("scale_shift"))
        .and_then(Json::as_u64);
    assert_eq!(shift, Some(6), "--scale 1/64 must set scale_shift 6");
    fs::remove_dir_all(dir).ok();
}
