//! The `campaign_quick` workload: `all_experiments --only fig12,table4`
//! with `BEAR_QUICK=1` and two workers, into a fresh `--out` directory.
//!
//! The campaign runs as a child process (the binary built beside
//! `perfbench-sim`). Its stdout lines are timestamped as they arrive: the
//! first step banner ends set-up, and each step runs from its banner to
//! its `done in` line. Every repetition's stdout (without the `done in`
//! lines) and reports must reproduce the committed digest.

use crate::{
    cells, dir_bytes, expected_digest, files, repeat, setup_probes, trace_cells, Args, Checks,
    Outcome, Rep,
};
use bear_bench::report::Json;
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The campaign subset: fig12 and table4 both run Alloy and BEAR over the
/// quick suite, so 12 of their 30 committed cells repeat across steps.
const STEPS: [&str; 2] = ["fig12", "table4"];

/// What one campaign process printed, and when.
struct Spawned {
    ok: bool,
    /// Host time just before the spawn.
    t0: Instant,
    /// Stdout lines with their arrival times.
    lines: Vec<(Instant, String)>,
}

fn is_banner(line: &str) -> bool {
    line.starts_with("=== ")
}

/// `all_experiments`, built into the same directory as this binary.
fn campaign_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(me.with_file_name("all_experiments"))
}

/// Runs the campaign into `out`, reading stdout until it closes, or until
/// the first step banner when `stop_at_banner` (the child is then killed).
fn spawn(out: &Path, err: &Path, stop_at_banner: bool) -> Result<Spawned, String> {
    let io = |e: std::io::Error| e.to_string();
    std::fs::remove_dir_all(out).ok();
    let mut cmd = Command::new(campaign_exe()?);
    // No BEAR_* knob of the caller may reshape the workload.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("BEAR_") {
            cmd.env_remove(k);
        }
    }
    cmd.env("BEAR_QUICK", "1")
        .env("BEAR_WORKERS", "2")
        .arg("--only")
        .arg(STEPS.join(","))
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(File::create(err).map_err(io)?);
    let t0 = Instant::now();
    let mut child = cmd.spawn().map_err(io)?;
    let mut lines = Vec::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(io)?;
        let banner = is_banner(&line);
        lines.push((Instant::now(), line));
        if stop_at_banner && banner {
            child.kill().ok();
            break;
        }
    }
    let status = child.wait().map_err(io)?;
    Ok(Spawned {
        ok: status.success() || stop_at_banner,
        t0,
        lines,
    })
}

/// Spawns the campaign and stops it at its first step banner: the time
/// to that banner is one `setup_s` sample.
fn probe(scratch: &Path, p: usize) -> Result<f64, String> {
    let out = scratch.join(format!("campaign-probe-{p}"));
    let run = spawn(&out, &scratch.join("campaign-probe.err"), true)?;
    std::fs::remove_dir_all(&out).ok();
    match run.lines.iter().find(|(_, l)| is_banner(l)) {
        Some((t, _)) => Ok(t.duration_since(run.t0).as_secs_f64()),
        None => Err("no step banner".into()),
    }
}

/// The executor-layer metrics of one repetition.
type Layers = Vec<(String, f64)>;

/// One campaign run: its repetition record, set-up time and layers.
fn rep(scratch: &Path, i: usize, checks: &mut Checks) -> Result<(Rep, f64, Layers), String> {
    let out = scratch.join(format!("campaign-{i}"));
    let run = spawn(&out, &scratch.join(format!("campaign-{i}.err")), false)?;
    let t_end = Instant::now();
    let result = read_outputs(&out, i, &run, t_end, checks);
    std::fs::remove_dir_all(&out).ok();
    result
}

fn read_outputs(
    out: &Path,
    i: usize,
    run: &Spawned,
    t_end: Instant,
    checks: &mut Checks,
) -> Result<(Rep, f64, Layers), String> {
    checks.check(run.ok, || format!("campaign {i}: exited with an error"));
    let banners: Vec<Instant> = run
        .lines
        .iter()
        .filter(|(_, l)| is_banner(l))
        .map(|(t, _)| *t)
        .collect();
    let dones: Vec<(Instant, &str)> = run
        .lines
        .iter()
        .filter(|(_, l)| l.starts_with('[') && l.contains(" done in "))
        .map(|(t, l)| (*t, l.as_str()))
        .collect();
    checks.check(
        banners.len() == STEPS.len() && dones.len() == STEPS.len(),
        || format!("campaign {i}: step lines missing"),
    );
    let start = *banners.first().ok_or("no step banner")?;

    let mut hashes = HashSet::new();
    let (mut cells, mut insts) = (0u64, 0u64);
    for path in files(&out.join("cells")) {
        if path.extension().is_some_and(|e| e == "json") {
            let doc = read_json(&path)?;
            cells += 1;
            hashes.insert(doc.get("cell_hash").map(Json::to_string));
            if let Some(per_core) = doc
                .get("stats")
                .and_then(|s| s.get("insts_per_core"))
                .and_then(Json::as_arr)
            {
                insts += per_core.iter().filter_map(Json::as_u64).sum::<u64>();
            }
        }
    }

    // Digested: stdout without its timing lines, then each report.
    let mut text: String = run
        .lines
        .iter()
        .filter(|(_, l)| !l.contains(" done in "))
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    let mut cycles_per_cell = 0;
    for step in STEPS {
        let path = out.join(format!("{step}.json"));
        let report = std::fs::read_to_string(&path).map_err(|e| format!("{step}.json: {e}"))?;
        let doc = Json::parse(&report).map_err(|e| format!("{step}.json: {e}"))?;
        let plan = |k| {
            doc.get("plan")
                .and_then(|p| p.get(k))
                .and_then(Json::as_u64)
        };
        cycles_per_cell = plan("warmup").unwrap_or(0) + plan("measure").unwrap_or(0);
        let quarantined = doc
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter(|r| r.get("status").is_some())
            .count();
        checks.check(quarantined == 0, || {
            format!("campaign {i}: {step} has {quarantined} quarantined rows")
        });
        text.push_str(&report);
    }
    let failures = out.join("failures.json");
    if failures.exists() {
        let listed = match read_json(&failures) {
            Ok(Json::Arr(rows)) => rows.len(),
            Ok(doc) => doc.get("rows").and_then(Json::as_arr).map_or(0, <[_]>::len),
            Err(_) => 1,
        };
        checks.check(listed == 0, || {
            format!("campaign {i}: failures.json lists {listed} rows")
        });
    }
    let d = cells::fnv1a64(text.as_bytes());
    let want = expected_digest("campaign_quick");
    checks.check(Some(d) == want, || {
        format!("campaign {i}: stdout and report digest {d:016x}, expected {want:016x?}")
    });

    let steps: Vec<(String, f64)> = banners
        .iter()
        .zip(&dones)
        .map(|(tb, (td, line))| {
            let step = line[1..].split_whitespace().next().unwrap_or("?");
            (step.to_string(), td.duration_since(*tb).as_secs_f64())
        })
        .collect();
    let rep = Rep {
        wall_s: t_end.duration_since(start).as_secs_f64(),
        cycles: cells * cycles_per_cell,
        insts,
        jobs: steps.len() as u64,
        latencies_ms: steps.iter().map(|(_, s)| s * 1e3).collect(),
    };
    let distinct = hashes.len() as f64;
    let mut layers = vec![
        ("bench.runner.cells_total".to_string(), cells as f64),
        ("bench.runner.cells_distinct".to_string(), distinct),
        (
            "bench.runner.dup_frac".to_string(),
            1.0 - distinct / (cells as f64).max(1.0),
        ),
        (
            "bench.checkpoint.bytes_written".to_string(),
            dir_bytes(&out.join("cells")) as f64,
        ),
    ];
    layers.extend(
        steps
            .into_iter()
            .map(|(k, s)| (format!("bench.runner.step_s.{k}"), s)),
    );
    Ok((rep, start.duration_since(run.t0).as_secs_f64(), layers))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the workload. Traced, one repetition's boundary spans become the
/// executor-layer metrics, and Alloy and BEAR over the quick suite (cells
/// of its fig12/table4 steps) are traced for the simulator layers.
pub fn run(args: &Args, out: &mut Outcome) {
    out.peak_rss_mb = repeat(args, crate::peak_rss_children_mb, |i| {
        setup_probes(out, |p| probe(&args.scratch, p));
        match rep(&args.scratch, i, &mut out.checks) {
            Ok((rep, setup, layers)) => {
                out.setup_s.push(setup);
                out.reps.push(rep);
                out.layers = layers;
            }
            Err(e) => out.checks.fail(format!("campaign {i}: {e}")),
        }
    });
    if args.trace {
        trace_cells(&cells::campaign_cells(), out);
    }
}
