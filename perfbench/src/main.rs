//! `perfbench-sim`: the measuring half of the BEAR benchmark.
//!
//! ```text
//! perfbench-sim <campaign_quick|rate_pairs_dev|daemon_jobs>
//!               --seed N --seconds S --trace 0|1 --scratch DIR
//! ```
//!
//! Untraced (`--trace 0`), it repeats the workload until `S` seconds have
//! passed, and prints raw samples: set-up times, one record per
//! repetition, peak resident memory, correctness-check counts, and
//! workload-specific extras such as the fidelity deltas. Traced
//! (`--trace 1`), it runs the workload once with its boundary spans
//! recorded, traces its cells through [`trace`], and prints per-layer
//! metrics. `perfbench/run.py` builds this binary and turns either output
//! into the benchmark's result line.

mod campaign;
mod cells;
mod daemon_load;
mod trace;

use bear_bench::report::Json;
use cells::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Extra set-ups measured before each repetition of the daemon and
/// campaign workloads: a set-up takes milliseconds or less, so its
/// `setup_s` median needs many samples, spread over the run so that no
/// slow stretch of the host decides it. Cell workloads time only their
/// real builds: a repeated build of one small cell reuses freed memory
/// and would time a different, faster set-up.
const SETUP_PROBES_PER_REP: usize = 10;

/// Digests and fidelity figures every run is checked against
/// (see `perfbench/README.md`, "Correctness checks").
const EXPECTED: &str = include_str!("../expected.json");

/// Correctness-check tally; failures keep their messages.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Records an operation that failed outright.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }
}

/// One repetition of the measured part.
#[derive(Debug, Default)]
struct Rep {
    wall_s: f64,
    cycles: u64,
    insts: u64,
    jobs: u64,
    latencies_ms: Vec<f64>,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
struct Outcome {
    setup_s: Vec<f64>,
    reps: Vec<Rep>,
    peak_rss_mb: f64,
    checks: Checks,
    extras: Vec<(String, f64)>,
    layers: Vec<(String, f64)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_scratch"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--scratch" => args.scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs `rep` once when traced. Untraced, starts another repetition
/// while fewer than `--seconds` have passed, so a run lasts at least that
/// long and at most one repetition more. Returns `peak_rss()` taken after
/// the first repetition: the peak of a fixed amount of work, not of
/// however many repetitions the host's speed allowed (the daemon
/// workload's peak grows with the number of daemons one process has
/// started).
fn repeat(args: &Args, peak_rss: fn() -> f64, mut rep: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    let mut i = 0;
    let mut rss = 0.0;
    loop {
        let more = if args.trace {
            i < 1
        } else {
            t0.elapsed().as_secs_f64() < args.seconds
        };
        if !more {
            break;
        }
        rep(i);
        if i == 0 {
            rss = peak_rss();
        }
        i += 1;
    }
    rss
}

/// Runs [`SETUP_PROBES_PER_REP`] set-up probes, each returning its
/// set-up time.
fn setup_probes(out: &mut Outcome, mut probe: impl FnMut(usize) -> Result<f64, String>) {
    for p in 0..SETUP_PROBES_PER_REP {
        match probe(p) {
            Ok(s) => out.setup_s.push(s),
            Err(e) => out.checks.fail(format!("set-up probe {p}: {e}")),
        }
    }
}

/// Every regular file under `dir`, recursively.
fn files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for e in entries.flatten() {
        match e.file_type() {
            Ok(t) if t.is_dir() => out.extend(files(&e.path())),
            Ok(_) => out.push(e.path()),
            Err(_) => {}
        }
    }
    out
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    files(dir)
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum()
}

fn expected() -> Json {
    Json::parse(EXPECTED).expect("perfbench/expected.json parses")
}

/// The committed digest of a fixed-seed workload's outputs.
fn expected_digest(workload: &str) -> Option<u64> {
    let doc = expected();
    let hex = doc.get(workload)?.get("digest")?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// Peak resident memory of this process since it was exec'd, in MB
/// (`VmHWM`). `getrusage(RUSAGE_SELF)` would not do: its `ru_maxrss`
/// carries over the peak of the parent that forked this process.
fn peak_rss_self_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `struct rusage` on 64-bit Linux: two `struct timeval`s, then fourteen
/// `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident memory of the largest waited-for child, in MB. A child
/// reports at least this process's own peak at the time it was forked,
/// a few MB.
fn peak_rss_children_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage::default();
    // SAFETY: `u` matches the kernel's `struct rusage` layout on 64-bit
    // Linux and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Untraced repetitions of a list of cells, run serially, after an
/// untimed warm-up run of the first cell. Every repetition must reproduce
/// the first one's digest, and its first cell the warm-up's, so that the
/// determinism check can fail even when a run makes one repetition.
fn run_cells(cells: &[Cell], args: &Args, out: &mut Outcome) -> Vec<bear_core::metrics::RunStats> {
    let warm = match cells::run(&cells[0]) {
        Ok(run) => cells::digest([&run.stats]),
        Err(e) => {
            out.checks.fail(format!("warm-up: {e}"));
            return Vec::new();
        }
    };
    let mut first: Option<(u64, Vec<_>)> = None;
    out.peak_rss_mb = repeat(args, peak_rss_self_mb, |i| {
        let mut rep = Rep::default();
        let mut stats = Vec::new();
        let t0 = Instant::now();
        for cell in cells {
            let c0 = Instant::now();
            match cells::run(cell) {
                Ok(run) => {
                    out.checks.check(true, String::new);
                    out.setup_s.push(run.setup_s);
                    rep.cycles += cells::cycles(cell);
                    rep.insts += cells::insts(&run.stats);
                    rep.jobs += 1;
                    rep.latencies_ms.push(c0.elapsed().as_secs_f64() * 1e3);
                    stats.push(run.stats);
                }
                Err(e) => out.checks.fail(format!("repetition {i}: {e}")),
            }
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        if let Some(s0) = stats.first() {
            let d = cells::digest([s0]);
            out.checks.check(d == warm, || {
                format!("repetition {i}: first cell's digest {d:016x} differs from the warm-up's {warm:016x}")
            });
        }
        let d = cells::digest(&stats);
        match &first {
            None => first = Some((d, stats)),
            Some((d0, _)) => out.checks.check(d == *d0, || {
                format!("repetition {i}: stats digest {d:016x} differs from {d0:016x}")
            }),
        }
        out.reps.push(rep);
    });
    first.map(|(_, s)| s).unwrap_or_default()
}

fn rate_pairs_dev(args: &Args, out: &mut Outcome) {
    let cells = cells::rate_pairs(&cells::dev_plan(), Some(args.seed));
    if args.trace {
        // The cells bypass the campaign runner: each runs once.
        trace_cells(&cells, out);
        let n = cells.len() as f64;
        out.layers.push(("bench.runner.cells_total".into(), n));
        out.layers.push(("bench.runner.cells_distinct".into(), n));
        return;
    }
    let stats = run_cells(&cells, args, out);
    if stats.len() != cells.len() {
        return;
    }
    let (spd, bloat, hit) = cells::fidelity(&cells, &stats);
    let doc = expected();
    let want = doc.get("rate_pairs_dev");
    let num = |k: &str| want.and_then(|w| w.get(k)).and_then(Json::as_f64);
    let tolerance = num("tolerance_pts").unwrap_or(0.0);
    for (name, value, paper) in [
        ("speedup", spd, cells::PAPER_SPEEDUP_PCT),
        ("bloat", bloat, cells::PAPER_BLOAT_PCT),
        ("hit_latency", hit, cells::PAPER_HIT_LATENCY_PCT),
    ] {
        out.extras.push((format!("bear_{name}_pct"), value));
        out.extras
            .push((format!("bear_{name}_err_pts"), (value - paper).abs()));
        let recorded = num(&format!("{name}_pct"));
        out.checks.check(
            value.signum() == paper.signum()
                && recorded.is_some_and(|r| (value - r).abs() <= tolerance),
            || {
                format!(
                    "BEAR {name} change {value:+.2} % lost the paper's sign or left \
                     {recorded:?} ± {tolerance} points"
                )
            },
        );
    }
}

/// Traces `cells` and records the simulator-layer metrics.
fn trace_cells(cells: &[Cell], out: &mut Outcome) {
    let mut layers = trace::Layers::default();
    for cell in cells {
        if let Err(e) = trace::trace_cell(cell, &mut layers, &mut out.checks) {
            out.checks.fail(e);
        }
    }
    out.layers.extend(
        layers
            .metrics()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v)),
    );
}

fn emit(out: &Outcome) {
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let pairs = |v: &[(String, f64)]| {
        Json::Obj(v.iter().map(|(k, x)| (k.clone(), Json::Num(*x))).collect())
    };
    let reps = out
        .reps
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("wall_s".into(), Json::Num(r.wall_s)),
                ("cycles".into(), Json::uint(r.cycles)),
                ("insts".into(), Json::uint(r.insts)),
                ("jobs".into(), Json::uint(r.jobs)),
                ("latencies_ms".into(), nums(&r.latencies_ms)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("setup_s".into(), nums(&out.setup_s)),
        ("reps".into(), Json::Arr(reps)),
        ("peak_rss_mb".into(), Json::Num(out.peak_rss_mb)),
        ("attempted".into(), Json::uint(out.checks.attempted)),
        ("failed".into(), Json::uint(out.checks.failed)),
        (
            "errors".into(),
            Json::Arr(out.checks.errors.iter().cloned().map(Json::Str).collect()),
        ),
        ("extras".into(), pairs(&out.extras)),
        ("layers".into(), pairs(&out.layers)),
    ]);
    println!("{doc}");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-sim: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "campaign_quick" => campaign::run(&args, &mut out),
        "rate_pairs_dev" => rate_pairs_dev(&args, &mut out),
        "daemon_jobs" => daemon_load::run(&args, &mut out),
        other => {
            eprintln!("perfbench-sim: unknown workload {other}");
            std::process::exit(2);
        }
    }
    emit(&out);
}
