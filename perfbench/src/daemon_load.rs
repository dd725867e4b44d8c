//! The `daemon_jobs` workload: an in-process `bear_bench::daemon::Daemon`
//! with two workers, driven by one `Client` over a Unix socket.
//!
//! The client keeps two jobs outstanding. It submits the `rate_pairs_dev`
//! cells at the quick plan under distinct ids, and resubmits each id once
//! as soon as its first run completes, so fresh simulation runs beside
//! the daemon's replay of settled results on the same layer. Jobs run the
//! program's fixed seed, so every repetition's settled stats must
//! reproduce the committed digest.

use crate::cells::{self, quick_plan};
use crate::{dir_bytes, expected_digest, repeat, setup_probes, trace_cells, Args, Outcome, Rep};
use bear_bench::daemon::{Client, Daemon, DaemonConfig, JobSpec};
use bear_bench::report::Json;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

/// Jobs the client keeps in flight.
const OUTSTANDING: usize = 2;

fn jobs() -> Vec<JobSpec> {
    let plan = quick_plan();
    cells::rate_pairs(&plan, None)
        .into_iter()
        .enumerate()
        .map(|(i, c)| JobSpec {
            id: format!("pair-{i:02}-{}", c.label),
            client: "perfbench".into(),
            design: c.cfg.design,
            bear: if c.label == "BEAR" { "full" } else { "none" }.into(),
            workload: c.workload.name.clone(),
            warmup: plan.warmup,
            measure: plan.measure,
            scale_shift: plan.scale_shift,
            deadline_ms: None,
            telemetry: false,
            sample_window: 10_000,
        })
        .collect()
}

/// What one daemon run observed.
#[derive(Debug, Default)]
struct DaemonRun {
    setup_s: f64,
    rep: Rep,
    /// Settled stats lines by (id, replay?).
    stats: HashMap<(String, bool), String>,
    /// submit → `accepted`, per fresh job (journal commit before ack).
    admit_ms: Vec<f64>,
    /// submit → `completed`, per replayed job.
    replay_ms: Vec<f64>,
    /// Admissions and sheds from the `{"op":"metrics"}` scrape.
    admitted: u64,
    shed: u64,
    failed: u64,
    requeued: u64,
    bytes_written: u64,
}

/// Sums every series of counter `name` in a registry dump
/// (`{"metrics":[{"name":..,"labels":{..},"value":..},..]}`).
fn counter_total(registry: &Json, name: &str) -> u64 {
    registry
        .get("metrics")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|m| m.get("name").and_then(Json::as_str) == Some(name))
        .filter_map(|m| m.get("value").and_then(Json::as_f64))
        .sum::<f64>() as u64
}

fn drive(dir: &Path, specs: &[JobSpec]) -> Result<DaemonRun, String> {
    let io = |e: std::io::Error| e.to_string();
    std::fs::remove_dir_all(dir).ok();
    let mut cfg = DaemonConfig::new(dir);
    cfg.workers = 2;
    let listen = format!("unix:{}", dir.join("d.sock").display());
    let mut s = DaemonRun::default();
    let t0 = Instant::now();
    let daemon = Daemon::start(cfg, &listen).map_err(io)?;
    s.setup_s = t0.elapsed().as_secs_f64();

    let mut client = Client::connect(daemon.addr()).map_err(io)?;
    client
        .set_timeout(Some(Duration::from_secs(150)))
        .map_err(io)?;
    let mut queue: VecDeque<(JobSpec, bool)> = specs.iter().cloned().map(|j| (j, false)).collect();
    let mut inflight: HashMap<String, (Instant, bool)> = HashMap::new();
    let t1 = Instant::now();
    while !queue.is_empty() || !inflight.is_empty() {
        while inflight.len() < OUTSTANDING {
            let Some((job, replay)) = queue.pop_front() else {
                break;
            };
            client.send(&job.canonical_line()).map_err(io)?;
            inflight.insert(job.id.clone(), (Instant::now(), replay));
        }
        let line = client
            .recv()
            .map_err(io)?
            .ok_or("daemon closed the connection")?;
        let id = line
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let Some(&(sent, replay)) = inflight.get(&id) else {
            return Err(format!("response for unknown job: {line}"));
        };
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match line.get("type").and_then(Json::as_str) {
            Some("accepted") => {
                if !replay {
                    s.admit_ms.push(ms);
                }
            }
            Some("completed") => {
                inflight.remove(&id);
                s.rep.jobs += 1;
                let stats = line.get("stats").map(Json::to_string).unwrap_or_default();
                if replay {
                    s.replay_ms.push(ms);
                } else {
                    s.rep.latencies_ms.push(ms);
                    s.rep.cycles += specs[0].warmup + specs[0].measure;
                    if let Some(Json::Arr(per_core)) =
                        line.get("stats").and_then(|v| v.get("insts_per_core"))
                    {
                        s.rep.insts += per_core.iter().filter_map(Json::as_u64).sum::<u64>();
                    }
                    let job = specs.iter().find(|j| j.id == id).expect("known id").clone();
                    queue.push_front((job, true));
                }
                s.stats.insert((id, replay), stats);
            }
            _ => {
                s.failed += 1;
                inflight.remove(&id);
            }
        }
    }
    s.rep.wall_s = t1.elapsed().as_secs_f64();
    let metrics = client.request(r#"{"op":"metrics"}"#).map_err(io)?;
    if let Some(reg) = metrics.get("registry") {
        s.admitted = counter_total(reg, "beard_admissions_total");
        s.shed = counter_total(reg, "beard_sheds_total");
        s.requeued = counter_total(reg, "beard_requeues_total");
    }
    client.request(r#"{"op":"drain"}"#).map_err(io)?;
    let summary = daemon.wait();
    s.failed += summary.counters.failed;
    s.bytes_written = dir_bytes(dir);
    Ok(s)
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs the workload; traced, one daemon run's boundary spans and counters
/// plus the traced quick-plan cells.
pub fn run(args: &Args, out: &mut Outcome) {
    let specs = jobs();
    let want = expected_digest("daemon_jobs");
    let mut last = DaemonRun::default();
    out.peak_rss_mb = repeat(args, crate::peak_rss_self_mb, |i| {
        // Extra start-up probes: start a daemon and drain it empty.
        setup_probes(out, |p| {
            let dir = args.scratch.join(format!("daemon-probe-{p}"));
            let s = drive(&dir, &[]);
            std::fs::remove_dir_all(&dir).ok();
            s.map(|s| s.setup_s)
        });
        let dir = args.scratch.join(format!("daemon-{i}"));
        let mut s = match drive(&dir, &specs) {
            Ok(s) => s,
            Err(e) => return out.checks.fail(format!("daemon run {i}: {e}")),
        };
        std::fs::remove_dir_all(&dir).ok();
        out.setup_s.push(s.setup_s);
        out.checks.check(s.failed == 0 && s.shed == 0, || {
            format!("daemon run {i}: {} failed, {} shed", s.failed, s.shed)
        });
        out.checks.check(s.stats.len() == 2 * specs.len(), || {
            format!(
                "daemon run {i}: {} of {} jobs settled",
                s.stats.len(),
                2 * specs.len()
            )
        });
        for j in &specs {
            let fresh = s.stats.get(&(j.id.clone(), false));
            out.checks.check(
                fresh.is_some() && fresh == s.stats.get(&(j.id.clone(), true)),
                || format!("daemon run {i}: replay of {} differs from its run", j.id),
            );
        }
        let mut lines: Vec<_> = s.stats.iter().filter(|((_, r), _)| !r).collect();
        lines.sort();
        let text: String = lines
            .iter()
            .map(|((id, _), st)| format!("{id} {st}\n"))
            .collect();
        let d = cells::fnv1a64(text.as_bytes());
        out.checks.check(Some(d) == want, || {
            format!("daemon run {i}: stats digest {d:016x}, expected {want:016x?}")
        });
        out.reps.push(std::mem::take(&mut s.rep));
        last = s;
    });
    if !args.trace {
        return;
    }
    let mut last_latencies = out
        .reps
        .last()
        .map(|r| r.latencies_ms.clone())
        .unwrap_or_default();
    let settled = last.stats.len() as f64;
    let fresh = specs.len() as f64;
    out.layers.extend(
        [
            ("bench.runner.cells_total", settled),
            ("bench.runner.cells_distinct", fresh),
            ("bench.runner.dup_frac", 1.0 - fresh / settled.max(1.0)),
            ("bench.checkpoint.bytes_written", last.bytes_written as f64),
            ("bench.daemon.accepted", last.admitted as f64),
            ("bench.daemon.shed", last.shed as f64),
            ("bench.daemon.requeued", last.requeued as f64),
            ("bench.daemon.cached_replays", last.replay_ms.len() as f64),
            ("bench.daemon.job_wall_ms_p50", median(&mut last_latencies)),
            ("bench.daemon.admit_ms_p50", median(&mut last.admit_ms)),
            ("bench.daemon.replay_ms_p50", median(&mut last.replay_ms)),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    trace_cells(&cells::rate_pairs(&quick_plan(), None), out);
}
