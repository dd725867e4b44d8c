//! `beard` — the resident BEAR campaign daemon.
//!
//! Serve mode (the daemon proper):
//!
//! ```text
//! beard --listen 127.0.0.1:0 --out DIR [--workers N] [--queue N] [--client-quota N]
//! ```
//!
//! Binds the socket (`unix:PATH` or a TCP address; port 0 picks an
//! ephemeral port), writes the dialable address to `DIR/daemon.addr`,
//! and serves newline-delimited JSON job submissions until a client
//! sends `{"op":"drain"}` — then finishes (or, in `fast` mode,
//! checkpoints) in-flight work, flushes `DIR/failures.json` and
//! `DIR/daemon_report.json`, and exits 0. Jobs run against the same
//! `DIR/cells/` store campaigns use, so serving a campaign's `--out DIR`
//! replays the cells it already committed. A malformed numeric flag is a
//! usage error (exit 2). Setting `BEAR_CHAOS_SEED` arms the daemon-level
//! chaos plan (connection drops, worker kills, and whole-process kill -9
//! between journal and ack) that `tests/daemon.rs` uses to prove
//! crash-safe recovery.
//!
//! Smoke mode (the service-level benchmark `scripts/verify.sh` runs):
//!
//! ```text
//! beard --smoke --out DIR [--bench-json PATH]
//! ```
//!
//! Starts an in-process daemon, drives the standard smoke grid from two
//! concurrent clients (one cancels a job mid-run), then provokes an
//! overload burst against a second, deliberately tiny-queued instance,
//! and writes service-level metrics (jobs/sec, p50/p99
//! submit-to-complete latency, shed count) to `PATH` (default
//! `DIR/BENCH_daemon.json`).

use bear_bench::daemon::{smoke_jobs, Client, Daemon, DaemonConfig, JobSpec};
use bear_bench::report::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: beard --listen ADDR --out DIR [--workers N] [--queue N] [--client-quota N]\n\
         \u{20}      beard --smoke --out DIR [--bench-json PATH]"
    );
    std::process::exit(2);
}

struct Args {
    listen: Option<String>,
    out: Option<PathBuf>,
    workers: Option<usize>,
    queue: Option<usize>,
    client_quota: Option<usize>,
    smoke: bool,
    bench_json: Option<PathBuf>,
}

/// A non-negative integer flag value, or a usage error.
fn count(flag: &str, v: String) -> usize {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a non-negative integer, got {v:?}");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        out: None,
        workers: None,
        queue: None,
        client_quota: None,
        smoke: false,
        bench_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => args.listen = Some(value("--listen")),
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--workers" => args.workers = Some(count(&flag, value("--workers"))),
            "--queue" => args.queue = Some(count(&flag, value("--queue"))),
            "--client-quota" => args.client_quota = Some(count(&flag, value("--client-quota"))),
            "--smoke" => args.smoke = true,
            "--bench-json" => args.bench_json = Some(PathBuf::from(value("--bench-json"))),
            _ => {
                eprintln!("unknown flag {flag}");
                usage()
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(out) = args.out.clone() else { usage() };
    if args.smoke {
        smoke(&args, &out);
        return;
    }
    let Some(listen) = args.listen.clone() else {
        usage()
    };
    let mut cfg = DaemonConfig::new(&out).chaos_from_env();
    cfg.workers = args.workers.unwrap_or(cfg.workers);
    cfg.queue_capacity = args.queue.unwrap_or(cfg.queue_capacity);
    cfg.client_quota = args.client_quota.unwrap_or(cfg.client_quota);
    let daemon = match Daemon::start(cfg, &listen) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("beard: cannot start: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("[beard: serving on {} -> {}]", daemon.addr(), out.display());
    let summary = daemon.wait();
    eprintln!(
        "[beard: drained; accepted {} completed {} failed {} cancelled {} pending {}]",
        summary.counters.accepted,
        summary.counters.completed,
        summary.counters.failed,
        summary.counters.cancelled,
        summary.pending
    );
}

/// One client's view of the smoke run: per-job submit→settle latencies.
struct ClientReport {
    latencies_ms: Vec<f64>,
    completed: usize,
    cancelled: usize,
    failed: usize,
}

/// Drives one client's jobs over a single connection: submit everything
/// up front, optionally cancel `cancel_id` mid-run, then read
/// notifications until every job settles.
fn drive_client(
    addr: &str,
    jobs: Vec<JobSpec>,
    cancel_id: Option<String>,
) -> std::io::Result<ClientReport> {
    let mut c = Client::connect(addr)?;
    c.set_timeout(Some(Duration::from_secs(300)))?;
    let mut submitted = std::collections::BTreeMap::new();
    for job in &jobs {
        c.send(&job.canonical_line())?;
        submitted.insert(job.id.clone(), Instant::now());
    }
    if let Some(id) = &cancel_id {
        c.send(&format!("{{\"op\":\"cancel\",\"id\":\"{id}\"}}"))?;
    }
    let mut report = ClientReport {
        latencies_ms: Vec::new(),
        completed: 0,
        cancelled: 0,
        failed: 0,
    };
    let mut settled = 0;
    while settled < jobs.len() {
        let Some(line) = c.recv()? else {
            return Err(std::io::Error::other("daemon closed mid-smoke"));
        };
        let ty = line.get("type").and_then(Json::as_str).unwrap_or("");
        let id = line.get("id").and_then(Json::as_str).unwrap_or("");
        match ty {
            "completed" | "failed" | "cancelled" => {
                settled += 1;
                if let Some(t0) = submitted.get(id) {
                    report.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                match ty {
                    "completed" => report.completed += 1,
                    "cancelled" => report.cancelled += 1,
                    _ => report.failed += 1,
                }
            }
            "accepted" | "cancelling" | "telemetry" => {}
            "error" => {
                // Cancelling a job that already settled is a benign race
                // in the smoke; anything else is not.
                let kind = line.get("kind").and_then(Json::as_str).unwrap_or("");
                if kind != "already-settled" {
                    return Err(std::io::Error::other(format!("smoke error: {line}")));
                }
            }
            other => return Err(std::io::Error::other(format!("unexpected {other}: {line}"))),
        }
    }
    Ok(report)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn smoke(args: &Args, out: &std::path::Path) {
    let t0 = Instant::now();

    // Phase 1: the smoke grid from two concurrent clients over one
    // daemon; bob cancels his last job mid-run.
    let cfg = DaemonConfig::new(out);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("beard smoke: daemon start");
    let addr = daemon.addr().to_string();
    let jobs = smoke_jobs();
    let alice: Vec<JobSpec> = jobs
        .iter()
        .filter(|j| j.client == "alice")
        .cloned()
        .collect();
    let bob: Vec<JobSpec> = jobs.iter().filter(|j| j.client == "bob").cloned().collect();
    let cancel_id = bob.last().expect("bob has jobs").id.clone();
    let total_jobs = alice.len() + bob.len();
    let a_handle = {
        let addr = addr.clone();
        std::thread::spawn(move || drive_client(&addr, alice, None))
    };
    let b_handle = {
        let addr = addr.clone();
        std::thread::spawn(move || drive_client(&addr, bob, Some(cancel_id)))
    };
    let a = a_handle
        .join()
        .expect("alice thread")
        .expect("alice client");
    let b = b_handle.join().expect("bob thread").expect("bob client");
    let mut c = Client::connect(&addr).expect("drain connect");
    c.set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    c.request("{\"op\":\"drain\"}").expect("drain");
    let summary = daemon.wait();
    let elapsed = t0.elapsed();
    assert_eq!(summary.pending, 0, "smoke drain left work pending");
    assert_eq!(summary.counters.failed, 0, "smoke jobs must not fail");

    let mut latencies: Vec<f64> = a
        .latencies_ms
        .iter()
        .chain(b.latencies_ms.iter())
        .copied()
        .collect();
    latencies.sort_by(|x, y| x.total_cmp(y));
    let settled = (a.completed + b.completed + a.cancelled + b.cancelled) as f64;
    let jobs_per_sec = settled / elapsed.as_secs_f64();

    // Phase 2: deliberate overload burst against a second instance with
    // a tiny queue and no workers — every admission decision is
    // deterministic, the shed count is exact.
    let burst_dir = out.join("overload-burst");
    std::fs::remove_dir_all(&burst_dir).ok();
    let mut burst_cfg = DaemonConfig::new(&burst_dir);
    burst_cfg.workers = 0;
    burst_cfg.queue_capacity = 4;
    let burst_daemon = Daemon::start(burst_cfg, "127.0.0.1:0").expect("burst daemon");
    let mut bc = Client::connect(burst_daemon.addr()).expect("burst connect");
    bc.set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut burst_shed = 0u64;
    let mut burst_accepted = 0u64;
    let mut max_hint = 0u64;
    for i in 0..12 {
        let mut job = smoke_jobs()[i % 8].clone();
        job.id = format!("burst-{i}");
        job.client = "burst".into();
        let resp = bc.request(&job.canonical_line()).expect("burst submit");
        match resp.get("type").and_then(Json::as_str) {
            Some("accepted") => burst_accepted += 1,
            Some("overloaded") => {
                burst_shed += 1;
                let hint = resp
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .expect("overloaded carries retry_after_ms");
                max_hint = max_hint.max(hint);
            }
            other => panic!("burst: unexpected response {other:?}"),
        }
    }
    bc.request("{\"op\":\"drain\",\"mode\":\"fast\"}")
        .expect("burst drain");
    let burst_summary = burst_daemon.wait();
    assert_eq!(burst_summary.counters.shed, burst_shed);
    assert_eq!(
        burst_accepted, 4,
        "burst admissions must match the queue bound"
    );
    assert!(burst_shed >= 1, "burst must shed");
    std::fs::remove_dir_all(&burst_dir).ok();

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("daemon-smoke".into())),
        ("jobs".into(), Json::uint(total_jobs as u64)),
        (
            "completed".into(),
            Json::uint((a.completed + b.completed) as u64),
        ),
        (
            "cancelled".into(),
            Json::uint((a.cancelled + b.cancelled) as u64),
        ),
        ("elapsed_ms".into(), Json::Num(elapsed.as_secs_f64() * 1e3)),
        ("jobs_per_sec".into(), Json::Num(jobs_per_sec)),
        (
            "submit_to_complete_ms".into(),
            Json::Obj(vec![
                ("p50".into(), Json::Num(percentile(&latencies, 0.50))),
                ("p99".into(), Json::Num(percentile(&latencies, 0.99))),
                ("max".into(), Json::Num(percentile(&latencies, 1.0))),
            ]),
        ),
        (
            "overload_burst".into(),
            Json::Obj(vec![
                ("submitted".into(), Json::uint(12)),
                ("accepted".into(), Json::uint(burst_accepted)),
                ("shed".into(), Json::uint(burst_shed)),
                ("max_retry_after_ms".into(), Json::uint(max_hint)),
            ]),
        ),
    ]);
    let path = args
        .bench_json
        .clone()
        .unwrap_or_else(|| out.join("BENCH_daemon.json"));
    std::fs::write(&path, format!("{}\n", doc.to_string_pretty())).expect("write bench json");
    eprintln!(
        "[beard smoke: {} jobs in {:.1}s ({:.1} jobs/s), p50 {:.0}ms p99 {:.0}ms, burst shed {} -> {}]",
        total_jobs,
        elapsed.as_secs_f64(),
        jobs_per_sec,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        burst_shed,
        path.display()
    );
}
