//! Runs the complete experiment campaign: every table and figure of the
//! paper's evaluation, in order. Honors BEAR_QUICK / BEAR_CYCLES /
//! BEAR_WARMUP / BEAR_SCALE / BEAR_WORKERS, and:
//!
//! - `--out DIR` — write one JSON report per experiment into `DIR`, and
//!   checkpoint every finished (config, workload) cell under
//!   `DIR/cells/`, keyed by cell identity alone. An interrupted campaign
//!   (crash, OOM-kill, `kill -9`) rerun with the same `--out DIR` resumes
//!   from the committed cells and produces byte-identical reports.
//!   Older per-experiment `DIR/cells/<experiment>/` directories are not
//!   read; their cells are simulated again.
//! - `--only LIST` — run a comma-separated subset of the experiment ids
//!   (e.g. `--only fig07,table5`). A rerun reuses every cell that an
//!   earlier step or run committed to the same `--out DIR`.
//! - `--telemetry [--sample-window N]` — write one windowed time-series
//!   JSONL file per cell under `DIR/telemetry/` (requires `--out`).
//! - `--metrics-out PATH` — collect every cell's attributed byte
//!   decomposition in a metrics registry and dump its stable JSON to
//!   `PATH` at campaign end (observability-only; reports unchanged).
//! - `--scale {1/512,1/64,1/8,1}` — joint capacity/budget preset, as for
//!   the single-experiment binaries (see [`bear_bench::cli`]).
//!
//! One cell store serves the whole campaign, so a cell that several
//! experiments ask for (the Alloy baselines above all) is simulated
//! once and reloaded by every later step. Without `--out` the store
//! lives in process memory: the campaign still simulates each cell once,
//! but nothing persists.
//!
//! While running, a stderr heartbeat reports each completed cell
//! (`[cell i/N (...) elapsed ..s, ETA ..s]`) so long campaigns are
//! observable without waiting for a step to finish.
//!
//! Every cell runs under the [`bear_bench::supervisor`]: transient
//! failures retry with deterministic backoff (`BEAR_MAX_RETRIES`,
//! `BEAR_RETRY_BASE_MS`), attempts can carry a wall-clock deadline
//! (`BEAR_CELL_DEADLINE_MS`), and cells that exhaust their retries are
//! quarantined into `DIR/failures.json` while the campaign — and its
//! reports — complete around them. Setting `BEAR_CHAOS_SEED` (requires
//! `--out`) arms the deterministic chaos plan that the `chaos` binary
//! and test suite use to prove all of that recovery machinery correct.

use bear_bench::checkpoint::{self, CellStore};
use bear_bench::experiments as ex;
use bear_bench::report::Report;
use bear_bench::{chaos, cli, runner, supervisor, RunPlan};
use std::time::Instant;

/// One experiment step: report id plus its entry point.
type Step = (&'static str, fn(&RunPlan, &mut Report));

fn main() {
    let args = cli::parse_campaign_args(std::env::args().skip(1));
    let t0 = Instant::now();
    let steps: [Step; 15] = [
        ("fig03", ex::fig03_designs::run),
        ("fig04", ex::fig04_breakdown::run),
        ("fig05", ex::fig05_prob_bypass::run),
        ("fig07", ex::fig07_bab::run),
        ("fig09", ex::fig09_dcp::run),
        ("fig11", ex::fig11_ntc::run),
        ("fig12", ex::fig12_bear::run),
        ("table4", ex::table4_latency::run),
        ("fig13", ex::fig13_bloat::run),
        ("bloat_ledger", ex::bloat_ledger::run),
        ("fig14", ex::fig14_sensitivity::run),
        ("fig15", ex::fig15_banks::run),
        ("fig16", ex::fig16_sram_tags::run),
        ("fig17", ex::fig17_alternatives::run),
        ("table5", ex::table5_overhead::run),
    ];
    if let Some(only) = &args.only {
        for name in only {
            assert!(
                steps.iter().any(|(id, _)| id == name),
                "unknown experiment `{name}` in --only (known: {})",
                steps.map(|(id, _)| id).join(", ")
            );
        }
    }
    chaos::arm_from_env(args.out.as_deref());
    supervisor::set_manifest_dir(args.out.as_deref());
    let plan = cli::setup(&args);
    checkpoint::set_active(Some(
        args.out
            .as_deref()
            .map_or_else(CellStore::in_memory, CellStore::new),
    ));
    runner::set_heartbeat(true);
    for (name, f) in steps {
        if !args.selected(name) {
            continue;
        }
        let t = Instant::now();
        supervisor::set_experiment(name);
        let mut report = Report::new(name);
        f(&plan, &mut report);
        cli::write_report(&mut report, args.out.as_deref(), &plan);
        println!(
            "[{name} done in {:.1}s, total {:.1}s]\n",
            t.elapsed().as_secs_f64(),
            t0.elapsed().as_secs_f64()
        );
    }
    // With chaos armed the manifest must exist even when every fault was
    // dodged (the chaos driver reads it unconditionally); an unarmed
    // campaign only writes it when something actually happened, so a
    // clean campaign's output stays byte-for-byte what it always was.
    if let Some(out) = args.out.as_deref() {
        if chaos::armed_seed().is_some() {
            supervisor::write_manifest(out).expect("writing failures.json");
        }
    }
    if let Some(report) = supervisor::profile_report() {
        eprintln!("[{report}]");
    }
    cli::teardown(&args);
    runner::set_heartbeat(false);
    checkpoint::set_active(None);
    supervisor::set_manifest_dir(None);
}
