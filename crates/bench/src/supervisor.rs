//! Campaign supervision: deadlines, retry with deterministic backoff,
//! and quarantine of cells that exhaust their retries.
//!
//! PR 2's fault isolation records a failed cell once and abandons it.
//! For hour-scale campaigns (gigascale runs, the future campaign daemon)
//! that is not enough: a worker poisoned by a transient environmental
//! fault — a panic, a wedged host, a full disk — should be *retried*
//! before the cell is written off, and a cell that keeps failing should
//! be *quarantined* with enough context to reproduce it, without taking
//! the campaign down.
//!
//! The supervisor wraps every cell — campaign grid cells via
//! [`run_cell`], called by [`crate::runner`]'s parallel map, and `beard`
//! jobs alike, through one [`supervise_cell`] entry — in a retry loop:
//!
//! 1. Each attempt may run under a wall-clock **deadline**
//!    (`BEAR_CELL_DEADLINE_MS`); an attempt that outlives it is declared
//!    [`SimError::Timeout`] — the harness-level escalation of the in-sim
//!    forward-progress watchdog, able to catch wedges the sim cannot see.
//! 2. A failed attempt is classified by [`SimError::is_transient`]:
//!    transient failures are retried up to `BEAR_MAX_RETRIES` times with
//!    **deterministic exponential backoff** (base `BEAR_RETRY_BASE_MS`
//!    doubled per retry, plus seeded jitter — reproducible, never
//!    thundering-herd synchronized); permanent failures (config,
//!    invariant, divergence) fail immediately, because they would fail
//!    identically on every attempt.
//! 3. A cell that succeeds after retries is recorded as **healed**; a
//!    cell that exhausts them is **quarantined**: a
//!    [`FailureRow`] (kind, attempts, message) degrades it to a
//!    placeholder in the report, and a [`SupervisionRow`] in the
//!    `failures.json` manifest carries the full recovery story — error
//!    kind, attempt count, checkpoint state, and a repro pointer.
//!
//! All supervision chatter goes to **stderr**; with no faults and no
//! chaos plan armed, stdout and every report byte are identical to an
//! unsupervised run.

use crate::checkpoint::{self, CellStore};
use crate::report::{FailureRow, Json};
use crate::{chaos, runner, try_run_one};
use bear_core::config::SystemConfig;
use bear_core::metrics::RunStats;
use bear_sim::error::{RunOutcome, SimError};
use bear_sim::faultinject::ChaosKind;
use bear_sim::rng::SimRng;
use bear_telemetry::SelfProfiler;
use bear_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

/// Retry/deadline policy for one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Maximum retries after the first attempt (`BEAR_MAX_RETRIES`,
    /// default 2 — so up to three attempts per cell).
    pub max_retries: u32,
    /// Backoff base in milliseconds (`BEAR_RETRY_BASE_MS`, default 50):
    /// retry *n* sleeps `base * 2^(n-1)` plus jitter, capped at 10 s.
    pub backoff_base_ms: u64,
    /// Per-attempt wall-clock deadline (`BEAR_CELL_DEADLINE_MS`);
    /// `None` (the default) lets attempts run unbounded, like PR 2.
    pub deadline_ms: Option<u64>,
    /// Seed for the backoff jitter stream (mixed with the cell key, so
    /// different cells never sleep in lockstep).
    pub jitter_seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            backoff_base_ms: 50,
            deadline_ms: None,
            jitter_seed: 0xBEA2_5EED,
        }
    }
}

impl SupervisorConfig {
    /// The campaign policy, honoring the environment knobs
    /// (`BEAR_MAX_RETRIES`, `BEAR_RETRY_BASE_MS`, `BEAR_CELL_DEADLINE_MS`).
    ///
    /// # Panics
    ///
    /// Panics on malformed values — a typo must not silently disable
    /// retries for an hour-scale campaign.
    pub fn from_env() -> Self {
        let mut cfg = SupervisorConfig::default();
        if let Ok(v) = std::env::var("BEAR_MAX_RETRIES") {
            cfg.max_retries = v.parse().expect("BEAR_MAX_RETRIES must be an integer");
        }
        if let Ok(v) = std::env::var("BEAR_RETRY_BASE_MS") {
            cfg.backoff_base_ms = v.parse().expect("BEAR_RETRY_BASE_MS must be an integer");
        }
        if let Ok(v) = std::env::var("BEAR_CELL_DEADLINE_MS") {
            let ms: u64 = v.parse().expect("BEAR_CELL_DEADLINE_MS must be an integer");
            assert!(ms > 0, "BEAR_CELL_DEADLINE_MS must be positive");
            cfg.deadline_ms = Some(ms);
        }
        cfg
    }
}

/// How the supervisor disposed of a noteworthy cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Disposition {
    /// The cell failed at least once but a retry succeeded.
    Healed,
    /// The cell exhausted its retries (or failed permanently) and was
    /// written off; its report row is a placeholder.
    Quarantined,
    /// A fault was absorbed without affecting the cell's result (e.g. a
    /// checkpoint write failed but the in-memory result survived).
    Absorbed,
}

impl Disposition {
    /// Manifest section name.
    pub fn label(&self) -> &'static str {
        match self {
            Disposition::Healed => "healed",
            Disposition::Quarantined => "quarantined",
            Disposition::Absorbed => "absorbed",
        }
    }
}

/// One supervised-recovery event, as recorded in `failures.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionRow {
    /// Experiment id (tagged by the campaign driver after each step).
    pub experiment: String,
    /// Configuration (design) label of the cell.
    pub config: String,
    /// Workload name of the cell.
    pub workload: String,
    /// What happened to the cell.
    pub disposition: Disposition,
    /// Error kind of the (last) failure (`"panic"`, `"timeout"`, …).
    pub kind: String,
    /// Full message of the (last) failure.
    pub error: String,
    /// Attempts consumed (1 = failed or healed without any retry).
    pub attempts: usize,
    /// Label of the injected chaos fault, when one caused this (absent
    /// for organic failures).
    pub chaos: Option<String>,
    /// Path of the cell's committed checkpoint, if one exists on disk.
    pub checkpoint: Option<String>,
    /// How to reproduce the cell in isolation.
    pub repro: String,
    /// Correlation id threading this event to telemetry lines and
    /// metrics (the daemon stamps its per-job trace id here; batch
    /// campaigns leave it absent and their manifests unchanged).
    pub trace: Option<String>,
}

impl SupervisionRow {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("config".into(), Json::Str(self.config.clone())),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("error".into(), Json::Str(self.error.clone())),
            ("attempts".into(), Json::uint(self.attempts as u64)),
        ];
        fields.push((
            "chaos".into(),
            self.chaos.clone().map_or(Json::Null, Json::Str),
        ));
        fields.push((
            "checkpoint".into(),
            self.checkpoint.clone().map_or(Json::Null, Json::Str),
        ));
        fields.push(("repro".into(), Json::Str(self.repro.clone())));
        // Only daemon rows carry a trace; omitting the key otherwise
        // keeps batch-campaign manifests byte-identical to before.
        if let Some(trace) = &self.trace {
            fields.push(("trace".into(), Json::Str(trace.clone())));
        }
        Json::Obj(fields)
    }
}

/// Supervision events recorded since the campaign started (manifest
/// source) — appended by [`run_cell`]/[`record_absorbed`], tagged with
/// the current [`set_experiment`] label, snapshotted by
/// [`write_manifest`], drained by [`take_supervision`].
static MANIFEST: Mutex<Vec<SupervisionRow>> = Mutex::new(Vec::new());

/// Directory to persist `failures.json` into after every recorded event
/// (`None` keeps the manifest in-memory only). Incremental persistence
/// matters because the process can die *mid-experiment* — a chaos kill
/// point, a real OOM-kill — and recovery history must survive into the
/// resumed campaign's manifest.
static MANIFEST_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Experiment id to stamp onto subsequently recorded events (set by the
/// campaign driver at the start of each step).
static EXPERIMENT: Mutex<String> = Mutex::new(String::new());

/// Campaign-wide recovery event counters (`supervisor.retry` etc.),
/// reported at the end of a campaign via [`profile_report`].
static PROF: Mutex<SelfProfiler> = Mutex::new(SelfProfiler::new());

fn prof_bump(name: &'static str) {
    PROF.lock().expect("supervisor profile poisoned").bump(name);
}

/// Sets the experiment id stamped onto subsequently recorded supervision
/// events. The campaign driver calls this at the *start* of each step —
/// before any cell can fail — so even events whose process dies
/// mid-experiment carry the right id in the persisted manifest.
pub fn set_experiment(experiment: &str) {
    *EXPERIMENT.lock().expect("experiment label poisoned") = experiment.to_string();
}

/// Sets (or, with `None`, clears) the directory `failures.json` is
/// incrementally persisted into.
pub fn set_manifest_dir(dir: Option<&Path>) {
    *MANIFEST_DIR.lock().expect("manifest dir poisoned") = dir.map(Path::to_path_buf);
}

/// Records a supervision event (also used by the chaos layer for
/// absorbed checkpoint faults), stamping it with the current experiment
/// id and — when a manifest directory is set — immediately persisting
/// the updated `failures.json` so the event survives a process kill.
pub(crate) fn push_row(mut row: SupervisionRow) {
    if row.experiment.is_empty() {
        row.experiment = EXPERIMENT
            .lock()
            .expect("experiment label poisoned")
            .clone();
    }
    MANIFEST
        .lock()
        .expect("supervision manifest poisoned")
        .push(row);
    let dir = MANIFEST_DIR.lock().expect("manifest dir poisoned").clone();
    if let Some(dir) = dir {
        if let Err(e) = write_manifest(&dir) {
            eprintln!("[warning: failed to persist failures.json: {e}]");
        }
    }
}

/// Drains every recorded supervision event, sorted by (experiment,
/// config, workload, kind) — deterministic regardless of worker
/// completion order. Tests use this; the campaign manifest uses the
/// non-draining [`write_manifest`].
pub fn take_supervision() -> Vec<SupervisionRow> {
    let mut v = std::mem::take(&mut *MANIFEST.lock().expect("supervision manifest poisoned"));
    sort_rows(&mut v);
    v
}

fn sort_rows(v: &mut [SupervisionRow]) {
    // The full field tuple, so equal rows (a resumed campaign re-records
    // a quarantine identically) end up adjacent for dedup and the order
    // is completion-order- and worker-count-independent.
    let key = |r: &SupervisionRow| {
        (
            r.experiment.clone(),
            r.config.clone(),
            r.workload.clone(),
            r.kind.clone(),
            r.attempts,
            r.disposition,
            r.error.clone(),
            r.chaos.clone(),
            r.checkpoint.clone(),
            r.repro.clone(),
            r.trace.clone(),
        )
    };
    v.sort_by_key(key);
}

/// Parses one manifest entry back into a [`SupervisionRow`] (used to
/// merge a previous incarnation's persisted manifest). `None` for rows
/// that do not match the schema — a hand-edited manifest loses rows, it
/// never aborts a campaign.
fn row_from_json(v: &Json, disposition: Disposition) -> Option<SupervisionRow> {
    let s = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
    Some(SupervisionRow {
        experiment: s("experiment")?,
        config: s("config")?,
        workload: s("workload")?,
        disposition,
        kind: s("kind")?,
        error: s("error")?,
        attempts: v.get("attempts")?.as_u64()? as usize,
        chaos: s("chaos"),
        checkpoint: s("checkpoint"),
        repro: s("repro")?,
        trace: s("trace"),
    })
}

/// Rows persisted by a previous incarnation of this campaign (empty when
/// no manifest exists or it does not parse).
fn read_manifest_rows(dir: &Path) -> Vec<SupervisionRow> {
    let Ok(text) = std::fs::read_to_string(dir.join("failures.json")) else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    for d in [
        Disposition::Quarantined,
        Disposition::Healed,
        Disposition::Absorbed,
    ] {
        if let Some(section) = doc.get(d.label()).and_then(Json::as_arr) {
            rows.extend(section.iter().filter_map(|v| row_from_json(v, d)));
        }
    }
    rows
}

/// A held advisory lock on a directory's `failures.json`.
///
/// The manifest merge is read-merge-write: two concurrent writers — two
/// daemon incarnations during a restart overlap, a campaign and a daemon
/// sharing an out directory — can each read the pre-merge manifest and
/// the loser's rows vanish, even though each individual write is an
/// atomic rename. The lock file serializes the whole merge. It is
/// advisory (plain `create_new`, no OS byte-range locks, per the
/// no-registry rule) and self-healing: a lock older than
/// [`ManifestLock::STALE_MS`] is presumed abandoned by a killed process
/// and broken.
struct ManifestLock {
    path: PathBuf,
}

impl ManifestLock {
    /// Age (ms) past which a lock file is presumed orphaned by a dead
    /// writer and broken. Merges take milliseconds; a kill -9 between
    /// acquire and drop is the only way a lock gets this old.
    const STALE_MS: u128 = 5_000;

    fn acquire(dir: &Path) -> std::io::Result<ManifestLock> {
        let path = dir.join("failures.json.lock");
        let deadline = std::time::Instant::now() + Duration::from_millis(10_000);
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(ManifestLock { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = path
                        .metadata()
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age.as_millis() > Self::STALE_MS);
                    if stale || std::time::Instant::now() > deadline {
                        // Orphaned (or wedged beyond any plausible merge):
                        // break it and retry the create_new race.
                        std::fs::remove_file(&path).ok();
                        continue;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for ManifestLock {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Writes the machine-readable recovery manifest `DIR/failures.json`
/// (atomically: temp file, fsync, rename) from everything recorded so
/// far **merged with the manifest a previous incarnation of this
/// campaign persisted in `DIR`** — a killed-and-resumed campaign keeps
/// its full recovery history (identical rows recur deterministically
/// across incarnations and collapse in the dedup). Returns its path.
/// The schema:
///
/// ```json
/// {
///   "campaign": {"chaos_seed": 7, "max_retries": 2},
///   "quarantined": [{"experiment": "fig07", "config": "BAB",
///     "workload": "rate:mcf", "kind": "panic", "error": "...",
///     "attempts": 3, "chaos": "worker-panic",
///     "checkpoint": null, "repro": "..."}],
///   "healed": [...same shape...],
///   "absorbed": [...same shape...]
/// }
/// ```
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_manifest(dir: &Path) -> std::io::Result<PathBuf> {
    let rows = MANIFEST
        .lock()
        .expect("supervision manifest poisoned")
        .clone();
    merge_rows_into(dir, rows)
}

/// Merges `new_rows` into `DIR/failures.json` under the manifest's
/// advisory lock: existing rows are re-read *inside* the critical
/// section, so two concurrent writer processes both land their rows
/// instead of last-writer-wins dropping one side's. This is the write
/// path for everything that persists supervision history — the in-process
/// campaign manifest ([`write_manifest`]) and the daemon's per-job
/// recovery rows.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn merge_rows_into(dir: &Path, new_rows: Vec<SupervisionRow>) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let _lock = ManifestLock::acquire(dir)?;
    let mut rows = read_manifest_rows(dir);
    rows.extend(new_rows);
    sort_rows(&mut rows);
    rows.dedup();
    let scfg = SupervisorConfig::from_env();
    let section = |d: Disposition| {
        Json::Arr(
            rows.iter()
                .filter(|r| r.disposition == d)
                .map(SupervisionRow::to_json)
                .collect(),
        )
    };
    let doc = Json::Obj(vec![
        (
            "campaign".into(),
            Json::Obj(vec![
                (
                    "chaos_seed".into(),
                    chaos::armed_seed().map_or(Json::Null, Json::uint),
                ),
                ("max_retries".into(), Json::uint(scfg.max_retries as u64)),
            ]),
        ),
        ("quarantined".into(), section(Disposition::Quarantined)),
        ("healed".into(), section(Disposition::Healed)),
        ("absorbed".into(), section(Disposition::Absorbed)),
    ]);
    std::fs::create_dir_all(dir)?;
    let path = dir.join("failures.json");
    let tmp = dir.join("failures.json.tmp");
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(doc.to_string_pretty().as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Compact recovery summary for the campaign heartbeat (e.g.
/// `"2 retries, 1 quarantined"`), or `None` while the campaign is clean
/// — quiet campaigns keep their exact pre-supervision heartbeat lines.
pub fn recovery_note() -> Option<String> {
    let p = PROF.lock().expect("supervisor profile poisoned");
    let count = |name: &str| {
        p.rows()
            .find(|&(n, _, _)| n == name)
            .map_or(0, |(_, _, c)| c)
    };
    let parts: Vec<String> = [
        ("supervisor.retry", "retries"),
        ("supervisor.healed", "healed"),
        ("supervisor.quarantined", "quarantined"),
        ("supervisor.absorbed", "absorbed"),
    ]
    .iter()
    .filter_map(|(key, label)| {
        let c = count(key);
        (c > 0).then(|| format!("{c} {label}"))
    })
    .collect();
    (!parts.is_empty()).then(|| parts.join(", "))
}

/// A text report of the supervisor's recovery counters (retries, heals,
/// quarantines, absorbed faults), or `None` when nothing happened —
/// campaign drivers print it to stderr at the end of a run.
pub fn profile_report() -> Option<String> {
    let p = PROF.lock().expect("supervisor profile poisoned");
    if p.is_empty() {
        return None;
    }
    let mut rows: Vec<(&'static str, u64)> = p.rows().map(|(n, _ns, c)| (n, c)).collect();
    rows.sort();
    let body: Vec<String> = rows.iter().map(|(n, c)| format!("{n}={c}")).collect();
    Some(format!("supervision: {}", body.join(" ")))
}

/// Deterministic backoff before retry number `retry_no` (1-based) of the
/// cell identified by `key`: exponential in the retry number, plus
/// seeded jitter derived from (jitter seed, cell key, retry number) so
/// the schedule is reproducible but never synchronized across cells.
/// Capped at 10 s.
pub fn backoff_ms(scfg: &SupervisorConfig, key: u64, retry_no: u32) -> u64 {
    let base = scfg.backoff_base_ms;
    let exp = base.saturating_mul(1u64 << (retry_no.saturating_sub(1)).min(16));
    let jitter =
        SimRng::new(scfg.jitter_seed ^ key ^ (retry_no as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .next_below(base.max(1));
    exp.saturating_add(jitter).min(10_000)
}

/// Runs `f` to completion with panic capture, no deadline.
fn run_inline<R>(context: &str, f: impl FnOnce() -> RunOutcome<R>) -> RunOutcome<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(SimError::panicked(context, panic_message(&payload))))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` on a helper thread and waits at most `limit_ms`; an attempt
/// that outlives the deadline becomes [`SimError::Timeout`]. The
/// abandoned thread is detached — it finishes (or panics) into a
/// disconnected channel and its result is dropped; the supervisor has
/// already moved on.
fn run_deadlined<R, F>(context: &str, limit_ms: u64, f: F) -> RunOutcome<R>
where
    R: Send + 'static,
    F: FnOnce() -> RunOutcome<R> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let ctx = context.to_string();
    std::thread::spawn(move || tx.send(run_inline(&ctx, f)).ok());
    match rx.recv_timeout(Duration::from_millis(limit_ms)) {
        Ok(out) => out,
        Err(_) => Err(SimError::timeout(context, limit_ms)),
    }
}

/// Supervises repeated attempts of one unit of work: retry loop,
/// per-attempt deadline, chaos injection, and classification of the
/// final outcome. `attempt` receives the attempt number (0-based).
///
/// Returns the final outcome plus a [`SupervisionRow`] when anything
/// noteworthy happened (`None` for a clean first-attempt success).
/// Recording the row (manifest, failure log) is the caller's job so this
/// stays a pure, unit-testable state machine.
pub fn supervise_with<R, F>(
    scfg: &SupervisorConfig,
    key: u64,
    config_label: &str,
    workload_name: &str,
    repro: &str,
    attempt: F,
) -> (RunOutcome<R>, Option<SupervisionRow>)
where
    R: Send + 'static,
    F: Fn(u32) -> RunOutcome<R> + Clone + Send + Sync + 'static,
{
    let context = format!("{config_label}/{workload_name}");
    let make_row = |disposition, e: &SimError, attempts: u32, chaos| SupervisionRow {
        experiment: String::new(),
        config: config_label.to_string(),
        workload: workload_name.to_string(),
        disposition,
        kind: e.kind().to_string(),
        error: e.to_string(),
        attempts: attempts as usize,
        chaos,
        checkpoint: None,
        repro: repro.to_string(),
        trace: None,
    };
    let mut first_error: Option<SimError> = None;
    let mut chaos_label: Option<String> = None;
    let mut n: u32 = 0;
    loop {
        let fault = chaos::attempt_fault(key, n);
        if let Some(f) = fault {
            chaos_label.get_or_insert_with(|| f.kind.label().to_string());
        }
        // A chaos stall carries its own (short) deadline so the injected
        // wedge is detected quickly; otherwise the campaign policy rules.
        let deadline = chaos::stall_deadline_ms(fault).or(scfg.deadline_ms);
        let outcome = {
            let attempt = attempt.clone();
            let run = move || {
                if let Some(e) = chaos::apply_attempt_fault(fault) {
                    return Err(e);
                }
                attempt(n)
            };
            match deadline {
                Some(ms) => run_deadlined(&context, ms, run),
                None => run_inline(&context, run),
            }
        };
        match outcome {
            Ok(r) => {
                let row = (n > 0).then(|| {
                    prof_bump("supervisor.healed");
                    let e = first_error.clone().expect("retried without an error");
                    eprintln!("[cell HEALED on attempt {}: {context}: {e}]", n + 1);
                    make_row(Disposition::Healed, &e, n + 1, chaos_label.clone())
                });
                return (Ok(r), row);
            }
            Err(e) => {
                let e = e.in_context(context.clone());
                first_error.get_or_insert_with(|| e.clone());
                if e.is_transient() && n < scfg.max_retries {
                    n += 1;
                    let sleep = backoff_ms(scfg, key, n);
                    prof_bump("supervisor.retry");
                    eprintln!(
                        "[cell RETRY {n}/{}: {context}: {e}; backing off {sleep}ms]",
                        scfg.max_retries
                    );
                    std::thread::sleep(Duration::from_millis(sleep));
                    continue;
                }
                prof_bump("supervisor.quarantined");
                eprintln!(
                    "[cell QUARANTINED after {} attempt(s): {context}: {e}]",
                    n + 1
                );
                let row = make_row(Disposition::Quarantined, &e, n + 1, chaos_label);
                return (Err(e), Some(row));
            }
        }
    }
}

/// Records a chaos checkpoint fault the commit path absorbed (the cell's
/// in-memory result survived it) in the manifest and counters.
pub(crate) fn record_absorbed(
    cfg: &SystemConfig,
    workload: &Workload,
    kind: ChaosKind,
    detail: &str,
) {
    eprintln!(
        "[chaos: {} on checkpoint of {} × {} ({detail})]",
        kind.label(),
        cfg.design.label(),
        workload.name
    );
    prof_bump("supervisor.absorbed");
    push_row(SupervisionRow {
        experiment: String::new(),
        config: cfg.design.label().to_string(),
        workload: workload.name.clone(),
        disposition: Disposition::Absorbed,
        kind: "io".to_string(),
        error: detail.to_string(),
        attempts: 0,
        chaos: Some(kind.label().to_string()),
        checkpoint: None,
        repro: String::new(),
        trace: None,
    });
}

/// The one supervised entry for a simulation cell, shared by campaigns
/// ([`run_cell`]) and the daemon: runs `attempt` under
/// [`supervise_with`], keyed by the cell's identity and labelled by its
/// design and workload, and fills the recovery row's checkpoint pointer
/// from `store`. Recording the row is the caller's job.
pub fn supervise_cell<F>(
    scfg: &SupervisorConfig,
    cfg: &SystemConfig,
    workload: &Workload,
    store: Option<&CellStore>,
    repro: &str,
    attempt: F,
) -> (RunOutcome<RunStats>, Option<SupervisionRow>)
where
    F: Fn() -> RunOutcome<RunStats> + Clone + Send + Sync + 'static,
{
    let key = checkpoint::cell_hash(cfg, workload);
    let (outcome, mut row) = supervise_with(
        scfg,
        key,
        cfg.design.label(),
        &workload.name,
        repro,
        move |_| attempt(),
    );
    if let Some(row) = &mut row {
        row.checkpoint = store
            .and_then(|s| s.committed_path(cfg, workload))
            .map(|p| p.display().to_string());
    }
    (outcome, row)
}

/// The supervised cell runner used by [`crate::runner::run_suite`] /
/// [`crate::runner::run_matrix`]: [`try_run_one`] under
/// [`supervise_cell`]; records recovery events in the manifest and — on
/// quarantine — the [`FailureRow`] that degrades the cell to a
/// placeholder in the report.
pub fn run_cell(cfg: &SystemConfig, workload: &Workload) -> RunOutcome<RunStats> {
    let repro = format!(
        "cell {} (BEAR_WORKERS=1, same plan/env)",
        checkpoint::cell_stem(cfg, workload)
    );
    let attempt = {
        let cfg = cfg.clone();
        let workload = workload.clone();
        move || try_run_one(&cfg, &workload)
    };
    let scfg = SupervisorConfig::from_env();
    let store = checkpoint::active();
    let (outcome, row) = supervise_cell(&scfg, cfg, workload, store.as_ref(), &repro, attempt);
    if let Some(row) = row {
        if row.disposition == Disposition::Quarantined {
            runner::record_failure_row(FailureRow {
                config: row.config.clone(),
                workload: row.workload.clone(),
                kind: row.kind.clone(),
                error: row.error.clone(),
                attempts: row.attempts,
            });
        }
        push_row(row);
    }
    if outcome.is_ok() {
        chaos::on_cell_complete();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn quiet() -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 2,
            backoff_base_ms: 1,
            deadline_ms: None,
            jitter_seed: 7,
        }
    }

    #[test]
    fn clean_success_produces_no_row() {
        let (out, row) = supervise_with(&quiet(), 1, "A", "w", "r", |_| Ok(42u64));
        assert_eq!(out.unwrap(), 42);
        assert!(row.is_none(), "clean first-attempt success is silent");
    }

    #[test]
    fn transient_failures_heal_within_the_retry_budget() {
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let (out, row) = supervise_with(&quiet(), 2, "A", "w", "r", move |n| {
            c.fetch_add(1, Ordering::SeqCst);
            if n < 2 {
                Err(SimError::panicked("cell", "flaky"))
            } else {
                Ok(7u64)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        let row = row.expect("healed cells are recorded");
        assert_eq!(row.disposition, Disposition::Healed);
        assert_eq!(row.attempts, 3);
        assert_eq!(row.kind, "panic", "the first error is the one reported");
        assert!(row.error.contains("A/w"), "error is contextualized");
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let (out, row) = supervise_with(&quiet(), 3, "A", "w", "r", move |_| {
            c.fetch_add(1, Ordering::SeqCst);
            Err::<u64, _>(SimError::config("l3", "ways must be non-zero"))
        });
        assert_eq!(out.unwrap_err().kind(), "config");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry on config errors");
        let row = row.expect("quarantined");
        assert_eq!(row.disposition, Disposition::Quarantined);
        assert_eq!(row.attempts, 1);
    }

    #[test]
    fn exhausted_retries_quarantine_with_attempt_count() {
        let (out, row) = supervise_with(&quiet(), 4, "BAB", "rate:mcf", "r", |_| {
            Err::<u64, _>(SimError::panicked("cell", "always broken"))
        });
        assert_eq!(out.unwrap_err().kind(), "panic");
        let row = row.expect("quarantined");
        assert_eq!(row.disposition, Disposition::Quarantined);
        assert_eq!(row.attempts, 3, "initial attempt + max_retries");
        assert_eq!(row.workload, "rate:mcf");
    }

    #[test]
    fn deadline_converts_a_wedged_attempt_into_timeout_then_heals() {
        let scfg = SupervisorConfig {
            deadline_ms: Some(40),
            ..quiet()
        };
        let (out, row) = supervise_with(&scfg, 5, "A", "w", "r", |n| {
            if n == 0 {
                std::thread::sleep(Duration::from_millis(400));
            }
            Ok(1u64)
        });
        assert_eq!(out.unwrap(), 1);
        let row = row.expect("healed after the timeout");
        assert_eq!(row.kind, "timeout");
        assert!(row.error.contains("40ms"));
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let scfg = SupervisorConfig {
            backoff_base_ms: 50,
            jitter_seed: 99,
            ..quiet()
        };
        let b1 = backoff_ms(&scfg, 0xAB, 1);
        let b2 = backoff_ms(&scfg, 0xAB, 2);
        let b3 = backoff_ms(&scfg, 0xAB, 3);
        assert_eq!(b1, backoff_ms(&scfg, 0xAB, 1), "same inputs, same sleep");
        assert!((50..100).contains(&b1), "base + jitter < base: {b1}");
        assert!((100..150).contains(&b2), "doubled: {b2}");
        assert!((200..250).contains(&b3), "doubled again: {b3}");
        assert_ne!(
            backoff_ms(&scfg, 0xAB, 1),
            backoff_ms(&scfg, 0xCD, 1),
            "different cells jitter differently (for these keys)"
        );
        assert_eq!(backoff_ms(&scfg, 1, 30), 10_000, "hard 10s cap");
    }

    #[test]
    fn concurrent_manifest_merges_drop_no_rows() {
        // Regression: before the advisory lock, two writers could both
        // read the pre-merge manifest and the loser's rows vanished
        // (last-writer-wins), even though each rename was atomic.
        let dir = std::env::temp_dir().join(format!(
            "bear_manifest_merge_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let writers = 8;
        let handles: Vec<_> = (0..writers)
            .map(|i| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let row = SupervisionRow {
                        experiment: "merge-race".into(),
                        config: format!("W{i}"),
                        workload: format!("w{i}"),
                        disposition: Disposition::Quarantined,
                        kind: "panic".into(),
                        error: format!("writer {i}"),
                        attempts: 1,
                        chaos: None,
                        checkpoint: None,
                        repro: String::new(),
                        trace: None,
                    };
                    merge_rows_into(&dir, vec![row]).expect("merge");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }
        let rows = read_manifest_rows(&dir);
        let mine: Vec<_> = rows
            .iter()
            .filter(|r| r.experiment == "merge-race")
            .collect();
        assert_eq!(
            mine.len(),
            writers,
            "every concurrent writer's row must survive the merge: {mine:?}"
        );
        assert!(
            !dir.join("failures.json.lock").exists(),
            "the lock is released after the merge"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_manifest_locks_are_broken() {
        let dir = std::env::temp_dir().join(format!("bear_manifest_stale_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // An orphaned lock from a killed writer, aged past the stale bound.
        let lock = dir.join("failures.json.lock");
        std::fs::write(&lock, "").unwrap();
        let old = std::time::SystemTime::now() - Duration::from_secs(60);
        // Not every test filesystem lets us backdate mtime; fall back to
        // exercising the wait-then-break path only when we can.
        let backdated = std::fs::File::open(&lock)
            .and_then(|f| f.set_modified(old))
            .is_ok();
        if backdated {
            let t0 = std::time::Instant::now();
            merge_rows_into(&dir, Vec::new()).expect("merge past stale lock");
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "a stale lock must be broken promptly"
            );
            assert!(dir.join("failures.json").exists());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_rows_sort_deterministically() {
        let mk = |cfg: &str, w: &str, kind: &str| SupervisionRow {
            experiment: "figX".into(),
            config: cfg.into(),
            workload: w.into(),
            disposition: Disposition::Quarantined,
            kind: kind.into(),
            error: String::new(),
            attempts: 1,
            chaos: None,
            checkpoint: None,
            repro: String::new(),
            trace: None,
        };
        let mut a = vec![
            mk("B", "w2", "panic"),
            mk("A", "w9", "io"),
            mk("A", "w1", "panic"),
        ];
        let mut b = a.clone();
        b.reverse();
        sort_rows(&mut a);
        sort_rows(&mut b);
        assert_eq!(a, b, "sort is insertion-order independent");
        assert_eq!(a[0].config, "A");
        assert_eq!(a[0].workload, "w1");
    }
}
