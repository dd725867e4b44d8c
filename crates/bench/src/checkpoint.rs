//! Campaign checkpoint/resume: one content-addressed cell store.
//!
//! A full experiment campaign simulates hundreds of (configuration,
//! workload) cells over many minutes, and many experiments ask for the
//! same cells (every design is measured against the same Alloy
//! baseline). The store is keyed by cell identity alone, so a cell is
//! simulated once per campaign and every later request — from the same
//! step, a later step, or a rerun into the same report directory —
//! reloads it. With a report directory, every finished cell is persisted
//! *incrementally*, so losing the campaign to a mid-run crash, OOM-kill,
//! or `kill -9` costs only the cells in flight:
//!
//! ```text
//! DIR/cells/<slug>-<hash>.json   the cell's RunStats
//! DIR/cells/<slug>-<hash>.done   commit marker: digest of the .json bytes
//! ```
//!
//! The write protocol is crash-safe: stats are written to a temp file,
//! fsync'd, renamed into place, and only then marked committed by an
//! fsync'd `.done` file **containing the digest of the exact bytes of
//! the data file**. An interrupt at any point leaves either a complete,
//! marked cell or an ignorable partial — never a half-written cell that
//! a resume would trust. The digest closes the last gap: even a
//! committed-*looking* cell whose data file was torn after the fact (a
//! crashed filesystem, a partial disk flush, a chaos-injected
//! truncation) hashes wrong and is rejected, not merely relied on to
//! fail JSON parsing.
//!
//! Without a report directory the same store keeps the committed bytes
//! and markers in an in-process map ([`CellStore::in_memory`]): the same
//! commit and load path, digest check, identity check and JSON round
//! trip, only nothing reaches the disk.
//!
//! `<hash>` is an FNV-1a digest of the **full Debug rendering** of the
//! cell's configuration and workload, so any parameter change — cycle
//! counts, scale, feature flags, suite contents — changes the filename
//! and stale cells are never reused. Reuse requires the `.done` marker,
//! a parseable document, and a matching recorded hash; anything less and
//! the cell silently re-runs. Directories of the older per-experiment
//! layout (`DIR/cells/<experiment>/`) are not read: their cells are
//! simulated again, which costs work but never correctness.
//!
//! Because [`crate::report::stats_to_json`] round-trips `RunStats`
//! bit-for-bit, a resumed or deduplicated campaign produces reports
//! **byte identical** to an uninterrupted one that simulated every
//! request (pinned by the `resume` integration tests).
//!
//! The store is activated once per campaign by the driver
//! ([`set_active`]); `try_run_one` consults it transparently, so every
//! experiment module gains checkpointing and reuse without code changes.
//! The `beard` daemon serves its jobs from the same `DIR/cells/` store
//! through the same cell runner ([`crate::run_cell_in`]), so a daemon
//! started on a campaign's report directory replays the campaign's cells
//! and a later campaign reloads the daemon's.

use crate::report::{stats_from_json, stats_to_json, Json};
use bear_core::config::SystemConfig;
use bear_core::metrics::RunStats;
use bear_sim::faultinject::ChaosKind;
use bear_workloads::Workload;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// FNV-1a 64-bit hash (offline-first: no hasher dependencies).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identity of a cell: digest over the full `Debug` rendering of its
/// configuration and workload.
pub fn cell_hash(cfg: &SystemConfig, workload: &Workload) -> u64 {
    fnv1a64(format!("{cfg:?}\n{workload:?}").as_bytes())
}

/// Filesystem-safe, human-skimmable cell file stem:
/// `<design>-<workload>-<hash>`. Shared with the telemetry sink so a
/// cell's checkpoint and its `telemetry/<stem>.jsonl` time series carry
/// the same name.
pub fn cell_stem(cfg: &SystemConfig, workload: &Workload) -> String {
    let slug: String = format!("{}-{}", cfg.design.label(), workload.name)
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .take(48)
        .collect();
    format!("{slug}-{:016x}", cell_hash(cfg, workload))
}

/// Store of committed cells, keyed by cell identity.
#[derive(Debug, Clone)]
pub struct CellStore {
    backend: Backend,
}

/// Where a [`CellStore`] keeps its `<stem>.json` / `<stem>.done` pairs.
#[derive(Debug, Clone)]
enum Backend {
    /// Files in a directory, under the crash-safe commit protocol.
    Dir(PathBuf),
    /// An in-process map from file name to contents, shared by clones.
    Mem(Arc<Mutex<BTreeMap<String, String>>>),
}

impl CellStore {
    /// Store rooted at `OUT_DIR/cells/`.
    pub fn new(out_dir: &Path) -> CellStore {
        CellStore::at(&out_dir.join("cells"))
    }

    /// Store rooted at an explicit directory — for journals that reuse
    /// the commit protocol but are not campaign cell caches (the
    /// campaign daemon's job journal).
    pub fn at(dir: &Path) -> CellStore {
        CellStore {
            backend: Backend::Dir(dir.to_path_buf()),
        }
    }

    /// Store that keeps committed records in process memory: a campaign
    /// without a report directory still simulates each cell once.
    pub fn in_memory() -> CellStore {
        CellStore {
            backend: Backend::Mem(Arc::default()),
        }
    }

    /// Contents of the record file `name`, if present.
    fn read(&self, name: &str) -> Option<String> {
        match &self.backend {
            Backend::Dir(dir) => fs::read_to_string(dir.join(name)).ok(),
            Backend::Mem(files) => files
                .lock()
                .expect("cell store poisoned")
                .get(name)
                .cloned(),
        }
    }

    /// Loads a committed cell, or `None` when the cell is absent,
    /// uncommitted (no `.done` marker), torn (the data file's bytes no
    /// longer hash to the digest the marker recorded at commit time),
    /// unparseable, or was produced by a different configuration (hash
    /// mismatch). `None` simply means "re-run the cell" — a corrupt
    /// checkpoint can cost work, never correctness.
    pub fn load(&self, cfg: &SystemConfig, workload: &Workload) -> Option<RunStats> {
        let body = self.load_raw(&cell_stem(cfg, workload))?;
        let doc = Json::parse(&body).ok()?;
        if doc.get("cell_hash")?.as_str()? != format!("{:016x}", cell_hash(cfg, workload)) {
            return None;
        }
        let name = doc.get("workload")?.as_str()?;
        if name != workload.name {
            return None;
        }
        stats_from_json(name, doc.get("stats")?).ok()
    }

    /// Persists a finished cell with the crash-safe protocol described in
    /// the module docs.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error; callers treat
    /// checkpointing as best-effort and keep the in-memory result.
    pub fn store(
        &self,
        cfg: &SystemConfig,
        workload: &Workload,
        stats: &RunStats,
    ) -> std::io::Result<()> {
        self.store_with_fault(cfg, workload, stats, None)
    }

    /// [`CellStore::store`] with an optional chaos fault applied at the
    /// weakest points of the protocol: [`ChaosKind::CheckpointIo`] fails
    /// the commit as a failed fsync of the data file would (nothing is
    /// committed — the classic full-disk / dying-device failure), and
    /// [`ChaosKind::TornCheckpoint`] truncates the data file *after* the
    /// commit marker landed (the committed-looking artifact a crashed
    /// filesystem can leave). Any other kind is a plain store.
    pub(crate) fn store_with_fault(
        &self,
        cfg: &SystemConfig,
        workload: &Workload,
        stats: &RunStats,
        fault: Option<ChaosKind>,
    ) -> std::io::Result<()> {
        let doc = Json::Obj(vec![
            (
                "cell_hash".into(),
                Json::Str(format!("{:016x}", cell_hash(cfg, workload))),
            ),
            ("workload".into(), Json::Str(workload.name.clone())),
            ("stats".into(), stats_to_json(stats)),
        ]);
        let mut body = doc.to_string_pretty();
        body.push('\n');
        self.commit_raw(&cell_stem(cfg, workload), &body, fault)
    }

    /// The shared commit path: temp file, fsync, rename, fsync'd `.done`
    /// marker recording the digest of the exact committed bytes, with the
    /// optional chaos fault applied at the protocol's weakest points. An
    /// in-memory store records the same bytes and marker.
    fn commit_raw(&self, stem: &str, body: &str, fault: Option<ChaosKind>) -> std::io::Result<()> {
        if fault == Some(ChaosKind::CheckpointIo) {
            // The injected fsync failure: the data never provably
            // reached the disk, so the cell stays uncommitted.
            return Err(std::io::Error::other(
                "chaos: injected fsync failure (checkpoint-io)",
            ));
        }
        let marker = format!("{:016x}\n", fnv1a64(body.as_bytes()));
        // The torn-checkpoint fault leaves a committed marker over the
        // first 60% of the data, as a crashed filesystem can.
        let torn = (fault == Some(ChaosKind::TornCheckpoint))
            .then(|| body.get(..body.len() * 3 / 5).unwrap_or_default());
        let dir = match &self.backend {
            Backend::Dir(dir) => dir,
            Backend::Mem(files) => {
                let mut files = files.lock().expect("cell store poisoned");
                files.insert(format!("{stem}.json"), torn.unwrap_or(body).to_string());
                files.insert(format!("{stem}.done"), marker);
                return Ok(());
            }
        };
        fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("{stem}.json"));
        let tmp = json_path.with_extension("json.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &json_path)?;
        {
            let mut f = File::create(dir.join(format!("{stem}.done")))?;
            f.write_all(marker.as_bytes())?;
            f.sync_all()?;
        }
        // Make the rename and the marker's directory entry durable too
        // (best-effort: not all filesystems support fsync on directories).
        if let Ok(d) = File::open(dir) {
            d.sync_all().ok();
        }
        if let Some(kept) = torn {
            fs::write(&json_path, kept).ok();
        }
        Ok(())
    }

    /// Commits an arbitrary record under `stem` with the full crash-safe
    /// protocol. The daemon journals job submissions through this, so a
    /// kill -9 at any instant leaves either a committed, digest-verified
    /// record or an ignorable partial.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn store_raw(&self, stem: &str, body: &str) -> std::io::Result<()> {
        self.commit_raw(stem, body, None)
    }

    /// Loads the committed record under `stem`, or `None` when it is
    /// absent, uncommitted, or its bytes no longer hash to the digest the
    /// `.done` marker recorded at commit time.
    pub fn load_raw(&self, stem: &str) -> Option<String> {
        let committed_digest = self.read(&format!("{stem}.done"))?;
        let body = self.read(&format!("{stem}.json"))?;
        if committed_digest.trim() != format!("{:016x}", fnv1a64(body.as_bytes())) {
            return None; // torn or truncated after commit
        }
        Some(body)
    }

    /// Stems of every committed record in the store, sorted. Partials
    /// without a `.done` marker are invisible; torn records still list
    /// (their marker exists) but fail [`CellStore::load_raw`].
    pub fn list_raw(&self) -> Vec<String> {
        let names: Vec<String> = match &self.backend {
            Backend::Dir(dir) => match fs::read_dir(dir) {
                Ok(entries) => entries
                    .filter_map(|e| e.ok()?.file_name().into_string().ok())
                    .collect(),
                Err(_) => Vec::new(),
            },
            Backend::Mem(files) => files
                .lock()
                .expect("cell store poisoned")
                .keys()
                .cloned()
                .collect(),
        };
        let mut stems: Vec<String> = names
            .iter()
            .filter_map(|name| Some(name.strip_suffix(".done")?.to_string()))
            .collect();
        stems.sort();
        stems
    }

    /// Durably sets an auxiliary flag `<stem>.<flag>` next to the record
    /// (e.g. the daemon's `cancelled` tombstones). Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn set_flag(&self, stem: &str, flag: &str) -> std::io::Result<()> {
        let name = format!("{stem}.{flag}");
        let dir = match &self.backend {
            Backend::Dir(dir) => dir,
            Backend::Mem(files) => {
                let mut files = files.lock().expect("cell store poisoned");
                files.insert(name, String::new());
                return Ok(());
            }
        };
        fs::create_dir_all(dir)?;
        File::create(dir.join(name))?.sync_all()?;
        if let Ok(d) = File::open(dir) {
            d.sync_all().ok();
        }
        Ok(())
    }

    /// Whether [`CellStore::set_flag`] was durably recorded for `stem`.
    pub fn has_flag(&self, stem: &str, flag: &str) -> bool {
        self.read(&format!("{stem}.{flag}")).is_some()
    }

    /// Commits a finished cell, best-effort: a write error is a warning,
    /// never a failed simulation. An armed [`crate::chaos`] plan's
    /// checkpoint fault for this cell (torn file, failed fsync) is
    /// applied here and recorded as an *absorbed* event: the in-memory
    /// result survives, so the fault costs a re-run, never a result.
    pub(crate) fn commit(&self, cfg: &SystemConfig, workload: &Workload, stats: &RunStats) {
        let fault = crate::chaos::checkpoint_fault_for(cfg, workload);
        let result = self.store_with_fault(cfg, workload, stats, fault);
        if let Some(kind) = fault {
            let detail = if result.is_ok() {
                "data file truncated after commit; resume re-runs the cell"
            } else {
                "cell left unpersisted; resume re-runs the cell"
            };
            crate::supervisor::record_absorbed(cfg, workload, kind, detail);
        }
        if let Err(e) = result {
            eprintln!(
                "[warning: failed to checkpoint {} × {}: {e}]",
                cfg.design.label(),
                workload.name
            );
        }
    }

    /// Path of this cell's committed data file, or `None` when the cell
    /// has no `.done` marker on disk (quarantine manifests record this so
    /// a failure's repro pointer says whether cached work exists). An
    /// in-memory store has no files, so it always answers `None`.
    pub fn committed_path(&self, cfg: &SystemConfig, workload: &Workload) -> Option<PathBuf> {
        let Backend::Dir(dir) = &self.backend else {
            return None;
        };
        let stem = cell_stem(cfg, workload);
        dir.join(format!("{stem}.done"))
            .exists()
            .then(|| dir.join(format!("{stem}.json")))
    }
}

/// The campaign-wide active store, consulted by `try_run_one`. `None`
/// (the default) disables checkpointing entirely.
static ACTIVE: Mutex<Option<CellStore>> = Mutex::new(None);

/// Activates (or, with `None`, deactivates) checkpointing for subsequent
/// cells. The campaign driver calls this once, before its first step.
pub fn set_active(store: Option<CellStore>) {
    *ACTIVE.lock().expect("checkpoint store poisoned") = store;
}

/// A handle on the active store; the lock is not held across its I/O.
pub(crate) fn active() -> Option<CellStore> {
    ACTIVE.lock().expect("checkpoint store poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_core::config::DesignKind;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bear_checkpoint_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample() -> (SystemConfig, Workload, RunStats) {
        let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        let workload = bear_workloads::rate_workloads().remove(0);
        let mut stats = RunStats {
            workload: workload.name.clone(),
            design: cfg.design.label().to_string(),
            cycles: 12_345,
            insts_per_core: vec![10, 20, 30],
            ipc_per_core: vec![0.5, 1.0 / 3.0, 0.25],
            l3_hit_rate: 0.125,
            cache_read_queue_latency: 9.75,
            mem_bytes: 1 << 30,
            ..Default::default()
        };
        stats.l4.read_lookups = 99;
        stats.l4.hit_rate = 2.0 / 3.0;
        stats.bloat.bytes[0] = 640;
        stats.bloat.useful_lines = 8;
        (cfg, workload, stats)
    }

    #[test]
    fn store_then_load_roundtrips_exactly() {
        let dir = tmp_dir("roundtrip");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir);
        assert!(store.load(&cfg, &workload).is_none(), "empty store misses");
        store.store(&cfg, &workload, &stats).expect("store cell");
        assert_eq!(store.load(&cfg, &workload), Some(stats));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_or_corrupt_cells_are_ignored() {
        let dir = tmp_dir("corrupt");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir);
        store.store(&cfg, &workload, &stats).expect("store cell");
        let json_path = store.committed_path(&cfg, &workload).expect("committed");
        let done_path = json_path.with_extension("done");

        // Truncated (crash mid-write would have hit the tmp file, but
        // defend against external corruption too).
        fs::write(&json_path, "{\"cell_hash\": \"trunc").expect("corrupt");
        assert!(store.load(&cfg, &workload).is_none());

        // Restore, then drop the commit marker.
        store.store(&cfg, &workload, &stats).expect("re-store");
        fs::remove_file(&done_path).expect("remove marker");
        assert!(store.load(&cfg, &workload).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_config_changes_the_cell_identity() {
        let dir = tmp_dir("stale");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir);
        store.store(&cfg, &workload, &stats).expect("store cell");
        let mut changed = cfg.clone();
        changed.measure_cycles += 1;
        assert!(
            store.load(&changed, &workload).is_none(),
            "any config change must miss the checkpoint"
        );
        assert_ne!(cell_hash(&cfg, &workload), cell_hash(&changed, &workload));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_of_a_committed_cell_is_rejected() {
        // A kill -9 (or chaos tear) can leave a committed-looking cell
        // whose data file holds any prefix of the real bytes. No prefix —
        // even one that still parses as JSON — may survive load: the
        // digest in the `.done` marker covers the exact committed bytes.
        let dir = tmp_dir("torn");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir);
        store.store(&cfg, &workload, &stats).expect("store cell");
        let json_path = store.committed_path(&cfg, &workload).expect("committed");
        let full = fs::read(&json_path).expect("read committed bytes");
        for keep in (0..full.len()).step_by(7).chain([full.len() - 1]) {
            fs::write(&json_path, &full[..keep]).expect("tear");
            assert!(
                store.load(&cfg, &workload).is_none(),
                "torn cell ({keep}/{} bytes) must be rejected",
                full.len()
            );
        }
        // And the pristine bytes still load, so the digest is not
        // rejecting everything.
        fs::write(&json_path, &full).expect("restore");
        assert_eq!(store.load(&cfg, &workload), Some(stats));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_in_a_committed_cell_is_rejected() {
        let dir = tmp_dir("bitflip");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir);
        store.store(&cfg, &workload, &stats).expect("store cell");
        let json_path = store.committed_path(&cfg, &workload).expect("committed");
        let mut bytes = fs::read(&json_path).expect("read committed bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&json_path, &bytes).expect("corrupt");
        assert!(
            store.load(&cfg, &workload).is_none(),
            "a flipped byte must fail the digest check"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_store_faults_behave_like_their_real_counterparts() {
        use bear_sim::faultinject::ChaosKind;
        let dir = tmp_dir("chaosfault");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir);

        // checkpoint-io: the store fails, nothing is committed.
        let err = store
            .store_with_fault(&cfg, &workload, &stats, Some(ChaosKind::CheckpointIo))
            .expect_err("injected fsync failure must error");
        assert!(err.to_string().contains("checkpoint-io"));
        assert!(store.load(&cfg, &workload).is_none());
        assert!(store.committed_path(&cfg, &workload).is_none());

        // torn-checkpoint: committed-looking but truncated — rejected by
        // the digest, so resume re-runs the cell.
        store
            .store_with_fault(&cfg, &workload, &stats, Some(ChaosKind::TornCheckpoint))
            .expect("torn store commits before tearing");
        assert!(
            store.committed_path(&cfg, &workload).is_some(),
            "the marker exists — that is what makes the tear dangerous"
        );
        assert!(
            store.load(&cfg, &workload).is_none(),
            "the torn bytes must fail the digest check"
        );

        // A clean re-store heals the cell.
        store.store(&cfg, &workload, &stats).expect("re-store");
        assert_eq!(store.load(&cfg, &workload), Some(stats));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_store_shares_the_commit_protocol() {
        let (cfg, workload, stats) = sample();
        let store = CellStore::in_memory();
        assert!(store.load(&cfg, &workload).is_none(), "empty store misses");
        store.store(&cfg, &workload, &stats).expect("store cell");
        assert_eq!(
            store.clone().load(&cfg, &workload),
            Some(stats.clone()),
            "clones share one map"
        );
        assert!(store.committed_path(&cfg, &workload).is_none(), "no files");
        let mut changed = cfg.clone();
        changed.measure_cycles += 1;
        assert!(store.load(&changed, &workload).is_none());

        // Injected faults: nothing committed, or committed but torn.
        let other = CellStore::in_memory();
        other
            .store_with_fault(&cfg, &workload, &stats, Some(ChaosKind::CheckpointIo))
            .expect_err("injected fsync failure must error");
        assert!(other.list_raw().is_empty());
        other
            .store_with_fault(&cfg, &workload, &stats, Some(ChaosKind::TornCheckpoint))
            .expect("torn store commits before tearing");
        assert_eq!(other.list_raw(), vec![cell_stem(&cfg, &workload)]);
        assert!(other.load(&cfg, &workload).is_none(), "digest rejects it");

        store.set_flag("x", "cancelled").expect("flag");
        assert!(store.has_flag("x", "cancelled"));
        assert!(!store.has_flag("y", "cancelled"));
    }

    #[test]
    fn raw_records_share_the_commit_protocol() {
        let dir = tmp_dir("raw");
        let store = CellStore::at(&dir.join("jobs"));
        assert!(store.load_raw("job-1").is_none(), "empty store misses");
        assert!(store.list_raw().is_empty());
        store
            .store_raw("job-1", "{\"id\": \"a\"}\n")
            .expect("store");
        store
            .store_raw("job-2", "{\"id\": \"b\"}\n")
            .expect("store");
        assert_eq!(
            store.load_raw("job-1").as_deref(),
            Some("{\"id\": \"a\"}\n")
        );
        assert_eq!(store.list_raw(), vec!["job-1", "job-2"]);

        // Torn after commit: listed (the marker exists) but rejected.
        let json_path = dir.join("jobs").join("job-1.json");
        fs::write(&json_path, "{\"id\"").expect("tear");
        assert!(store.load_raw("job-1").is_none());
        assert_eq!(store.list_raw().len(), 2);

        // Flags are durable and namespaced per stem.
        assert!(!store.has_flag("job-2", "cancelled"));
        store.set_flag("job-2", "cancelled").expect("flag");
        assert!(store.has_flag("job-2", "cancelled"));
        assert!(!store.has_flag("job-1", "cancelled"));
        assert!(
            store.load_raw("job-2").is_some(),
            "flags do not disturb the record"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_files_are_filesystem_safe() {
        let (cfg, workload, _) = sample();
        let stem = cell_stem(&cfg, &workload);
        assert!(
            stem.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
            "stem {stem:?} has unsafe characters"
        );
        assert!(stem.contains("Alloy"), "stem is human-skimmable: {stem}");
    }
}
