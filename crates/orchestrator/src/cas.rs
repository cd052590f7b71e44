//! The content-addressed artifact store under `results/cas/`.
//!
//! Each artifact is one JSON file named `<key>.json`, where `key` is the
//! [stage fingerprint](crate::sched::stage_key) of the producing stage —
//! hash of (stage kind, canonical params, run scale, input artifact
//! digests). The file is a small envelope around the stage payload:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "key": "…32 hex digits…",
//!   "kind": "retention_map",
//!   "payload_hash": "…hash of the compact payload rendering…",
//!   "payload": { … }
//! }
//! ```
//!
//! **Corruption is a miss, never a crash.** [`ArtifactStore::get`]
//! re-renders the payload and re-verifies `payload_hash` on every read;
//! a truncated, bit-rotted, or hand-edited entry simply fails
//! verification and the scheduler recomputes the stage. Writes go
//! through a temp file + rename so a crash mid-write cannot leave a
//! half-written entry under the final name.

use crate::hash::content_hash;
use obs::Json;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Envelope schema version, bumped on breaking layout changes (which
/// invalidates every cached artifact — old entries become misses).
pub const CAS_SCHEMA: u64 = 1;

/// A verified artifact read back from the store.
#[derive(Debug, Clone, PartialEq)]
pub struct CasEntry {
    /// The stage fingerprint the artifact is filed under.
    pub key: String,
    /// The producing stage kind (e.g. `chip_campaign`).
    pub kind: String,
    /// Digest of the compact payload rendering.
    pub payload_hash: String,
    /// The stage payload itself.
    pub payload: Json,
}

/// One row of [`ArtifactStore::ls`].
#[derive(Debug, Clone, PartialEq)]
pub struct CasListing {
    /// The key (file stem).
    pub key: String,
    /// The stage kind, or `None` when the entry fails verification.
    pub kind: Option<String>,
    /// On-disk size in bytes.
    pub bytes: u64,
}

/// What [`ArtifactStore::gc_bounded`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries left in the store: pinned by the keep set, newer than the
    /// cutoff, or within the size budget.
    pub kept: usize,
    /// Entries removed (unreferenced, corrupt, or LRU-evicted).
    pub removed: usize,
    /// Bytes freed by the removals.
    pub bytes_freed: u64,
    /// Of `kept`, the unreferenced entries spared because they were
    /// written after the gc's cutoff instant (a concurrent `run` may own
    /// them).
    pub skipped_fresh: usize,
    /// Of `removed`, how many were healthy entries: evicted oldest-first
    /// by the janitor's size budget, or every unreferenced one under the
    /// zero budget of `pv3t1d gc`.
    pub lru_evicted: usize,
}

impl GcReport {
    /// Machine-readable form for `pv3t1d gc --json`, the janitor's
    /// telemetry, and CI assertions.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.insert("kept", Json::Num(self.kept as f64));
        o.insert("removed", Json::Num(self.removed as f64));
        o.insert("bytes_freed", Json::Num(self.bytes_freed as f64));
        o.insert("skipped_fresh", Json::Num(self.skipped_fresh as f64));
        o.insert("lru_evicted", Json::Num(self.lru_evicted as f64));
        o
    }
}

/// A flat directory of content-addressed artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// A store rooted at `root` (conventionally `results/cas/`). The
    /// directory is created lazily on first write.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of a key.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }

    /// Stores `payload` under `key`, returning the payload digest.
    /// Atomic against readers: the entry appears under its final name
    /// only once fully written.
    pub fn put(&self, key: &str, kind: &str, payload: &Json) -> io::Result<String> {
        std::fs::create_dir_all(&self.root)?;
        let payload_hash = content_hash(payload.render().as_bytes());
        let mut envelope = Json::object();
        envelope.insert("schema", Json::Num(CAS_SCHEMA as f64));
        envelope.insert("key", Json::Str(key.to_string()));
        envelope.insert("kind", Json::Str(kind.to_string()));
        envelope.insert("payload_hash", Json::Str(payload_hash.clone()));
        envelope.insert("payload", payload.clone());
        let tmp = self.root.join(format!(".{key}.tmp"));
        std::fs::write(&tmp, envelope.render_pretty())?;
        std::fs::rename(&tmp, self.path_for(key))?;
        Ok(payload_hash)
    }

    /// Reads and verifies the entry for `key`. Returns `None` — a cache
    /// miss — for absent files, unparseable JSON, schema or key
    /// mismatches, and payloads whose recomputed digest disagrees with
    /// the stored `payload_hash` (truncation / bit-rot).
    pub fn get(&self, key: &str) -> Option<CasEntry> {
        let text = std::fs::read_to_string(self.path_for(key)).ok()?;
        Self::verify(key, &text)
    }

    /// The verification core of [`ArtifactStore::get`], separated so the
    /// corruption tests can drive it directly.
    fn verify(key: &str, text: &str) -> Option<CasEntry> {
        let v = Json::parse(text).ok()?;
        if v.get("schema").and_then(Json::as_u64) != Some(CAS_SCHEMA) {
            return None;
        }
        if v.get("key").and_then(Json::as_str) != Some(key) {
            return None;
        }
        let kind = v.get("kind").and_then(Json::as_str)?.to_string();
        let declared = v.get("payload_hash").and_then(Json::as_str)?.to_string();
        let payload = v.get("payload")?.clone();
        let actual = content_hash(payload.render().as_bytes());
        if declared != actual {
            return None;
        }
        Some(CasEntry {
            key: key.to_string(),
            kind,
            payload_hash: declared,
            payload,
        })
    }

    /// Lists every `.json` entry in the store, flagging ones that fail
    /// verification with `kind: None`. An absent store directory lists
    /// as empty.
    pub fn ls(&self) -> Vec<CasListing> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(_) => return out,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let kind = self.get(stem).map(|e| e.kind);
            out.push(CasListing {
                key: stem.to_string(),
                kind,
                bytes,
            });
        }
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Removes the entry for `key` (no error if absent).
    pub fn remove(&self, key: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path_for(key)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Size/LRU-bounded gc — the one collector. The continuous janitor
    /// passes a byte budget: a multi-tenant daemon cannot enumerate every
    /// scenario its clients may resubmit, so healthy entries are kept
    /// while the store fits in `max_bytes` and evicted
    /// **oldest-mtime-first** once it does not. `pv3t1d gc` passes a
    /// zero budget, which removes every entry its scenarios' keep set
    /// does not reach. When `dry_run` is set nothing is deleted; the
    /// report describes what *would* happen.
    ///
    /// Invariants:
    /// * corrupt entries are always removed (they can never be hits);
    /// * entries in `keep` are never evicted, whatever the budget;
    /// * entries modified after `cutoff` are never evicted (the
    ///   `skipped_fresh` race guard: a concurrent run may own them) —
    ///   pass the scan-start instant, captured **before** the keep set
    ///   is planned (the janitor subtracts its freshness window);
    /// * checkpoint sub-entries (`<key>.u<i>`) ride with their base key:
    ///   kept while the base is kept (so an interrupted campaign's
    ///   partial progress survives a gc of its scenario), and counted
    ///   against the budget.
    pub fn gc_bounded(
        &self,
        keep: &BTreeSet<String>,
        max_bytes: u64,
        dry_run: bool,
        cutoff: Option<SystemTime>,
    ) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        // Oldest-first queue of healthy, evictable entries.
        let mut candidates: Vec<(SystemTime, String, u64)> = Vec::new();
        let mut total_bytes = 0u64;
        for row in self.ls() {
            if row.kind.is_none() {
                report.removed += 1;
                report.bytes_freed += row.bytes;
                if !dry_run {
                    self.remove(&row.key)?;
                }
                continue;
            }
            total_bytes += row.bytes;
            let pinned = keep.contains(&row.key)
                || checkpoint_base(&row.key).is_some_and(|base| keep.contains(base));
            let mtime = std::fs::metadata(self.path_for(&row.key))
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            let fresh = cutoff.is_some_and(|c| mtime > c);
            if pinned || fresh {
                if fresh && !pinned {
                    report.skipped_fresh += 1;
                }
                report.kept += 1;
                continue;
            }
            candidates.push((mtime, row.key, row.bytes));
        }
        candidates.sort();
        let mut over = total_bytes.saturating_sub(max_bytes);
        for (_, key, bytes) in candidates {
            if over == 0 {
                report.kept += 1;
                continue;
            }
            report.removed += 1;
            report.lru_evicted += 1;
            report.bytes_freed += bytes;
            over = over.saturating_sub(bytes);
            if !dry_run {
                self.remove(&key)?;
            }
        }
        Ok(report)
    }
}

/// The sub-key filing one campaign unit's checkpoint under its stage
/// key: `<key>.u<index>`. Unit entries live next to full stage entries
/// in the same store; [`checkpoint_base`] recovers the stage key.
pub fn unit_key(key: &str, index: usize) -> String {
    format!("{key}.u{index}")
}

/// The stage key a checkpoint sub-key belongs to, when `key` has the
/// `<stage>.u<digits>` shape produced by [`unit_key`]; `None` for plain
/// stage keys.
pub fn checkpoint_base(key: &str) -> Option<&str> {
    let (base, digits) = key.rsplit_once(".u")?;
    if !base.is_empty() && !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
        Some(base)
    } else {
        None
    }
}

/// Streaming per-unit checkpoints for one long-running stage.
///
/// Completed campaign units are stored in the artifact store under
/// [`unit_key`] sub-keys of the stage's cache key, as they finish. Since
/// the stage key already fingerprints kind, params, scale, and the whole
/// upstream cone, a unit checkpoint can only ever be replayed into the
/// *identical* computation — resuming after a crash is bit-identical to
/// an uninterrupted run by construction.
///
/// All methods take `&self` and are thread-safe: campaign workers load
/// and store units concurrently. Storage is best-effort — an I/O failure
/// costs recomputation later, never correctness.
#[derive(Debug)]
pub struct StageCheckpoint {
    store: ArtifactStore,
    key: String,
    kind: String,
    resumed: AtomicU64,
    stored: AtomicU64,
}

impl StageCheckpoint {
    /// A checkpoint for the stage with cache key `key`; unit entries are
    /// tagged with the kind `<stage kind>.unit`.
    pub fn new(store: ArtifactStore, key: &str, stage_kind: &str) -> Self {
        Self {
            store,
            key: key.to_string(),
            kind: format!("{stage_kind}.unit"),
            resumed: AtomicU64::new(0),
            stored: AtomicU64::new(0),
        }
    }

    /// The stage cache key the checkpoint is filed under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Loads unit `index`'s checkpointed payload, if present and intact
    /// (corruption reads as a miss, exactly like full stage entries).
    pub fn load_unit(&self, index: usize) -> Option<Json> {
        let entry = self.store.get(&unit_key(&self.key, index))?;
        self.resumed.fetch_add(1, Ordering::Relaxed);
        Some(entry.payload)
    }

    /// Stores unit `index`'s payload. Best-effort: failures are swallowed
    /// (the unit simply recomputes on the next resume).
    pub fn store_unit(&self, index: usize, payload: &Json) {
        if self
            .store
            .put(&unit_key(&self.key, index), &self.kind, payload)
            .is_ok()
        {
            self.stored.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Units served from the checkpoint so far.
    pub fn resumed(&self) -> u64 {
        self.resumed.load(Ordering::Relaxed)
    }

    /// Units written to the checkpoint so far.
    pub fn stored(&self) -> u64 {
        self.stored.load(Ordering::Relaxed)
    }

    /// Removes every unit entry of this stage (called once the full
    /// stage artifact lands — the sub-entries are then redundant).
    /// Returns the number of entries removed.
    ///
    /// A checkpoint that neither stored nor resumed a unit returns at
    /// once; otherwise entries are matched by file name alone, without
    /// reading or verifying them (corrupt unit entries go too).
    pub fn clear(&self) -> io::Result<usize> {
        if self.stored() == 0 && self.resumed() == 0 {
            return Ok(0);
        }
        let Ok(entries) = std::fs::read_dir(self.store.root()) else {
            return Ok(0);
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(key) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue;
            };
            if checkpoint_base(key) == Some(self.key.as_str()) {
                self.store.remove(key)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!(
            "pv3t1d_cas_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::new(dir)
    }

    fn payload(n: f64) -> Json {
        let mut p = Json::object();
        p.insert("kind", Json::Str("unit".into()));
        p.insert("value", Json::Num(n));
        p
    }

    #[test]
    fn put_get_round_trips() {
        let store = temp_store("roundtrip");
        let hash = store.put("k1", "unit", &payload(1.5)).unwrap();
        let entry = store.get("k1").expect("hit");
        assert_eq!(entry.kind, "unit");
        assert_eq!(entry.payload_hash, hash);
        assert_eq!(entry.payload, payload(1.5));
        assert!(store.get("absent").is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupted_entries_read_as_misses() {
        let store = temp_store("corrupt");
        store.put("k1", "unit", &payload(2.5)).unwrap();
        let path = store.path_for("k1");

        // Truncation: unparseable JSON.
        let full = std::fs::read_to_string(&path).unwrap();
        assert!(full.contains("2.5"), "test assumes the value is visible");
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.get("k1").is_none());

        // Bit-rot: valid JSON, payload no longer matches its digest.
        std::fs::write(&path, full.replace("2.5", "3.5")).unwrap();
        assert!(store.get("k1").is_none());

        // Key mismatch: entry filed under the wrong name.
        std::fs::write(&path, &full).unwrap();
        std::fs::rename(&path, store.path_for("k2")).unwrap();
        assert!(store.get("k2").is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn unit_keys_round_trip_through_checkpoint_base() {
        assert_eq!(unit_key("abc123", 7), "abc123.u7");
        assert_eq!(checkpoint_base("abc123.u7"), Some("abc123"));
        assert_eq!(checkpoint_base("abc123.u42"), Some("abc123"));
        // Not unit keys: no suffix, empty digits, non-digits, bare ".u1".
        assert_eq!(checkpoint_base("abc123"), None);
        assert_eq!(checkpoint_base("abc123.u"), None);
        assert_eq!(checkpoint_base("abc123.unit"), None);
        assert_eq!(checkpoint_base(".u1"), None);
        // Nested: a unit of a key that itself ends like a unit key peels
        // one layer only.
        assert_eq!(checkpoint_base("k.u1.u2"), Some("k.u1"));
    }

    #[test]
    fn checkpoint_stores_resumes_and_clears_units() {
        let store = temp_store("ckpt");
        let cp = StageCheckpoint::new(store.clone(), "stagekey", "chip_campaign");
        assert!(cp.load_unit(0).is_none());
        cp.store_unit(0, &payload(1.0));
        cp.store_unit(3, &payload(2.0));
        assert_eq!(cp.stored(), 2);
        assert_eq!(cp.load_unit(0), Some(payload(1.0)));
        assert_eq!(cp.load_unit(3), Some(payload(2.0)));
        assert!(cp.load_unit(1).is_none());
        assert_eq!(cp.resumed(), 2);

        // Unit entries verify like any CAS entry: corruption is a miss.
        let path = store.path_for("stagekey.u0");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("1", "9")).unwrap();
        assert!(cp.load_unit(0).is_none());

        // A sibling stage's units are untouched by clear().
        let other = StageCheckpoint::new(store.clone(), "otherkey", "chip_campaign");
        other.store_unit(0, &payload(5.0));
        assert_eq!(cp.clear().unwrap(), 2);
        assert!(cp.load_unit(3).is_none());
        assert_eq!(other.load_unit(0), Some(payload(5.0)));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_keeps_unit_entries_of_kept_stages() {
        let store = temp_store("gc_units");
        store.put("stage_a", "unit", &payload(1.0)).unwrap();
        let cp_a = StageCheckpoint::new(store.clone(), "stage_a", "k");
        cp_a.store_unit(0, &payload(10.0));
        let cp_b = StageCheckpoint::new(store.clone(), "stage_b", "k");
        cp_b.store_unit(0, &payload(20.0));

        let keep: BTreeSet<String> = ["stage_a".to_string()].into();
        let report = store.gc_bounded(&keep, 0, false, None).unwrap();
        // stage_a and its unit survive; stage_b's orphan unit goes.
        assert_eq!((report.kept, report.removed), (2, 1));
        assert!(store.get("stage_a.u0").is_some());
        assert!(store.get("stage_b.u0").is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_cutoff_spares_entries_written_after_the_scan() {
        let store = temp_store("gc_race");
        store.put("old", "unit", &payload(1.0)).unwrap();
        // The gc plans its keep set here...
        let cutoff = SystemTime::now();
        std::thread::sleep(std::time::Duration::from_millis(30));
        // ...while a concurrent run writes a fresh entry the plan never
        // saw. Without the cutoff it would be collected as unreachable.
        store.put("fresh", "unit", &payload(2.0)).unwrap();

        let keep = BTreeSet::new();
        let report = store.gc_bounded(&keep, 0, false, Some(cutoff)).unwrap();
        assert_eq!((report.removed, report.skipped_fresh), (1, 1));
        assert!(store.get("old").is_none());
        assert!(store.get("fresh").is_some(), "fresh entry was collected");

        // Without a cutoff the fresh entry is fair game once it really
        // is unreferenced garbage.
        let report = store.gc_bounded(&keep, 0, false, None).unwrap();
        assert_eq!(report.removed, 1);
        assert!(store.get("fresh").is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_bounded_evicts_oldest_first_down_to_the_budget() {
        let store = temp_store("gc_bounded");
        // Three entries with strictly increasing mtimes.
        for (i, key) in ["oldest", "middle", "newest"].iter().enumerate() {
            store.put(key, "unit", &payload(i as f64)).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        let bytes_each = std::fs::metadata(store.path_for("oldest")).unwrap().len();

        // Budget fits everything: nothing is evicted.
        let report = store
            .gc_bounded(&BTreeSet::new(), bytes_each * 10, false, None)
            .unwrap();
        assert_eq!((report.kept, report.removed, report.lru_evicted), (3, 0, 0));
        assert_eq!(report.to_json().get("lru_evicted").unwrap().as_u64(), Some(0));

        // Budget for ~two entries: the oldest goes, the rest stay.
        let report = store
            .gc_bounded(&BTreeSet::new(), bytes_each * 2, false, None)
            .unwrap();
        assert_eq!((report.kept, report.lru_evicted), (2, 1));
        assert!(store.get("oldest").is_none(), "oldest entry must be evicted");
        assert!(store.get("middle").is_some());
        assert!(store.get("newest").is_some());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_bounded_respects_keep_set_freshness_and_corruption() {
        let store = temp_store("gc_bounded_pins");
        store.put("pinned_old", "unit", &payload(1.0)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(25));
        store.put("evictable", "unit", &payload(2.0)).unwrap();
        store.put("rot", "unit", &payload(3.0)).unwrap();
        std::fs::write(store.path_for("rot"), "{not json").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(25));
        let cutoff = SystemTime::now();
        // Outrun coarse filesystem mtime granularity so `fresh` is
        // unambiguously after the cutoff.
        std::thread::sleep(std::time::Duration::from_millis(30));
        store.put("fresh", "unit", &payload(4.0)).unwrap();

        // Zero budget wants everything gone — but the keep set pins the
        // oldest entry, the cutoff spares the freshest, and only the
        // unpinned stale entry (plus the corrupt one) is collected.
        let keep: BTreeSet<String> = ["pinned_old".to_string()].into();
        let report = store.gc_bounded(&keep, 0, false, Some(cutoff)).unwrap();
        assert_eq!(report.kept, 2, "pinned + fresh survive");
        assert_eq!(report.lru_evicted, 1);
        assert_eq!(report.removed, 2, "evictable + corrupt");
        assert_eq!(report.skipped_fresh, 1);
        assert!(store.get("pinned_old").is_some());
        assert!(store.get("fresh").is_some());
        assert!(store.get("evictable").is_none());
        assert!(!store.path_for("rot").exists());

        // Dry run reports without deleting.
        let report = store.gc_bounded(&BTreeSet::new(), 0, true, None).unwrap();
        assert_eq!(report.lru_evicted, 2);
        assert!(store.get("pinned_old").is_some());
        assert!(store.get("fresh").is_some());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn ls_and_gc_account_for_corruption() {
        let store = temp_store("gc");
        store.put("keep", "unit", &payload(1.0)).unwrap();
        store.put("drop", "unit", &payload(2.0)).unwrap();
        store.put("rot", "unit", &payload(3.0)).unwrap();
        std::fs::write(store.path_for("rot"), "{not json").unwrap();

        let ls = store.ls();
        assert_eq!(ls.len(), 3);
        assert_eq!(ls.iter().filter(|r| r.kind.is_none()).count(), 1);

        let keep: BTreeSet<String> = ["keep".to_string(), "rot".to_string()].into();
        let dry = store.gc_bounded(&keep, 0, true, None).unwrap();
        assert_eq!((dry.kept, dry.removed), (1, 2));
        assert!(store.get("drop").is_some(), "dry run must not delete");

        let wet = store.gc_bounded(&keep, 0, false, None).unwrap();
        assert_eq!((wet.kept, wet.removed), (1, 2));
        assert!(wet.bytes_freed > 0);
        assert!(store.get("keep").is_some());
        assert!(store.get("drop").is_none());
        assert!(!store.path_for("rot").exists(), "corrupt entry collected");
        let _ = std::fs::remove_dir_all(store.root());
    }
}
