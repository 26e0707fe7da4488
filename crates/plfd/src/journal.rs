//! Write-ahead job journal: the durability layer under [`crate::PlfService`].
//!
//! Every *acknowledged* admission appends an `Admitted` record before
//! the caller's ticket is returned, and every terminal outcome appends
//! a `Resolved` record before the ticket's completion cell is woken.
//! A process that dies between the two leaves an admitted-but-
//! unresolved record behind; [`crate::recovery`] replays exactly those
//! jobs on restart, so a `kill -9` loses no acknowledged work.
//!
//! # On-disk format
//!
//! The journal is a directory of append-only segment files
//! (`wal-NNNNNN.log`). Each record is framed as
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes]
//! ```
//!
//! with a JSON payload. Floats (branch lengths aside — trees travel as
//! Newick text, whose `Display` round-trips `f64` bit-exactly) are
//! stored as `f64::to_bits` integers, so replayed jobs re-evaluate to
//! bit-identical log-likelihoods. A torn final record (length or CRC
//! mismatch) marks the crash point: recovery truncates it, counts the
//! truncation, and keeps everything before it.
//!
//! Appends write through to the OS immediately; `fsync` is batched
//! (group commit) under [`JournalConfig::fsync_interval`]. The active
//! segment rotates at [`JournalConfig::max_segment_bytes`], and old
//! segments compact (delete) oldest-first once every job admitted in
//! them has resolved.

use crate::job::{JobOutcome, Priority};
use plf_phylo::metrics::ServiceCounters;
use plf_phylo::model::{GtrParams, SiteModel};
use serde_json::{Number, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Journal segment file name prefix.
pub(crate) const SEGMENT_PREFIX: &str = "wal-";
/// Journal segment file name suffix.
pub(crate) const SEGMENT_SUFFIX: &str = ".log";
/// Frame header bytes: `u32` payload length + `u32` CRC-32.
pub(crate) const FRAME_HEADER_BYTES: u64 = 8;
/// Upper bound on one record's payload, used by the recovery scanner to
/// reject garbage lengths in a torn tail without attempting a huge
/// allocation.
pub(crate) const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024; // plf-lint: allow(L3) — definition site, not a DMA size

/// Durability knobs for the write-ahead job journal.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding the segment files; created if absent.
    pub dir: PathBuf,
    /// Group-commit window: an append `fsync`s only if this much time
    /// passed since the last `fsync` (zero means every append syncs).
    /// Acknowledged-but-unsynced records ride the OS page cache — they
    /// survive a process kill, but not a host power loss.
    pub fsync_interval: Duration,
    /// Rotate the active segment once it reaches this many bytes.
    pub max_segment_bytes: u64,
    /// Delete fully-resolved segments (oldest first) as they drain.
    pub compact: bool,
}

/// Default group-commit window.
const DEFAULT_FSYNC_INTERVAL: Duration = Duration::from_millis(5);
/// Default segment rotation threshold.
const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            dir: PathBuf::from("plfd-journal"),
            fsync_interval: DEFAULT_FSYNC_INTERVAL,
            max_segment_bytes: DEFAULT_SEGMENT_BYTES,
            compact: true,
        }
    }
}

impl JournalConfig {
    /// A config journaling into `dir` with default batching.
    pub fn in_dir(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            ..JournalConfig::default()
        }
    }
}

/// A journal operation failed at the filesystem layer.
#[derive(Debug)]
pub struct JournalError {
    /// The operation that failed (for the error message).
    pub context: String,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal {}: {}", self.context, self.source)
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

fn io_err(context: &str, source: std::io::Error) -> JournalError {
    JournalError {
        context: context.to_string(),
        source,
    }
}

// ------------------------------------------------------------- CRC-32

/// CRC-32 (IEEE 802.3) generator polynomial, reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ CRC32_POLY } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = build_crc32_table();

/// CRC-32 (IEEE) of `data`; the per-record checksum in the frame header
/// here and the frame trailer of the plf-net wire protocol.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in data {
        // Index is masked to 0..=255, always in bounds for the
        // 256-entry table. plf-lint: allow(L8)
        c = (c >> 8) ^ CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

// ------------------------------------------------------- record model

/// An `Admitted` journal record: everything needed to reconstruct and
/// re-run the job after a crash.
#[derive(Debug, Clone)]
pub(crate) struct AdmittedRecord {
    /// Idempotency key (dedup identity across restarts).
    pub key: String,
    /// Service-assigned job id (recovery resumes id allocation above it).
    pub id: u64,
    /// Accounting principal.
    pub tenant: String,
    /// Scheduling lane.
    pub priority: Priority,
    /// Dataset handle the job referenced. Handles are assigned in
    /// registration order, so an embedder re-registering the same
    /// datasets in the same order gets stable ids across restarts.
    pub dataset: u64,
    /// Alignment shape fingerprint guarding against a dataset-id remap.
    pub n_taxa: u64,
    /// Alignment shape fingerprint guarding against a dataset-id remap.
    pub n_patterns: u64,
    /// The tree, as Newick text (`f64` branch lengths round-trip
    /// bit-exactly through `Display`).
    pub newick: String,
    /// The site model (floats as `to_bits` integers in the payload).
    pub model: SiteModel,
    /// Wall-clock admission instant (nanoseconds since `UNIX_EPOCH`),
    /// the anchor the relative deadline is honored against on replay.
    pub admitted_unix_nanos: u64,
    /// Relative deadline from admission, if any.
    pub deadline_nanos: Option<u64>,
}

/// A `Resolved` journal record: the terminal outcome under the key.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedRecord {
    /// Idempotency key this outcome belongs to.
    pub key: String,
    /// Service-assigned job id the outcome resolved under.
    pub id: u64,
    /// CRC-32 of the canonical outcome JSON — a content digest callers
    /// can compare across runs without parsing the outcome.
    pub digest: u64,
    /// The terminal outcome itself, replayed verbatim on dedup.
    pub outcome: JobOutcome,
}

/// One decoded journal record.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // transient: encoded or scanned one at a time, never stored in bulk
pub(crate) enum Record {
    Admitted(AdmittedRecord),
    Resolved(ResolvedRecord),
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn uint(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

fn bits_array(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|v| uint(v.to_bits())).collect())
}

fn model_to_value(model: &SiteModel) -> Value {
    obj(vec![
        ("rates", bits_array(&model.params().rates)),
        ("freqs", bits_array(&model.params().freqs)),
        ("shape", uint(model.shape().to_bits())),
        ("n_rates", uint(model.n_rates() as u64)),
        ("pinvar", uint(model.pinvar().to_bits())),
    ])
}

fn bits_from(v: &Value) -> Option<f64> {
    v.as_u64().map(f64::from_bits)
}

fn model_from_value(v: &Value) -> Option<SiteModel> {
    let rates_v = v.get("rates")?.as_array()?;
    let freqs_v = v.get("freqs")?.as_array()?;
    if rates_v.len() != 6 || freqs_v.len() != 4 {
        return None;
    }
    let mut rates = [0.0f64; 6];
    for (slot, raw) in rates.iter_mut().zip(rates_v) {
        *slot = bits_from(raw)?;
    }
    let mut freqs = [0.0f64; 4];
    for (slot, raw) in freqs.iter_mut().zip(freqs_v) {
        *slot = bits_from(raw)?;
    }
    let shape = bits_from(v.get("shape")?)?;
    let n_rates = v.get("n_rates")?.as_u64()? as usize;
    let pinvar = bits_from(v.get("pinvar")?)?;
    let model = SiteModel::new(GtrParams { rates, freqs }, shape, n_rates).ok()?;
    if pinvar == 0.0 {
        Some(model)
    } else {
        model.with_pinvar(pinvar).ok()
    }
}

fn outcome_to_value(outcome: &JobOutcome) -> Value {
    match outcome {
        JobOutcome::Completed {
            ln_likelihood,
            wait,
            service,
            backend,
        } => obj(vec![
            ("status", Value::String("completed".to_string())),
            ("lnl_bits", uint(ln_likelihood.to_bits())),
            ("wait_nanos", uint(wait.as_nanos() as u64)),
            ("service_nanos", uint(service.as_nanos() as u64)),
            ("backend", Value::String(backend.clone())),
        ]),
        JobOutcome::Cancelled => obj(vec![(
            "status",
            Value::String("cancelled".to_string()),
        )]),
        JobOutcome::DeadlineMissed => obj(vec![(
            "status",
            Value::String("deadline_missed".to_string()),
        )]),
        JobOutcome::Failed { error } => obj(vec![
            ("status", Value::String("failed".to_string())),
            ("error", Value::String(error.clone())),
        ]),
    }
}

fn outcome_from_value(v: &Value) -> Option<JobOutcome> {
    match v.get("status")?.as_str()? {
        "completed" => Some(JobOutcome::Completed {
            ln_likelihood: bits_from(v.get("lnl_bits")?)?,
            wait: Duration::from_nanos(v.get("wait_nanos")?.as_u64()?),
            service: Duration::from_nanos(v.get("service_nanos")?.as_u64()?),
            backend: v.get("backend")?.as_str()?.to_string(),
        }),
        "cancelled" => Some(JobOutcome::Cancelled),
        "deadline_missed" => Some(JobOutcome::DeadlineMissed),
        "failed" => Some(JobOutcome::Failed {
            error: v.get("error")?.as_str()?.to_string(),
        }),
        _ => None,
    }
}

/// The canonical serialized outcome and its CRC-32 content digest.
pub(crate) fn outcome_digest(outcome: &JobOutcome) -> u64 {
    match serde_json::to_string(&outcome_to_value(outcome)) {
        Ok(text) => crc32(text.as_bytes()) as u64,
        Err(_) => 0,
    }
}

fn priority_label(p: Priority) -> &'static str {
    match p {
        Priority::High => "high",
        Priority::Normal => "normal",
    }
}

pub(crate) fn encode_record(record: &Record) -> Result<String, JournalError> {
    let value = match record {
        Record::Admitted(a) => obj(vec![
            ("kind", Value::String("admitted".to_string())),
            ("key", Value::String(a.key.clone())),
            ("id", uint(a.id)),
            ("tenant", Value::String(a.tenant.clone())),
            (
                "priority",
                Value::String(priority_label(a.priority).to_string()),
            ),
            ("dataset", uint(a.dataset)),
            ("n_taxa", uint(a.n_taxa)),
            ("n_patterns", uint(a.n_patterns)),
            ("tree", Value::String(a.newick.clone())),
            ("model", model_to_value(&a.model)),
            ("admitted_unix_nanos", uint(a.admitted_unix_nanos)),
            (
                "deadline_nanos",
                match a.deadline_nanos {
                    Some(n) => uint(n),
                    None => Value::Null,
                },
            ),
        ]),
        Record::Resolved(r) => obj(vec![
            ("kind", Value::String("resolved".to_string())),
            ("key", Value::String(r.key.clone())),
            ("id", uint(r.id)),
            ("digest", uint(r.digest)),
            ("outcome", outcome_to_value(&r.outcome)),
        ]),
    };
    serde_json::to_string(&value)
        .map_err(|e| io_err("encode", std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())))
}

/// Decode one JSON payload; `None` marks a malformed record (the
/// scanner treats it as tail corruption).
pub(crate) fn decode_record(payload: &[u8]) -> Option<Record> {
    let text = std::str::from_utf8(payload).ok()?;
    let value = serde_json::from_str(text).ok()?;
    match value.get("kind")?.as_str()? {
        "admitted" => Some(Record::Admitted(AdmittedRecord {
            key: value.get("key")?.as_str()?.to_string(),
            id: value.get("id")?.as_u64()?,
            tenant: value.get("tenant")?.as_str()?.to_string(),
            priority: Priority::parse(value.get("priority")?.as_str()?)?,
            dataset: value.get("dataset")?.as_u64()?,
            n_taxa: value.get("n_taxa")?.as_u64()?,
            n_patterns: value.get("n_patterns")?.as_u64()?,
            newick: value.get("tree")?.as_str()?.to_string(),
            model: model_from_value(value.get("model")?)?,
            admitted_unix_nanos: value.get("admitted_unix_nanos")?.as_u64()?,
            deadline_nanos: match value.get("deadline_nanos")? {
                Value::Null => None,
                other => Some(other.as_u64()?),
            },
        })),
        "resolved" => Some(Record::Resolved(ResolvedRecord {
            key: value.get("key")?.as_str()?.to_string(),
            id: value.get("id")?.as_u64()?,
            digest: value.get("digest")?.as_u64()?,
            outcome: outcome_from_value(value.get("outcome")?)?,
        })),
        _ => None,
    }
}

/// Frame a payload for appending: `[len][crc][payload]`.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER_BYTES as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Path of segment `index` under `dir`.
pub(crate) fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{index:06}{SEGMENT_SUFFIX}"))
}

/// The `(index, path)` of every segment file under `dir`, ordered.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, JournalError> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("read_dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read_dir entry", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
        else {
            continue;
        };
        if let Ok(index) = stem.parse::<u64>() {
            out.push((index, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(index, _)| *index);
    Ok(out)
}

// ------------------------------------------------------------ journal

/// Per-segment liveness bookkeeping for compaction.
#[derive(Debug)]
struct SegmentState {
    /// Keys admitted in this segment still awaiting a `Resolved` record.
    unresolved: u64,
}

#[derive(Debug)]
struct Inner {
    /// Active segment file; `None` once frozen (crash simulation).
    file: Option<File>,
    frozen: bool,
    seg_index: u64,
    seg_bytes: u64,
    last_fsync: Instant,
    /// Bytes written since the last fsync.
    dirty: bool,
    /// Which segment each unresolved admitted key lives in.
    key_seg: BTreeMap<String, u64>,
    /// Keys whose `Resolved` record hit disk before their `Admitted`
    /// record (the worker raced the submitter to the journal). The
    /// late-arriving admit consumes the entry instead of counting the
    /// key unresolved, so compaction accounting stays exact.
    early_resolved: BTreeSet<String>,
    /// Ordered live segments (oldest first) for prefix compaction.
    segments: BTreeMap<u64, SegmentState>,
}

/// The append side of the write-ahead journal. Shared by the service
/// (admission) and every `Job` (resolution), so both record kinds hit
/// one serialized append path.
#[derive(Debug)]
pub(crate) struct Journal {
    cfg: JournalConfig,
    counters: Arc<ServiceCounters>,
    inner: Mutex<Inner>,
}

impl Journal {
    /// Open the journal for appending, resuming after any existing
    /// segments. `resume_segments` carries the per-segment unresolved
    /// counts and key locations the recovery scan observed.
    pub(crate) fn open(
        cfg: JournalConfig,
        counters: Arc<ServiceCounters>,
        resume_next_index: u64,
        resume_unresolved: BTreeMap<u64, u64>,
        resume_key_seg: BTreeMap<String, u64>,
    ) -> Result<Journal, JournalError> {
        std::fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create dir", e))?;
        let seg_index = resume_next_index;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&cfg.dir, seg_index))
            .map_err(|e| io_err("open segment", e))?;
        let mut segments: BTreeMap<u64, SegmentState> = resume_unresolved
            .into_iter()
            .map(|(index, unresolved)| (index, SegmentState { unresolved }))
            .collect();
        segments.insert(seg_index, SegmentState { unresolved: 0 });
        let journal = Journal {
            cfg,
            counters,
            inner: Mutex::new(Inner {
                file: Some(file),
                frozen: false,
                seg_index,
                seg_bytes: 0,
                last_fsync: Instant::now(),
                dirty: false,
                key_seg: resume_key_seg,
                early_resolved: BTreeSet::new(),
                segments,
            }),
        };
        // Segments that were already fully resolved before the restart
        // compact immediately.
        {
            let mut inner = journal.inner.lock().unwrap_or_else(|p| p.into_inner());
            journal.compact_locked(&mut inner);
        }
        Ok(journal)
    }

    /// Append one `Admitted` record. Errors propagate: admission must
    /// not be acknowledged if the record is not durable.
    pub(crate) fn append_admitted(&self, record: &AdmittedRecord) -> Result<(), JournalError> {
        let payload = encode_record(&Record::Admitted(record.clone()))?;
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.frozen {
            return Ok(());
        }
        // Group-commit by design: the record must be durable before the
        // key is published under this same lock. plf-lint: allow(L5)
        self.write_locked(&mut inner, payload.as_bytes())?;
        if inner.early_resolved.remove(&record.key) {
            // The resolution already landed; this key owes nothing.
            self.compact_locked(&mut inner);
            return Ok(());
        }
        let seg = inner.seg_index;
        inner.key_seg.insert(record.key.clone(), seg);
        if let Some(state) = inner.segments.get_mut(&seg) {
            state.unresolved += 1;
        }
        Ok(())
    }

    /// Append one `Resolved` record. Called from every terminal publish
    /// path (worker threads included), so it must not panic and must
    /// not fail the publish: an append error here leaves the job
    /// admitted-but-unresolved on disk, which recovery handles by
    /// replaying it — safe, because results are bit-identical.
    pub(crate) fn append_resolved(&self, key: &str, id: u64, outcome: &JobOutcome) {
        let record = Record::Resolved(ResolvedRecord {
            key: key.to_string(),
            id,
            digest: outcome_digest(outcome),
            outcome: outcome.clone(),
        });
        let Ok(payload) = encode_record(&record) else {
            return;
        };
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.frozen {
            return;
        }
        // Group-commit by design: resolution must hit disk before the
        // segment accounting changes. plf-lint: allow(L5)
        if self.write_locked(&mut inner, payload.as_bytes()).is_err() {
            return;
        }
        if let Some(seg) = inner.key_seg.remove(key) {
            if let Some(state) = inner.segments.get_mut(&seg) {
                state.unresolved = state.unresolved.saturating_sub(1);
            }
            self.compact_locked(&mut inner);
        } else {
            // Resolution beat the admit to disk (publish raced
            // submit's journal append). Remember it so the admit does
            // not count this key unresolved forever.
            inner.early_resolved.insert(key.to_string());
        }
    }

    /// Write one framed payload into the active segment, rotating and
    /// group-committing per config. Caller holds the lock.
    fn write_locked(&self, inner: &mut Inner, payload: &[u8]) -> Result<(), JournalError> {
        let framed = frame(payload);
        let framed_len = framed.len() as u64;
        if inner.seg_bytes > 0 && inner.seg_bytes + framed_len > self.cfg.max_segment_bytes {
            self.rotate_locked(inner)?;
        }
        let Some(file) = inner.file.as_mut() else {
            return Ok(());
        };
        file.write_all(&framed).map_err(|e| io_err("append", e))?;
        inner.seg_bytes += framed_len;
        inner.dirty = true;
        self.counters.record_journal_append();
        let due = self.cfg.fsync_interval.is_zero()
            || inner.last_fsync.elapsed() >= self.cfg.fsync_interval;
        if due {
            self.fsync_locked(inner)?;
        }
        Ok(())
    }

    fn fsync_locked(&self, inner: &mut Inner) -> Result<(), JournalError> {
        if !inner.dirty {
            return Ok(());
        }
        if let Some(file) = inner.file.as_mut() {
            file.sync_data().map_err(|e| io_err("fsync", e))?;
            inner.dirty = false;
            inner.last_fsync = Instant::now();
            self.counters.record_journal_fsync();
        }
        Ok(())
    }

    fn rotate_locked(&self, inner: &mut Inner) -> Result<(), JournalError> {
        self.fsync_locked(inner)?;
        let next = inner.seg_index + 1;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.cfg.dir, next))
            .map_err(|e| io_err("rotate", e))?;
        inner.file = Some(file);
        inner.seg_index = next;
        inner.seg_bytes = 0;
        inner.segments.insert(next, SegmentState { unresolved: 0 });
        self.counters.record_journal_rotation();
        // The sealed segment may already be fully resolved.
        self.compact_locked(inner);
        Ok(())
    }

    /// Prefix compaction: delete the oldest live segment while every
    /// job admitted in it has resolved. Only a *prefix* is eligible —
    /// a fully-resolved middle segment may still hold the `Resolved`
    /// records for keys admitted in an older, still-live segment, and
    /// deleting those would make recovery replay already-resolved work.
    fn compact_locked(&self, inner: &mut Inner) {
        if !self.cfg.compact || inner.frozen {
            return;
        }
        loop {
            let Some((&oldest, state)) = inner.segments.iter().next() else {
                return;
            };
            if oldest == inner.seg_index || state.unresolved > 0 {
                return;
            }
            // Best-effort: a failed unlink leaves a stale segment that
            // recovery re-reads harmlessly (all its keys are resolved).
            if std::fs::remove_file(segment_path(&self.cfg.dir, oldest)).is_ok() {
                self.counters.record_journal_compaction();
            }
            inner.segments.remove(&oldest);
        }
    }

    /// Force an fsync of any batched appends (drain / shutdown path).
    pub(crate) fn flush(&self) -> Result<(), JournalError> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        // Drain/shutdown path: the whole point is to fsync what the
        // lock protects, and no other lock is held. plf-lint: allow(L5)
        self.fsync_locked(&mut inner)
    }

    /// Crash simulation: atomically stop all journaling *without*
    /// flushing, exactly as if the process died at this instant. Every
    /// record appended before the freeze is on disk (appends write
    /// through to the OS); everything after is lost, including
    /// `Resolved` records for jobs that finish during teardown — which
    /// is precisely the admitted-but-unresolved state a real `kill -9`
    /// leaves behind.
    pub(crate) fn freeze(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.frozen = true;
        inner.file = None;
    }

    /// Whether [`Journal::freeze`] was called.
    #[cfg(test)]
    pub(crate) fn is_frozen(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .frozen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789"; the plf-net wire
        // trailer is pinned to the same vectors through this function.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip_is_lossless() {
        let model = plf_seqgen::default_model();
        let admitted = AdmittedRecord {
            key: "k-1".to_string(),
            id: 7,
            tenant: "tenant-a".to_string(),
            priority: Priority::High,
            dataset: 3,
            n_taxa: 8,
            n_patterns: 64,
            newick: "((a:0.1,b:0.2):0.05,c:0.3,d:0.4);".to_string(),
            model: model.clone(),
            admitted_unix_nanos: 123_456_789,
            deadline_nanos: Some(50_000_000),
        };
        let payload = encode_record(&Record::Admitted(admitted.clone())).expect("encode");
        let Some(Record::Admitted(back)) = decode_record(payload.as_bytes()) else {
            panic!("expected admitted record");
        };
        assert_eq!(back.key, admitted.key);
        assert_eq!(back.id, admitted.id);
        assert_eq!(back.priority, admitted.priority);
        assert_eq!(back.newick, admitted.newick);
        assert_eq!(back.deadline_nanos, admitted.deadline_nanos);
        assert_eq!(back.model.shape().to_bits(), model.shape().to_bits());
        assert_eq!(back.model.n_rates(), model.n_rates());
        for (a, b) in back
            .model
            .params()
            .rates
            .iter()
            .zip(model.params().rates.iter())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let outcome = JobOutcome::Completed {
            ln_likelihood: -1234.56789,
            wait: Duration::from_micros(42),
            service: Duration::from_micros(7),
            backend: "scalar".to_string(),
        };
        let resolved = ResolvedRecord {
            key: "k-1".to_string(),
            id: 7,
            digest: outcome_digest(&outcome),
            outcome: outcome.clone(),
        };
        let payload = encode_record(&Record::Resolved(resolved)).expect("encode");
        let Some(Record::Resolved(back)) = decode_record(payload.as_bytes()) else {
            panic!("expected resolved record");
        };
        assert_eq!(back.outcome, outcome);
        assert_eq!(back.digest, outcome_digest(&outcome));
        assert_eq!(
            back.outcome.ln_likelihood().map(f64::to_bits),
            outcome.ln_likelihood().map(f64::to_bits),
            "lnL survives the journal bit-exactly"
        );
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert!(decode_record(b"not json").is_none());
        assert!(decode_record(b"{\"kind\":\"unknown\"}").is_none());
        assert!(decode_record(&[0xFF, 0xFE]).is_none());
    }

    #[test]
    fn frame_is_length_then_crc_then_payload() {
        let framed = frame(b"abc");
        assert_eq!(&framed[0..4], &3u32.to_le_bytes());
        assert_eq!(&framed[4..8], &crc32(b"abc").to_le_bytes());
        assert_eq!(&framed[8..], b"abc");
    }

    #[test]
    fn freeze_drops_later_appends_leaving_admitted_unresolved() {
        let dir = std::env::temp_dir().join(format!(
            "plfd-journal-freeze-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let counters = Arc::new(ServiceCounters::default());
        let journal = Journal::open(
            JournalConfig::in_dir(&dir),
            counters,
            0,
            BTreeMap::new(),
            BTreeMap::new(),
        )
        .expect("open");
        let record = AdmittedRecord {
            key: "frozen-1".to_string(),
            id: 1,
            tenant: "t".to_string(),
            priority: Priority::Normal,
            dataset: 0,
            n_taxa: 4,
            n_patterns: 16,
            newick: "((a:0.1,b:0.2):0.05,c:0.3,d:0.4);".to_string(),
            model: plf_seqgen::default_model(),
            admitted_unix_nanos: 1,
            deadline_nanos: None,
        };
        journal.append_admitted(&record).expect("admit");
        assert!(!journal.is_frozen());
        journal.freeze();
        assert!(journal.is_frozen());
        // Post-freeze resolution is silently dropped — kill -9 semantics.
        journal.append_resolved("frozen-1", 1, &JobOutcome::Cancelled);
        let scanned = crate::recovery::scan(&dir).expect("scan");
        assert_eq!(scanned.pending.len(), 1, "admit survived the freeze");
        assert!(
            scanned.resolved.is_empty(),
            "post-freeze resolve never reached disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
