//! Crash-safe durability for the serving layer: a per-tenant write-ahead
//! journal, periodic checkpoints, and recovery-on-startup.
//!
//! The paper's replication schemes assume the stationary computer's
//! allocation state survives across sessions; [`crate::ServeEngine`]
//! alone keeps every tenant's [`DecisionCore`] purely in memory, so a
//! daemon crash would silently lose windows, streaks, and billing
//! ledgers. [`DurableServe`] wraps the engine with an on-disk record of
//! every state-changing operation:
//!
//! * **Journal** — per tenant, an append-only file of length-prefixed
//!   records (`[len u32][seq u64, kind u8, payload][fnv1a-64 u64]`, all
//!   little-endian). The checksum covers the sequence number, kind, and
//!   payload, so any single-bit flip is detected (each FNV-1a step is a
//!   bijection of the running digest). Sequence numbers increase by
//!   exactly one and never reset for the life of a tenant directory.
//! * **Checkpoint** — a whole-state image ([`Checkpoint`] wrapping the
//!   versioned [`CoreSnapshot`] plus the §6 adaptive bookkeeping),
//!   written atomically (temp file, fsync, rename, directory fsync).
//!   After a durable checkpoint the journal is compacted to zero length;
//!   the checkpoint's `seq` tells recovery where the journal resumes.
//! * **Recovery** — on startup, each tenant directory is restored from
//!   its latest valid checkpoint and the journal tail is replayed
//!   through the decision core. A torn or corrupt record *truncates* the
//!   journal at that point (the clean prefix wins); a journal that
//!   cannot be reconciled at all — checksum-valid records with a
//!   sequence gap, an undecodable record, a missing base — *quarantines*
//!   that one tenant (its directory moves aside for forensics) without
//!   taking down the daemon or any other tenant.
//!
//! Writes are acknowledged only after the journal append succeeds
//! (apply → journal → respond), so a crash at any instant loses at most
//! operations that were never acknowledged — the recovered state is
//! always the pre-crash state or a declared-clean prefix of it, never
//! silently wrong. The crash-torture tests (`tests/torture.rs`) prove
//! this by killing, truncating, and bit-flipping at every byte offset of
//! a tail record and asserting digest equality after recovery.
//!
//! Replay is independent of the daemon's current adaptive setting: §6
//! window re-selections are journaled as explicit [`JournalOp::Adopt`]
//! records when they happen, and replay applies those records instead of
//! re-running the adaptive trigger.

use crate::engine::{
    serve_line, CoreSnapshot, DecisionCore, ServeConfig, ServeEngine, ServeRequest, ServeResponse,
};
use crate::faults::ConfigError;
use mdr_core::{CostModel, PolicySpec, Request};
use serde::Value;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The checkpoint format version this build writes and loads.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Journal file name inside a tenant directory.
const JOURNAL_FILE: &str = "journal.wal";
/// Checkpoint file name inside a tenant directory.
const CHECKPOINT_FILE: &str = "checkpoint.ckpt";
/// Scratch name the checkpoint is staged under before the atomic rename.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// Subdirectory of the data dir holding live tenant directories.
const TENANTS_DIR: &str = "tenants";
/// Subdirectory of the data dir where corrupt tenants are set aside.
const QUARANTINE_DIR: &str = "quarantine";

/// 64-bit FNV-1a over `bytes` — the per-record and checkpoint checksum.
/// Every step `d ← (d ⊕ b) · prime` is a bijection of the running
/// digest, so changing any single byte (a fortiori any single bit)
/// changes the result.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

/// The parseable wire notation for a cost model (`connection` /
/// `message:<ω>`). [`CostModel`]'s `Display` is the paper's pretty
/// notation (`message(ω=0.4)`), which its `FromStr` does not accept, so
/// journal records use this grammar instead; Rust's shortest-round-trip
/// float formatting makes it exact.
fn model_wire(model: CostModel) -> String {
    match model {
        CostModel::Connection => "connection".to_owned(),
        CostModel::Message { omega } => format!("message:{omega}"),
    }
}

// ---------------------------------------------------------------------------
// The record format.
// ---------------------------------------------------------------------------

const KIND_OPEN: u8 = 1;
const KIND_DECIDE: u8 = 2;
const KIND_ADOPT: u8 = 3;
const KIND_RESTORE: u8 = 4;
const KIND_CLOSE: u8 = 5;

/// One journaled state-changing operation. Policies, models, and
/// snapshots are stored in parseable text forms (policy `Display`,
/// `connection`/`message:<ω>` model notation, snapshot JSON), which
/// round-trip exactly — so replay reconstructs precisely the values the
/// live engine resolved, independent of the restarted daemon's defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// The tenant was opened with this resolved policy and cost model
    /// (canonical notation, defaults already applied).
    Open {
        /// Canonical policy notation, e.g. `SW5`.
        policy: String,
        /// Canonical cost-model notation, e.g. `message:0.4`.
        model: String,
    },
    /// One decided request, as the paper's `r`/`w` letter.
    Decide {
        /// The request letter.
        request: char,
    },
    /// A §6 adaptive window re-selection that fired on the preceding
    /// decision.
    Adopt {
        /// Canonical notation of the adopted policy.
        policy: String,
    },
    /// The tenant was rewound from a snapshot (the `restore` wire op).
    Restore {
        /// The [`CoreSnapshot`] as its canonical JSON.
        snapshot: String,
    },
    /// The tenant was closed; recovery treats the directory as disposed.
    Close,
}

fn push_str(body: &mut Vec<u8>, s: &str) {
    body.extend_from_slice(&(s.len() as u32).to_le_bytes());
    body.extend_from_slice(s.as_bytes());
}

/// Encodes one record as a self-delimiting frame:
/// `[body-len u32][seq u64, kind u8, payload][fnv1a64(body) u64]`,
/// all little-endian.
pub fn encode_record(seq: u64, op: &JournalOp) -> Vec<u8> {
    let mut body = Vec::with_capacity(16);
    body.extend_from_slice(&seq.to_le_bytes());
    match op {
        JournalOp::Open { policy, model } => {
            body.push(KIND_OPEN);
            push_str(&mut body, policy);
            push_str(&mut body, model);
        }
        JournalOp::Decide { request } => {
            body.push(KIND_DECIDE);
            body.extend_from_slice(&u32::from(*request).to_le_bytes());
        }
        JournalOp::Adopt { policy } => {
            body.push(KIND_ADOPT);
            push_str(&mut body, policy);
        }
        JournalOp::Restore { snapshot } => {
            body.push(KIND_RESTORE);
            push_str(&mut body, snapshot);
        }
        JournalOp::Close => body.push(KIND_CLOSE),
    }
    let mut frame = Vec::with_capacity(body.len() + 12);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    frame
}

/// Takes `n` bytes off the front of `input`, or fails totally.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
    if input.len() < n {
        return Err(format!(
            "record body ends early (needed {n} bytes, had {})",
            input.len()
        ));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

fn take_u32(input: &mut &[u8]) -> Result<u32, String> {
    let bytes = take(input, 4)?;
    let mut buf = [0u8; 4];
    buf.copy_from_slice(bytes);
    Ok(u32::from_le_bytes(buf))
}

fn take_u64(input: &mut &[u8]) -> Result<u64, String> {
    let bytes = take(input, 8)?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(bytes);
    Ok(u64::from_le_bytes(buf))
}

fn take_string(input: &mut &[u8]) -> Result<String, String> {
    let len = take_u32(input)? as usize;
    let bytes = take(input, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| "string payload is not UTF-8".to_owned())
}

/// Decodes one record body (everything the checksum covers) into its
/// sequence number and operation. Total: any byte sequence yields either
/// a record or a reason, never a panic.
pub fn decode_record(body: &[u8]) -> Result<(u64, JournalOp), String> {
    let mut input = body;
    let seq = take_u64(&mut input)?;
    let kind = take(&mut input, 1)?[0];
    let op = match kind {
        KIND_OPEN => JournalOp::Open {
            policy: take_string(&mut input)?,
            model: take_string(&mut input)?,
        },
        KIND_DECIDE => {
            let raw = take_u32(&mut input)?;
            let request =
                char::from_u32(raw).ok_or_else(|| format!("invalid request scalar {raw:#x}"))?;
            JournalOp::Decide { request }
        }
        KIND_ADOPT => JournalOp::Adopt {
            policy: take_string(&mut input)?,
        },
        KIND_RESTORE => JournalOp::Restore {
            snapshot: take_string(&mut input)?,
        },
        KIND_CLOSE => JournalOp::Close,
        other => return Err(format!("unknown record kind {other}")),
    };
    if !input.is_empty() {
        return Err(format!("{} trailing bytes after payload", input.len()));
    }
    Ok((seq, op))
}

/// How a journal scan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailOutcome {
    /// Every byte belonged to a valid record.
    Clean,
    /// The file ends mid-record — the expected shape after a crash
    /// during an append. The partial record was never acknowledged;
    /// recovery truncates it away.
    Torn {
        /// Byte offset of the incomplete record.
        offset: usize,
    },
    /// A record failed validation (checksum mismatch, undecodable body,
    /// or a sequence gap). Recovery truncates here; everything from this
    /// offset on is discarded.
    Corrupt {
        /// Byte offset of the failing record.
        offset: usize,
        /// What the scan found.
        reason: String,
    },
}

/// The result of scanning a journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// Every valid record, in order.
    pub records: Vec<(u64, JournalOp)>,
    /// How the scan ended.
    pub outcome: TailOutcome,
    /// Length in bytes of the valid prefix — what the journal is
    /// truncated to when the tail is torn or corrupt.
    pub clean_len: usize,
}

/// Scans raw journal bytes into validated records. Checksums are
/// verified, bodies decoded, and sequence numbers required to increase
/// by exactly one from the first record; the scan stops at the first
/// violation and reports the valid prefix. Total over arbitrary bytes.
pub fn scan_journal(bytes: &[u8]) -> JournalScan {
    let mut records: Vec<(u64, JournalOp)> = Vec::new();
    let mut offset = 0usize;
    let outcome = loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            break TailOutcome::Clean;
        }
        if remaining < 4 {
            break TailOutcome::Torn { offset };
        }
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(&bytes[offset..offset + 4]);
        let body_len = u32::from_le_bytes(len_buf) as usize;
        // A frame needs the length word, the body, and the checksum. A
        // bit-flipped length word usually lands here (the frame appears
        // to run past the end of the file) — checked *before* slicing,
        // so corruption can never trigger a huge allocation or a panic.
        let Some(frame_len) = body_len.checked_add(12) else {
            break TailOutcome::Torn { offset };
        };
        if frame_len > remaining {
            break TailOutcome::Torn { offset };
        }
        if body_len < 9 {
            break TailOutcome::Corrupt {
                offset,
                reason: format!("record body of {body_len} bytes is below the 9-byte minimum"),
            };
        }
        let body = &bytes[offset + 4..offset + 4 + body_len];
        let mut check_buf = [0u8; 8];
        check_buf.copy_from_slice(&bytes[offset + 4 + body_len..offset + frame_len]);
        let stored = u64::from_le_bytes(check_buf);
        let computed = fnv1a64(body);
        if stored != computed {
            break TailOutcome::Corrupt {
                offset,
                reason: format!(
                    "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
                ),
            };
        }
        let (seq, op) = match decode_record(body) {
            Ok(parsed) => parsed,
            Err(reason) => break TailOutcome::Corrupt { offset, reason },
        };
        if let Some(&(prev_seq, _)) = records.last() {
            if seq != prev_seq + 1 {
                break TailOutcome::Corrupt {
                    offset,
                    reason: format!("sequence gap: expected {}, found {seq}", prev_seq + 1),
                };
            }
        }
        records.push((seq, op));
        offset += frame_len;
    };
    JournalScan {
        records,
        outcome,
        clean_len: offset,
    }
}

// ---------------------------------------------------------------------------
// Checkpoints.
// ---------------------------------------------------------------------------

/// A whole-state image of one tenant: the versioned core snapshot plus
/// the serve layer's §6 adaptive bookkeeping and the journal sequence
/// number the image is current through. Stored as two lines — a 16-hex
/// FNV-1a checksum of the JSON, then the JSON itself.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Checkpoint {
    /// Checkpoint format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The journal sequence number this image is current through;
    /// replay resumes at `seq + 1`.
    pub seq: u64,
    /// The decision core's restorable image.
    pub snapshot: CoreSnapshot,
    /// Whether the §6 re-selection already fired for this tenant.
    pub adapted: bool,
    /// θ̂ numerator/denominator at the previous adaptive checkpoint.
    pub adapt_checkpoint: Option<(u64, u64)>,
}

/// Renders a checkpoint to its two-line on-disk form.
pub fn encode_checkpoint(checkpoint: &Checkpoint) -> String {
    let Ok(json) = serde_json::to_string(checkpoint) else {
        unreachable!("every Checkpoint value serializes");
    };
    format!("{:016x}\n{json}\n", fnv1a64(json.as_bytes()))
}

/// Parses and validates the two-line checkpoint form: checksum first,
/// then format version, then the snapshot itself. Total over arbitrary
/// text.
pub fn decode_checkpoint(text: &str) -> Result<Checkpoint, ConfigError> {
    let corrupt = |reason: String| ConfigError::JournalCorrupt {
        tenant: String::new(),
        reason,
    };
    let mut lines = text.lines();
    let (Some(check_line), Some(json)) = (lines.next(), lines.next()) else {
        return Err(corrupt(
            "checkpoint file is missing its two lines".to_owned(),
        ));
    };
    let stored = u64::from_str_radix(check_line.trim(), 16).map_err(|_| {
        corrupt(format!(
            "checkpoint checksum line {check_line:?} is not hex"
        ))
    })?;
    let computed = fnv1a64(json.as_bytes());
    if stored != computed {
        return Err(corrupt(format!(
            "checkpoint checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    let checkpoint: Checkpoint = serde_json::from_str(json)
        .map_err(|e| corrupt(format!("checkpoint JSON does not parse: {e}")))?;
    if checkpoint.version != CHECKPOINT_VERSION {
        return Err(ConfigError::CheckpointVersion {
            found: checkpoint.version,
            supported: CHECKPOINT_VERSION,
        });
    }
    Ok(checkpoint)
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// When journal appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record — at most zero acknowledged
    /// operations lost, at the cost of one disk flush per operation.
    Always,
    /// fsync after every `n` appended records — bounds the loss window
    /// to `n - 1` acknowledged operations.
    Interval(u64),
    /// Never fsync explicitly; the OS flushes on its own schedule.
    /// Torn-tail recovery still works, but acknowledged operations since
    /// the last OS flush can be lost on power failure.
    Never,
}

/// Where and how the durability layer persists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// The data directory (created if absent). Tenants live under
    /// `<dir>/tenants/`, quarantined state under `<dir>/quarantine/`.
    pub dir: PathBuf,
    /// The fsync cadence for journal appends.
    pub fsync: FsyncPolicy,
    /// Write a checkpoint (and compact the journal) after this many
    /// journaled records per tenant.
    pub checkpoint_every: u64,
}

impl JournalConfig {
    /// A config with the production defaults: fsync every 64 records,
    /// checkpoint every 1024.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Interval(64),
            checkpoint_every: 1024,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.checkpoint_every == 0 {
            return Err(ConfigError::ZeroCount {
                what: "checkpoint interval",
            });
        }
        if self.fsync == FsyncPolicy::Interval(0) {
            return Err(ConfigError::ZeroCount {
                what: "fsync interval",
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Stats and reports.
// ---------------------------------------------------------------------------

/// Deterministic durability counters, surfaced on the daemon-level
/// `stats` wire response. Recovery *time* goes to stderr instead — the
/// wire format stays byte-reproducible for the pinned fixtures and the
/// determinism audit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Tenants recovered at startup.
    pub recovered_tenants: u64,
    /// Journal records replayed at startup.
    pub replayed_records: u64,
    /// Bytes discarded from torn or corrupt journal tails at startup.
    pub truncated_bytes: u64,
    /// Tenants quarantined (at startup or after a live journal failure).
    pub quarantined_tenants: u64,
    /// Records appended to journals since startup.
    pub journal_appends: u64,
    /// Checkpoints written since startup (including recovery compaction).
    pub checkpoints: u64,
    /// Checkpoint attempts that failed and were deferred to the next
    /// interval (the journal still holds the records, so no state risk).
    pub checkpoint_failures: u64,
    /// Explicit fsync calls issued for journal appends.
    pub fsyncs: u64,
}

impl DurabilityStats {
    /// The stats as wire-format pairs, nested under the server-stats
    /// response.
    pub(crate) fn pairs(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("recovered_tenants", Value::UInt(self.recovered_tenants)),
            ("replayed_records", Value::UInt(self.replayed_records)),
            ("truncated_bytes", Value::UInt(self.truncated_bytes)),
            ("quarantined_tenants", Value::UInt(self.quarantined_tenants)),
            ("journal_appends", Value::UInt(self.journal_appends)),
            ("checkpoints", Value::UInt(self.checkpoints)),
            ("checkpoint_failures", Value::UInt(self.checkpoint_failures)),
            ("fsyncs", Value::UInt(self.fsyncs)),
        ]
    }
}

/// What happened to one tenant directory during recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantRecovery {
    /// The tenant was restored and reopened.
    Recovered {
        /// Journal records replayed past the checkpoint.
        replayed: u64,
        /// Bytes discarded from a torn or corrupt tail.
        truncated_bytes: u64,
    },
    /// The journal's last record was `close`; the directory was disposed.
    Closed,
    /// The tenant's state could not be reconciled; its directory was
    /// moved to the quarantine area and the tenant is not open.
    Quarantined {
        /// Why recovery gave up.
        error: ConfigError,
    },
}

/// The full story of one startup recovery pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Per-tenant outcomes, in directory order.
    pub tenants: Vec<(String, TenantRecovery)>,
    /// Directory names under `tenants/` that are not valid escaped
    /// tenant ids; left untouched.
    pub skipped_dirs: Vec<String>,
}

impl RecoveryReport {
    /// Names of tenants that were recovered and are open.
    pub fn recovered(&self) -> Vec<&str> {
        self.tenants
            .iter()
            .filter(|(_, outcome)| matches!(outcome, TenantRecovery::Recovered { .. }))
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Names of tenants that were quarantined.
    pub fn quarantined(&self) -> Vec<&str> {
        self.tenants
            .iter()
            .filter(|(_, outcome)| matches!(outcome, TenantRecovery::Quarantined { .. }))
            .map(|(name, _)| name.as_str())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Tenant-name escaping.
// ---------------------------------------------------------------------------

/// Escapes a tenant id into a filesystem-safe directory name:
/// `[A-Za-z0-9_-]` bytes pass through, everything else becomes `%XX`
/// (uppercase hex, per byte). Injective, so distinct tenants never
/// collide on disk.
pub fn escape_tenant(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            other => {
                out.push('%');
                out.push_str(&format!("{other:02X}"));
            }
        }
    }
    out
}

/// Inverts [`escape_tenant`]; `None` for names no escape produces
/// (stray directories are skipped by recovery, never guessed at).
pub fn unescape_tenant(escaped: &str) -> Option<String> {
    let bytes = escaped.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let text = std::str::from_utf8(hex).ok()?;
                // Only the canonical uppercase form round-trips.
                if text.chars().any(|c| c.is_ascii_lowercase()) {
                    return None;
                }
                out.push(u8::from_str_radix(text, 16).ok()?);
                i += 3;
            }
            b @ (b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-') => {
                out.push(b);
                i += 1;
            }
            _ => return None,
        }
    }
    let name = String::from_utf8(out).ok()?;
    // Reject non-canonical escapes of safe bytes (e.g. "%41" for "A"),
    // so escape ∘ unescape is the identity on directory names.
    if escape_tenant(&name) != escaped {
        return None;
    }
    Some(name)
}

// ---------------------------------------------------------------------------
// The durable engine.
// ---------------------------------------------------------------------------

/// One tenant's open journal handle.
#[derive(Debug)]
struct TenantStore {
    /// The tenant's directory under `tenants/`.
    dir: PathBuf,
    /// Append handle on the journal file.
    file: File,
    /// Sequence number the next record will carry.
    next_seq: u64,
    /// Appends since the last explicit fsync.
    since_sync: u64,
    /// Appends since the last checkpoint.
    since_checkpoint: u64,
}

/// [`ServeEngine`] wrapped with the write-ahead journal, checkpoints,
/// and recovery. Construction ([`DurableServe::open`]) performs the
/// recovery pass; [`DurableServe::handle_line`] then speaks exactly the
/// engine's wire format, with every acknowledged state change journaled
/// first.
#[derive(Debug)]
pub struct DurableServe {
    engine: ServeEngine,
    config: JournalConfig,
    stores: BTreeMap<String, TenantStore>,
    stats: DurabilityStats,
    /// Monotonic counter that keeps quarantine directory names unique.
    quarantine_counter: u64,
}

fn io_err(path: &Path, e: &std::io::Error) -> ConfigError {
    ConfigError::DataDir {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

impl DurableServe {
    /// Opens (creating if needed) the data directory, recovers every
    /// tenant found in it, and returns the ready engine plus the
    /// recovery report. Tenant-level corruption quarantines that tenant
    /// and keeps going; only data-directory-level I/O failure is fatal.
    pub fn open(
        config: ServeConfig,
        journal: JournalConfig,
    ) -> Result<(DurableServe, RecoveryReport), ConfigError> {
        journal.validate()?;
        let mut engine = ServeEngine::new(config)?;
        let tenants_dir = journal.dir.join(TENANTS_DIR);
        fs::create_dir_all(&tenants_dir).map_err(|e| io_err(&tenants_dir, &e))?;
        let quarantine_dir = journal.dir.join(QUARANTINE_DIR);
        fs::create_dir_all(&quarantine_dir).map_err(|e| io_err(&quarantine_dir, &e))?;

        let mut report = RecoveryReport::default();
        let mut stats = DurabilityStats::default();
        let mut stores = BTreeMap::new();
        let mut quarantine_counter = 0u64;

        let mut dir_names: Vec<String> = Vec::new();
        let entries = fs::read_dir(&tenants_dir).map_err(|e| io_err(&tenants_dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&tenants_dir, &e))?;
            dir_names.push(entry.file_name().to_string_lossy().into_owned());
        }
        dir_names.sort();

        for escaped in dir_names {
            let Some(name) = unescape_tenant(&escaped) else {
                report.skipped_dirs.push(escaped);
                continue;
            };
            let dir = tenants_dir.join(&escaped);
            match Self::recover_tenant(&mut engine, &name, &dir) {
                Ok(RecoveredTenant::Open {
                    last_seq,
                    replayed,
                    truncated_bytes,
                }) => {
                    stats.recovered_tenants += 1;
                    stats.replayed_records += replayed;
                    stats.truncated_bytes += truncated_bytes;
                    // Compact immediately: checkpoint the recovered
                    // state and restart the journal empty, so repeated
                    // crash/recover cycles never re-replay old work.
                    let mut store =
                        Self::create_store(&dir, last_seq + 1).map_err(|e| io_err(&dir, &e))?;
                    match Self::write_tenant_checkpoint(&engine, &name, &mut store) {
                        Ok(()) => stats.checkpoints += 1,
                        Err(_) => stats.checkpoint_failures += 1,
                    }
                    stores.insert(name.clone(), store);
                    report.tenants.push((
                        name,
                        TenantRecovery::Recovered {
                            replayed,
                            truncated_bytes,
                        },
                    ));
                }
                Ok(RecoveredTenant::Closed) => {
                    let _ = fs::remove_dir_all(&dir);
                    report.tenants.push((name, TenantRecovery::Closed));
                }
                Err(error) => {
                    engine.evict_tenant(&name);
                    stats.quarantined_tenants += 1;
                    Self::move_to_quarantine(&journal.dir, &escaped, &dir, &mut quarantine_counter);
                    report
                        .tenants
                        .push((name, TenantRecovery::Quarantined { error }));
                }
            }
        }

        let lifetime: u64 = report
            .recovered()
            .iter()
            .filter_map(|name| engine.tenant_core(name))
            .map(DecisionCore::decided)
            .sum();
        engine.restore_lifetime(lifetime);

        Ok((
            DurableServe {
                engine,
                config: journal,
                stores,
                stats,
                quarantine_counter,
            },
            report,
        ))
    }

    /// The wrapped engine (read access for stats and tests).
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// Whether a `shutdown` op ended the session.
    pub fn is_done(&self) -> bool {
        self.engine.is_done()
    }

    /// The durability counters so far.
    pub fn stats(&self) -> &DurabilityStats {
        &self.stats
    }

    /// Handles one wire line exactly like
    /// [`ServeEngine::handle_line`], with state changes journaled before
    /// the response is produced. Total: one line in, one JSON line out.
    pub fn handle_line(&mut self, line: &str) -> String {
        serve_line(line, |request| self.apply(request))
    }

    /// Applies one typed request with write-ahead durability. The order
    /// is apply → journal → respond: a crash between apply and append
    /// loses only the in-flight, never-acknowledged operation.
    pub fn apply(&mut self, request: &ServeRequest) -> ServeResponse {
        match request {
            ServeRequest::Stats { tenant: None } => ServeResponse::ServerStats {
                tenants: self.engine.tenant_count(),
                decisions: self.engine.decisions(),
                durability: Some(self.stats.clone()),
            },
            ServeRequest::Open { tenant, .. } => {
                let response = self.engine.apply(request);
                if let ServeResponse::Opened { policy, .. } = &response {
                    // The response's model string is display notation
                    // (`message(ω=0.4)`); the journal needs the parseable
                    // wire grammar, so re-derive it from the live core.
                    // The open just succeeded, so the core exists; the
                    // fallback only keeps this branch total.
                    let model = self
                        .engine
                        .tenant_core(tenant)
                        .map_or_else(|| "connection".to_owned(), |core| model_wire(core.model()));
                    let op = JournalOp::Open {
                        policy: policy.clone(),
                        model,
                    };
                    if let Err(error) = self.open_store(tenant, &op) {
                        return self.journal_failed(tenant, error);
                    }
                }
                response
            }
            ServeRequest::Decide {
                tenant,
                request: letter,
            } => {
                let before = self.engine.tenant_policy(tenant);
                let response = self.engine.apply(request);
                if matches!(response, ServeResponse::Decided { .. }) {
                    let mut ops = vec![JournalOp::Decide { request: *letter }];
                    let after = self.engine.tenant_policy(tenant);
                    if let Some(spec) = after {
                        if before != Some(spec) {
                            // The §6 adaptive re-selection fired on this
                            // decision; journal it explicitly so replay
                            // never has to re-run the trigger.
                            ops.push(JournalOp::Adopt {
                                policy: spec.to_string(),
                            });
                        }
                    }
                    if let Err(error) = self.append_ops(tenant, &ops) {
                        return self.journal_failed(tenant, error);
                    }
                    self.maybe_checkpoint(tenant);
                }
                response
            }
            ServeRequest::Restore { tenant, snapshot } => {
                let response = self.engine.apply(request);
                if matches!(response, ServeResponse::Restored { .. }) {
                    let Ok(json) = serde_json::to_string(snapshot) else {
                        unreachable!("every CoreSnapshot value serializes");
                    };
                    let op = JournalOp::Restore { snapshot: json };
                    let result = if self.stores.contains_key(tenant) {
                        self.append_ops(tenant, std::slice::from_ref(&op))
                    } else {
                        // `restore` can create the tenant.
                        self.open_store(tenant, &op)
                    };
                    if let Err(error) = result {
                        return self.journal_failed(tenant, error);
                    }
                    self.maybe_checkpoint(tenant);
                }
                response
            }
            ServeRequest::Close { tenant } => {
                let response = self.engine.apply(request);
                if matches!(response, ServeResponse::Closed { .. }) {
                    self.close_store(tenant);
                }
                response
            }
            ServeRequest::Shutdown => {
                let response = self.engine.apply(request);
                self.finalize();
                response
            }
            // Reads change nothing; no journaling.
            ServeRequest::Stats { tenant: Some(_) } | ServeRequest::Snapshot { .. } => {
                self.engine.apply(request)
            }
        }
    }

    /// Flushes every open tenant: final checkpoint, compacted journal,
    /// everything fsynced. Called on `shutdown` and at end-of-input;
    /// a per-tenant failure defers to the journal (which still holds the
    /// records) rather than aborting the rest.
    pub fn finalize(&mut self) {
        let names: Vec<String> = self.stores.keys().cloned().collect();
        for name in names {
            let Some(mut store) = self.stores.remove(&name) else {
                continue;
            };
            // The journal may hold unsynced acknowledged records; the
            // checkpoint below supersedes them, and is itself fsynced.
            match Self::write_tenant_checkpoint(&self.engine, &name, &mut store) {
                Ok(()) => self.stats.checkpoints += 1,
                Err(_) => {
                    self.stats.checkpoint_failures += 1;
                    // Fall back to making the journal itself durable.
                    if store.file.sync_all().is_ok() {
                        self.stats.fsyncs += 1;
                    }
                }
            }
            self.stores.insert(name, store);
        }
    }

    // -- internals ---------------------------------------------------------

    fn journal_path(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    fn create_store(dir: &Path, next_seq: u64) -> std::io::Result<TenantStore> {
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(Self::journal_path(dir))?;
        Ok(TenantStore {
            dir: dir.to_path_buf(),
            file,
            next_seq,
            since_sync: 0,
            since_checkpoint: 0,
        })
    }

    /// Creates a fresh tenant directory (clearing any stale leftovers)
    /// and journals the tenant-creating record.
    fn open_store(&mut self, tenant: &str, first_op: &JournalOp) -> Result<(), ConfigError> {
        let dir = self
            .config
            .dir
            .join(TENANTS_DIR)
            .join(escape_tenant(tenant));
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;
        }
        let store = Self::create_store(&dir, 1).map_err(|e| io_err(&dir, &e))?;
        self.stores.insert(tenant.to_owned(), store);
        self.append_ops(tenant, std::slice::from_ref(first_op))
    }

    /// Appends records for `ops` (consecutive sequence numbers) and
    /// applies the fsync policy.
    fn append_ops(&mut self, tenant: &str, ops: &[JournalOp]) -> Result<(), ConfigError> {
        let Some(store) = self.stores.get_mut(tenant) else {
            return Err(ConfigError::JournalCorrupt {
                tenant: tenant.to_owned(),
                reason: "no journal store is open for this tenant".to_owned(),
            });
        };
        let mut frame = Vec::new();
        for op in ops {
            frame.extend_from_slice(&encode_record(store.next_seq, op));
            store.next_seq += 1;
        }
        store
            .file
            .write_all(&frame)
            .map_err(|e| io_err(&store.dir, &e))?;
        let appended = ops.len() as u64;
        self.stats.journal_appends += appended;
        store.since_checkpoint += appended;
        match self.config.fsync {
            FsyncPolicy::Always => {
                store.file.sync_all().map_err(|e| io_err(&store.dir, &e))?;
                self.stats.fsyncs += 1;
            }
            FsyncPolicy::Interval(n) => {
                store.since_sync += appended;
                if store.since_sync >= n {
                    store.file.sync_all().map_err(|e| io_err(&store.dir, &e))?;
                    self.stats.fsyncs += 1;
                    store.since_sync = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Writes a checkpoint if the per-tenant record interval elapsed.
    /// Failure is deferred, not fatal: the journal still holds every
    /// acknowledged record.
    fn maybe_checkpoint(&mut self, tenant: &str) {
        let due = self
            .stores
            .get(tenant)
            .is_some_and(|s| s.since_checkpoint >= self.config.checkpoint_every);
        if !due {
            return;
        }
        let Some(mut store) = self.stores.remove(tenant) else {
            return;
        };
        match Self::write_tenant_checkpoint(&self.engine, tenant, &mut store) {
            Ok(()) => self.stats.checkpoints += 1,
            Err(_) => self.stats.checkpoint_failures += 1,
        }
        self.stores.insert(tenant.to_owned(), store);
    }

    /// Checkpoints one tenant's current state atomically and compacts
    /// its journal to zero length.
    fn write_tenant_checkpoint(
        engine: &ServeEngine,
        tenant: &str,
        store: &mut TenantStore,
    ) -> std::io::Result<()> {
        let (Some(core), Some((adapted, adapt_checkpoint))) =
            (engine.tenant_core(tenant), engine.adapt_state(tenant))
        else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "tenant is not open in the engine",
            ));
        };
        let checkpoint = Checkpoint {
            version: CHECKPOINT_VERSION,
            seq: store.next_seq - 1,
            snapshot: core.snapshot(),
            adapted,
            adapt_checkpoint,
        };
        let text = encode_checkpoint(&checkpoint);
        let tmp = store.dir.join(CHECKPOINT_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, store.dir.join(CHECKPOINT_FILE))?;
        // Make the rename itself durable before discarding the journal.
        File::open(&store.dir).and_then(|d| d.sync_all())?;
        store.file.set_len(0)?;
        store.file.sync_all()?;
        store.since_checkpoint = 0;
        store.since_sync = 0;
        Ok(())
    }

    /// Durably closes a tenant: journal the close, fsync, then dispose
    /// of the directory (checkpoint first, journal second, directory
    /// last — every intermediate crash state is recognized by recovery).
    fn close_store(&mut self, tenant: &str) {
        if self.append_ops(tenant, &[JournalOp::Close]).is_ok() {
            if let Some(store) = self.stores.get_mut(tenant) {
                if store.file.sync_all().is_ok() {
                    self.stats.fsyncs += 1;
                }
            }
        }
        if let Some(store) = self.stores.remove(tenant) {
            let _ = fs::remove_file(store.dir.join(CHECKPOINT_FILE));
            drop(store.file);
            let _ = fs::remove_file(Self::journal_path(&store.dir));
            let _ = fs::remove_dir_all(&store.dir);
        }
    }

    /// A live journal append failed: the tenant can no longer be made
    /// durable, so it is evicted from the engine and its directory set
    /// aside — degraded, not fatal, and isolated to this tenant.
    fn journal_failed(&mut self, tenant: &str, error: ConfigError) -> ServeResponse {
        self.engine.evict_tenant(tenant);
        self.stores.remove(tenant);
        self.stats.quarantined_tenants += 1;
        let escaped = escape_tenant(tenant);
        let dir = self.config.dir.join(TENANTS_DIR).join(&escaped);
        Self::move_to_quarantine(
            &self.config.dir,
            &escaped,
            &dir,
            &mut self.quarantine_counter,
        );
        ServeEngine::error(&error)
    }

    /// Best-effort move of a tenant directory into the quarantine area,
    /// with a counter suffix when the name is already taken.
    fn move_to_quarantine(root: &Path, escaped: &str, dir: &Path, counter: &mut u64) {
        let quarantine = root.join(QUARANTINE_DIR);
        let mut target = quarantine.join(escaped);
        while target.exists() {
            *counter += 1;
            target = quarantine.join(format!("{escaped}-{counter}"));
        }
        let _ = fs::create_dir_all(&quarantine);
        let _ = fs::rename(dir, &target);
    }

    /// Recovers one tenant directory into the engine.
    fn recover_tenant(
        engine: &mut ServeEngine,
        name: &str,
        dir: &Path,
    ) -> Result<RecoveredTenant, ConfigError> {
        let corrupt = |reason: String| ConfigError::JournalCorrupt {
            tenant: name.to_owned(),
            reason,
        };
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let checkpoint = if ckpt_path.exists() {
            let text = fs::read_to_string(&ckpt_path)
                .map_err(|e| corrupt(format!("checkpoint unreadable: {e}")))?;
            let loaded = decode_checkpoint(&text).map_err(|e| match e {
                ConfigError::JournalCorrupt { reason, .. } => corrupt(reason),
                other => other,
            })?;
            Some(loaded)
        } else {
            None
        };
        let journal_bytes = match fs::read(Self::journal_path(dir)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(corrupt(format!("journal unreadable: {e}"))),
        };
        let scan = scan_journal(&journal_bytes);

        // A journal ending in `close` means the tenant was durably
        // closed; whatever deletion steps the crash interrupted, finish
        // them now.
        if matches!(scan.records.last(), Some((_, JournalOp::Close))) {
            return Ok(RecoveredTenant::Closed);
        }

        let after_seq = match &checkpoint {
            Some(c) => {
                let core = DecisionCore::restore(&c.snapshot)?;
                engine.install_tenant(name, core, c.adapted, c.adapt_checkpoint);
                c.seq
            }
            None => 0,
        };

        // Records at or below the checkpoint's seq are pre-compaction
        // leftovers (a crash between checkpoint write and journal
        // truncate); skip them.
        let tail: Vec<&(u64, JournalOp)> = scan
            .records
            .iter()
            .filter(|(seq, _)| *seq > after_seq)
            .collect();

        let undo = |engine: &mut ServeEngine, e: ConfigError| {
            engine.evict_tenant(name);
            Err(e)
        };

        if let Some((first_seq, first_op)) = tail.first() {
            if *first_seq != after_seq + 1 {
                return undo(
                    engine,
                    corrupt(format!(
                        "sequence gap after checkpoint: expected {}, journal resumes at {first_seq}",
                        after_seq + 1
                    )),
                );
            }
            if checkpoint.is_none()
                && !matches!(first_op, JournalOp::Open { .. } | JournalOp::Restore { .. })
            {
                return undo(
                    engine,
                    corrupt("journal does not begin with a tenant-creating record".to_owned()),
                );
            }
        } else if checkpoint.is_none() {
            // No checkpoint and no usable records: the crash landed
            // between directory creation and the first durable append.
            // The open was never acknowledged, so the clean prefix is
            // "tenant absent".
            return Ok(RecoveredTenant::Closed);
        }

        let mut replayed = 0u64;
        for (_, op) in &tail {
            let step = Self::replay_op(engine, name, op);
            if let Err(e) = step {
                return undo(engine, e);
            }
            replayed += 1;
        }

        let last_seq = tail
            .last()
            .map_or(after_seq, |(seq, _)| *seq)
            .max(scan.records.last().map_or(0, |(seq, _)| *seq));

        Ok(RecoveredTenant::Open {
            last_seq,
            replayed,
            truncated_bytes: (journal_bytes.len() - scan.clean_len) as u64,
        })
    }

    /// Replays one validated journal record through the engine.
    fn replay_op(engine: &mut ServeEngine, name: &str, op: &JournalOp) -> Result<(), ConfigError> {
        let corrupt = |reason: String| ConfigError::JournalCorrupt {
            tenant: name.to_owned(),
            reason,
        };
        match op {
            JournalOp::Open { policy, model } => {
                let spec: PolicySpec = policy
                    .parse()
                    .map_err(|e| corrupt(format!("journaled policy {policy:?}: {e}")))?;
                let model: CostModel = model
                    .parse()
                    .map_err(|e| corrupt(format!("journaled model {model:?}: {e}")))?;
                let core = DecisionCore::new(spec, model)?;
                engine.install_tenant(name, core, false, None);
                Ok(())
            }
            JournalOp::Decide { request } => {
                let req = Request::from_letter(*request)
                    .map_err(|e| corrupt(format!("journaled request: {e}")))?;
                engine.replay_decide(name, req)
            }
            JournalOp::Adopt { policy } => {
                let spec: PolicySpec = policy
                    .parse()
                    .map_err(|e| corrupt(format!("journaled adopted policy {policy:?}: {e}")))?;
                engine.replay_adopt(name, spec)
            }
            JournalOp::Restore { snapshot } => {
                let snapshot: CoreSnapshot = serde_json::from_str(snapshot)
                    .map_err(|e| corrupt(format!("journaled snapshot does not parse: {e}")))?;
                engine.replay_restore(name, &snapshot)
            }
            JournalOp::Close => Err(corrupt("close record mid-journal".to_owned())),
        }
    }
}

/// Internal outcome of one tenant's recovery.
enum RecoveredTenant {
    /// The tenant is open in the engine.
    Open {
        /// Highest journal sequence number seen (checkpoint or record).
        last_seq: u64,
        /// Records replayed past the checkpoint.
        replayed: u64,
        /// Bytes discarded from the tail.
        truncated_bytes: u64,
    },
    /// The tenant was durably closed (or never durably opened).
    Closed,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mdr-journal-{tag}-{}-{}",
            std::process::id(),
            // A per-call discriminator without clocks: the address of a
            // fresh leaked allocation is unique for the process life.
            Box::leak(Box::new(0u8)) as *const u8 as usize,
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn open_at(dir: &Path) -> (DurableServe, RecoveryReport) {
        DurableServe::open(ServeConfig::default(), JournalConfig::new(dir)).expect("open")
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn record_byte_layout_is_pinned() {
        // The on-disk format is a compatibility promise: seq 7, decide
        // 'r'. Body = seq(8) + kind(1) + scalar(4) = 13 bytes.
        let frame = encode_record(7, &JournalOp::Decide { request: 'r' });
        assert_eq!(frame.len(), 4 + 13 + 8);
        assert_eq!(&frame[0..4], &13u32.to_le_bytes());
        assert_eq!(&frame[4..12], &7u64.to_le_bytes());
        assert_eq!(frame[12], KIND_DECIDE);
        assert_eq!(&frame[13..17], &u32::from('r').to_le_bytes());
        let check = fnv1a64(&frame[4..17]);
        assert_eq!(&frame[17..25], &check.to_le_bytes());
    }

    #[test]
    fn every_op_kind_round_trips() {
        let ops = [
            JournalOp::Open {
                policy: "SW5".to_owned(),
                model: "message:0.4".to_owned(),
            },
            JournalOp::Decide { request: 'w' },
            JournalOp::Adopt {
                policy: "SW3".to_owned(),
            },
            JournalOp::Restore {
                snapshot: "{\"version\":1}".to_owned(),
            },
            JournalOp::Close,
        ];
        let mut bytes = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(i as u64 + 1, op));
        }
        let scan = scan_journal(&bytes);
        assert_eq!(scan.outcome, TailOutcome::Clean);
        assert_eq!(scan.clean_len, bytes.len());
        assert_eq!(scan.records.len(), ops.len());
        for (i, (seq, op)) in scan.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(op, &ops[i]);
        }
    }

    #[test]
    fn truncation_at_any_point_is_torn_never_panics() {
        let mut bytes = encode_record(1, &JournalOp::Decide { request: 'r' });
        bytes.extend_from_slice(&encode_record(
            2,
            &JournalOp::Adopt {
                policy: "SW7".to_owned(),
            },
        ));
        let first_len = encode_record(1, &JournalOp::Decide { request: 'r' }).len();
        for cut in 0..bytes.len() {
            let scan = scan_journal(&bytes[..cut]);
            if cut == 0 {
                assert_eq!(scan.outcome, TailOutcome::Clean);
            } else if cut < first_len {
                assert_eq!(scan.outcome, TailOutcome::Torn { offset: 0 }, "cut {cut}");
                assert!(scan.records.is_empty());
            } else if cut == first_len {
                assert_eq!(scan.outcome, TailOutcome::Clean, "cut {cut}");
                assert_eq!(scan.records.len(), 1);
            } else {
                assert_eq!(
                    scan.outcome,
                    TailOutcome::Torn { offset: first_len },
                    "cut {cut}"
                );
                assert_eq!(scan.records.len(), 1);
                assert_eq!(scan.clean_len, first_len);
            }
        }
    }

    #[test]
    fn sequence_gaps_are_corrupt_with_the_offset() {
        let mut bytes = encode_record(1, &JournalOp::Decide { request: 'r' });
        let off = bytes.len();
        bytes.extend_from_slice(&encode_record(3, &JournalOp::Decide { request: 'w' }));
        let scan = scan_journal(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.clean_len, off);
        match scan.outcome {
            TailOutcome::Corrupt { offset, ref reason } => {
                assert_eq!(offset, off);
                assert!(reason.contains("sequence gap"), "{reason}");
                assert!(reason.contains("expected 2"), "{reason}");
            }
            ref other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn undersized_body_length_is_corrupt() {
        // A frame claiming a 3-byte body (below the 9-byte seq+kind
        // minimum) with a valid checksum over those 3 bytes.
        let body = [1u8, 2, 3];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        let scan = scan_journal(&bytes);
        assert!(
            matches!(scan.outcome, TailOutcome::Corrupt { offset: 0, .. }),
            "{:?}",
            scan.outcome
        );
    }

    #[test]
    fn huge_length_word_is_torn_not_an_allocation() {
        let mut bytes = vec![0xFFu8; 4]; // len ≈ u32::MAX
        bytes.extend_from_slice(&[0u8; 32]);
        let scan = scan_journal(&bytes);
        assert_eq!(scan.outcome, TailOutcome::Torn { offset: 0 });
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_tampering() {
        let core = DecisionCore::new(PolicySpec::SlidingWindow { k: 3 }, CostModel::message(0.25))
            .expect("core");
        let checkpoint = Checkpoint {
            version: CHECKPOINT_VERSION,
            seq: 42,
            snapshot: core.snapshot(),
            adapted: true,
            adapt_checkpoint: Some((5, 64)),
        };
        let text = encode_checkpoint(&checkpoint);
        assert_eq!(decode_checkpoint(&text).expect("round trip"), checkpoint);

        // Flip one character of the JSON line: the checksum must refuse.
        let mut tampered = text.clone().into_bytes();
        let json_start = text.find('\n').expect("two lines") + 1;
        tampered[json_start + 3] ^= 0x01;
        let tampered = String::from_utf8(tampered).expect("still utf-8");
        assert!(decode_checkpoint(&tampered).is_err());
    }

    #[test]
    fn checkpoint_version_skew_is_a_typed_error() {
        let core = DecisionCore::new(PolicySpec::St1, CostModel::Connection).expect("core");
        let mut checkpoint = Checkpoint {
            version: CHECKPOINT_VERSION + 9,
            seq: 0,
            snapshot: core.snapshot(),
            adapted: false,
            adapt_checkpoint: None,
        };
        let text = encode_checkpoint(&checkpoint);
        match decode_checkpoint(&text) {
            Err(ConfigError::CheckpointVersion { found, supported }) => {
                assert_eq!(found, CHECKPOINT_VERSION + 9);
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected CheckpointVersion, got {other:?}"),
        }
        checkpoint.version = CHECKPOINT_VERSION;
        assert!(decode_checkpoint(&encode_checkpoint(&checkpoint)).is_ok());
    }

    #[test]
    fn tenant_escaping_round_trips_and_rejects_noncanonical() {
        for name in ["mc1", "a/b", "..", "café", "%", "A-Z_0", ""] {
            let escaped = escape_tenant(name);
            assert!(
                escaped
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'%'),
                "{escaped}"
            );
            assert_eq!(unescape_tenant(&escaped).as_deref(), Some(name));
        }
        assert_eq!(escape_tenant("a/b"), "a%2Fb");
        // Non-canonical or malformed escapes never round-trip.
        for bad in ["%2f", "%GG", "%2", "a b", "%41"] {
            assert_eq!(unescape_tenant(bad), None, "{bad}");
        }
    }

    #[test]
    fn open_decide_survives_a_restart() {
        let dir = temp_dir("restart");
        {
            let (mut serve, _) = open_at(&dir);
            serve.handle_line(r#"{"op":"open","tenant":"mc1","policy":"SW3"}"#);
            for letter in ["r", "w", "r", "r"] {
                serve.handle_line(&format!(
                    r#"{{"op":"decide","tenant":"mc1","request":"{letter}"}}"#
                ));
            }
            serve.finalize();
        }
        let before_snapshot;
        {
            let (mut serve, report) = open_at(&dir);
            assert_eq!(report.recovered(), vec!["mc1"]);
            before_snapshot = serve.handle_line(r#"{"op":"snapshot","tenant":"mc1"}"#);
            assert!(
                before_snapshot.contains("\"decided\":4"),
                "{before_snapshot}"
            );
        }
        // A third open recovers the same state again (compaction made
        // the second recovery checkpoint-only).
        let (mut serve, report) = open_at(&dir);
        assert_eq!(report.recovered(), vec!["mc1"]);
        let again = serve.handle_line(r#"{"op":"snapshot","tenant":"mc1"}"#);
        assert_eq!(before_snapshot, again);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unflushed_journal_tail_still_replays() {
        let dir = temp_dir("tail");
        {
            let (mut serve, _) = open_at(&dir);
            serve.handle_line(r#"{"op":"open","tenant":"t","policy":"T1:2"}"#);
            serve.handle_line(r#"{"op":"decide","tenant":"t","request":"w"}"#);
            // No finalize: simulate a hard kill. File contents are still
            // visible to a same-machine reopen even without fsync.
        }
        let (mut serve, report) = open_at(&dir);
        assert_eq!(report.recovered(), vec!["t"]);
        let stats = serve.handle_line(r#"{"op":"stats","tenant":"t"}"#);
        assert!(stats.contains("\"decided\":1"), "{stats}");
        let server = serve.handle_line(r#"{"op":"stats"}"#);
        assert!(server.contains("\"replayed_records\":2"), "{server}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn closed_tenants_stay_closed_across_restart() {
        let dir = temp_dir("close");
        {
            let (mut serve, _) = open_at(&dir);
            serve.handle_line(r#"{"op":"open","tenant":"gone"}"#);
            serve.handle_line(r#"{"op":"decide","tenant":"gone","request":"r"}"#);
            serve.handle_line(r#"{"op":"close","tenant":"gone"}"#);
            serve.finalize();
        }
        let (mut serve, report) = open_at(&dir);
        assert!(report.recovered().is_empty(), "{report:?}");
        let resp = serve.handle_line(r#"{"op":"stats","tenant":"gone"}"#);
        assert!(resp.contains("unknown-tenant"), "{resp}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tenant_quarantines_without_harming_neighbours() {
        let dir = temp_dir("quarantine");
        {
            let (mut serve, _) = open_at(&dir);
            serve.handle_line(r#"{"op":"open","tenant":"good","policy":"ST2"}"#);
            serve.handle_line(r#"{"op":"open","tenant":"bad","policy":"ST2"}"#);
            serve.handle_line(r#"{"op":"decide","tenant":"good","request":"r"}"#);
            serve.handle_line(r#"{"op":"decide","tenant":"bad","request":"r"}"#);
            serve.finalize();
        }
        // Corrupt `bad`'s checkpoint beyond recognition.
        let bad_ckpt = dir.join(TENANTS_DIR).join("bad").join(CHECKPOINT_FILE);
        fs::write(&bad_ckpt, "garbage\n").expect("overwrite checkpoint");
        let (mut serve, report) = open_at(&dir);
        assert_eq!(report.recovered(), vec!["good"]);
        assert_eq!(report.quarantined(), vec!["bad"]);
        assert!(dir.join(QUARANTINE_DIR).join("bad").exists());
        assert!(!dir.join(TENANTS_DIR).join("bad").exists());
        let good = serve.handle_line(r#"{"op":"stats","tenant":"good"}"#);
        assert!(good.contains("\"decided\":1"), "{good}");
        let bad = serve.handle_line(r#"{"op":"stats","tenant":"bad"}"#);
        assert!(bad.contains("unknown-tenant"), "{bad}");
        let server = serve.handle_line(r#"{"op":"stats"}"#);
        assert!(server.contains("\"quarantined_tenants\":1"), "{server}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A journal that does not resume at the record after its base (here,
    /// no checkpoint and a first record numbered 2) quarantines the
    /// tenant, naming the sequence number it expected.
    #[test]
    fn a_journal_that_skips_its_first_record_quarantines() {
        let dir = temp_dir("resume-gap");
        let tenant = dir.join(TENANTS_DIR).join("gap");
        fs::create_dir_all(&tenant).expect("tenant dir");
        let open = JournalOp::Open {
            policy: "ST2".to_owned(),
            model: "connection".to_owned(),
        };
        fs::write(tenant.join(JOURNAL_FILE), encode_record(2, &open)).expect("journal");
        let (_, report) = open_at(&dir);
        assert_eq!(report.quarantined(), vec!["gap"]);
        let detail = format!("{:?}", report.tenants[0].1);
        assert!(
            detail.contains("expected 1, journal resumes at 2"),
            "{detail}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_directories_are_skipped_not_guessed() {
        let dir = temp_dir("stray");
        fs::create_dir_all(dir.join(TENANTS_DIR).join("not%zzvalid")).expect("stray dir");
        let (_, report) = open_at(&dir);
        assert_eq!(report.skipped_dirs, vec!["not%zzvalid".to_owned()]);
        assert!(report.tenants.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_intervals_are_rejected() {
        let dir = temp_dir("zeroes");
        let mut cfg = JournalConfig::new(&dir);
        cfg.checkpoint_every = 0;
        assert!(DurableServe::open(ServeConfig::default(), cfg).is_err());
        let mut cfg = JournalConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Interval(0);
        assert!(DurableServe::open(ServeConfig::default(), cfg).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_survives_restart_and_creates_tenants() {
        let dir = temp_dir("restore");
        let snapshot_json;
        {
            let (mut serve, _) = open_at(&dir);
            serve.handle_line(r#"{"op":"open","tenant":"src","policy":"SW3"}"#);
            serve.handle_line(r#"{"op":"decide","tenant":"src","request":"w"}"#);
            let resp = serve.handle_line(r#"{"op":"snapshot","tenant":"src"}"#);
            let start = resp.find("\"snapshot\":").expect("snapshot field") + "\"snapshot\":".len();
            // The snapshot value runs to the closing brace of the response.
            snapshot_json = resp[start..resp.len() - 1].to_owned();
            let restore =
                format!(r#"{{"op":"restore","tenant":"copy","snapshot":{snapshot_json}}}"#);
            let resp = serve.handle_line(&restore);
            assert!(resp.contains("\"ok\":\"restore\""), "{resp}");
            // Hard kill: no finalize, the restore lives only in the journal.
        }
        let (mut serve, report) = open_at(&dir);
        let mut recovered = report.recovered();
        recovered.sort_unstable();
        assert_eq!(recovered, vec!["copy", "src"]);
        let copy = serve.handle_line(r#"{"op":"stats","tenant":"copy"}"#);
        assert!(copy.contains("\"decided\":1"), "{copy}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_interval_compacts_the_journal() {
        let dir = temp_dir("compact");
        let mut cfg = JournalConfig::new(&dir);
        cfg.checkpoint_every = 4;
        let (mut serve, _) = DurableServe::open(ServeConfig::default(), cfg).expect("open");
        serve.handle_line(r#"{"op":"open","tenant":"t","policy":"SW3"}"#);
        for _ in 0..7 {
            serve.handle_line(r#"{"op":"decide","tenant":"t","request":"r"}"#);
        }
        // 8 records appended; the 4-record interval fired at least once.
        assert!(serve.stats().checkpoints >= 1);
        let journal = dir.join(TENANTS_DIR).join("t").join(JOURNAL_FILE);
        let len = fs::metadata(&journal).expect("journal").len();
        let full: u64 = (0..8)
            .map(|i| encode_record(i + 1, &JournalOp::Decide { request: 'r' }).len() as u64)
            .sum();
        assert!(len < full, "journal was compacted ({len} < {full})");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The checkpoint records the seq of the *last* journaled record:
    /// recovery skips exactly the records the checkpoint covers and
    /// expects the surviving tail to resume at `seq + 1`. An off-by-one
    /// here would silently replay (or drop) one operation after a crash
    /// that lands between the checkpoint rename and the compaction.
    #[test]
    fn checkpoint_seq_pins_the_last_appended_record() {
        let dir = temp_dir("ckpt-seq");
        let mut cfg = JournalConfig::new(&dir);
        cfg.checkpoint_every = 4;
        let (mut serve, _) = DurableServe::open(ServeConfig::default(), cfg).expect("open");
        serve.handle_line(r#"{"op":"open","tenant":"t","policy":"SW3"}"#);
        for _ in 0..6 {
            serve.handle_line(r#"{"op":"decide","tenant":"t","request":"r"}"#);
        }
        // 7 records appended (open + 6 decides); the 4-record interval
        // fired exactly once, at append 4, so the checkpoint covers
        // seqs 1..=4 and the journal holds exactly seqs 5..=7.
        assert_eq!(serve.stats().checkpoints, 1);
        let tdir = dir.join(TENANTS_DIR).join("t");
        let text = fs::read_to_string(tdir.join(CHECKPOINT_FILE)).expect("checkpoint");
        let ckpt = decode_checkpoint(&text).expect("decode");
        assert_eq!(ckpt.seq, 4);
        let scan = scan_journal(&fs::read(tdir.join(JOURNAL_FILE)).expect("journal"));
        assert_eq!(scan.outcome, TailOutcome::Clean);
        let seqs: Vec<u64> = scan.records.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_fsync_fires_on_the_nth_append() {
        let dir = temp_dir("fsync-interval");
        let mut cfg = JournalConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Interval(2);
        let (mut serve, _) = DurableServe::open(ServeConfig::default(), cfg).expect("open");
        serve.handle_line(r#"{"op":"open","tenant":"t"}"#);
        assert_eq!(serve.stats().fsyncs, 0);
        serve.handle_line(r#"{"op":"decide","tenant":"t","request":"r"}"#);
        assert_eq!(serve.stats().fsyncs, 1, "the second append syncs");
        serve.handle_line(r#"{"op":"decide","tenant":"t","request":"r"}"#);
        assert_eq!(serve.stats().fsyncs, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_quarantines_only_that_tenant() {
        let dir = temp_dir("append-fails");
        let (mut serve, _) = open_at(&dir);
        serve.handle_line(r#"{"op":"open","tenant":"t"}"#);
        serve.handle_line(r#"{"op":"open","tenant":"u"}"#);
        // A read-only handle fails the next append, as a failing disk would.
        let journal = dir.join(TENANTS_DIR).join("t").join(JOURNAL_FILE);
        serve.stores.get_mut("t").expect("t is open").file = File::open(&journal).expect("journal");
        let resp = serve.handle_line(r#"{"op":"decide","tenant":"t","request":"r"}"#);
        assert!(resp.starts_with(r#"{"err":"data-dir""#), "{resp}");
        assert_eq!(serve.stats().quarantined_tenants, 1);
        assert!(dir.join(QUARANTINE_DIR).join("t").exists());
        let gone = serve.handle_line(r#"{"op":"stats","tenant":"t"}"#);
        assert!(gone.contains("unknown-tenant"), "{gone}");
        let other = serve.handle_line(r#"{"op":"decide","tenant":"u","request":"r"}"#);
        assert!(other.starts_with(r#"{"ok":"decision""#), "{other}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptive_reselection_is_journaled_and_replayed() {
        use crate::engine::ADAPT_INTERVAL;
        let dir = temp_dir("adopt");
        let config = ServeConfig {
            adaptive: true,
            ..ServeConfig::default()
        };
        let pre;
        {
            let (mut serve, _) =
                DurableServe::open(config, JournalConfig::new(&dir)).expect("open");
            serve.handle_line(r#"{"op":"open","tenant":"a","policy":"T1:2"}"#);
            for i in 0..(ADAPT_INTERVAL * 3) {
                let letter = if i % 10 == 0 { "w" } else { "r" };
                serve.handle_line(&format!(
                    r#"{{"op":"decide","tenant":"a","request":"{letter}"}}"#
                ));
            }
            pre = serve.handle_line(r#"{"op":"stats","tenant":"a"}"#);
            assert!(pre.contains("\"policy\":\"SW"), "re-selection fired: {pre}");
            // Hard kill — replay must reproduce the adopted window even
            // though the restarted daemon runs with adaptive *off*.
        }
        let (mut serve, report) =
            DurableServe::open(ServeConfig::default(), JournalConfig::new(&dir)).expect("open");
        assert_eq!(report.recovered(), vec!["a"]);
        let post = serve.handle_line(r#"{"op":"stats","tenant":"a"}"#);
        assert_eq!(pre, post);
        let _ = fs::remove_dir_all(&dir);
    }
}
