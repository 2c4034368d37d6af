//! Versioned, checksummed, atomically-written campaign snapshots.
//!
//! Checkpoint/resume extends the repo's determinism guarantee — "a report
//! is a pure function of (seed, jobs)" — across process death: kill -9 a
//! campaign at any point, `--resume` it, and the final report is
//! byte-identical to an uninterrupted run. That only works if the
//! snapshot layer itself cannot lie, so every snapshot is:
//!
//! - **atomic** — written to a sibling `.tmp` file and `rename(2)`d into
//!   place, so a crash mid-write never leaves a half-snapshot under the
//!   real name;
//! - **rotated** — the previous good snapshot survives as `*.prev`; if
//!   the current file is damaged, [`load_latest`] degrades to it;
//! - **versioned and fingerprinted** — the header names the format
//!   version, the snapshot kind, and a fingerprint of the campaign
//!   configuration, so resuming with a different seed/config is detected
//!   instead of silently producing a franken-report;
//! - **checksummed** — an FNV-1a checksum over the full body detects
//!   truncation and bit-flips.
//!
//! The payload is line-oriented text: each logical record is one line,
//! escaped so embedded newlines/backslashes round-trip
//! ([`escape_line`]/[`unescape_line`]). Format on disk:
//!
//! ```text
//! druzhba-snapshot v1 <kind>
//! fingerprint <hex64>
//! <escaped payload line>...
//! checksum <hex64>
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use druzhba_core::json::Object;

/// Current snapshot format version; bumped on incompatible layout change.
pub const SNAPSHOT_VERSION: u32 = 1;

/// FNV-1a over `bytes`; stable across platforms and processes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fingerprint a campaign configuration from its rendered parts (joined
/// with an unprintable separator so `["ab","c"]` and `["a","bc"]` differ).
pub fn fingerprint_of(parts: &[String]) -> u64 {
    let mut buf = Vec::new();
    for p in parts {
        buf.extend_from_slice(p.as_bytes());
        buf.push(0x1F);
    }
    fnv1a(&buf)
}

/// Fingerprint campaign `kind` by its configuration's `Debug` rendering.
/// Callers reset the fields that must not orphan a snapshot (their
/// `RuntimeOptions`) before passing the configuration in.
pub fn fingerprint_of_config(kind: &str, config: &impl fmt::Debug) -> u64 {
    fingerprint_of(&[kind.to_string(), format!("{config:?}")])
}

/// Escape one payload record for single-line storage (`\` and newline).
pub fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape_line`]; `None` on a malformed escape (corrupt file).
pub fn unescape_line(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

/// Why a snapshot file was rejected. Each variant maps to a distinct
/// corruption mode the robustness tests inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read at all.
    Io(String),
    /// The file ends before the `checksum` trailer — a torn write or
    /// truncation.
    Truncated,
    /// The header names a different format version.
    VersionMismatch {
        /// The version token found in the header.
        found: String,
    },
    /// The header names a different snapshot kind (e.g. a `p4-hunt`
    /// snapshot offered to a hunt resume).
    KindMismatch {
        /// The kind found in the header.
        found: String,
        /// The kind the caller asked for.
        expected: String,
    },
    /// The campaign-config fingerprint differs — resuming under a
    /// different seed/config would not reproduce the original report.
    FingerprintMismatch {
        /// The fingerprint recorded in the file.
        found: u64,
        /// The fingerprint of the resuming configuration.
        expected: u64,
    },
    /// The body does not hash to the recorded checksum (bit rot, partial
    /// overwrite).
    ChecksumMismatch,
    /// Structurally invalid content (bad header, bad escape, bad hex).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "unreadable: {e}"),
            SnapshotError::Truncated => write!(f, "truncated (checksum trailer missing)"),
            SnapshotError::VersionMismatch { found } => {
                write!(
                    f,
                    "version mismatch: found {found}, expected v{SNAPSHOT_VERSION}"
                )
            }
            SnapshotError::KindMismatch { found, expected } => {
                write!(f, "kind mismatch: found `{found}`, expected `{expected}`")
            }
            SnapshotError::FingerprintMismatch { found, expected } => write!(
                f,
                "config fingerprint mismatch: found {found:016x}, expected {expected:016x}"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "checksum mismatch (corrupt body)"),
            SnapshotError::Malformed(why) => write!(f, "malformed: {why}"),
        }
    }
}

/// Write `contents` to `path` atomically: write a sibling `.tmp`, then
/// rename into place. Used for snapshots, heartbeats, and every JSON
/// report the CLI emits, so a crash never leaves a half-written file
/// under the final name.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// Render a complete snapshot file for `kind` with the given payload.
pub fn render(kind: &str, fingerprint: u64, lines: &[String]) -> String {
    let mut body =
        format!("druzhba-snapshot v{SNAPSHOT_VERSION} {kind}\nfingerprint {fingerprint:016x}\n");
    for line in lines {
        body.push_str(&escape_line(line));
        body.push('\n');
    }
    let sum = fnv1a(body.as_bytes());
    body.push_str(&format!("checksum {sum:016x}\n"));
    body
}

/// Parse and fully validate one snapshot file's text against the expected
/// `kind` and `fingerprint`, returning the unescaped payload lines.
pub fn parse(text: &str, kind: &str, fingerprint: u64) -> Result<Vec<String>, SnapshotError> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() < 3 {
        return Err(SnapshotError::Truncated);
    }
    let header = lines[0]
        .strip_prefix("druzhba-snapshot ")
        .ok_or_else(|| SnapshotError::Malformed("bad header".into()))?;
    let (version, found_kind) = header
        .split_once(' ')
        .ok_or_else(|| SnapshotError::Malformed("bad header".into()))?;
    if version != format!("v{SNAPSHOT_VERSION}") {
        return Err(SnapshotError::VersionMismatch {
            found: version.to_string(),
        });
    }
    if found_kind != kind {
        return Err(SnapshotError::KindMismatch {
            found: found_kind.to_string(),
            expected: kind.to_string(),
        });
    }
    let fp_hex = lines[1]
        .strip_prefix("fingerprint ")
        .ok_or_else(|| SnapshotError::Malformed("bad fingerprint line".into()))?;
    let found_fp = u64::from_str_radix(fp_hex, 16)
        .map_err(|_| SnapshotError::Malformed("bad fingerprint hex".into()))?;
    if found_fp != fingerprint {
        return Err(SnapshotError::FingerprintMismatch {
            found: found_fp,
            expected: fingerprint,
        });
    }
    let last = lines[lines.len() - 1];
    let sum_hex = last
        .strip_prefix("checksum ")
        .ok_or(SnapshotError::Truncated)?;
    let recorded = u64::from_str_radix(sum_hex, 16).map_err(|_| SnapshotError::Truncated)?;
    // The checksum covers everything before its own line, trailing
    // newline included — recomputed from the split lines so an embedded
    // "checksum " prefix in a payload record cannot confuse parsing.
    let mut body = lines[..lines.len() - 1].join("\n");
    body.push('\n');
    if fnv1a(body.as_bytes()) != recorded {
        return Err(SnapshotError::ChecksumMismatch);
    }
    lines[2..lines.len() - 1]
        .iter()
        .map(|l| {
            unescape_line(l).ok_or_else(|| SnapshotError::Malformed("bad escape in payload".into()))
        })
        .collect()
}

/// Path of the current snapshot for `kind` in `dir`.
pub fn current_path(dir: &Path, kind: &str) -> PathBuf {
    dir.join(format!("{kind}.snapshot"))
}

/// Path of the rotated previous snapshot for `kind` in `dir`.
pub fn prev_path(dir: &Path, kind: &str) -> PathBuf {
    dir.join(format!("{kind}.snapshot.prev"))
}

/// Atomically save a snapshot, rotating the existing current snapshot to
/// `*.prev` first so one good generation always survives a crash at any
/// instant of the save.
pub fn save(dir: &Path, kind: &str, fingerprint: u64, lines: &[String]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let current = current_path(dir, kind);
    let tmp = dir.join(format!("{kind}.snapshot.tmp"));
    fs::write(&tmp, render(kind, fingerprint, lines))?;
    if current.exists() {
        fs::rename(&current, prev_path(dir, kind))?;
    }
    fs::rename(&tmp, &current)
}

/// The result of [`load_latest`]: the payload of the newest valid
/// snapshot (or `None` for a fresh start) plus human-readable warnings
/// for every damaged candidate that was skipped on the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loaded {
    /// Payload lines of the newest snapshot that validated, if any.
    pub lines: Option<Vec<String>>,
    /// One warning per existing-but-rejected snapshot file.
    pub warnings: Vec<String>,
}

/// Load the newest valid snapshot of `kind` from `dir`, degrading
/// gracefully: try the current file, then the rotated previous one;
/// record a warning for each candidate that exists but fails validation.
/// Missing files are not an error — a fresh start is the final fallback.
pub fn load_latest(dir: &Path, kind: &str, fingerprint: u64) -> Loaded {
    let mut warnings = Vec::new();
    for path in [current_path(dir, kind), prev_path(dir, kind)] {
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => {
                warnings.push(format!(
                    "{}: {}",
                    path.display(),
                    SnapshotError::Io(e.to_string())
                ));
                continue;
            }
        };
        match parse(&text, kind, fingerprint) {
            Ok(lines) => {
                return Loaded {
                    lines: Some(lines),
                    warnings,
                }
            }
            Err(e) => warnings.push(format!("{}: {}", path.display(), e)),
        }
    }
    Loaded {
        lines: None,
        warnings,
    }
}

/// Best-effort atomic write of the live-status heartbeat (`status.json`)
/// into the checkpoint directory: external monitors can watch campaign
/// progress without touching the snapshot files.
pub fn write_heartbeat(dir: &Path, kind: &str, completed: usize, total: usize, truncated: bool) {
    let status = Object::block(2)
        .field("kind", kind)
        .field("completed", completed)
        .field("total", total)
        .field("truncated", truncated);
    let _ = fs::create_dir_all(dir);
    let _ = write_atomic(&dir.join("status.json"), &format!("{status}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("druzhba-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn payload() -> Vec<String> {
        vec![
            "record 0".to_string(),
            "multi\nline\trecord".to_string(),
            "back\\slash".to_string(),
        ]
    }

    #[test]
    fn escape_round_trips_hostile_strings() {
        for s in [
            "",
            "plain",
            "a\nb",
            "\\",
            "\\n",
            "tab\there",
            "checksum 123",
        ] {
            assert_eq!(unescape_line(&escape_line(s)).as_deref(), Some(s));
        }
        assert_eq!(
            unescape_line("lone\\"),
            None,
            "dangling escape is malformed"
        );
        assert_eq!(unescape_line("bad\\x"), None);
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = tmpdir("roundtrip");
        save(&dir, "hunt", 42, &payload()).unwrap();
        let loaded = load_latest(&dir, "hunt", 42);
        assert_eq!(loaded.lines, Some(payload()));
        assert!(loaded.warnings.is_empty());
    }

    #[test]
    fn truncation_is_detected_and_falls_back_to_prev() {
        let dir = tmpdir("trunc");
        save(&dir, "hunt", 7, &["gen one".to_string()]).unwrap();
        save(&dir, "hunt", 7, &["gen two".to_string()]).unwrap();
        let current = current_path(&dir, "hunt");
        let text = fs::read_to_string(&current).unwrap();
        fs::write(&current, &text[..text.len() / 2]).unwrap();
        let loaded = load_latest(&dir, "hunt", 7);
        assert_eq!(loaded.lines, Some(vec!["gen one".to_string()]), "prev wins");
        assert_eq!(loaded.warnings.len(), 1);
        assert!(
            loaded.warnings[0].contains("truncated"),
            "{:?}",
            loaded.warnings
        );
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let dir = tmpdir("flip");
        save(&dir, "hunt", 7, &payload()).unwrap();
        let current = current_path(&dir, "hunt");
        let mut bytes = fs::read(&current).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&current, &bytes).unwrap();
        let loaded = load_latest(&dir, "hunt", 7);
        assert_eq!(loaded.lines, None);
        assert!(
            loaded
                .warnings
                .iter()
                .any(|w| w.contains("checksum mismatch")
                    || w.contains("malformed")
                    || w.contains("truncated")),
            "{:?}",
            loaded.warnings
        );
    }

    #[test]
    fn version_bump_is_rejected() {
        let dir = tmpdir("version");
        save(&dir, "hunt", 7, &payload()).unwrap();
        let current = current_path(&dir, "hunt");
        let text = fs::read_to_string(&current).unwrap().replacen(
            "druzhba-snapshot v1 ",
            "druzhba-snapshot v999 ",
            1,
        );
        fs::write(&current, text).unwrap();
        let loaded = load_latest(&dir, "hunt", 7);
        assert_eq!(loaded.lines, None);
        assert!(
            loaded.warnings[0].contains("version mismatch"),
            "{:?}",
            loaded.warnings
        );
    }

    #[test]
    fn kind_and_fingerprint_mismatches_are_rejected() {
        let dir = tmpdir("kindfp");
        save(&dir, "hunt", 7, &payload()).unwrap();
        let as_p4_hunt = load_latest(&dir, "p4-hunt", 7);
        assert_eq!(as_p4_hunt.lines, None);
        let other_config = load_latest(&dir, "hunt", 8);
        assert_eq!(other_config.lines, None);
        assert!(other_config.warnings[0].contains("fingerprint mismatch"));
    }

    #[test]
    fn missing_directory_is_a_clean_fresh_start() {
        let loaded = load_latest(Path::new("/nonexistent/druzhba-snap"), "hunt", 7);
        assert_eq!(loaded.lines, None);
        assert!(loaded.warnings.is_empty());
    }
}
