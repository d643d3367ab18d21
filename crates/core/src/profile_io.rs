//! Persistence for RBMS machine profiles.
//!
//! AIM's machine profile is expensive to measure (§6.2.1) but stable across
//! calibration windows (§6.1), so real deployments characterize once per
//! calibration cycle and reuse the table. This module gives [`RbmsTable`] a
//! plain-text serialization — human-inspectable, diff-able, and free of
//! extra dependencies — plus file helpers.
//!
//! Two formats are understood:
//!
//! ```text
//! rbms v1            rbms v2
//! width 5            device ibmqx4
//! trials 512000      method brute
//! 00000 0.903700     seed 2019
//! 00001 0.851200     window 0
//! …                  width 5
//!                    trials 512000
//!                    00000 0.903700
//!                    …
//!                    crc32 7a4fc019
//! ```
//!
//! `v2` adds provenance metadata ([`ProfileMeta`]) and a CRC32 footer (see
//! [`crate::checksum`]) covering every preceding byte, so bit rot and
//! truncation are detected as [`ProfileError::Checksum`] instead of being
//! parsed into a silently-wrong table. Profiles are written as `v2` only;
//! existing `v1` files still load (with no metadata). Profiles that
//! fail the checksum or validation are never deleted — callers quarantine
//! them aside with [`quarantine_profile`] for post-mortem inspection.
//!
//! Both formats are read by the workspace's one line reader,
//! [`invmeas_faults::LineReader`]: it checks the header, numbers the
//! lines and reads the fixed `key value` lines, and its
//! [`LineError`] is what [`ProfileError::Parse`] carries. This module
//! owns the record grammar: the `v2` footer is verified before any other
//! line is read, and the table body skips blank lines only. Every file
//! the crate replaces on disk (profiles, installed replicas, journals) is
//! written through one `.tmp`-sibling-and-rename helper.

use crate::checksum::crc32;
use crate::rbms::RbmsTable;
use invmeas_faults::{Fault, FaultInjector, FaultSite, LineError, LineReader};
use qsim::BitString;
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Provenance metadata carried in an `rbms v2` profile header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileMeta {
    /// Device label the profile was characterized on.
    pub device: String,
    /// Characterization method (`brute`, `esct`, `awct`, …).
    pub method: String,
    /// Characterization job seed.
    pub seed: u64,
    /// AWCT window size (0 when not applicable).
    pub window: usize,
}

impl Default for ProfileMeta {
    fn default() -> Self {
        ProfileMeta {
            device: "unknown".into(),
            method: "unknown".into(),
            seed: 0,
            window: 0,
        }
    }
}

impl From<&crate::journal::CharSpec> for ProfileMeta {
    /// The provenance of a profile measured by `spec`.
    fn from(spec: &crate::journal::CharSpec) -> Self {
        ProfileMeta {
            device: spec.device.clone(),
            method: spec.method.as_str().to_string(),
            seed: spec.seed,
            window: spec.window,
        }
    }
}

/// Error loading a persisted profile.
#[derive(Debug)]
pub enum ProfileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The text is not a valid profile.
    Parse(LineError),
    /// A `v2` profile's CRC32 footer disagrees with its content — the file
    /// was bit-rotted, truncated, or tampered with after it was written.
    Checksum {
        /// The checksum the footer declares.
        expected: u32,
        /// The checksum the content actually hashes to.
        found: u32,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io(e) => write!(f, "profile i/o error: {e}"),
            ProfileError::Parse(e) => write!(f, "profile parse error at {e}"),
            ProfileError::Checksum { expected, found } => write!(
                f,
                "profile checksum mismatch: footer says {expected:08x}, content hashes to {found:08x}"
            ),
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Io(e) => Some(e),
            ProfileError::Parse(_) | ProfileError::Checksum { .. } => None,
        }
    }
}

impl From<std::io::Error> for ProfileError {
    fn from(e: std::io::Error) -> Self {
        ProfileError::Io(e)
    }
}

impl From<LineError> for ProfileError {
    fn from(e: LineError) -> Self {
        ProfileError::Parse(e)
    }
}

/// Header tokens (of profiles and journals) must stay single-line and
/// whitespace-free.
pub(crate) fn sanitize_token(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

impl RbmsTable {
    /// Serializes the profile to the `v2` format: provenance metadata plus
    /// a CRC32 footer over every preceding byte.
    pub fn to_text(&self, meta: &ProfileMeta) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "rbms v2");
        let _ = writeln!(out, "device {}", sanitize_token(&meta.device));
        let _ = writeln!(out, "method {}", sanitize_token(&meta.method));
        let _ = writeln!(out, "seed {}", meta.seed);
        let _ = writeln!(out, "window {}", meta.window);
        let _ = writeln!(out, "width {}", self.width());
        let _ = writeln!(out, "trials {}", self.trials_used());
        for s in BitString::all(self.width()) {
            let _ = writeln!(out, "{s} {:.17e}", self.strength(s));
        }
        let footer = format!("crc32 {:08x}\n", crc32(out.as_bytes()));
        out.push_str(&footer);
        out
    }

    /// Parses a profile from either text format. `v2` profiles return
    /// their [`ProfileMeta`]; `v1` profiles return `None`.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Parse`] naming the offending line on any
    /// malformed input, or [`ProfileError::Checksum`] when a `v2` footer
    /// disagrees with the content.
    pub fn from_text(text: &str) -> Result<(RbmsTable, Option<ProfileMeta>), ProfileError> {
        let (version, mut lines) = LineReader::open(text, "profile", &["rbms v1", "rbms v2"])?;
        let meta = if version == 0 {
            None
        } else {
            // The footer first: a rotten file must fail the integrity
            // check before any of its content is trusted. Then re-read
            // the verified body alone, so the table ends at the footer.
            (_, lines) = LineReader::open(verified_body(text)?, "profile", &["rbms v2"])?;
            Some(ProfileMeta {
                device: lines.field("device")?,
                method: lines.field("method")?,
                seed: lines.field("seed")?,
                window: lines.field("window")?,
            })
        };
        Ok((parse_table(lines)?, meta))
    }

    /// Writes the profile to a file in the `v2` format, crash-safely, with
    /// a fault-injection hook at the [`FaultSite::ProfileWrite`] site.
    ///
    /// The text is written to a `.tmp` sibling in the same directory and
    /// atomically renamed over `path`, so a crash (or torn write) mid-save
    /// leaves either the previous profile or no profile at the final path
    /// — never a truncated one. The temp file is cleaned up on failure.
    ///
    /// Injected faults model a failing disk: `Torn` writes a prefix of the
    /// bytes and then fails (the rename never happens), `Error` fails
    /// before any byte lands, and `Latency` stalls the write. In all
    /// failure cases the final `path` is left untouched.
    ///
    /// # Errors
    ///
    /// Propagates real I/O failures and surfaces injected ones.
    pub fn save(
        &self,
        path: impl AsRef<Path>,
        meta: &ProfileMeta,
        faults: &dyn FaultInjector,
    ) -> Result<(), ProfileError> {
        let path = path.as_ref();
        let fault = faults.check(FaultSite::ProfileWrite);
        if let Some(f) = &fault {
            f.apply_latency();
            if let Fault::Error(m) = f {
                return Err(ProfileError::Io(std::io::Error::other(m.clone())));
            }
        }
        let text = self.to_text(meta);
        replace_file(path, |file| {
            if matches!(fault, Some(Fault::Torn)) {
                // A torn write: some bytes land in the temp file, then the
                // device gives up. The final path must never see them.
                file.write_all(&text.as_bytes()[..text.len() / 2])?;
                file.sync_all().ok();
                return Err(ProfileError::Io(std::io::Error::other(
                    "injected torn write",
                )));
            }
            file.write_all(text.as_bytes())?;
            file.sync_all().ok();
            Ok(())
        })
    }

    /// Loads a profile (either format) plus its `v2` metadata (`None` for
    /// `v1` files), with a fault-injection hook at the
    /// [`FaultSite::ProfileRead`] site.
    ///
    /// `Corrupt` garbles the bytes after reading (modelling on-disk rot —
    /// the parser must reject, not mis-load), `Error` fails the read, and
    /// `Latency` stalls it.
    ///
    /// # Errors
    ///
    /// Returns I/O, parse, or checksum failures, real or injected.
    pub fn load(
        path: impl AsRef<Path>,
        faults: &dyn FaultInjector,
    ) -> Result<(RbmsTable, Option<ProfileMeta>), ProfileError> {
        let fault = faults.check(FaultSite::ProfileRead);
        if let Some(f) = &fault {
            f.apply_latency();
            if let Fault::Error(m) = f {
                return Err(ProfileError::Io(std::io::Error::other(m.clone())));
            }
        }
        let mut text = std::fs::read_to_string(path)?;
        if matches!(fault, Some(Fault::Corrupt)) {
            // Garble the middle of the payload; headers survive so the
            // corruption is caught by the body checks, not the header.
            let mid = text.len() / 2;
            text.replace_range(mid..(mid + 1).min(text.len()), "\u{0}");
            text.push_str("\ngarbage trailing row");
        }
        RbmsTable::from_text(&text)
    }
}

/// The part of a `v2` text that its CRC32 footer covers, once the footer
/// checks out.
fn verified_body(text: &str) -> Result<&str, ProfileError> {
    let line_count = text.lines().count();
    let footer_start = text
        .rfind("\ncrc32 ")
        .map(|i| i + 1)
        .ok_or_else(|| LineError::new(line_count.max(1), "missing crc32 footer"))?;
    let (body, footer) = text.split_at(footer_start);
    let stored = footer
        .trim()
        .strip_prefix("crc32 ")
        .and_then(|h| u32::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| {
            LineError::new(line_count, format!("bad crc32 footer {:?}", footer.trim()))
        })?;
    let found = crc32(body.as_bytes());
    if found != stored {
        return Err(ProfileError::Checksum {
            expected: stored,
            found,
        });
    }
    Ok(body)
}

/// Parses the `width`/`trials` lines and the table body shared by both
/// formats, and constructs the table through the validating constructor.
/// Only blank lines are skipped in the body.
fn parse_table(mut lines: LineReader<'_>) -> Result<RbmsTable, LineError> {
    let width: usize = lines.field("width")?;
    if width == 0 || width > 20 {
        return Err(lines.error(format!("unsupported width {width}")));
    }
    let trials: u64 = lines.field("trials")?;
    let mut strengths = vec![f64::NAN; 1usize << width];
    for (lineno, line) in &mut lines {
        if !line.is_empty() {
            add_row(&mut strengths, width, line).map_err(|m| LineError::new(lineno, m))?;
        }
    }
    let seen = strengths.iter().filter(|v| !v.is_nan()).count();
    // The width header is a promise about the table body: a declared
    // width of `w` requires exactly `2^w` rows. Truncated or padded
    // files (the common corruption when profiles are copied around)
    // must be rejected, not silently zero/NaN-filled. Both checks name
    // the last line read.
    if seen != strengths.len() {
        let first_missing = strengths
            .iter()
            .position(|v| v.is_nan())
            .map(|i| BitString::from_value(i as u64, width))
            .map(|s| format!("; first missing {s}"))
            .unwrap_or_default();
        return Err(lines.error(format!(
            "width {width} declares {} table rows, found {seen}{first_missing}",
            strengths.len()
        )));
    }
    let mut table =
        RbmsTable::try_from_strengths(width, strengths).map_err(|e| lines.error(e.to_string()))?;
    table.set_trials_used(trials);
    Ok(table)
}

/// Parses one `state strength` table row into its slot.
fn add_row(strengths: &mut [f64], width: usize, line: &str) -> Result<(), String> {
    let (state, value) = line
        .split_once(' ')
        .ok_or_else(|| format!("malformed entry {line:?}"))?;
    let s: BitString = state
        .parse()
        .map_err(|e| format!("bad state {state:?}: {e}"))?;
    if s.width() != width {
        return Err(format!("state {state} has wrong width"));
    }
    let v: f64 = value
        .trim()
        .parse()
        .map_err(|_| format!("bad strength {value:?}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("invalid strength {v}"));
    }
    let slot = &mut strengths[s.index()];
    if !slot.is_nan() {
        return Err(format!("duplicate entry for {state}"));
    }
    *slot = v;
    Ok(())
}

/// Replaces `path` with what `write` puts in a `.tmp` sibling in the same
/// directory, renamed over `path` once `write` succeeds, so a crash or a
/// failure mid-write leaves the old file (or none) at `path`, never a
/// partial one. On any failure the sibling is removed. Nothing is synced
/// here: `write` syncs the file if it must.
pub(crate) fn replace_file<E: From<std::io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<(), E>,
) -> Result<(), E> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let result = File::create(&tmp)
        .map_err(E::from)
        .and_then(|mut file| write(&mut file))
        .and_then(|()| std::fs::rename(&tmp, path).map_err(E::from));
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Installs profile text received over the wire from another node.
///
/// The text must be a checksummed `rbms v2` profile: it is fully parsed
/// first — which verifies the CRC32 footer before any content is
/// trusted — and only then written **byte-for-byte** to `path` via a
/// temp sibling and atomic rename. Writing the received bytes rather
/// than a re-serialization keeps replicas byte-identical to the owner's
/// file, so convergence can be asserted with `cmp`. A payload that
/// fails the checksum is refused without touching the filesystem — the
/// local copy (if any) is *not* quarantined, because nothing local is
/// damaged; the sender's payload is.
///
/// Returns the parsed table and its metadata.
///
/// # Errors
///
/// [`ProfileError::Checksum`]/[`ProfileError::Parse`] on a bad payload
/// (`v1` text is refused — it carries no checksum, so wire integrity
/// cannot be verified); I/O failures from the install itself.
pub fn install_profile_text(
    path: &Path,
    text: &str,
) -> Result<(RbmsTable, ProfileMeta), ProfileError> {
    let (table, meta) = RbmsTable::from_text(text)?;
    let Some(meta) = meta else {
        return Err(LineError::new(1, "replicated profiles must be rbms v2 (checksummed)").into());
    };
    replace_file(path, |file| file.write_all(text.as_bytes()))?;
    Ok((table, meta))
}

/// Moves a damaged profile aside for post-mortem inspection: `path` is
/// renamed to `<name>.quarantined` (then `.quarantined.1`, `.2`, … if
/// earlier quarantines exist). The file is **never deleted** — a profile
/// that failed its checksum is evidence, and deleting it would destroy the
/// only copy of whatever went wrong.
///
/// Returns the quarantine path.
///
/// # Errors
///
/// Propagates the rename failure.
pub fn quarantine_profile(path: &Path) -> std::io::Result<PathBuf> {
    let base = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".quarantined");
        name
    };
    let mut target = path.with_file_name(&base);
    let mut k = 1u32;
    while target.exists() {
        let mut name = base.clone();
        name.push(format!(".{k}"));
        target = path.with_file_name(name);
        k += 1;
    }
    std::fs::rename(path, &target)?;
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use invmeas_faults::NoFaults;
    use qnoise::DeviceModel;

    /// A profile as older releases wrote it: `rbms v1`, no metadata, no
    /// checksum.
    const V1_TEXT: &str = "rbms v1\nwidth 2\ntrials 4242\n00 1.0\n01 0.8\n10 0.9\n11 0.5\n";

    #[test]
    fn text_roundtrip() {
        let table = RbmsTable::exact(&DeviceModel::ibmqx4().readout());
        let text = table.to_text(&ProfileMeta::default());
        let (back, _) = RbmsTable::from_text(&text).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn trials_survive_roundtrip() {
        let mut table = RbmsTable::from_strengths(2, vec![1.0, 0.8, 0.9, 0.5]);
        table.set_trials_used(4242);
        let (back, _) = RbmsTable::from_text(&table.to_text(&ProfileMeta::default())).unwrap();
        assert_eq!(back.trials_used(), 4242);
    }

    #[test]
    fn v2_text_roundtrip_with_meta() {
        let mut table = RbmsTable::exact(&DeviceModel::ibmqx4().readout());
        table.set_trials_used(512_000);
        let meta = ProfileMeta {
            device: "ibmqx4".into(),
            method: "brute".into(),
            seed: 2019,
            window: 0,
        };
        let text = table.to_text(&meta);
        assert!(text.starts_with("rbms v2\n"));
        let (back, back_meta) = RbmsTable::from_text(&text).unwrap();
        assert_eq!(back_meta, Some(meta));
        assert_eq!(back.trials_used(), 512_000);
        assert_eq!(back.strengths(), table.strengths());
    }

    #[test]
    fn v1_profiles_still_load_and_report_no_meta() {
        // Migration path: a v1 file written by an older release loads
        // unchanged through the same entry points that handle v2.
        let mut table = RbmsTable::from_strengths(2, vec![1.0, 0.8, 0.9, 0.5]);
        table.set_trials_used(4242);
        let (back, meta) = RbmsTable::from_text(V1_TEXT).unwrap();
        assert_eq!(meta, None);
        assert_eq!(back, table);

        // On-disk migration: drop a v1 file, load it, re-save (v2), reload.
        let dir = std::env::temp_dir().join("invmeas-v1-migration-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.rbms");
        std::fs::write(&path, V1_TEXT).unwrap();
        let (migrated, _) = RbmsTable::load(&path, &NoFaults).unwrap();
        migrated
            .save(&path, &ProfileMeta::default(), &NoFaults)
            .unwrap();
        let (reloaded, meta) = RbmsTable::load(&path, &NoFaults).unwrap();
        assert_eq!(meta, Some(ProfileMeta::default()));
        assert_eq!(reloaded, table);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_checksum_detects_single_bit_flips() {
        let table = RbmsTable::from_strengths(2, vec![1.0, 0.8, 0.9, 0.5]);
        let text = table.to_text(&ProfileMeta::default());
        let footer_start = text.rfind("crc32").unwrap();
        let mut checksum_hits = 0;
        // Flip one bit in every body byte: each flip must be rejected, and
        // flips that keep the text parseable must be caught *by the
        // checksum*, not by luck of the parser.
        for byte in 0..footer_start {
            let mut bytes = text.clone().into_bytes();
            bytes[byte] ^= 0x01;
            let Ok(flipped) = String::from_utf8(bytes) else {
                continue;
            };
            match RbmsTable::from_text(&flipped) {
                Ok(_) => panic!("bit flip at byte {byte} loaded successfully"),
                Err(ProfileError::Checksum { expected, found }) => {
                    assert_ne!(expected, found);
                    checksum_hits += 1;
                }
                Err(_) => {} // header flips may fail dispatch first — still rejected
            }
        }
        assert!(checksum_hits > 0, "no flip exercised the checksum path");
    }

    #[test]
    fn v2_truncation_and_footer_tamper_rejected() {
        let table = RbmsTable::from_strengths(2, vec![1.0, 0.8, 0.9, 0.5]);
        let text = table.to_text(&ProfileMeta::default());
        // Truncation loses the footer entirely.
        let footer_start = text.rfind("crc32").unwrap();
        let err = RbmsTable::from_text(&text[..footer_start]).unwrap_err();
        assert!(err.to_string().contains("missing crc32 footer"), "{err}");
        // A rewritten footer fails against the (unchanged) content.
        let tampered = format!("{}crc32 deadbeef\n", &text[..footer_start]);
        let err = RbmsTable::from_text(&tampered).unwrap_err();
        assert!(
            matches!(
                err,
                ProfileError::Checksum {
                    expected: 0xdeadbeef,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn quarantine_renames_and_never_deletes() {
        let dir = std::env::temp_dir().join("invmeas-quarantine-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("qx.rbms");

        std::fs::write(&path, "first bad profile").unwrap();
        let q1 = quarantine_profile(&path).unwrap();
        assert_eq!(q1, dir.join("qx.rbms.quarantined"));
        assert!(!path.exists());

        std::fs::write(&path, "second bad profile").unwrap();
        let q2 = quarantine_profile(&path).unwrap();
        assert_eq!(q2, dir.join("qx.rbms.quarantined.1"));

        // Both bodies survive, untouched.
        assert_eq!(std::fs::read_to_string(&q1).unwrap(), "first bad profile");
        assert_eq!(std::fs::read_to_string(&q2).unwrap(), "second bad profile");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn install_profile_text_is_byte_identical_and_refuses_bad_payloads() {
        let dir = std::env::temp_dir().join("invmeas-install-profile-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replica.rbms");

        let mut table = RbmsTable::from_strengths(2, vec![1.0, 0.8, 0.9, 0.5]);
        table.set_trials_used(1024);
        let meta = ProfileMeta {
            device: "ibmqx4".into(),
            method: "brute".into(),
            seed: 7,
            window: 0,
        };
        let text = table.to_text(&meta);

        // Clean payload: installed byte-for-byte.
        let (back, back_meta) = install_profile_text(&path, &text).unwrap();
        assert_eq!(back_meta, meta);
        assert_eq!(back.strengths(), table.strengths());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);

        // One flipped bit in the body: refused by the checksum, and the
        // previously installed replica is left untouched on disk.
        let mut bytes = text.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let flipped = String::from_utf8(bytes).unwrap();
        let err = install_profile_text(&path, &flipped).unwrap_err();
        assert!(matches!(err, ProfileError::Checksum { .. }), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);

        // v1 text carries no checksum: refused outright.
        let err = install_profile_text(&path, V1_TEXT).unwrap_err();
        assert!(err.to_string().contains("rbms v2"), "{err}");

        // Nothing quarantined, no temp litter.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != "replica.rbms")
            .collect();
        assert!(leftovers.is_empty(), "unexpected files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrip() {
        let table = RbmsTable::from_strengths(3, (0..8).map(|i| 1.0 - i as f64 * 0.1).collect());
        let dir = std::env::temp_dir().join("invmeas-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("qx.rbms");
        table
            .save(&path, &ProfileMeta::default(), &NoFaults)
            .unwrap();
        let (back, _) = RbmsTable::load(&path, &NoFaults).unwrap();
        for (a, b) in back.strengths().iter().zip(table.strengths()) {
            assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// The line a [`ProfileError::Parse`] names.
    fn parse_line(err: &ProfileError) -> usize {
        match err {
            ProfileError::Parse(e) => e.line,
            other => panic!("not a parse error: {other}"),
        }
    }

    /// `body` with a valid `v2` checksum footer appended.
    fn with_footer(body: &str) -> String {
        format!("{body}crc32 {:08x}\n", crc32(body.as_bytes()))
    }

    #[test]
    fn parse_errors_name_lines() {
        let cases = [
            ("".to_string(), 1, "empty profile"),
            ("nope".to_string(), 1, "bad header"),
            ("rbms v1".to_string(), 2, "missing width"),
            ("rbms v1\nwidth x".to_string(), 2, "bad width"),
            ("rbms v1\nwidth 0".to_string(), 2, "unsupported width"),
            ("rbms v1\nwidth 1".to_string(), 3, "missing trials"),
            ("rbms v1\nwidth 1\ntrials q".to_string(), 3, "bad trials"),
            (
                "rbms v1\nwidth 1\ntrials 0\n00 1.0\n01 0.5".to_string(),
                4,
                "wrong width",
            ),
            (
                "rbms v1\nwidth 1\ntrials 0\n0garbage".to_string(),
                4,
                "malformed entry",
            ),
            (
                "rbms v1\nwidth 1\ntrials 0\n0 abc\n1 0.5".to_string(),
                4,
                "bad strength",
            ),
            (
                "rbms v1\nwidth 1\ntrials 0\n0 1.0\n1 -0.5".to_string(),
                5,
                "invalid strength",
            ),
            // Count errors name the last line read, blank ones included,
            // or the last header line when the body is empty.
            (
                "rbms v1\nwidth 1\ntrials 10\n0 1.0\n\n".to_string(),
                5,
                "found 1",
            ),
            ("rbms v1\nwidth 1\ntrials 10".to_string(), 3, "found 0"),
            // v2: the footer is checked first, then the metadata lines.
            ("rbms v2\ndevice d\n".to_string(), 2, "missing crc32 footer"),
            (
                "rbms v2\ndevice d\ncrc32 zz\n".to_string(),
                3,
                "bad crc32 footer",
            ),
            (with_footer("rbms v2\n"), 2, "missing device"),
            (with_footer("rbms v2\nmethod brute\n"), 2, "bad device"),
            (
                with_footer("rbms v2\ndevice d\nmethod m\nseed x\n"),
                4,
                "bad seed",
            ),
            (
                with_footer("rbms v2\ndevice d\nmethod m\nseed 1\nwindow w\n"),
                5,
                "bad window",
            ),
            (
                with_footer("rbms v2\ndevice d\nmethod m\nseed 1\nwindow 0\n"),
                6,
                "missing width",
            ),
            (
                with_footer("rbms v2\ndevice d\nmethod m\nseed 1\nwindow 0\nwidth 1\n"),
                7,
                "missing trials",
            ),
            (
                with_footer(
                    "rbms v2\ndevice d\nmethod m\nseed 1\nwindow 0\nwidth 1\ntrials 2\n0 1.0\n",
                ),
                8,
                "found 1",
            ),
        ];
        for (text, line, expect) in &cases {
            let err = RbmsTable::from_text(text).unwrap_err();
            assert_eq!(parse_line(&err), *line, "{text:?}: {err}");
            assert!(err.to_string().contains(expect), "{text:?}: {err}");
        }
        // Width-1 states are "0" and "1".
        let good = "rbms v1\nwidth 1\ntrials 10\n0 1.0\n1 0.25";
        assert!(RbmsTable::from_text(good).is_ok());
        // Missing entry, naming the first absent state.
        let missing = "rbms v1\nwidth 1\ntrials 10\n0 1.0";
        let err = RbmsTable::from_text(missing).unwrap_err();
        assert_eq!(parse_line(&err), 4);
        let err = err.to_string();
        assert!(
            err.contains("width 1 declares 2 table rows, found 1"),
            "{err}"
        );
        assert!(err.contains("first missing 1"), "{err}");
        // Duplicate entry.
        let dup = "rbms v1\nwidth 1\ntrials 10\n0 1.0\n0 1.0";
        let err = RbmsTable::from_text(dup).unwrap_err();
        assert_eq!(parse_line(&err), 5);
        assert!(err.to_string().contains("duplicate"), "{err}");
        // An all-zero body parses row-by-row but fails table validation.
        let zeros = "rbms v1\nwidth 1\ntrials 10\n0 0.0\n1 0.0";
        let err = RbmsTable::from_text(zeros).unwrap_err();
        assert_eq!(parse_line(&err), 5);
        assert!(err.to_string().contains("all strengths are zero"), "{err}");
        // Replicas refuse unchecksummed v1 text at its header line.
        let dir = std::env::temp_dir().join("invmeas-parse-errors-test");
        std::fs::create_dir_all(&dir).unwrap();
        let err = install_profile_text(&dir.join("v1.rbms"), V1_TEXT).unwrap_err();
        assert_eq!(parse_line(&err), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn width_row_disagreement_rejected_on_roundtrip() {
        // Serialize a healthy profile, then corrupt it the two realistic
        // ways — truncation and padding — and check both are rejected with
        // an error naming the declared width and the observed row count.
        let text = V1_TEXT;

        let truncated: String = text.lines().take(3 + 2).fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        });
        let err = RbmsTable::from_text(&truncated).unwrap_err().to_string();
        assert!(
            err.contains("width 2 declares 4 table rows, found 2"),
            "{err}"
        );

        // Padding with a row of a *different* width is a width violation…
        let padded = format!("{text}000 0.5\n");
        let err = RbmsTable::from_text(&padded).unwrap_err().to_string();
        assert!(err.contains("wrong width"), "{err}");
        // …and a same-width extra row necessarily collides with a slot.
        let dup = format!("{text}00 0.5\n");
        let err = RbmsTable::from_text(&dup).unwrap_err().to_string();
        assert!(err.contains("duplicate"), "{err}");

        // A width header that under-declares the body is caught on the
        // first row wider than the header, before any count check.
        let shrunk = text.replacen("width 2", "width 1", 1);
        let err = RbmsTable::from_text(&shrunk).unwrap_err().to_string();
        assert!(err.contains("wrong width"), "{err}");
    }

    #[test]
    fn negative_strength_rejected() {
        let text = "rbms v1\nwidth 1\ntrials 0\n0 1.0\n1 -0.5";
        assert!(RbmsTable::from_text(text).is_err());
    }

    #[test]
    fn torn_write_never_corrupts_final_path() {
        use invmeas_faults::{Fault, FaultPlan, FaultSite};

        let dir = std::env::temp_dir().join("invmeas-torn-write-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("qx.rbms");
        std::fs::remove_file(&path).ok();

        let old = RbmsTable::from_strengths(2, vec![1.0, 0.8, 0.9, 0.5]);
        let new = RbmsTable::from_strengths(2, vec![1.0, 0.7, 0.6, 0.4]);

        // Torn write with nothing at the final path: path stays absent.
        let plan = FaultPlan::new(1)
            .on_nth(FaultSite::ProfileWrite, 1, Fault::Torn)
            .on_nth(FaultSite::ProfileWrite, 3, Fault::Torn);
        let meta = ProfileMeta::default();
        assert!(new.save(&path, &meta, &plan).is_err());
        assert!(!path.exists(), "torn write must not create the final path");

        // Healthy write, then a torn overwrite: the old profile survives.
        old.save(&path, &meta, &plan).unwrap();
        assert!(new.save(&path, &meta, &plan).is_err());
        let (back, _) = RbmsTable::load(&path, &NoFaults).unwrap();
        assert_eq!(back.strengths(), old.strengths());

        // No temp litter either way.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(litter.is_empty(), "temp files left behind: {litter:?}");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_read_is_rejected_not_misloaded() {
        use invmeas_faults::{Fault, FaultPlan, FaultSite};

        let dir = std::env::temp_dir().join("invmeas-corrupt-read-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("qx.rbms");
        let table = RbmsTable::from_strengths(2, vec![1.0, 0.8, 0.9, 0.5]);
        table
            .save(&path, &ProfileMeta::default(), &NoFaults)
            .unwrap();

        let plan = FaultPlan::new(2).on_nth(FaultSite::ProfileRead, 1, Fault::Corrupt);
        assert!(RbmsTable::load(&path, &plan).is_err());
        // The file itself is intact; a clean read still works.
        assert!(RbmsTable::load(&path, &plan).is_ok());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_write_error_fails_before_any_byte() {
        use invmeas_faults::{Fault, FaultPlan, FaultSite};

        let dir = std::env::temp_dir().join("invmeas-write-error-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("qx.rbms");
        std::fs::remove_file(&path).ok();

        let table = RbmsTable::from_strengths(1, vec![1.0, 0.5]);
        let plan = FaultPlan::new(3).on_nth(
            FaultSite::ProfileWrite,
            1,
            Fault::Error("disk on fire".into()),
        );
        let err = table
            .save(&path, &ProfileMeta::default(), &plan)
            .unwrap_err()
            .to_string();
        assert!(err.contains("disk on fire"), "{err}");
        assert!(!path.exists());
    }
}
