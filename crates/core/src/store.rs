//! The one durable store behind every artifact the workspace persists:
//! SPE wire payloads ([`crate::wire`]), [`SharedCache`] snapshots, the
//! compile cache's payloads and aliases (`sppl_analyze::CompileCache`),
//! and rotated snapshot generations (`sppl_serve::SnapshotRotation`).
//! Each durability decision has exactly one copy, here:
//!
//! - **Envelope.** `seal` frames a format's body and `open` checks the
//!   frame before handing the body back (both crate-private: the wire
//!   format and the snapshot format are its only users). All integers
//!   are little-endian:
//!
//!   | bytes | content |
//!   |---|---|
//!   | 8 | magic of the format |
//!   | 4 | format version `u32` of the format |
//!   | 4 | [`DIGEST_VERSION`] of the writing build |
//!   | … | body, laid out by the format |
//!   | 16 | keyed Sip128 checksum of every preceding byte |
//!
//! - **Atomic writer.** [`write_atomic`]: stage, sync, rename, then sync
//!   the directory, so a write that returned `Ok` survives a power loss.
//! - **Keep-N GC.** [`scan`] lists a directory's artifacts in the
//!   caller's rank order; [`gc`] keeps the first N and sweeps staging
//!   files.
//!
//! [`SharedCache`]: crate::cache::SharedCache

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::digest::{checksum128, DIGEST_VERSION};
use crate::error::SpplError;

/// One artifact format: the frame [`seal`] writes around its body and
/// [`open`] requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Format {
    /// Leading magic bytes.
    pub magic: [u8; 8],
    /// Version of the body's layout; readers refuse any other. Orthogonal
    /// to [`DIGEST_VERSION`], which versions the meaning of the digests
    /// the body holds.
    pub version: u32,
    /// What error messages call the format.
    pub name: &'static str,
}

/// Frame bytes before the body: magic, format version, digest version.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 4;

/// Frame bytes after the body: the keyed checksum.
pub(crate) const CHECKSUM_LEN: usize = 16;

/// Frames a body: writes the header, lets `body` append the body, and
/// appends the checksum of everything before it.
pub(crate) fn seal(format: &Format, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + CHECKSUM_LEN);
    bytes.extend_from_slice(&format.magic);
    bytes.extend_from_slice(&format.version.to_le_bytes());
    bytes.extend_from_slice(&DIGEST_VERSION.to_le_bytes());
    body(&mut bytes);
    let checksum = checksum128(&bytes);
    bytes.extend_from_slice(&checksum);
    bytes
}

/// Checks a frame [`seal`]ed for `format` and returns its body.
///
/// # Errors
///
/// [`SpplError::Snapshot`] naming the first check that failed, in this
/// order: length, magic, format version, digest version, checksum — so
/// version skew is named before checksum noise. A bit flip anywhere,
/// body included, fails the checksum.
pub(crate) fn open<'a>(format: &Format, bytes: &'a [u8]) -> Result<&'a [u8], SpplError> {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let reason = if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        format!("{} bytes, shorter than an empty frame", bytes.len())
    } else if bytes[..8] != format.magic {
        let expected = String::from_utf8_lossy(&format.magic);
        format!("bad magic (expected {expected})")
    } else if word(8) != format.version {
        let (found, reads) = (word(8), format.version);
        format!("format version {found} (this build reads {reads})")
    } else if word(12) != DIGEST_VERSION {
        // Content addresses from another digest scheme mean something
        // else; recompute rather than reinterpret them.
        let found = word(12);
        format!("digest version {found} (this build keys with {DIGEST_VERSION})")
    } else {
        let (sealed, checksum) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        if checksum128(sealed) == checksum {
            return Ok(&sealed[HEADER_LEN..]);
        }
        "checksum mismatch (truncated or corrupted)".to_string()
    };
    let message = format!("{}: {reason}", format.name);
    Err(SpplError::Snapshot { message })
}

/// The steps of [`write_atomic`], in the order each file meets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Create,
    Write,
    Sync,
    Rename,
    SyncDir,
}

/// Commits `files`, `(path, bytes)` pairs in one directory, durably:
/// every file is staged as `<path>.tmp`, written and synced; then each
/// staging file is renamed over its target, in order; then the
/// directory is synced once. Concurrent writers of the *same* path race
/// on its one staging file; give each writer its own target.
///
/// # Errors
///
/// [`SpplError::Snapshot`] naming the step and the file that failed. No
/// staging file outlives the call: targets renamed before the failure
/// hold their new bytes, every other target keeps its previous bytes.
pub fn write_atomic(files: &[(&Path, &[u8])]) -> Result<(), SpplError> {
    write_atomic_with(files, &mut |_| Ok(()))
}

/// [`write_atomic`] that asks `fault` before each step; an error from
/// it fails that step as the real I/O would (the fault-injection seam).
pub(crate) fn write_atomic_with(
    files: &[(&Path, &[u8])],
    fault: &mut dyn FnMut(Step) -> io::Result<()>,
) -> Result<(), SpplError> {
    let Some((first, _)) = files.first() else {
        return Ok(());
    };
    let dir = parent_dir(first);
    let staged: Vec<PathBuf> = files.iter().map(|(path, _)| staging_path(path)).collect();
    let mut renamed = 0;
    let result = (|| {
        for ((_, bytes), tmp) in files.iter().zip(&staged) {
            let mut stage = || {
                fault(Step::Create)?;
                let mut file = File::create(tmp)?;
                fault(Step::Write)?;
                file.write_all(bytes)?;
                fault(Step::Sync)?;
                file.sync_all()
            };
            stage().map_err(|e| failure("write", tmp, e))?;
        }
        for ((path, _), tmp) in files.iter().zip(&staged) {
            debug_assert_eq!(parent_dir(path), dir, "one directory per call");
            let rename = fault(Step::Rename).and_then(|()| fs::rename(tmp, path));
            rename.map_err(|e| failure("rename staging file over", path, e))?;
            renamed += 1;
        }
        // Without this the renames may not survive a power loss.
        let sync = fault(Step::SyncDir).and_then(|()| sync_dir(dir));
        sync.map_err(|e| failure("sync directory", dir, e))
    })();
    if result.is_err() {
        for tmp in &staged[renamed..] {
            let _ = fs::remove_file(tmp);
        }
    }
    result
}

/// Windows cannot open a directory as a file; its file system journals
/// the rename itself.
fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

fn failure(action: &str, path: &Path, e: io::Error) -> SpplError {
    let message = format!("cannot {action} {}: {e}", path.display());
    SpplError::Snapshot { message }
}

/// Where [`write_atomic`] stages `path`: its name with `.tmp` appended,
/// in the same directory (a rename is atomic only within one file
/// system).
fn staging_path(path: &Path) -> PathBuf {
    let mut staged = path.as_os_str().to_owned();
    staged.push(".tmp");
    PathBuf::from(staged)
}

/// The directory holding `path` (`.` for a bare file name).
pub fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// The artifacts in `dir` that `rank` recognises, sorted by rank and
/// then by path. An unreadable directory holds none.
pub fn scan<K: Ord>(dir: &Path, mut rank: impl FnMut(&Path) -> Option<K>) -> Vec<(K, PathBuf)> {
    let mut found: Vec<(K, PathBuf)> = listing(dir)
        .filter_map(|path| Some((rank(&path)?, path)))
        .collect();
    found.sort();
    found
}

/// Keep-N GC over `dir`: ranks the artifacts as [`scan`] does, deletes
/// all but the first `keep` (`0` deletes every one `rank` names), and
/// deletes the staging file of every artifact ranked. Returns how many
/// artifacts it deleted. Best effort: a file that cannot be deleted is
/// merely disk, never a wrong answer.
pub fn gc<K: Ord>(dir: &Path, keep: usize, mut rank: impl FnMut(&Path) -> Option<K>) -> usize {
    let mut staged = HashSet::new();
    let artifacts = scan(dir, |path| {
        if path.extension().is_some_and(|e| e == "tmp") {
            staged.insert(path.to_path_buf());
        }
        rank(path)
    });
    for (i, (_, path)) in artifacts.iter().enumerate() {
        let tmp = staging_path(path);
        if staged.contains(&tmp) {
            let _ = fs::remove_file(tmp);
        }
        if i >= keep {
            let _ = fs::remove_file(path);
        }
    }
    artifacts.len().saturating_sub(keep)
}

fn listing(dir: &Path) -> impl Iterator<Item = PathBuf> {
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    entries.map(|entry| entry.path())
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;

    use sppl_dists::{Cdf, DistReal, Distribution};
    use sppl_sets::Interval;

    use super::*;
    use crate::cache::SharedCache;
    use crate::digest::{Fingerprint, ModelDigest};
    use crate::spe::Factory;
    use crate::var::Var;
    use crate::wire::{deserialize_spe, serialize_spe};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sppl-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = listing(dir)
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    fn snapshot_bytes(dir: &Path, entries: &[(u128, f64)]) -> Vec<u8> {
        let cache = SharedCache::new(8);
        for &(k, v) in entries {
            cache.insert(ModelDigest::from_u128(k), Fingerprint::from_u128(k + 1), v);
        }
        let path = dir.join("scratch.snap");
        cache.save_snapshot(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        bytes
    }

    /// The two formats framed by the envelope.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Wire,
        Snapshot,
    }

    impl Kind {
        /// A valid artifact: a one-leaf payload, a two-entry snapshot.
        fn good(self, dir: &Path) -> Vec<u8> {
            match self {
                Kind::Wire => {
                    let f = Factory::new();
                    let dist = DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap();
                    serialize_spe(&f.leaf(Var::new("X"), Distribution::Real(dist)))
                }
                Kind::Snapshot => snapshot_bytes(dir, &[(1, -0.5), (3, f64::NEG_INFINITY)]),
            }
        }

        /// Loads `bytes` the way the format's users do: the outcome, and
        /// how much it put in the loading factory or cache.
        fn load(self, dir: &Path, bytes: &[u8]) -> (Result<(), SpplError>, usize) {
            match self {
                Kind::Wire => {
                    let f = Factory::new();
                    let result = deserialize_spe(&f, bytes).map(drop);
                    (result, f.interned_count())
                }
                Kind::Snapshot => {
                    let path = dir.join("case.snap");
                    fs::write(&path, bytes).unwrap();
                    let cache = SharedCache::new(8);
                    let result = cache.load_snapshot(&path).map(drop);
                    (result, cache.stats().entries)
                }
            }
        }
    }

    #[test]
    fn envelope_corruption_matrix_fails_closed_for_both_formats() {
        let dir = scratch("matrix");
        let kinds = [(Kind::Wire, Kind::Snapshot), (Kind::Snapshot, Kind::Wire)];
        for (kind, other) in kinds {
            let good = kind.good(&dir);
            let other_magic = other.good(&dir)[..8].to_vec();
            let (result, loaded) = kind.load(&dir, &good);
            assert!(result.is_ok() && loaded > 0, "{kind:?}: intact artifact");
            let len = good.len();
            // (case, bytes, what the error must name; "" = any reason)
            let mut cases: Vec<(String, Vec<u8>, &str)> = Vec::new();
            for cut in [0, 8, 12, HEADER_LEN, len - CHECKSUM_LEN, len - 1] {
                cases.push((format!("truncated at {cut}"), good[..cut].to_vec(), ""));
            }
            let header = 0..HEADER_LEN;
            let body = [HEADER_LEN, len / 2, len - CHECKSUM_LEN - 1];
            let checksum = len - CHECKSUM_LEN..len;
            for at in header.chain(body).chain(checksum) {
                let mut bytes = good.clone();
                bytes[at] ^= 1 << (at % 8);
                cases.push((format!("bit flipped at {at}"), bytes, ""));
            }
            // Skews behind a recomputed checksum, so the named check
            // fires, not the checksum.
            let reframed = |at: usize, patch: &[u8]| {
                let mut bytes = good.clone();
                bytes[at..at + patch.len()].copy_from_slice(patch);
                let end = bytes.len() - CHECKSUM_LEN;
                let checksum = checksum128(&bytes[..end]);
                bytes[end..].copy_from_slice(&checksum);
                bytes
            };
            let version = u32::from_le_bytes(good[8..12].try_into().unwrap());
            cases.push(("wrong magic".into(), reframed(0, &other_magic), "bad magic"));
            cases.push((
                "format version skew".into(),
                reframed(8, &(version + 1).to_le_bytes()),
                "format version",
            ));
            cases.push((
                "digest version skew".into(),
                reframed(12, &(DIGEST_VERSION + 1).to_le_bytes()),
                "digest version",
            ));
            for (what, bytes, named) in cases {
                let (result, loaded) = kind.load(&dir, &bytes);
                let err = result.expect_err(&format!("{kind:?} {what}: must be rejected"));
                assert!(
                    matches!(err, SpplError::Snapshot { .. }),
                    "{kind:?} {what}: {err:?}"
                );
                assert!(err.to_string().contains(named), "{kind:?} {what}: {err}");
                assert_eq!(
                    loaded, 0,
                    "{kind:?} {what}: a rejected artifact loads nothing"
                );
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fault_at_any_step_leaves_a_whole_artifact_and_no_staging_file() {
        let dir = scratch("fault");
        let path = dir.join("cache.snap");
        let old = snapshot_bytes(&dir, &[(1, -1.0)]);
        let new = snapshot_bytes(&dir, &[(1, -1.0), (5, -2.0)]);
        let steps = [
            Step::Create,
            Step::Write,
            Step::Sync,
            Step::Rename,
            Step::SyncDir,
        ];
        // A clean write meets every step once, syncing the directory
        // after the rename.
        let mut seen = Vec::new();
        let record = &mut |step| {
            seen.push(step);
            Ok(())
        };
        write_atomic_with(&[(&path, &old)], record).unwrap();
        assert_eq!(seen, steps);

        for failing in steps {
            let inject = &mut |step| {
                if step == failing {
                    Err(io::Error::other("injected fault"))
                } else {
                    Ok(())
                }
            };
            let err = write_atomic_with(&[(&path, &new)], inject).unwrap_err();
            assert!(matches!(err, SpplError::Snapshot { .. }), "{failing:?}");
            assert!(err.to_string().contains("injected fault"), "{failing:?}");
            assert_eq!(
                names(&dir),
                ["cache.snap"],
                "{failing:?}: staging file left"
            );
            // Up to the rename the previous artifact is untouched; the
            // directory sync comes after the rename, so by then the
            // target holds the whole new artifact. Never a mix.
            let (expected, entries) = if failing == Step::SyncDir {
                (&new, 2)
            } else {
                (&old, 1)
            };
            assert_eq!(&fs::read(&path).unwrap(), expected, "{failing:?}");
            assert_eq!(SharedCache::new(8).load_snapshot(&path).unwrap(), entries);
            write_atomic(&[(&path, &old)]).unwrap();
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_call_commits_several_files_with_one_directory_sync() {
        let dir = scratch("batch");
        let (payload, alias) = (dir.join("a.spe"), dir.join("a.key"));
        let mut seen = Vec::new();
        let record = &mut |step| {
            seen.push(step);
            Ok(())
        };
        write_atomic_with(&[(&payload, b"payload"), (&alias, b"alias")], record).unwrap();
        assert_eq!(seen.iter().filter(|&&s| s == Step::SyncDir).count(), 1);
        assert_eq!(seen.last(), Some(&Step::SyncDir));

        // Staging the second file fails: neither target changes.
        let mut creates = 0;
        let second_create_fails = &mut |step| {
            creates += usize::from(step == Step::Create);
            if creates == 2 {
                Err(io::Error::other("injected fault"))
            } else {
                Ok(())
            }
        };
        let files: [(&Path, &[u8]); 2] = [(&payload, b"payload 2"), (&alias, b"alias 2")];
        assert!(write_atomic_with(&files, second_create_fails).is_err());
        assert_eq!(fs::read(&payload).unwrap(), b"payload");
        assert_eq!(fs::read(&alias).unwrap(), b"alias");
        assert_eq!(names(&dir), ["a.key", "a.spe"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_keeps_the_first_ranked_and_sweeps_their_staging_files() {
        let dir = scratch("gc");
        for name in [
            "snap.g1",
            "snap.g2",
            "snap.g3",
            "snap.g4",
            "snap.g2.tmp", // staging file of an artifact GC deletes
            "snap.g4.tmp", // staging file of an artifact GC keeps
            "snap.g9.tmp", // a save in flight: no artifact yet, not GC's
            "unranked",
        ] {
            fs::write(dir.join(name), b"x").unwrap();
        }
        let newest_first = |path: &Path| {
            let name = path.file_name()?.to_str()?;
            name.strip_prefix("snap.g")?
                .parse::<u64>()
                .ok()
                .map(Reverse)
        };
        let ranked: Vec<u64> = scan(&dir, newest_first).iter().map(|(g, _)| g.0).collect();
        assert_eq!(ranked, [4, 3, 2, 1]);
        assert_eq!(gc(&dir, 2, newest_first), 2);
        assert_eq!(
            names(&dir),
            ["snap.g3", "snap.g4", "snap.g9.tmp", "unranked"]
        );
        assert_eq!(
            gc(&scratch("gc-missing").join("absent"), 0, newest_first),
            0
        );
        fs::remove_dir_all(&dir).ok();
    }
}
