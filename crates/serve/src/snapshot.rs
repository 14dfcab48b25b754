//! Snapshot rotation: generation-numbered cache snapshots with GC and a
//! corruption-tolerant loader.
//!
//! The background saver never overwrites the snapshot it would fall back
//! to. Each save goes to a fresh *generation* file — `<base>.gNNNNNN`,
//! written through [`SharedCache::save_snapshot`] and so through
//! [`sppl_core::store`]'s atomic writer — and the store's keep-N GC
//! drops old generations afterwards, keeping the newest few. A crash at
//! any point (mid-write, between write and GC, mid-GC) therefore leaves
//! at least one complete
//! earlier generation on disk, and [`SnapshotRotation::load_newest`]
//! walks generations newest-first past any corrupt or truncated file to
//! the most recent loadable one. A plain (rotation-less) `<base>` file
//! from an older run still loads, as the final fallback.

use std::cmp::Reverse;
use std::path::{Path, PathBuf};

use sppl_core::{store, SharedCache, SpplError};

/// Rotating snapshot files around one base path.
///
/// ```
/// use sppl_core::SharedCache;
/// use sppl_serve::snapshot::SnapshotRotation;
///
/// let dir = std::env::temp_dir().join("sppl-serve-rotation-doc");
/// std::fs::create_dir_all(&dir).unwrap();
/// let rotation = SnapshotRotation::new(dir.join("cache.snap"), 2);
///
/// let cache = SharedCache::new(64);
/// let (gen1, _) = rotation.save(&cache).unwrap();
/// let (gen2, _) = rotation.save(&cache).unwrap();
/// assert!(gen2 > gen1);
///
/// let warm = SharedCache::new(64);
/// let (path, _) = rotation.load_newest(&warm).unwrap();
/// assert_eq!(path, rotation.generation_path(gen2));
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotRotation {
    base: PathBuf,
    keep: usize,
}

impl SnapshotRotation {
    /// Rotation around `base`, keeping the newest `keep` generations
    /// (minimum 1).
    pub fn new(base: impl Into<PathBuf>, keep: usize) -> SnapshotRotation {
        SnapshotRotation {
            base: base.into(),
            keep: keep.max(1),
        }
    }

    /// The base path generations are derived from.
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// The path of generation `gen`: `<base>.gNNNNNN`.
    pub fn generation_path(&self, gen: u64) -> PathBuf {
        let name = self
            .base
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        self.base.with_file_name(format!("{name}.g{gen:06}"))
    }

    /// Existing generation files, sorted oldest first.
    pub fn generations(&self) -> Vec<(u64, PathBuf)> {
        store::scan(store::parent_dir(&self.base), |path| self.generation(path))
    }

    /// The generation number of a path
    /// [`generation_path`](SnapshotRotation::generation_path) named;
    /// `None` for anything else, `.tmp` staging files included.
    fn generation(&self, path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_string_lossy();
        let base = self.base.file_name()?.to_string_lossy();
        let digits = name.strip_prefix(&*base)?.strip_prefix(".g")?;
        // Digits only: `parse` also takes a leading `+`.
        digits
            .bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| digits.parse().ok())?
    }

    /// Writes the next generation (atomically, via
    /// [`SharedCache::save_snapshot`]) and garbage-collects old ones,
    /// returning the new generation number and how many entries it holds.
    /// GC failures are swallowed — an undeleted old generation is merely
    /// disk, never a correctness problem.
    ///
    /// # Errors
    ///
    /// [`SpplError::Snapshot`] when the new generation cannot be written;
    /// existing generations are untouched.
    pub fn save(&self, cache: &SharedCache) -> Result<(u64, usize), SpplError> {
        let next = self.generations().last().map_or(1, |(gen, _)| gen + 1);
        let written = cache.save_snapshot(self.generation_path(next))?;
        self.gc();
        Ok((next, written))
    }

    /// Removes all but the newest `keep` generations, plus the `.tmp`
    /// staging file of any generation a crashed saver left behind.
    /// Best-effort.
    pub fn gc(&self) {
        let newest_first = |path: &Path| self.generation(path).map(Reverse);
        store::gc(store::parent_dir(&self.base), self.keep, newest_first);
    }

    /// Loads the newest loadable snapshot into `cache`, walking
    /// generations newest-first past corrupt or unreadable files, then
    /// falling back to the bare `<base>` path. Returns the path loaded
    /// and its entry count, or `None` when nothing loadable exists — a
    /// cold start, never an error.
    pub fn load_newest(&self, cache: &SharedCache) -> Option<(PathBuf, usize)> {
        let newest_first = self.generations().into_iter().rev().map(|(_, path)| path);
        newest_first.chain([self.base.clone()]).find_map(|path| {
            let loaded = cache.load_snapshot(&path).ok()?;
            Some((path, loaded))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sppl_core::digest::{Fingerprint, ModelDigest};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sppl-serve-snapshot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seeded_cache(values: &[(u128, f64)]) -> SharedCache {
        let cache = SharedCache::new(1024);
        for (k, v) in values {
            cache.insert(
                ModelDigest::from_u128(*k),
                Fingerprint::from_u128(*k ^ 7),
                *v,
            );
        }
        cache
    }

    #[test]
    fn generations_rotate_and_gc() {
        let dir = scratch_dir("rotate");
        let rotation = SnapshotRotation::new(dir.join("cache.snap"), 2);
        let cache = seeded_cache(&[(1, -0.5), (2, -1.5)]);
        for expected in 1..=4u64 {
            let (gen, written) = rotation.save(&cache).unwrap();
            assert_eq!(gen, expected);
            assert_eq!(written, 2);
        }
        let generations: Vec<u64> = rotation.generations().iter().map(|(g, _)| *g).collect();
        assert_eq!(generations, vec![3, 4], "GC keeps the newest two");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_newest_skips_corrupt_generations() {
        let dir = scratch_dir("corrupt");
        let rotation = SnapshotRotation::new(dir.join("cache.snap"), 3);
        let cache = seeded_cache(&[(9, -2.25)]);
        rotation.save(&cache).unwrap(); // g1, complete
                                        // g2 "crashed mid-write": truncated garbage at the final path.
        std::fs::write(rotation.generation_path(2), b"SPPLSNAPgarbage").unwrap();
        // g3 only reached its staging file.
        std::fs::write(dir.join("cache.snap.g000003.tmp"), b"partial").unwrap();

        let warm = SharedCache::new(1024);
        let (path, loaded) = rotation.load_newest(&warm).unwrap();
        assert_eq!(path, rotation.generation_path(1));
        assert_eq!(loaded, 1);
        assert_eq!(
            warm.probe(ModelDigest::from_u128(9), Fingerprint::from_u128(9 ^ 7)),
            Some(-2.25)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bare_base_is_the_final_fallback() {
        let dir = scratch_dir("bare");
        let rotation = SnapshotRotation::new(dir.join("cache.snap"), 2);
        let cache = seeded_cache(&[(4, -0.75)]);
        cache.save_snapshot(dir.join("cache.snap")).unwrap();
        let warm = SharedCache::new(1024);
        let (path, loaded) = rotation.load_newest(&warm).unwrap();
        assert_eq!(path, dir.join("cache.snap"));
        assert_eq!(loaded, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nothing_loadable_is_a_cold_start() {
        let dir = scratch_dir("cold");
        let rotation = SnapshotRotation::new(dir.join("cache.snap"), 2);
        let warm = SharedCache::new(64);
        assert!(rotation.load_newest(&warm).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_stale_tmp_files() {
        let dir = scratch_dir("tmp");
        let rotation = SnapshotRotation::new(dir.join("cache.snap"), 2);
        let cache = seeded_cache(&[(5, -1.0)]);
        rotation.save(&cache).unwrap();
        let stale = dir.join("cache.snap.g000001.tmp");
        std::fs::write(&stale, b"leftover").unwrap();
        rotation.gc();
        assert!(!stale.exists());
        assert!(rotation.generation_path(1).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
