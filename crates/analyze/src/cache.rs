//! The content-addressed compile cache: source → compiled model with
//! **zero translations** on a warm path.
//!
//! Compilation is the expensive half of SPPL's amortization story — the
//! paper's whole design is "translate once, query many" — yet every
//! process historically paid parse + analyze + translate even for a
//! program whose digest it had already seen. This module closes that
//! gap with two tiers:
//!
//! 1. **In-memory tier.** A digest-keyed map from the *normalized-AST
//!    digest* (the analyzer's pruned [`Program`], so comment- or
//!    whitespace-only differences that survive parsing still converge
//!    when the pruned AST agrees) to the serialized SPE. A raw-text index
//!    in front of it lets the common case (byte-identical source
//!    resubmitted) skip even parse + analyze.
//! 2. **On-disk tier.** A directory of wire payloads
//!    ([`serialize_spe`](sppl_core::wire)) written and garbage-collected
//!    through [`sppl_core::store`] (staged, synced, renamed, directory
//!    synced; keep-newest-K by modification time), so a *fresh process*
//!    pointed at a warm directory also compiles with zero translations.
//!    `<ast-digest>.spe` holds the payload; a tiny `<text-digest>.key`
//!    alias maps raw source bytes to their AST digest so the fresh
//!    process can skip parse + analyze too. A translation commits its
//!    payload and alias in one store write. A stale or missing alias
//!    just falls back to the analyze → AST-digest path — the normalized
//!    key keeps doing its cross-cosmetic job — and only that path
//!    writes an alias; a hit found through an alias leaves it alone.
//!
//! Every load is verified end to end by the wire format's fail-closed
//! reader (checksum, versions, digest equality), so a corrupt cache
//! entry is deleted and recompiled, never served. The `translations`
//! counter is the ground truth the serve layer and CI assert on: a warm
//! cache means it stays at zero.
//!
//! The cache keeps payload bytes only. Every hit, memory or disk,
//! re-interns the stored payload into a brand-new [`Factory`], so every
//! `compile` call returns an independently-memoized session (tests and
//! embedders rely on separately compiled copies really recomputing) and
//! the cache pins no factory or node memo. The translation is skipped;
//! nothing else changes.
//!
//! ```
//! use sppl_analyze::CompileCache;
//!
//! let cache = CompileCache::new(16);
//! let a = cache.compile("X ~ normal(0, 1)").unwrap();
//! let b = cache.compile("X ~ normal(0, 1)").unwrap();
//! assert_eq!(a.model_digest(), b.model_digest());
//! let stats = cache.stats();
//! assert_eq!((stats.translations, stats.hits), (1, 1));
//! ```

use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::SystemTime;

use sppl_core::digest::{Digester, Encoder, ModelDigest, DIGEST_VERSION};
use sppl_core::wire::{deserialize_spe, serialize_spe};
use sppl_core::{store, Factory, Model, SpplError};
use sppl_lang::ast::Program;

use crate::{analyze, LangError};

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Digest of the raw program text (the fast, cosmetic-sensitive key).
pub fn source_text_digest(source: &str) -> ModelDigest {
    let mut d = Digester::new();
    d.u32(DIGEST_VERSION);
    d.str("sppl-source-text");
    d.str(source);
    ModelDigest::from_u128(d.finish())
}

/// Digest of the *normalized* AST — the analyzer's pruned program, the
/// authoritative compile-cache key. Computed before translation, so a
/// cache hit skips exactly the expensive phase.
pub fn ast_digest(pruned: &Program) -> ModelDigest {
    let mut d = Digester::new();
    d.u32(DIGEST_VERSION);
    d.str("sppl-normalized-ast");
    // `Program` has a deterministic, derive-generated `Debug` rendering
    // covering every field; hashing it keys on structure without a
    // second serialization format for ASTs.
    d.str(&format!("{pruned:?}"));
    ModelDigest::from_u128(d.finish())
}

/// Point-in-time compile-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileCacheStats {
    /// Compiles answered from the in-memory tier.
    pub hits: u64,
    /// Compiles answered from the on-disk tier.
    pub disk_hits: u64,
    /// Compiles that found neither tier warm.
    pub misses: u64,
    /// Full translations performed (the expensive phase; a warm cache
    /// keeps this at zero).
    pub translations: u64,
    /// Entries currently in the in-memory tier.
    pub entries: u64,
}

#[derive(Default)]
struct MemTier {
    /// AST digest → serialized SPE.
    entries: HashMap<ModelDigest, Arc<Vec<u8>>>,
    /// FIFO insertion order backing the capacity bound.
    order: VecDeque<ModelDigest>,
    /// Raw-text digest → AST digest, so byte-identical resubmissions
    /// skip parse + analyze entirely.
    text_index: HashMap<ModelDigest, ModelDigest>,
}

/// A two-tier (memory + optional disk) content-addressed compile cache.
/// See the module docs for the design.
pub struct CompileCache {
    state: Mutex<MemTier>,
    capacity: usize,
    dir: Option<PathBuf>,
    keep: usize,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    translations: AtomicU64,
}

impl CompileCache {
    /// An in-memory-only cache holding up to `capacity` compiled
    /// programs (FIFO eviction).
    pub fn new(capacity: usize) -> CompileCache {
        CompileCache {
            state: Mutex::new(MemTier::default()),
            capacity: capacity.max(1),
            dir: None,
            keep: 0,
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            translations: AtomicU64::new(0),
        }
    }

    /// Attaches an on-disk tier rooted at `dir` (created if missing),
    /// keeping at most `keep` newest payloads (`0` = unbounded).
    ///
    /// # Errors
    ///
    /// [`SpplError::Snapshot`] when the directory cannot be created.
    pub fn with_dir(mut self, dir: impl Into<PathBuf>, keep: usize) -> Result<Self, SpplError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| SpplError::Snapshot {
            message: format!("compile cache: cannot create {}: {e}", dir.display()),
        })?;
        self.dir = Some(dir);
        self.keep = keep;
        Ok(self)
    }

    /// The cache directory of the disk tier, if one is attached.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Current counters.
    pub fn stats(&self) -> CompileCacheStats {
        CompileCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            translations: self.translations.load(Ordering::Relaxed),
            entries: lock(&self.state).entries.len() as u64,
        }
    }

    /// Compiles `source`, consulting both tiers before translating.
    /// Result semantics are identical to [`compile_model`](crate::compile_model) — same
    /// digests, bit-identical answers — whichever path served it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`compile_model`](crate::compile_model); cache malfunctions (corrupt
    /// or unwritable entries) silently fall back to translation.
    pub fn compile(&self, source: &str) -> Result<Model, LangError> {
        let text_key = source_text_digest(source);
        // Copy the index entry out in its own statement: holding the
        // state guard across `lookup` (which re-locks) would
        // self-deadlock.
        let indexed = lock(&self.state).text_index.get(&text_key).copied();
        // Seen before, in this process or (through the text's on-disk
        // alias) in an earlier one: the alias is already right.
        if let Some(ast_key) = indexed.or_else(|| self.read_alias(text_key)) {
            if let Some(model) = self.lookup(ast_key, text_key) {
                return Ok(model);
            }
        }

        // Cold front half: parse + analyze to get the authoritative key.
        let program = sppl_lang::parse(source)?;
        let analysis = analyze(&program);
        if let Some(d) = analysis.first_error() {
            return Err(d.clone().into());
        }
        let ast_key = ast_digest(&analysis.pruned);
        if let Some(model) = self.lookup(ast_key, text_key) {
            // The text's alias was missing or stale; write it.
            self.write_alias(text_key, ast_key);
            return Ok(model);
        }

        // Cold back half: translate, then fill both tiers.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let factory = Arc::new(Factory::new());
        let root = sppl_lang::translate(&factory, &analysis.pruned)?;
        self.translations.fetch_add(1, Ordering::Relaxed);
        let bytes = Arc::new(serialize_spe(&root));
        self.insert_memory(ast_key, text_key, Arc::clone(&bytes));
        self.write_disk(ast_key, text_key, &bytes);
        Ok(Model::new(factory, root))
    }

    /// Deserializes an SPE wire payload into a model with the same
    /// factory semantics as a disk hit (always a fresh factory), without
    /// touching either tier. This is the serve `import` path.
    ///
    /// # Errors
    ///
    /// [`SpplError::Snapshot`] when the payload fails wire validation.
    pub fn import(&self, bytes: &[u8]) -> Result<Model, SpplError> {
        let factory = Arc::new(Factory::new());
        let root = deserialize_spe(&factory, bytes)?;
        Ok(Model::new(factory, root))
    }

    /// [`import`](CompileCache::import) plus persistence: a valid
    /// payload is also written to the disk tier (when one is attached)
    /// under its root digest, so later processes pick it up through
    /// [`disk_models`](CompileCache::disk_models). Imports carry no
    /// source text, so the [`compile`](CompileCache::compile) lookup
    /// path never serves them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`import`](CompileCache::import); persistence
    /// failures degrade silently (the model is still returned).
    pub fn admit(&self, bytes: &[u8]) -> Result<Model, SpplError> {
        let model = self.import(bytes)?;
        if let Some(path) = self.payload_path(model.model_digest()) {
            if store::write_atomic(&[(&path, bytes)]).is_ok() {
                self.gc();
            }
        }
        Ok(model)
    }

    /// Every valid wire payload in the disk tier, as models (fresh
    /// factories), paired with their digests. Invalid files are skipped
    /// (fail closed), not deleted — they may be half-written by a racing
    /// process. Used by servers to warm-register at boot.
    pub fn disk_models(&self) -> Vec<(ModelDigest, Model)> {
        let Some(dir) = &self.dir else {
            return Vec::new();
        };
        let payloads = store::scan(dir, |path| has_extension(path, "spe").then_some(()));
        let mut out: Vec<(ModelDigest, Model)> = payloads
            .iter()
            .filter_map(|(_, path)| self.import(&std::fs::read(path).ok()?).ok())
            .map(|model| (model.model_digest(), model))
            .collect();
        out.sort_by_key(|(digest, _)| *digest);
        out
    }

    /// Both tiers for `ast_key`, counting the hit and indexing
    /// `text_key` to it.
    fn lookup(&self, ast_key: ModelDigest, text_key: ModelDigest) -> Option<Model> {
        if let Some(model) = self.lookup_memory(ast_key) {
            lock(&self.state).text_index.insert(text_key, ast_key);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(model);
        }
        let model = self.lookup_disk(ast_key, text_key)?;
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        Some(model)
    }

    fn lookup_memory(&self, ast_key: ModelDigest) -> Option<Model> {
        let bytes = Arc::clone(lock(&self.state).entries.get(&ast_key)?);
        // The stored payload is re-interned into a brand-new factory —
        // zero translations, independent memos, and the wire codec is
        // exercised on every warm compile.
        let model = self.import(&bytes).ok();
        if model.is_none() {
            // Unreachable unless memory corruption; drop the entry
            // and recompile rather than serving anything dubious.
            lock(&self.state).entries.remove(&ast_key);
        }
        model
    }

    fn lookup_disk(&self, ast_key: ModelDigest, text_key: ModelDigest) -> Option<Model> {
        let path = self.payload_path(ast_key)?;
        let bytes = std::fs::read(&path).ok()?;
        let Ok(model) = self.import(&bytes) else {
            // A cache entry that fails validation is worthless;
            // delete it so later compiles go straight to translate.
            let _ = std::fs::remove_file(&path);
            return None;
        };
        self.insert_memory(ast_key, text_key, Arc::new(bytes));
        Some(model)
    }

    fn insert_memory(&self, ast_key: ModelDigest, text_key: ModelDigest, bytes: Arc<Vec<u8>>) {
        let mut state = lock(&self.state);
        if !state.entries.contains_key(&ast_key) {
            state.order.push_back(ast_key);
        }
        state.entries.insert(ast_key, bytes);
        state.text_index.insert(text_key, ast_key);
        while state.entries.len() > self.capacity {
            let Some(evicted) = state.order.pop_front() else {
                break;
            };
            state.entries.remove(&evicted);
            state.text_index.retain(|_, v| *v != evicted);
        }
    }

    fn payload_path(&self, ast_key: ModelDigest) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{ast_key}.spe")))
    }

    fn alias_path(&self, text_key: ModelDigest) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{text_key}.key")))
    }

    fn read_alias(&self, text_key: ModelDigest) -> Option<ModelDigest> {
        let hex = std::fs::read_to_string(self.alias_path(text_key)?).ok()?;
        let hex = hex.trim();
        if hex.len() != 32 {
            return None;
        }
        u128::from_str_radix(hex, 16)
            .ok()
            .map(ModelDigest::from_u128)
    }

    /// Best-effort writes: a cache that cannot persist degrades to cold
    /// compiles, it never fails them. The payload and its alias are one
    /// store write (one directory sync).
    fn write_disk(&self, ast_key: ModelDigest, text_key: ModelDigest, bytes: &[u8]) {
        let (Some(payload), Some(alias)) = (self.payload_path(ast_key), self.alias_path(text_key))
        else {
            return;
        };
        let target = format!("{ast_key}\n");
        if store::write_atomic(&[(&payload, bytes), (&alias, target.as_bytes())]).is_ok() {
            self.gc();
        }
    }

    fn write_alias(&self, text_key: ModelDigest, ast_key: ModelDigest) {
        if let Some(path) = self.alias_path(text_key) {
            let _ = store::write_atomic(&[(&path, format!("{ast_key}\n").as_bytes())]);
        }
    }

    /// Keeps the newest `keep` payloads by modification time and drops
    /// aliases whose payload is gone.
    fn gc(&self) {
        let (Some(dir), true) = (&self.dir, self.keep > 0) else {
            return;
        };
        let newest_first = |path: &Path| {
            has_extension(path, "spe").then(|| {
                let modified = std::fs::metadata(path).and_then(|m| m.modified());
                Reverse(modified.unwrap_or(SystemTime::UNIX_EPOCH))
            })
        };
        if store::gc(dir, self.keep, newest_first) == 0 {
            return;
        }
        // An alias names its payload only inside the file, so sweep every
        // alias whose target no longer exists.
        let orphaned = |path: &Path| {
            if !has_extension(path, "key") {
                return None;
            }
            let target =
                std::fs::read_to_string(path).map(|hex| dir.join(format!("{}.spe", hex.trim())));
            (!target.is_ok_and(|t| t.exists())).then_some(())
        };
        store::gc(dir, 0, orphaned);
    }
}

fn has_extension(path: &Path, extension: &str) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some(extension)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sppl_core::var;

    const SOURCE: &str = "X ~ normal(0, 1)\nY ~ bernoulli(p=0.25)\nZ = X + 2";

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sppl-compile-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_memory_hit_skips_translation_and_matches_bits() {
        let cache = CompileCache::new(8);
        let cold = cache.compile(SOURCE).unwrap();
        let warm = cache.compile(SOURCE).unwrap();
        assert_eq!(cold.model_digest(), warm.model_digest());
        let event = var("X").le(0.5) & var("Y").eq(1.0);
        assert_eq!(
            cold.logprob(&event).unwrap().to_bits(),
            warm.logprob(&event).unwrap().to_bits()
        );
        let stats = cache.stats();
        assert_eq!(stats.translations, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn cosmetic_changes_converge_on_the_ast_key() {
        let cache = CompileCache::new(8);
        let a = cache.compile("X ~ normal(0, 1)").unwrap();
        // Different raw text, same parsed program modulo spans would
        // still re-key (spans are part of the Debug rendering), but the
        // *identical* text resubmitted must hit via the text index.
        let b = cache.compile("X ~ normal(0, 1)").unwrap();
        assert_eq!(a.model_digest(), b.model_digest());
        assert_eq!(cache.stats().translations, 1);
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache() {
        let dir = tempdir("disk");
        let writer = CompileCache::new(8).with_dir(&dir, 16).unwrap();
        let cold = writer.compile(SOURCE).unwrap();
        assert_eq!(writer.stats().translations, 1);

        // A brand-new cache (fresh process stand-in) over the same dir.
        let reader = CompileCache::new(8).with_dir(&dir, 16).unwrap();
        let warm = reader.compile(SOURCE).unwrap();
        let stats = reader.stats();
        assert_eq!(stats.translations, 0, "disk hit must not translate");
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(cold.model_digest(), warm.model_digest());
        let event = var("Z").gt(2.0);
        assert_eq!(
            cold.logprob(&event).unwrap().to_bits(),
            warm.logprob(&event).unwrap().to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn a_disk_hit_rewrites_the_alias_only_when_parse_found_the_key() {
        use std::os::unix::fs::MetadataExt;
        let dir = tempdir("alias");
        let alias = dir.join(format!("{}.key", source_text_digest(SOURCE)));
        let fresh = || CompileCache::new(8).with_dir(&dir, 16).unwrap();
        fresh().compile(SOURCE).unwrap();
        let inode = std::fs::metadata(&alias).unwrap().ino();

        // Found through the alias: the alias stays the same file.
        let reader = fresh();
        reader.compile(SOURCE).unwrap();
        assert_eq!(reader.stats().disk_hits, 1);
        assert_eq!(std::fs::metadata(&alias).unwrap().ino(), inode);

        // Found through parse + analyze: the missing alias comes back.
        std::fs::remove_file(&alias).unwrap();
        let reader = fresh();
        reader.compile(SOURCE).unwrap();
        assert_eq!(reader.stats().disk_hits, 1);
        assert!(alias.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_dropped_and_recompiled() {
        let dir = tempdir("corrupt");
        let writer = CompileCache::new(8).with_dir(&dir, 16).unwrap();
        writer.compile(SOURCE).unwrap();
        // Flip a byte in every payload.
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("spe") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let reader = CompileCache::new(8).with_dir(&dir, 16).unwrap();
        let model = reader.compile(SOURCE).unwrap();
        assert_eq!(
            model.model_digest(),
            writer.compile(SOURCE).unwrap().model_digest()
        );
        let stats = reader.stats();
        assert_eq!(stats.disk_hits, 0, "corrupt payload must not hit");
        assert_eq!(stats.translations, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_newest_payloads() {
        let dir = tempdir("gc");
        let cache = CompileCache::new(8).with_dir(&dir, 2).unwrap();
        for i in 0..4 {
            cache.compile(&format!("X ~ normal({i}, 1)")).unwrap();
        }
        let payloads = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("spe"))
            .count();
        assert!(payloads <= 2, "gc must bound payloads, found {payloads}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
