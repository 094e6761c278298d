//! The manifest-keyed result cache.
//!
//! A completed job's artifacts (metrics, ledger, exhibit files) are
//! stored under `cache_dir/{key:016x}/`, where the key is the FNV-1a
//! digest of the same canonical parameter list the checkpoint manifest
//! pins — `(path, seed, scale, days, fcc, users, chaos)` plus the shard
//! count. Two requests with the same parameters therefore share a cache
//! entry, and because results are bit-identical under any thread plan,
//! a hit can be served without recomputation and still match a cold
//! batch run byte for byte.
//!
//! Durability follows the checkpoint layer's discipline: every file is
//! written via [`atomic_write`] (tmp → fsync → rename) and the entry is
//! only valid once `result.ok` — a per-file content-digest manifest —
//! exists, written last. A missing or mismatched digest on load counts
//! as a rejection, invalidates the entry, and degrades to recompute:
//! corruption can cost time, never correctness.

use bb_engine::{atomic_write, fnv1a64, CheckpointParams};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The validity marker and per-file digest manifest of a cache entry.
const RESULT_MANIFEST: &str = "result.ok";

/// The cache key for a parameter list: FNV-1a over the canonical
/// `key = value` text, one pair per line, with the shard count appended.
/// Built from [`CheckpointParams`] so the cache and the checkpoint
/// manifest can never disagree about what identifies a run.
pub fn cache_key(params: &CheckpointParams, shards: usize) -> u64 {
    let mut text = String::new();
    for (k, v) in params.pairs() {
        text.push_str(k);
        text.push_str(" = ");
        text.push_str(v);
        text.push('\n');
    }
    text.push_str(&format!("shards = {shards}\n"));
    fnv1a64(text.as_bytes())
}

/// What a [`ResultCache::lookup`] found. The caller counts it once.
#[derive(Debug, PartialEq)]
pub enum Lookup {
    /// A valid entry, with its files.
    Hit(Vec<(String, String)>),
    /// No servable entry.
    Miss,
    /// An entry whose digests did not verify. It has been invalidated,
    /// so the caller recomputes as on a miss.
    Rejected,
}

/// An on-disk result cache.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The directory of one entry.
    pub fn entry_dir(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}"))
    }

    /// Store `files` as the entry for `key`. Artifacts are written
    /// atomically first; `result.ok` (the digest manifest) last, so a
    /// crash mid-store leaves an invalid — not a wrong — entry.
    pub fn store(&self, key: u64, files: &[(String, String)]) -> io::Result<()> {
        let entry = self.entry_dir(key);
        fs::create_dir_all(&entry)?;
        let mut manifest = String::new();
        for (name, content) in files {
            atomic_write(&entry.join(name), content)?;
            manifest.push_str(&format!("{:016x} {name}\n", fnv1a64(content.as_bytes())));
        }
        atomic_write(&entry.join(RESULT_MANIFEST), &manifest)
    }

    /// Look up `key`: a valid entry is a hit and returns its files; a
    /// missing entry is a miss; an entry whose digests do not verify is
    /// rejected and invalidated (the `result.ok` marker removed).
    pub fn lookup(&self, key: u64) -> Lookup {
        let entry = self.entry_dir(key);
        let Ok(manifest) = fs::read_to_string(entry.join(RESULT_MANIFEST)) else {
            return Lookup::Miss;
        };
        match self.verify(&entry, &manifest) {
            Ok(files) => Lookup::Hit(files),
            Err(_) => {
                let _ = fs::remove_file(entry.join(RESULT_MANIFEST));
                Lookup::Rejected
            }
        }
    }

    /// Read and digest-verify every file the manifest lists.
    fn verify(&self, entry: &Path, manifest: &str) -> Result<Vec<(String, String)>, String> {
        let mut files = Vec::new();
        for line in manifest.lines() {
            let (digest, name) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed manifest line {line:?}"))?;
            let expected = u64::from_str_radix(digest, 16)
                .map_err(|_| format!("malformed digest {digest:?}"))?;
            let content = fs::read_to_string(entry.join(name))
                .map_err(|e| format!("unreadable artifact {name}: {e}"))?;
            if fnv1a64(content.as_bytes()) != expected {
                return Err(format!("digest mismatch for {name}"));
            }
            files.push((name.to_string(), content));
        }
        Ok(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> CheckpointParams {
        CheckpointParams::new()
            .set("path", "streaming")
            .set("seed", seed)
            .set("users", 1000u64)
    }

    #[test]
    fn key_depends_on_every_parameter_and_the_shard_count() {
        let base = cache_key(&params(1), 4);
        assert_eq!(base, cache_key(&params(1), 4));
        assert_ne!(base, cache_key(&params(2), 4));
        assert_ne!(base, cache_key(&params(1), 8));
    }

    #[test]
    fn store_then_lookup_round_trips_and_counts_a_hit() {
        let dir = std::env::temp_dir().join(format!("bb-serve-cache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let key = cache_key(&params(1), 4);
        assert_eq!(cache.lookup(key), Lookup::Miss);
        let files = vec![
            ("metrics.json".to_string(), "{\"a\": 1}".to_string()),
            ("fig1a.txt".to_string(), "figure\n".to_string()),
        ];
        cache.store(key, &files).unwrap();
        assert_eq!(cache.lookup(key), Lookup::Hit(files));
        // Corrupt one artifact: the entry is rejected, invalidated, and
        // stays invalid on the next probe (no marker file any more).
        fs::write(cache.entry_dir(key).join("fig1a.txt"), "tampered").unwrap();
        assert_eq!(cache.lookup(key), Lookup::Rejected);
        assert_eq!(cache.lookup(key), Lookup::Miss, "no marker left to reject");
        let _ = fs::remove_dir_all(&dir);
    }
}
