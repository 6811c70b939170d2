//! The disk-persistent content-addressed report store — the tier below
//! the in-memory LRU ([`cache`](crate::cache)), so a restarted daemon
//! keeps its hit rate.
//!
//! Layout: one file per cache key under a two-level directory,
//! `<root>/<hh>/<hash32>.rpt`, where the hash is a 128-bit FNV-1a pair
//! of the key and `hh` is its first byte (keeps any one directory
//! small). The *full* key is stored inside the file and verified on
//! load, so a (vanishingly unlikely) hash collision degrades to a miss,
//! never to wrong bytes.
//!
//! File format, all integers little-endian:
//!
//! ```text
//! magic    8 bytes  "MMVCRPT\0"
//! version  u32      mmvc_core::REPORT_FORMAT_VERSION (a bump invalidates
//!                   every older record)
//! key_len  u32      length of the cache key
//! key      ..       the canonical cache key, verbatim
//! body_len u64      length of the body
//! body     ..       the canonical response bytes
//! checksum u64      FNV-1a of the body
//! ```
//!
//! **Crash-during-write story:** writers never touch the final path —
//! they write the whole record to a unique name under `<root>/tmp/` and
//! `rename` it into place. Rename is atomic on POSIX, so a reader sees
//! either no file or a complete record; a crash mid-write leaves only a
//! stale tmp file that the next [`ReportStore::open`] sweeps. Two
//! workers racing on the same cold key each write their own tmp file
//! and rename to the same destination: both records hold identical
//! bytes (report determinism), so last-rename-wins is still one valid
//! file. Loads validate magic, version, key, length, and checksum;
//! anything short, torn, or foreign is treated as a **miss and
//! repaired** — the bad file is removed so the next computed report
//! rewrites it cleanly.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mmvc_core::REPORT_FORMAT_VERSION;

use crate::fnv1a;

const MAGIC: &[u8; 8] = b"MMVCRPT\0";

/// Distinguishes concurrent tmp-file writers within one process; the
/// process id distinguishes writers across processes.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A content-addressed directory of canonical report bodies (see the
/// module docs for format and atomicity).
#[derive(Debug, Clone)]
pub struct ReportStore {
    root: PathBuf,
    version: u32,
}

impl ReportStore {
    /// Opens (creating if needed) a store rooted at `root`, and sweeps
    /// any tmp files a crashed writer left behind.
    ///
    /// Records carry [`REPORT_FORMAT_VERSION`]: after a bump every older
    /// record fails its version check on load, is removed, and is
    /// rewritten from a fresh run. (Key *schema* changes —
    /// `mmvc-serve-spec/vN` inside the key — already produce new
    /// addresses; a change to the record layout bumps the version too.)
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<ReportStore> {
        ReportStore::open_with_version(root, REPORT_FORMAT_VERSION)
    }

    /// [`open`](Self::open) at an explicit format version — exists so
    /// tests can prove that a version bump invalidates old entries.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_with_version(
        root: impl Into<PathBuf>,
        version: u32,
    ) -> std::io::Result<ReportStore> {
        let root = root.into();
        let tmp = root.join("tmp");
        std::fs::create_dir_all(&tmp)?;
        // Sweep stale tmp files: they are either debris from a crashed
        // writer or in-flight writes from another *live* process — but a
        // shared store dir across live daemons is not a supported
        // deployment (each daemon owns its --store-dir), so sweeping at
        // open is safe and keeps the directory from accumulating junk.
        if let Ok(entries) = std::fs::read_dir(&tmp) {
            for entry in entries.flatten() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(ReportStore { root, version })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The final path addressing `key`.
    fn path_for(&self, key: &str) -> PathBuf {
        // 128 address bits: FNV-1a of the key, and of the key with a
        // domain-separating prefix. Collisions are handled (full-key
        // check on load) but should never practically occur.
        let h1 = fnv1a(key.as_bytes());
        let mut salted = Vec::with_capacity(key.len() + 8);
        salted.extend_from_slice(b"mmvc/rpt");
        salted.extend_from_slice(key.as_bytes());
        let h2 = fnv1a(&salted);
        self.root
            .join(format!("{:02x}", (h1 >> 56) as u8))
            .join(format!("{h1:016x}{h2:016x}.rpt"))
    }

    /// Loads the body stored for `key`, or `None` — and a corrupt,
    /// truncated, foreign-version, or colliding file is removed on the
    /// way out (miss-and-repair), so the next insert rewrites it.
    pub fn load(&self, key: &str) -> Option<Arc<[u8]>> {
        let path = self.path_for(key);
        let bytes = std::fs::read(&path).ok()?;
        match decode(&bytes, key, self.version) {
            Some(body) => Some(body),
            None => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists `body` under `key` atomically (tmp + rename). Failures
    /// are reported, not fatal: the daemon treats a failed save as
    /// "entry not persisted" and keeps serving from memory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, key: &str, body: &[u8]) -> std::io::Result<()> {
        let path = self.path_for(key);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut record = Vec::with_capacity(MAGIC.len() + 4 + 4 + key.len() + 8 + body.len() + 8);
        record.extend_from_slice(MAGIC);
        record.extend_from_slice(&self.version.to_le_bytes());
        record.extend_from_slice(
            &(u32::try_from(key.len()).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "key too long")
            })?)
            .to_le_bytes(),
        );
        record.extend_from_slice(key.as_bytes());
        record.extend_from_slice(&(body.len() as u64).to_le_bytes());
        record.extend_from_slice(body);
        record.extend_from_slice(&fnv1a(body).to_le_bytes());

        let tmp = self.root.join("tmp").join(format!(
            "{}-{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &record)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Validates and decodes one record; `None` on any mismatch.
fn decode(bytes: &[u8], key: &str, version: u32) -> Option<Arc<[u8]>> {
    let rest = bytes.strip_prefix(MAGIC.as_slice())?;
    let (ver, rest) = split_u32(rest)?;
    if ver != version {
        return None;
    }
    let (key_len, rest) = split_u32(rest)?;
    let key_len = key_len as usize;
    if rest.len() < key_len || &rest[..key_len] != key.as_bytes() {
        return None;
    }
    let rest = &rest[key_len..];
    let (body_len, rest) = split_u64(rest)?;
    let body_len = usize::try_from(body_len).ok()?;
    if rest.len() != body_len + 8 {
        return None;
    }
    let (body, checksum) = rest.split_at(body_len);
    if u64::from_le_bytes(checksum.try_into().ok()?) != fnv1a(body) {
        return None;
    }
    Some(Arc::from(body))
}

fn split_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = bytes.split_at_checked(4)?;
    Some((u32::from_le_bytes(head.try_into().ok()?), rest))
}

fn split_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = bytes.split_at_checked(8)?;
    Some((u64::from_le_bytes(head.try_into().ok()?), rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ReportStore {
        let dir =
            std::env::temp_dir().join(format!("mmvc_store_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ReportStore::open(dir).unwrap()
    }

    #[test]
    fn roundtrip_and_miss() {
        let store = temp_store("roundtrip");
        assert!(store.load("k1").is_none());
        store.save("k1", b"body-bytes").unwrap();
        assert_eq!(store.load("k1").unwrap().as_ref(), b"body-bytes");
        assert!(store.load("k2").is_none(), "other keys still miss");
        // Re-opening (a restart) still finds the entry.
        let reopened = ReportStore::open(store.root()).unwrap();
        assert_eq!(reopened.load("k1").unwrap().as_ref(), b"body-bytes");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_and_truncated_files_are_missed_and_repaired() {
        let store = temp_store("corrupt");
        store.save("k", b"good").unwrap();
        let path = store.path_for("k");

        // Truncated mid-body.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 6]).unwrap();
        assert!(store.load("k").is_none());
        assert!(!path.exists(), "bad file removed (repaired to a miss)");

        // Flipped body byte fails the checksum.
        store.save("k", b"good").unwrap();
        let mut flipped = std::fs::read(&path).unwrap();
        let body_at = flipped.len() - 9;
        flipped[body_at] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert!(store.load("k").is_none());
        assert!(!path.exists());

        // Garbage that was never a record at all.
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"not a record").unwrap();
        assert!(store.load("k").is_none());
        assert!(!path.exists());

        // And the key still works after repair.
        store.save("k", b"fresh").unwrap();
        assert_eq!(store.load("k").unwrap().as_ref(), b"fresh");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn version_bump_invalidates_old_entries() {
        let store = temp_store("version");
        store.save("k", b"v-old").unwrap();
        let bumped =
            ReportStore::open_with_version(store.root(), REPORT_FORMAT_VERSION + 1).unwrap();
        assert!(bumped.load("k").is_none(), "old version is not served");
        // The invalidated file was swept; a rewrite at the new version
        // works, and the old-version store now (correctly) misses.
        bumped.save("k", b"v-new").unwrap();
        assert_eq!(bumped.load("k").unwrap().as_ref(), b"v-new");
        assert!(store.load("k").is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn concurrent_writers_of_one_key_leave_one_valid_file() {
        let store = temp_store("race");
        // Identical bodies — the real daemon's case (report determinism).
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let store = store.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        store.save("hot", b"same-bytes").unwrap();
                    }
                });
            }
        });
        assert_eq!(store.load("hot").unwrap().as_ref(), b"same-bytes");

        // Divergent bodies (not the daemon's case, but atomicity must
        // still hold): the surviving file is one of them, intact.
        std::thread::scope(|scope| {
            for i in 0..8u8 {
                let store = store.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        store.save("contested", &[i; 64]).unwrap();
                    }
                });
            }
        });
        let got = store.load("contested").expect("some writer won");
        assert_eq!(got.len(), 64);
        assert!(got.iter().all(|&b| b == got[0]), "record is torn");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let store = temp_store("sweep");
        let stale = store.root().join("tmp").join("999-crashed.tmp");
        std::fs::write(&stale, b"half a rec").unwrap();
        let _ = ReportStore::open(store.root()).unwrap();
        assert!(!stale.exists());
        let _ = std::fs::remove_dir_all(store.root());
    }
}
