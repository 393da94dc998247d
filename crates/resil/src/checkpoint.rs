//! Crash-safe checkpoint shards: atomic writes, verified reads.
//!
//! A checkpoint directory holds one *shard* file per completed unit of
//! work (one sweep condition, one study cell). Shards are written
//! atomically — payload goes to a `.tmp` file, is `fsync`ed, then
//! renamed into place — so a process killed at any instant leaves only
//! complete shards or ignorable temporaries, never a torn file.
//!
//! # Shard format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "TVCKPT1\0"
//! 8       4     format version (little-endian u32, currently 1)
//! 12      8     payload length in bytes (little-endian u64)
//! 20      8     FNV-1a 64 checksum of the payload (little-endian u64)
//! 28      n     payload
//! ```
//!
//! Reads verify all four header fields plus the checksum;
//! [`CheckpointDir::read_valid`] treats any mismatch as "not
//! checkpointed" (warn and recompute), because a corrupt shard must
//! never be worth more than the few seconds it takes to redo one
//! condition.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::codec::fnv1a64;
use crate::error::{ResultExt, TevotError};
use crate::fail_point;
use crate::retry::Retry;

const MAGIC: &[u8; 8] = b"TVCKPT1\0";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 28;

/// A directory of atomic checkpoint shards.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
    retry: Retry,
}

impl CheckpointDir {
    /// Opens (creating if necessary) the checkpoint directory `dir`.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`](crate::ErrorKind::Io) when the directory cannot
    /// be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointDir, TevotError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .ctx(|| format!("create checkpoint directory {}", dir.display()))?;
        Ok(CheckpointDir { dir, retry: Retry::default() })
    }

    /// Replaces the retry policy used for shard I/O.
    pub fn with_retry(mut self, retry: Retry) -> Self {
        self.retry = retry;
        self
    }

    /// The directory shards live in.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of shard `name`.
    pub fn shard_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.ckpt"))
    }

    /// Atomically commits `payload` as shard `name`: header + payload to
    /// a temporary file, `fsync`, rename into place. Transient I/O
    /// failures (including injected ones) are retried with backoff.
    ///
    /// Failpoint: `ckpt.write`.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`](crate::ErrorKind::Io) once the retry budget is
    /// exhausted.
    pub fn write(&self, name: &str, payload: &[u8]) -> Result<(), TevotError> {
        let final_path = self.shard_path(name);
        let tmp_path = self.dir.join(format!("{name}.ckpt.tmp.{}", std::process::id()));
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        header.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        self.retry
            .run("write checkpoint shard", || {
                fail_point!("ckpt.write");
                let mut f = fs::File::create(&tmp_path)?;
                f.write_all(&header)?;
                f.write_all(payload)?;
                f.sync_all()?;
                drop(f);
                fs::rename(&tmp_path, &final_path)
            })
            .ctx(|| format!("write checkpoint shard {}", final_path.display()))?;
        tevot_obs::metrics::RESIL_CKPT_SHARDS_WRITTEN.incr();
        tevot_obs::debug!("checkpoint: committed shard {}", final_path.display());
        Ok(())
    }

    /// Loads shard `name` if it exists and verifies: returns the payload
    /// on success, `None` when the shard is absent, truncated, or fails
    /// any header or checksum check (a warning is logged — the caller
    /// recomputes). Transient read failures are retried.
    ///
    /// Failpoint: `ckpt.read`.
    pub fn read_valid(&self, name: &str) -> Option<Vec<u8>> {
        let path = self.shard_path(name);
        let bytes = self
            .retry
            .run("read checkpoint shard", || {
                fail_point!("ckpt.read");
                match fs::read(&path) {
                    Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
                    other => other.map(Some),
                }
            })
            .unwrap_or_else(|e| {
                tevot_obs::warn!("checkpoint: cannot read {}: {e}; recomputing", path.display());
                None
            })?;
        match Self::verify(&bytes) {
            Ok(payload) => Some(payload.to_vec()),
            Err(reason) => {
                tevot_obs::warn!(
                    "checkpoint: invalid shard {}: {reason}; recomputing",
                    path.display()
                );
                None
            }
        }
    }

    /// Whether a structurally valid shard `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.read_valid(name).is_some()
    }

    fn verify(bytes: &[u8]) -> Result<&[u8], String> {
        if bytes.len() < HEADER_LEN {
            return Err(format!("file is {} bytes, header needs {HEADER_LEN}", bytes.len()));
        }
        if &bytes[..8] != MAGIC {
            return Err("bad magic".into());
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(format!("unsupported shard version {version}"));
        }
        let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != len {
            return Err(format!(
                "payload is {} bytes, header declares {len} (truncated write?)",
                payload.len()
            ));
        }
        let declared = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let actual = fnv1a64(payload);
        if declared != actual {
            return Err(format!(
                "checksum mismatch: header {declared:#018x}, payload {actual:#018x}"
            ));
        }
        Ok(payload)
    }

    /// Writes the `manifest` shard that fingerprints the run
    /// configuration. When a manifest shard already exists it must carry
    /// the same fingerprint — resuming into a directory checkpointed
    /// under a different configuration would silently mix incompatible
    /// results.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Corrupt`](crate::ErrorKind::Corrupt) on fingerprint
    /// mismatch; [`ErrorKind::Io`](crate::ErrorKind::Io) when the shard
    /// cannot be written.
    pub fn bind_manifest(&self, fingerprint: u64) -> Result<(), TevotError> {
        if let Some(existing) = self.read_valid("manifest") {
            let mut r = crate::codec::ByteReader::new(&existing);
            let found = r.u64().context_manifest(self)?;
            r.finish().context_manifest(self)?;
            if found != fingerprint {
                return Err(TevotError::corrupt(format!(
                    "checkpoint directory {} was written by a different run configuration \
                     (manifest fingerprint {found:#018x}, this run {fingerprint:#018x}); \
                     use a fresh --resume directory",
                    self.dir.display()
                )));
            }
            return Ok(());
        }
        let mut w = crate::codec::ByteWriter::new();
        w.put_u64(fingerprint);
        self.write("manifest", &w.into_bytes())
    }
}

trait ManifestCtx<T> {
    fn context_manifest(self, ckpt: &CheckpointDir) -> Result<T, TevotError>;
}

impl<T> ManifestCtx<T> for Result<T, TevotError> {
    fn context_manifest(self, ckpt: &CheckpointDir) -> Result<T, TevotError> {
        self.ctx(|| format!("read manifest shard in {}", ckpt.dir.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests that assert exact I/O outcomes hold a no-op failpoint scope:
    // it replaces any `TEVOT_FAIL` configuration from the environment
    // (the chaos run arms `ckpt.*`) and excludes the fault tests below.

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tevot_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_read_round_trips() {
        let _scope = crate::fail::scoped("");
        let dir = scratch("roundtrip");
        let ckpt = CheckpointDir::open(&dir).unwrap();
        ckpt.write("cond-0", b"hello shard").unwrap();
        assert_eq!(ckpt.read_valid("cond-0").as_deref(), Some(&b"hello shard"[..]));
        assert!(ckpt.contains("cond-0"));
        assert!(!ckpt.contains("cond-1"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let _scope = crate::fail::scoped("");
        let dir = scratch("corrupt");
        let ckpt = CheckpointDir::open(&dir).unwrap();
        ckpt.write("cond-0", b"pristine payload").unwrap();
        let path = ckpt.shard_path("cond-0");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a payload bit
        fs::write(&path, &bytes).unwrap();
        assert_eq!(ckpt.read_valid("cond-0"), None, "checksum must catch the flip");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_shard_is_rejected() {
        let _scope = crate::fail::scoped("");
        let dir = scratch("truncated");
        let ckpt = CheckpointDir::open(&dir).unwrap();
        ckpt.write("cond-0", b"will be cut short").unwrap();
        let path = ckpt.shard_path("cond-0");
        let bytes = fs::read(&path).unwrap();
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 3] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert_eq!(ckpt.read_valid("cond-0"), None, "cut at {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let _scope = crate::fail::scoped("");
        let dir = scratch("magic");
        let ckpt = CheckpointDir::open(&dir).unwrap();
        ckpt.write("cond-0", b"x").unwrap();
        let path = ckpt.shard_path("cond-0");
        let good = fs::read(&path).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).unwrap();
        assert_eq!(ckpt.read_valid("cond-0"), None);

        let mut bad = good.clone();
        bad[8] = 99; // version
        fs::write(&path, &bad).unwrap();
        assert_eq!(ckpt.read_valid("cond-0"), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_faults_are_retried_through() {
        let dir = scratch("retry");
        let _scope = crate::fail::scoped("ckpt.write=io@0.5");
        // A 50% fault rate needs more than the default 5-attempt budget
        // to make 10 consecutive writes reliably (0.5^5 ≈ 3% per write).
        let ckpt = CheckpointDir::open(&dir).unwrap().with_retry(Retry::new(
            20,
            std::time::Duration::from_micros(1),
            std::time::Duration::from_micros(4),
        ));
        for i in 0..10 {
            ckpt.write(&format!("cond-{i}"), format!("payload {i}").as_bytes()).unwrap();
        }
        drop(_scope);
        for i in 0..10 {
            assert_eq!(
                ckpt.read_valid(&format!("cond-{i}")).as_deref(),
                Some(format!("payload {i}").as_bytes())
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hard_write_fault_surfaces_as_io_error() {
        let dir = scratch("hardfail");
        let _scope = crate::fail::scoped("ckpt.write=io");
        let ckpt = CheckpointDir::open(&dir).unwrap().with_retry(Retry::new(
            2,
            std::time::Duration::from_micros(1),
            std::time::Duration::from_micros(1),
        ));
        let e = ckpt.write("cond-0", b"doomed").unwrap_err();
        assert_eq!(e.kind(), crate::ErrorKind::Io);
        assert!(e.is_injected());
        drop(_scope);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_binds_and_detects_mismatch() {
        let _scope = crate::fail::scoped("");
        let dir = scratch("manifest");
        let ckpt = CheckpointDir::open(&dir).unwrap();
        ckpt.bind_manifest(0xABCD).unwrap();
        ckpt.bind_manifest(0xABCD).unwrap(); // same fingerprint: fine
        let e = ckpt.bind_manifest(0xEF01).unwrap_err();
        assert_eq!(e.kind(), crate::ErrorKind::Corrupt);
        assert!(e.to_string().contains("different run configuration"), "{e}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_payload_round_trips() {
        let _scope = crate::fail::scoped("");
        let dir = scratch("empty");
        let ckpt = CheckpointDir::open(&dir).unwrap();
        ckpt.write("cond-0", b"").unwrap();
        assert_eq!(ckpt.read_valid("cond-0").as_deref(), Some(&b""[..]));
        fs::remove_dir_all(&dir).unwrap();
    }
}
