//! The manifest: the single source of truth for which files are live.
//!
//! A replica's storage directory contains WAL segments, at most one
//! snapshot, and the `MANIFEST` blob naming them. Recovery reads only
//! what the manifest lists; anything else is an orphan from an
//! interrupted snapshot/rotation and is deleted on open. The manifest is
//! replaced atomically ([`crate::Storage::write_atomic`]) so a crash
//! during an update leaves either the old or the new file set live —
//! never a mix.

use crate::backend::{Storage, StorageError};
use bayou_types::Wire;

/// Blob name of the manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";

const MAGIC: &[u8; 4] = b"BMAN";
const VERSION: u32 = 1;

/// The live file set of one replica's store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// The current snapshot blob, if one has been written.
    pub snapshot: Option<String>,
    /// Live WAL segments, oldest first; the last one is the append
    /// target.
    pub segments: Vec<String>,
    /// Monotonic counter naming the next segment/snapshot file.
    pub next_file_seq: u64,
}

impl Manifest {
    /// Serializes with magic, version and a body checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        crate::container::seal_into(&mut out, MAGIC, VERSION, |body| {
            self.snapshot.encode(body);
            self.segments.encode(body);
            self.next_file_seq.encode(body);
        });
        out
    }

    /// Parses and validates a serialized manifest.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StorageError> {
        let body = crate::container::unseal(MAGIC, VERSION, "manifest", bytes)?;
        let mut r = bayou_types::WireReader::new(body);
        let snapshot = Option::<String>::decode(&mut r)
            .map_err(|e| StorageError::Corrupt(format!("manifest body: {e}")))?;
        let segments = Vec::<String>::decode(&mut r)
            .map_err(|e| StorageError::Corrupt(format!("manifest body: {e}")))?;
        let next_file_seq = u64::decode(&mut r)
            .map_err(|e| StorageError::Corrupt(format!("manifest body: {e}")))?;
        if !r.is_empty() {
            return Err(StorageError::Corrupt("manifest trailing bytes".into()));
        }
        Ok(Manifest {
            snapshot,
            segments,
            next_file_seq,
        })
    }

    /// Loads the manifest from a backend, or `None` when the store is
    /// empty (first boot).
    pub fn load<B: Storage>(backend: &B) -> Result<Option<Self>, StorageError> {
        match backend.read(MANIFEST_FILE) {
            Ok(bytes) => Ok(Some(Self::from_bytes(&bytes)?)),
            Err(StorageError::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Atomically installs this manifest as the live one.
    pub fn store<B: Storage>(&self, backend: &mut B) -> Result<(), StorageError> {
        backend.write_atomic(MANIFEST_FILE, &self.to_bytes())
    }

    /// Deletes every blob the manifest does not reference (orphans from
    /// interrupted snapshot installs).
    pub fn remove_orphans<B: Storage>(&self, backend: &mut B) -> Result<(), StorageError> {
        for name in backend.list() {
            let live = name == MANIFEST_FILE
                || self.segments.contains(&name)
                || self.snapshot.as_deref() == Some(name.as_str());
            if !live {
                backend.remove(&name)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemDisk;

    #[test]
    fn round_trip() {
        let m = Manifest {
            snapshot: Some("snap-00000003".into()),
            segments: vec!["wal-00000004".into(), "wal-00000005".into()],
            next_file_seq: 6,
        };
        assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn corruption_is_detected() {
        let m = Manifest::default();
        let mut bytes = m.to_bytes();
        *bytes.last_mut().unwrap() ^= 1;
        assert!(matches!(
            Manifest::from_bytes(&bytes),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(
            Manifest::from_bytes(b"XXXX"),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn load_store_and_orphan_cleanup() {
        let mut disk = MemDisk::new();
        assert_eq!(Manifest::load(&disk).unwrap(), None);
        let m = Manifest {
            snapshot: None,
            segments: vec!["wal-00000001".into()],
            next_file_seq: 2,
        };
        m.store(&mut disk).unwrap();
        assert_eq!(Manifest::load(&disk).unwrap(), Some(m.clone()));
        disk.append("wal-00000001", b"live").unwrap();
        disk.append("wal-00000000", b"orphan").unwrap();
        disk.append("snap-00000000", b"orphan").unwrap();
        m.remove_orphans(&mut disk).unwrap();
        assert_eq!(
            disk.list(),
            vec![MANIFEST_FILE.to_string(), "wal-00000001".to_string()]
        );
    }
}
