//! The shared sealed-container framing used by snapshots and the
//! manifest: `magic (4) | version u32 LE | crc32(body) u32 LE | body`.

use crate::backend::StorageError;
use crate::crc::crc32;
use bayou_types::Wire;

/// Appends the sealed-container envelope to `out` (typically a pooled
/// buffer) with the body encoded in place by `encode_body` — no fresh
/// body `Vec` per container. The checksum slot is reserved up front and
/// patched once the body is written.
pub(crate) fn seal_into(
    out: &mut Vec<u8>,
    magic: &[u8; 4],
    version: u32,
    encode_body: impl FnOnce(&mut Vec<u8>),
) {
    out.extend_from_slice(magic);
    version.encode(out);
    let crc_at = out.len();
    0u32.encode(out);
    let body_at = out.len();
    encode_body(out);
    let crc = crc32(&out[body_at..]);
    out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Validates the envelope (magic, version, checksum) and returns the
/// body. `what` names the container in error messages.
pub(crate) fn unseal<'a>(
    magic: &[u8; 4],
    version: u32,
    what: &str,
    bytes: &'a [u8],
) -> Result<&'a [u8], StorageError> {
    if bytes.len() < 12 || &bytes[..4] != magic {
        return Err(StorageError::Corrupt(format!("{what} magic mismatch")));
    }
    let got = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if got != version {
        return Err(StorageError::Corrupt(format!(
            "unsupported {what} version {got}"
        )));
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let body = &bytes[12..];
    if crc32(body) != crc {
        return Err(StorageError::Corrupt(format!("{what} checksum mismatch")));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seal(magic: &[u8; 4], version: u32, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        seal_into(&mut out, magic, version, |b| b.extend_from_slice(body));
        out
    }

    #[test]
    fn seal_appends_and_unseal_round_trips() {
        let mut out = b"prefix".to_vec();
        seal_into(&mut out, b"TEST", 3, |b| b.extend_from_slice(b"payload"));
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(unseal(b"TEST", 3, "test", &out[6..]).unwrap(), b"payload");
    }

    #[test]
    fn unseal_rejects_every_corruption() {
        let sealed = seal(b"TEST", 3, b"payload");
        assert!(unseal(b"XXXX", 3, "test", &sealed).is_err(), "magic");
        assert!(unseal(b"TEST", 4, "test", &sealed).is_err(), "version");
        let mut flipped = sealed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(unseal(b"TEST", 3, "test", &flipped).is_err(), "checksum");
        assert!(unseal(b"TEST", 3, "test", &sealed[..8]).is_err(), "short");
    }
}
