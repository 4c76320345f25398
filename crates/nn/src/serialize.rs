//! Zero-dependency binary serialization substrate for on-disk state
//! (checkpoints, state dicts).
//!
//! # Container format
//!
//! Every file produced through this module is a *container*:
//!
//! ```text
//! offset  size  field
//! 0       8     magic (per container type, e.g. b"TYXESD\x00\x00")
//! 8       4     format version, u32 LE
//! 12      8     payload length, u64 LE
//! 20      n     payload bytes
//! 20+n    4     CRC32 (IEEE) over bytes [8, 20+n), u32 LE
//! ```
//!
//! The checksum covers version, length and payload, so truncation, bit
//! rot and partially-written files are all detected at load time and
//! reported as typed [`LoadError`]s rather than garbage tensors. All
//! integers are little-endian; floats are IEEE-754 `f64` bit patterns,
//! so round-trips are bitwise exact (including NaN payloads, signed
//! zeros and subnormals).
//!
//! # Atomicity
//!
//! [`atomic_write`] writes to a temporary sibling file, syncs it, then
//! renames it over the destination. A crash mid-write leaves either the
//! old file or the new file, never a torn hybrid; a crash between write
//! and rename leaves a stray `*.tmp.<pid>` that is simply overwritten by
//! the next save.

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

/// Errors surfaced when loading serialized state from disk.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying filesystem error (missing file, permissions, ...).
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The container's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before the declared payload/trailer.
    Truncated,
    /// The CRC32 trailer does not match the stored bytes.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the file's bytes.
        computed: u32,
    },
    /// The payload decodes to something structurally invalid.
    Malformed(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::BadMagic => write!(f, "bad magic: not a tyxe state file"),
            LoadError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            LoadError::Truncated => write!(f, "file truncated"),
            LoadError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x} (corrupt file)"
            ),
            LoadError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> LoadError {
        LoadError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected), in-tree
// ---------------------------------------------------------------------------

/// Builds the reflected-polynomial lookup table at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the same polynomial as zlib/PNG/Ethernet,
/// so third-party tools can cross-check the trailer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Byte-level writer/reader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink for payload encoding.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Finishes and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u64` (LE).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` bit pattern (LE) — bitwise exact.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f64` vector.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
    }
}

/// Sequential little-endian reader over a payload, with bounds checking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a payload buffer.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        let end = self.pos.checked_add(n).ok_or(LoadError::Truncated)?;
        if end > self.buf.len() {
            return Err(LoadError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a `u64` (LE).
    pub fn get_u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern (LE).
    pub fn get_f64(&mut self) -> Result<f64, LoadError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, LoadError> {
        let len = self.get_u64()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LoadError::Malformed("non-UTF-8 string".into()))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, LoadError> {
        let len = self.get_u64()? as usize;
        // Bound the allocation by the bytes actually present.
        if len.checked_mul(8).is_none_or(|b| self.pos + b > self.buf.len()) {
            return Err(LoadError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------------

const HEADER_LEN: usize = 8 + 4 + 8;

/// Frames `payload` into a checksummed container (see the module docs).
pub fn encode_container(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[8..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates a container's magic, version bound, framing and checksum,
/// returning the payload slice.
pub fn decode_container<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    max_version: u32,
) -> Result<(u32, &'a [u8]), LoadError> {
    if bytes.len() < 8 {
        return Err(LoadError::Truncated);
    }
    if &bytes[..8] != magic {
        return Err(LoadError::BadMagic);
    }
    if bytes.len() < HEADER_LEN + 4 {
        return Err(LoadError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let expected_total = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(4))
        .ok_or(LoadError::Truncated)?;
    if bytes.len() < expected_total {
        return Err(LoadError::Truncated);
    }
    // Verify the checksum before trusting the version field: a corrupt
    // version byte should read as corruption, not "unsupported version".
    let stored = u32::from_le_bytes(
        bytes[HEADER_LEN + payload_len..expected_total].try_into().unwrap(),
    );
    let computed = crc32(&bytes[8..HEADER_LEN + payload_len]);
    if stored != computed {
        return Err(LoadError::ChecksumMismatch { stored, computed });
    }
    if bytes.len() > expected_total {
        return Err(LoadError::Malformed("trailing bytes after container".into()));
    }
    if version == 0 || version > max_version {
        return Err(LoadError::UnsupportedVersion(version));
    }
    Ok((version, &bytes[HEADER_LEN..HEADER_LEN + payload_len]))
}

/// Writes `bytes` to `path` atomically: temp sibling + fsync + rename.
/// Concurrent writers race at rename (last one wins, each file intact).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = match path.file_name() {
        Some(name) => {
            let mut n = name.to_os_string();
            n.push(format!(".tmp.{}", std::process::id()));
            path.with_file_name(n)
        }
        None => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "atomic_write: path has no file name",
            ))
        }
    };
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Reads a whole file (convenience mirroring [`atomic_write`]).
pub fn read_file(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TYXETEST";

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE CRC32 check values (zlib-compatible).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn container_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_str("hello");
        w.put_f64_slice(&[1.5, -0.0, f64::NAN, f64::MIN_POSITIVE]);
        w.put_u64(42);
        let bytes = encode_container(MAGIC, 1, &w.into_bytes());
        let (version, payload) = decode_container(&bytes, MAGIC, 1).unwrap();
        assert_eq!(version, 1);
        let mut r = ByteReader::new(payload);
        assert_eq!(r.get_str().unwrap(), "hello");
        let v = r.get_f64_slice().unwrap();
        assert_eq!(v[0].to_bits(), 1.5f64.to_bits());
        assert_eq!(v[1].to_bits(), (-0.0f64).to_bits());
        assert!(v[2].is_nan());
        assert_eq!(v[3], f64::MIN_POSITIVE);
        assert_eq!(r.get_u64().unwrap(), 42);
        assert!(r.is_exhausted());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let mut w = ByteWriter::new();
        w.put_f64_slice(&[3.25, 7.0]);
        let bytes = encode_container(MAGIC, 1, &w.into_bytes());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode_container(&corrupt, MAGIC, 1).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_container(MAGIC, 1, &[1, 2, 3, 4]);
        for len in 0..bytes.len() {
            assert!(decode_container(&bytes[..len], MAGIC, 1).is_err(), "truncated to {len}");
        }
    }

    #[test]
    fn version_above_max_is_rejected() {
        let bytes = encode_container(MAGIC, 3, &[]);
        match decode_container(&bytes, MAGIC, 2) {
            Err(LoadError::UnsupportedVersion(3)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let bytes = encode_container(MAGIC, 1, &[]);
        match decode_container(&bytes, b"TYXEELSE", 1) {
            Err(LoadError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_replaces_existing_file() {
        let dir = std::env::temp_dir().join(format!("tyxe-ser-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"second");
        // No stray temp files left behind.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "{strays:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
