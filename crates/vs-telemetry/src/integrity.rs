//! Crash-safe artifact plumbing: content checksums and atomic writes.
//!
//! Two layers, both dependency-free by crate policy:
//!
//! * [`fnv1a_64`] / [`checksum_hex`] — a hand-rolled FNV-1a 64 content
//!   checksum. Every artifact and cache write that a completion journal
//!   records carries one, so a torn file (a crash mid-write, a truncation)
//!   is detected on resume instead of silently replayed.
//! * [`write_atomic`] — tmp-file + rename in the destination directory, so
//!   readers never observe a half-written artifact under its final name
//!   (the rename is atomic on POSIX; a crash leaves at worst a stale
//!   `.*.tmp`).
//!
//! The journal that records those checksums, its schema and its replay
//! belong to `vs-bench`'s `journal` module, its only user.

use std::io;
use std::path::Path;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a 64-bit hash of `bytes` (the classical Fowler–Noll–Vo
/// parameters). Used as a content checksum for artifacts and journal
/// records; collision resistance is ample for detecting torn writes within
/// one sweep directory, and the implementation keeps this crate
/// dependency-free.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// [`fnv1a_64`] formatted as the 16-hex-digit string journal records carry
/// (checksums exceed 2^53, so they must travel as strings, never JSON
/// numbers).
#[must_use]
pub fn checksum_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a_64(bytes))
}

/// Writes `bytes` to `path` atomically: the content goes to a `.*.tmp`
/// sibling in the same directory (same filesystem, so the rename cannot
/// degrade to a copy) and is renamed over the destination. A crash before
/// the rename leaves the previous version of `path` intact.
///
/// # Errors
///
/// Propagates filesystem errors from the write or the rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(".{}.tmp", file_name.to_string_lossy()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(checksum_hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn checksum_detects_any_truncation() {
        let full = b"{\"type\":\"scenario_done\",\"v\":1.25}\n";
        let whole = checksum_hex(full);
        for cut in 0..full.len() {
            assert_ne!(checksum_hex(&full[..cut]), whole, "cut at {cut}");
        }
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("vs-telemetry-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.jsonl");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
