//! Content hashing for the artifact store.
//!
//! The cache key and payload digests need a hash that is (a) available
//! with zero external dependencies, (b) stable across platforms and
//! releases, and (c) wide enough that accidental collisions between a
//! few thousand artifacts are negligible. Cryptographic strength is
//! explicitly *not* a goal — the store defends against bit-rot and
//! truncation, not against an adversary forging entries — so a pair of
//! independently finalized 64-bit FNV-1a streams (128 bits total) is
//! plenty: with ~10⁴ artifacts the birthday collision probability is
//! below 10⁻³⁰.

use std::io::{self, Write};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset-basis perturbation of the second FNV stream.
const SECOND_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: decorrelates the two FNV streams (which share
/// a multiplier) and avalanches short-input differences.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The running state of [`content_hash`]: two 64-bit FNV-1a streams
/// with different offset bases, and the byte count. Feeding the bytes in
/// any chunking gives the same digest.
struct ContentHasher {
    a: u64,
    b: u64,
    len: u64,
}

impl ContentHasher {
    fn new() -> Self {
        Self {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ SECOND_STREAM,
            len: 0,
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self.len += bytes.len() as u64;
    }

    fn finish(&self) -> String {
        let a = mix(self.a ^ self.len);
        let b = mix(self.b.wrapping_add(self.len));
        format!("{a:016x}{b:016x}")
    }
}

/// The 128-bit content hash of a byte string, as 32 lowercase hex
/// digits. Deterministic across platforms; every CAS key and payload
/// digest in the workspace is produced by this function.
pub fn content_hash(bytes: &[u8]) -> String {
    let mut h = ContentHasher::new();
    h.update(bytes);
    h.finish()
}

impl Write for ContentHasher {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// [`content_hash`] of a file's bytes. `io::copy` streams them through
/// its fixed buffer, so memory stays bounded whatever the file's size; a
/// read error partway through is returned, never a digest of the prefix.
pub(crate) fn file_hash(path: impl AsRef<std::path::Path>) -> io::Result<String> {
    let mut h = ContentHasher::new();
    io::copy(&mut std::fs::File::open(path)?, &mut h)?;
    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_hex() {
        let h = content_hash(b"retention map, 32nm, severe");
        assert_eq!(h, content_hash(b"retention map, 32nm, severe"));
        assert_eq!(h.len(), 32);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn distinct_inputs_hash_differently() {
        let inputs: Vec<String> = (0..500).map(|i| format!("payload #{i}")).collect();
        let mut seen = std::collections::HashSet::new();
        for s in &inputs {
            assert!(seen.insert(content_hash(s.as_bytes())), "collision on {s}");
        }
        // Single-bit and length-extension differences must not collide.
        assert_ne!(content_hash(b""), content_hash(b"\0"));
        assert_ne!(content_hash(b"a"), content_hash(b"a\0"));
        assert_ne!(content_hash(b"ab"), content_hash(b"ba"));
    }

    #[test]
    fn known_vector_is_pinned() {
        // Pins the exact algorithm: changing it would orphan every cached
        // artifact and move every fingerprint, so make that a test failure.
        assert_eq!(content_hash(b""), "f52a15e9a9b5e89be9d327596b869820");
        assert_eq!(
            content_hash(b"retention map, 32nm, severe"),
            "79bab8eb03acf1978798de0452fef375"
        );
    }

    /// Yields `data` in `step`-byte reads, then fails if `fail` is set.
    struct Chunked<'a> {
        data: &'a [u8],
        step: usize,
        fail: bool,
    }

    impl io::Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.data.is_empty() && self.fail {
                return Err(io::Error::other("device gone"));
            }
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn streamed_hash_equals_content_hash_for_any_chunking() {
        const STEP: usize = 16;
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in [0, 1, STEP - 1, STEP, STEP + 1, 3 * STEP + 7, data.len()] {
            let bytes = &data[..len];
            for step in [1, 5, STEP - 1, STEP, STEP + 1, usize::MAX] {
                let mut src = Chunked {
                    data: bytes,
                    step,
                    fail: false,
                };
                let mut h = ContentHasher::new();
                io::copy(&mut src, &mut h).unwrap();
                assert_eq!(h.finish(), content_hash(bytes), "len {len}, step {step}");
            }
        }
    }

    #[test]
    fn streamed_hash_fails_on_a_read_error_partway() {
        let mut src = Chunked {
            data: b"some bytes first",
            step: 4,
            fail: true,
        };
        assert!(io::copy(&mut src, &mut ContentHasher::new()).is_err());
    }

    #[test]
    fn file_hash_matches_content_hash_across_buffer_refills() {
        // `io::copy`'s buffer is 8 KiB; cover one byte either side of one
        // and of several refills.
        const BUF: usize = 8 * 1024;
        let path = std::env::temp_dir().join(format!("pv3t1d_file_hash_{}", std::process::id()));
        for len in [0, 1, BUF - 1, BUF, BUF + 1, 3 * BUF - 1, 3 * BUF + 1] {
            let bytes: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(file_hash(&path).unwrap(), content_hash(&bytes), "len {len}");
        }
        let _ = std::fs::remove_file(&path);
        assert!(file_hash(&path).is_err());
    }
}
