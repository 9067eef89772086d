//! Delta encoding between object versions (paper §III): `d(o1, e, k)` is a
//! compact edit script turning version `e` into version `k`, sent instead of
//! the full object when it is considerably smaller.
//!
//! The codec is rsync-style: the base version is indexed by fixed-size block
//! hashes; the target is scanned with a rolling hash of a block-sized window
//! (rsync's weak checksum, Tridgell & Mackerras 1996), emitting
//! `Copy { base_offset, len }` ops for block runs found in the base and
//! `Insert(bytes)` ops for novel bytes.

use bytes::Bytes;
use std::fmt;

/// Block size used for base indexing.
const BLOCK: usize = 64;

/// Error produced by delta application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A copy op references bytes outside the base version.
    CopyOutOfRange {
        /// Base offset requested.
        offset: usize,
        /// Length requested.
        len: usize,
        /// Base size available.
        base_len: usize,
    },
    /// The reconstructed size disagrees with the recorded target size.
    SizeMismatch {
        /// Expected target size.
        expected: usize,
        /// Actual reconstructed size.
        actual: usize,
    },
    /// The reconstructed bytes hash differently from the recorded target
    /// checksum — the script or a literal was corrupted in flight.
    ChecksumMismatch {
        /// Checksum recorded at encode time.
        expected: u64,
        /// Checksum of the reconstructed bytes.
        actual: u64,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::CopyOutOfRange { offset, len, base_len } => {
                write!(f, "copy op [{offset}, {offset}+{len}) exceeds base length {base_len}")
            }
            DeltaError::SizeMismatch { expected, actual } => {
                write!(f, "reconstructed {actual} bytes, expected {expected}")
            }
            DeltaError::ChecksumMismatch { expected, actual } => {
                write!(f, "reconstructed checksum {actual:#018x}, expected {expected:#018x}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// One edit operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes from `base_offset` in the base version.
    Copy {
        /// Offset into the base version.
        base_offset: usize,
        /// Byte count.
        len: usize,
    },
    /// Insert literal bytes.
    Insert(Bytes),
}

/// An edit script from one version to another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Version the delta applies on top of.
    pub base_version: u64,
    /// Version the delta produces.
    pub target_version: u64,
    /// Size of the target, for integrity checking.
    pub target_len: usize,
    /// Content hash of the target, for end-to-end integrity checking.
    pub target_checksum: u64,
    /// The edit script.
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    /// Wire size: op headers (9 bytes each — 1 tag + 8 length/offset words
    /// in the compact encoding we model) plus literal bytes.
    pub fn wire_size(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Copy { .. } => 9,
                DeltaOp::Insert(b) => 9 + b.len(),
            })
            .sum::<usize>()
            + 32 // versions + target_len + target_checksum header
    }

    /// Number of literal (inserted) bytes.
    pub fn literal_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert(b) => b.len(),
                _ => 0,
            })
            .sum()
    }
}

/// Encoder/decoder for deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaCodec;

/// Content hash (FNV-1a) used for end-to-end payload integrity: recorded at
/// encode/push time, verified after reconstruction/receipt.
pub fn content_hash(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Multiplier of the window hash, a polynomial over the window's bytes
/// (mod 2^64). The hash only picks candidates: every candidate is checked
/// byte by byte, so collisions cost time, never correctness.
const ROLL_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// `ROLL_MUL^(BLOCK-1)`: the weight of the byte leaving the window.
const ROLL_OUT: u64 = ROLL_MUL.wrapping_pow(BLOCK as u32 - 1);

/// The window hash of `block`, computed in full: O(`BLOCK`).
fn window_hash(block: &[u8]) -> u64 {
    block.iter().fold(0, |h, &b| h.wrapping_mul(ROLL_MUL).wrapping_add(u64::from(b)))
}

/// The window hash slid one byte forward: `out` leaves, `inn` enters. O(1).
fn roll(h: u64, out: u8, inn: u8) -> u64 {
    h.wrapping_sub(u64::from(out).wrapping_mul(ROLL_OUT))
        .wrapping_mul(ROLL_MUL)
        .wrapping_add(u64::from(inn))
}

impl DeltaCodec {
    /// Computes the delta turning `base` into `target`.
    ///
    /// The target is scanned with a rolling window hash (as in rsync): it
    /// costs O(`BLOCK`) after each copy and O(1) per unmatched byte. The
    /// script depends only on which base blocks are byte-equal to the
    /// window, never on the hash: at each offset the first such block in
    /// base order wins and is extended forward greedily.
    pub fn encode(base: &[u8], target: &[u8], base_version: u64, target_version: u64) -> Delta {
        // index base blocks by (hash, offset): the candidates for a hash
        // are one run of the sorted index, in base order
        let mut index: Vec<(u64, usize)> = base
            .chunks_exact(BLOCK)
            .enumerate()
            .map(|(k, block)| (window_hash(block), k * BLOCK))
            .collect();
        index.sort_unstable();
        let mut ops: Vec<DeltaOp> = Vec::new();
        let mut pending: Vec<u8> = Vec::new();
        let mut i = 0;
        // hash of target[i..i + BLOCK], carried over from the last slide
        let mut rolled: Option<u64> = None;
        while i < target.len() {
            if i + BLOCK <= target.len() {
                let window = &target[i..i + BLOCK];
                let h = rolled.unwrap_or_else(|| window_hash(window));
                let first = index.partition_point(|&(bh, _)| bh < h);
                let cand = index[first..]
                    .iter()
                    .take_while(|&&(bh, _)| bh == h)
                    .map(|&(_, c)| c)
                    .find(|&c| base[c..c + BLOCK] == *window);
                if let Some(cand) = cand {
                    // extend the match forward
                    let len = BLOCK
                        + base[cand + BLOCK..]
                            .iter()
                            .zip(&target[i + BLOCK..])
                            .take_while(|(b, t)| b == t)
                            .count();
                    if !pending.is_empty() {
                        ops.push(DeltaOp::Insert(Bytes::from(std::mem::take(&mut pending))));
                    }
                    match ops.last_mut() {
                        // merge with a preceding contiguous copy
                        Some(DeltaOp::Copy { base_offset, len: plen })
                            if *base_offset + *plen == cand =>
                        {
                            *plen += len;
                        }
                        _ => ops.push(DeltaOp::Copy { base_offset: cand, len }),
                    }
                    i += len;
                    rolled = None;
                    continue;
                }
                rolled = target.get(i + BLOCK).map(|&inn| roll(h, target[i], inn));
            }
            pending.push(target[i]);
            i += 1;
        }
        if !pending.is_empty() {
            ops.push(DeltaOp::Insert(Bytes::from(pending)));
        }
        Delta {
            base_version,
            target_version,
            target_len: target.len(),
            target_checksum: content_hash(target),
            ops,
        }
    }

    /// Applies `delta` to `base`, reconstructing the target bytes. Every op
    /// is checked and the output sized before anything is allocated, so a
    /// corrupt script errors instead of panicking.
    ///
    /// # Errors
    ///
    /// [`DeltaError::CopyOutOfRange`] for corrupt scripts;
    /// [`DeltaError::SizeMismatch`] when the output size disagrees;
    /// [`DeltaError::ChecksumMismatch`] when the output hashes differently
    /// from the checksum recorded at encode time.
    pub fn apply(base: &[u8], delta: &Delta) -> Result<Bytes, DeltaError> {
        let parts = delta
            .ops
            .iter()
            .map(|op| match op {
                DeltaOp::Copy { base_offset, len } => base_offset
                    .checked_add(*len)
                    .and_then(|end| base.get(*base_offset..end))
                    .ok_or(DeltaError::CopyOutOfRange {
                        offset: *base_offset,
                        len: *len,
                        base_len: base.len(),
                    }),
                DeltaOp::Insert(b) => Ok(&b[..]),
            })
            .collect::<Result<Vec<&[u8]>, _>>()?;
        let size = parts.iter().fold(0usize, |n, p| n.saturating_add(p.len()));
        if size != delta.target_len {
            return Err(DeltaError::SizeMismatch { expected: delta.target_len, actual: size });
        }
        let out = parts.concat();
        let actual = content_hash(&out);
        if actual != delta.target_checksum {
            return Err(DeltaError::ChecksumMismatch { expected: delta.target_checksum, actual });
        }
        Ok(Bytes::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(base: &[u8], target: &[u8]) -> Delta {
        let d = DeltaCodec::encode(base, target, 1, 2);
        let rebuilt = DeltaCodec::apply(base, &d).unwrap();
        assert_eq!(&rebuilt[..], target, "round-trip must reconstruct the target");
        d
    }

    #[test]
    fn identical_versions_tiny_delta() {
        let data = vec![7u8; 4096];
        let d = roundtrip(&data, &data);
        assert!(d.wire_size() < 64, "wire size {}", d.wire_size());
        assert_eq!(d.literal_bytes(), 0);
    }

    #[test]
    fn small_edit_small_delta() {
        let base: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        let mut target = base.clone();
        target[4000] ^= 0xFF;
        let d = roundtrip(&base, &target);
        assert!(
            d.wire_size() < base.len() / 10,
            "delta {} should be far below full {}",
            d.wire_size(),
            base.len()
        );
    }

    #[test]
    fn append_only_update() {
        let base: Vec<u8> = (0..4096).map(|i| (i % 199) as u8).collect();
        let mut target = base.clone();
        target.extend_from_slice(&[1, 2, 3, 4, 5]);
        let d = roundtrip(&base, &target);
        assert!(d.literal_bytes() <= 5 + BLOCK, "literals {}", d.literal_bytes());
    }

    #[test]
    fn insertion_in_middle_resynchronizes() {
        let base: Vec<u8> = (0..8192).map(|i| (i * 7 % 256) as u8).collect();
        let mut target = base[..2000].to_vec();
        target.extend_from_slice(b"NEW DATA IN THE MIDDLE");
        target.extend_from_slice(&base[2000..]);
        let d = roundtrip(&base, &target);
        // block hashing must resynchronize after the insert: literals stay
        // bounded by the insert plus two blocks of slack
        assert!(d.literal_bytes() < 22 + 2 * BLOCK, "literals {}", d.literal_bytes());
    }

    #[test]
    fn completely_different_is_all_literal() {
        let base = vec![0u8; 1000];
        let target = vec![255u8; 1000];
        let d = roundtrip(&base, &target);
        assert_eq!(d.literal_bytes(), 1000);
        assert!(d.wire_size() > 1000);
    }

    #[test]
    fn empty_base_and_empty_target() {
        let d = roundtrip(&[], b"hello world");
        assert_eq!(d.literal_bytes(), 11);
        roundtrip(b"hello world", &[]);
    }

    #[test]
    fn shuffled_blocks_still_copy() {
        // target reorders two halves of the base: both halves should copy
        let base: Vec<u8> = (0..4096).map(|i| (i % 241) as u8).collect();
        let mut target = base[2048..].to_vec();
        target.extend_from_slice(&base[..2048]);
        let d = roundtrip(&base, &target);
        assert!(d.literal_bytes() < 2 * BLOCK, "literals {}", d.literal_bytes());
    }

    #[test]
    fn corrupt_copy_rejected() {
        let delta = Delta {
            base_version: 1,
            target_version: 2,
            target_len: 10,
            target_checksum: 0,
            ops: vec![DeltaOp::Copy { base_offset: 100, len: 10 }],
        };
        assert!(matches!(
            DeltaCodec::apply(b"short", &delta),
            Err(DeltaError::CopyOutOfRange { .. })
        ));
    }

    #[test]
    fn size_mismatch_rejected() {
        let delta = Delta {
            base_version: 1,
            target_version: 2,
            target_len: 99,
            target_checksum: 0,
            ops: vec![DeltaOp::Insert(Bytes::from_static(b"abc"))],
        };
        assert!(matches!(DeltaCodec::apply(b"", &delta), Err(DeltaError::SizeMismatch { .. })));
    }

    #[test]
    fn copy_end_past_usize_max_rejected() {
        let delta = Delta {
            base_version: 1,
            target_version: 2,
            target_len: 2,
            target_checksum: 0,
            ops: vec![DeltaOp::Copy { base_offset: usize::MAX, len: 2 }],
        };
        assert_eq!(
            DeltaCodec::apply(b"base", &delta),
            Err(DeltaError::CopyOutOfRange { offset: usize::MAX, len: 2, base_len: 4 })
        );
    }

    #[test]
    fn huge_target_len_rejected_before_allocating() {
        let delta = Delta {
            base_version: 1,
            target_version: 2,
            target_len: usize::MAX,
            target_checksum: 0,
            ops: vec![DeltaOp::Copy { base_offset: 0, len: 4 }],
        };
        assert_eq!(
            DeltaCodec::apply(b"base", &delta),
            Err(DeltaError::SizeMismatch { expected: usize::MAX, actual: 4 })
        );
    }

    #[test]
    fn corrupted_literal_rejected_by_checksum() {
        let base: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let mut target = base.clone();
        target[512] ^= 0x01;
        let mut d = DeltaCodec::encode(&base, &target, 1, 2);
        // flip one bit in a literal in flight: size still matches, so only
        // the checksum catches it
        for op in &mut d.ops {
            if let DeltaOp::Insert(b) = op {
                let mut raw = b.to_vec();
                raw[0] ^= 0x80;
                *b = Bytes::from(raw);
                break;
            }
        }
        assert!(matches!(DeltaCodec::apply(&base, &d), Err(DeltaError::ChecksumMismatch { .. })));
    }

    /// splitmix64: a tiny seeded generator, so the golden corpus never
    /// depends on another crate's random streams.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_bytes(state: &mut u64, n: usize, alphabet: u64) -> Vec<u8> {
        (0..n).map(|_| (next(state) % alphabet) as u8).collect()
    }

    /// Runs of random length over a 2-symbol alphabet: long stretches of
    /// equal 64-byte base blocks, so which candidate wins matters.
    fn runs(state: &mut u64, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let sym = b'a' + (next(state) % 2) as u8;
            let len = 1 + (next(state) % 96) as usize;
            out.extend(std::iter::repeat_n(sym, len.min(n - out.len())));
        }
        out
    }

    /// (base, target) pairs covering unrelated, identical, region-rewrite,
    /// insertion, deletion and rotation updates, over full-byte, 4-symbol
    /// and 2-symbol alphabets.
    fn golden_corpus() -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut s = 0x00c0_da5e_ed00_0001u64;
        let mut pairs = Vec::new();
        for &n in &[0usize, 1, 63, 64, 65, 200, 256, 1000, 4096] {
            for &alphabet in &[256u64, 4, 2] {
                let base = random_bytes(&mut s, n, alphabet);
                pairs.push((base.clone(), random_bytes(&mut s, n, alphabet)));
                pairs.push((base.clone(), base.clone()));
                if n == 0 {
                    continue;
                }
                // contiguous 1-5% region rewrite
                let mut rewrite = base.clone();
                let len = (n * (1 + (next(&mut s) % 5) as usize) / 100).max(1);
                let at = (next(&mut s) as usize) % (n - len + 1);
                rewrite[at..at + len].copy_from_slice(&random_bytes(&mut s, len, alphabet));
                pairs.push((base.clone(), rewrite));
                // insertion
                let at = (next(&mut s) as usize) % (n + 1);
                let mut inserted = base[..at].to_vec();
                let len = 1 + (next(&mut s) % 80) as usize;
                inserted.extend(random_bytes(&mut s, len, alphabet));
                inserted.extend_from_slice(&base[at..]);
                pairs.push((base.clone(), inserted));
                // deletion
                let at = (next(&mut s) as usize) % n;
                let len = 1 + (next(&mut s) as usize) % (n - at);
                let mut deleted = base[..at].to_vec();
                deleted.extend_from_slice(&base[at + len..]);
                pairs.push((base.clone(), deleted));
                // rotation
                let mut rotated = base.clone();
                rotated.rotate_left((next(&mut s) as usize) % n);
                pairs.push((base, rotated));
            }
        }
        for &n in &[64usize, 300, 1024, 4096] {
            let base = runs(&mut s, n);
            pairs.push((base.clone(), runs(&mut s, n)));
            let mut rotated = base.clone();
            rotated.rotate_left((next(&mut s) as usize) % n);
            pairs.push((base.clone(), rotated));
            let len = 1 + (next(&mut s) % 64) as usize;
            let mut shifted = runs(&mut s, len);
            shifted.extend_from_slice(&base);
            pairs.push((base, shifted));
        }
        pairs
    }

    /// One FNV digest over every script of the golden corpus: ops, offsets,
    /// lengths, literal bytes, header fields and wire size.
    fn script_digest(pairs: &[(Vec<u8>, Vec<u8>)]) -> u64 {
        let mut wire = Vec::new();
        for (i, (base, target)) in pairs.iter().enumerate() {
            let d = DeltaCodec::encode(base, target, i as u64, i as u64 + 1);
            assert_eq!(&DeltaCodec::apply(base, &d).unwrap()[..], &target[..], "pair {i}");
            for word in [d.base_version, d.target_version, d.target_len as u64, d.target_checksum] {
                wire.extend_from_slice(&word.to_le_bytes());
            }
            for op in &d.ops {
                match op {
                    DeltaOp::Copy { base_offset, len } => {
                        wire.push(0);
                        wire.extend_from_slice(&(*base_offset as u64).to_le_bytes());
                        wire.extend_from_slice(&(*len as u64).to_le_bytes());
                    }
                    DeltaOp::Insert(b) => {
                        wire.push(1);
                        wire.extend_from_slice(&(b.len() as u64).to_le_bytes());
                        wire.extend_from_slice(b);
                    }
                }
            }
            wire.extend_from_slice(&(d.wire_size() as u64).to_le_bytes());
        }
        content_hash(&wire)
    }

    /// Pins every script the encoder emits: the digest was recorded with the
    /// original encoder, which rehashed the whole window at every offset. An
    /// encoder change that alters any op, offset or literal fails here.
    #[test]
    fn golden_scripts_are_unchanged() {
        let pairs = golden_corpus();
        assert_eq!(pairs.len(), 162);
        assert_eq!(script_digest(&pairs), 0x3a5f_01ef_ea96_deb4, "delta scripts changed");
    }

    #[test]
    fn wire_size_accounts_headers_and_literals() {
        let d = Delta {
            base_version: 1,
            target_version: 2,
            target_len: 8,
            target_checksum: 0,
            ops: vec![
                DeltaOp::Copy { base_offset: 0, len: 5 },
                DeltaOp::Insert(Bytes::from_static(b"abc")),
            ],
        };
        assert_eq!(d.wire_size(), 9 + (9 + 3) + 32);
    }
}
