//! Artifact framing: the one place that hashes artifacts, frames them
//! and reads their bytes (DESIGN.md §2, *Artifact framing*).
//!
//! [`checksum64`] is the corruption detector every checksummed format
//! uses; [`fnv1a`] is the stable content digest behind artifact keys,
//! cache keys, output checksums, state digests and generator specs.
//! [`seal`]/[`open`] frame a whole file as `magic ‖ body ‖
//! checksum64(magic ‖ body)` (`DEESNAP1`, `DEEPLAN1`), and [`Cursor`]
//! reads a body's little-endian fields, failing closed with a
//! [`FrameError`] instead of panicking.

use std::fmt;

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;
const STEP_ADD: u64 = 0xC4CE_B9FE_1A85_EC53;

/// The splitmix64 finalizer: a fast full-avalanche bijection on `u64`.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// Checksums a byte slice. Stable across platforms and releases: the
/// on-disk format depends on it. Each 8-byte lane is avalanched by the
/// splitmix64 finalizer and folded into a rotating state, so byte order
/// and position both matter; the length seeds the state, so trailing
/// zero bytes change the sum. A corruption detector (bit rot,
/// truncation, torn writes), not a MAC.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut state = SEED ^ mix64(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for lane in &mut chunks {
        let word = u64::from_le_bytes(lane.try_into().expect("8 bytes"));
        state ^= mix64(word);
        state = state
            .rotate_left(27)
            .wrapping_mul(LANE_MUL)
            .wrapping_add(STEP_ADD);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        // Tag the tail with its length so "ab" + zero padding cannot
        // collide with a literal "ab\0...\0" lane.
        let word = u64::from_le_bytes(last) ^ ((tail.len() as u64) << 56);
        state ^= mix64(word);
        state = state
            .rotate_left(27)
            .wrapping_mul(LANE_MUL)
            .wrapping_add(STEP_ADD);
    }
    mix64(state)
}

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `hash` — tiny, dependency-free and
/// stable across runs and platforms.
#[inline]
#[must_use]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_BASIS, bytes)
}

/// FNV-1a over words, each little-endian: the digest of a memory image
/// or an output stream.
#[must_use]
pub fn fnv1a_words(words: &[i32]) -> u64 {
    words
        .iter()
        .fold(FNV1A_BASIS, |hash, w| fnv1a_extend(hash, &w.to_le_bytes()))
}

/// Frames `body` as `magic ‖ body ‖ checksum64(magic ‖ body)`.
#[must_use]
pub fn seal(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + body.len() + 8);
    out.extend_from_slice(magic);
    out.extend_from_slice(body);
    let sum = checksum64(&out);
    put_u64(&mut out, sum);
    out
}

/// Checks a [`seal`]ed frame — length, magic, then the checksum over
/// every preceding byte — and returns the body.
///
/// # Errors
///
/// [`FrameError::TooShort`], [`FrameError::BadMagic`] or
/// [`FrameError::ChecksumMismatch`].
pub fn open<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], FrameError> {
    if bytes.len() < magic.len() + 8 {
        return Err(FrameError::TooShort { len: bytes.len() });
    }
    let (framed, trailer) = bytes.split_at(bytes.len() - 8);
    if &framed[..magic.len()] != magic {
        return Err(FrameError::BadMagic);
    }
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    let actual = checksum64(framed);
    if stored != actual {
        return Err(FrameError::ChecksumMismatch { stored, actual });
    }
    Ok(&framed[magic.len()..])
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i32`.
pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a byte slice. Every read
/// past the end is [`FrameError::Truncated`].
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the first byte of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not read yet.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(FrameError::Truncated { at: self.pos })?;
        let run = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(run)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, FrameError> {
        self.array().map(i32::from_le_bytes)
    }

    /// Ends the read; unread bytes are [`FrameError::TrailingBytes`].
    pub fn finish(self) -> Result<(), FrameError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(FrameError::TrailingBytes { extra }),
        }
    }
}

/// A framing or layout failure in a checksummed artifact.
#[allow(missing_docs)] // The fields are named for what they hold.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// Fewer bytes than magic + checksum.
    TooShort { len: usize },
    /// The leading magic is not the expected one.
    BadMagic,
    /// The trailing checksum does not match the bytes before it.
    ChecksumMismatch { stored: u64, actual: u64 },
    /// The body ends mid-field, at body offset `at`.
    Truncated { at: usize },
    /// `extra` bytes remain after the last field.
    TrailingBytes { extra: usize },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FrameError::TooShort { len } => write!(f, "artifact too short: {len} bytes"),
            FrameError::BadMagic => write!(f, "bad artifact magic"),
            FrameError::ChecksumMismatch { stored, actual } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            ),
            FrameError::Truncated { at } => write!(f, "artifact truncated at body offset {at}"),
            FrameError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes in body"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A malformed artifact is corrupt data, whatever reader found it.
impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

impl From<FrameError> for String {
    fn from(e: FrameError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_reference_values() {
        // Pinned: these are part of the on-disk format. If this test
        // fails, every container and snapshot version must be bumped.
        let expected: [(usize, u64); 11] = [
            (0, 0x9ca0_66f1_a4ab_2eea),
            (1, 0x9bea_3996_d163_c809),
            (2, 0x3952_66dc_2bfa_296b),
            (3, 0x098b_930c_8eee_b97a),
            (4, 0x170b_566b_9ba9_0806),
            (5, 0xee21_7479_90c9_e0f6),
            (6, 0x7c46_b6ab_5996_6411),
            (7, 0xd705_7597_557b_b73f),
            (8, 0xe793_f656_5e3d_4819),
            (9, 0xce26_4d77_76e7_92ee),
            (256, 0x13b6_a1da_0e69_8e15),
        ];
        for (len, sum) in expected {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            assert_eq!(checksum64(&data), sum, "{len} bytes");
        }
        assert_ne!(checksum64(b"a"), checksum64(b"b"));
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
    }

    #[test]
    fn length_extension_with_zeros_changes_the_sum() {
        let base = checksum64(b"payload");
        assert_ne!(base, checksum64(b"payload\0"));
        assert_ne!(base, checksum64(b"payload\0\0\0\0\0\0\0\0"));
    }

    #[test]
    fn single_bit_flips_always_detected_on_a_window() {
        let data: Vec<u8> = (0u32..256).map(|i| (i * 7 + 13) as u8).collect();
        let reference = checksum64(&data);
        let mut flipped = data.clone();
        for byte in 0..data.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), reference, "byte {byte} bit {bit}");
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn position_matters() {
        // Same multiset of lanes in a different order must differ.
        let mut a = vec![0u8; 16];
        a[0] = 1;
        let mut b = vec![0u8; 16];
        b[8] = 1;
        assert_ne!(checksum64(&a), checksum64(&b));
    }

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_words(&[]), fnv1a(b""));
        assert_eq!(fnv1a_words(&[0x6261_6f66]), fnv1a(b"foab"));
        assert_ne!(fnv1a_words(&[1, 2]), fnv1a_words(&[2, 1]));
        assert_ne!(fnv1a_words(&[]), fnv1a_words(&[0]));
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn seal_open_round_trip_and_reject_bad_frames() {
        let framed = seal(b"TESTMAG1", b"body");
        let sum = checksum64(b"TESTMAG1body").to_le_bytes();
        assert_eq!(framed, [&b"TESTMAG1body"[..], &sum].concat());
        assert_eq!(open(b"TESTMAG1", &framed), Ok(&b"body"[..]));
        assert_eq!(open(b"TESTMAG1", &seal(b"TESTMAG1", b"")), Ok(&b""[..]));
        assert_eq!(
            open(b"TESTMAG1", &framed[..15]),
            Err(FrameError::TooShort { len: 15 })
        );
        assert_eq!(open(b"OTHERMAG", &framed), Err(FrameError::BadMagic));
        for i in 8..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x10;
            let err = open(b"TESTMAG1", &bad).unwrap_err();
            assert!(matches!(err, FrameError::ChecksumMismatch { .. }), "{i}");
        }
    }

    #[test]
    fn cursor_reads_little_endian_and_fails_closed() {
        let mut bytes = vec![7u8];
        put_u32(&mut bytes, 0x0102_0304);
        put_u64(&mut bytes, u64::MAX - 1);
        put_i32(&mut bytes, -5);
        let mut cur = Cursor::new(&bytes);
        assert_eq!((cur.u8(), cur.u32()), (Ok(7), Ok(0x0102_0304)));
        assert_eq!((cur.u64(), cur.i32()), (Ok(u64::MAX - 1), Ok(-5)));
        assert_eq!(cur.u8(), Err(FrameError::Truncated { at: 17 }));
        assert_eq!(cur.finish(), Ok(()));
        let mut cur = Cursor::new(&bytes[..3]);
        assert_eq!(cur.take(usize::MAX), Err(FrameError::Truncated { at: 0 }));
        assert_eq!((cur.take(2), cur.remaining()), (Ok(&bytes[..2]), 1));
        assert_eq!(cur.finish(), Err(FrameError::TrailingBytes { extra: 1 }));
    }
}
