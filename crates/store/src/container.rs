//! The `DEESTOR1` chunked container format.
//!
//! A container wraps an arbitrary payload byte stream (here: a `DEETRC1`
//! trace) in checksummed, independently-decodable chunks:
//!
//! ```text
//! header  : magic "DEESTOR1" | u32 container version | u32 trace format
//!           version | u32 chunk size | u32 reserved (0)        (24 bytes)
//! chunk   : u8 tag (1) | u32 raw len | u32 enc len | u8 encoding
//!           (0 = raw, 1 = LZ) | u64 checksum of RAW bytes | enc bytes
//! footer  : u8 tag (0) | body | u64 body checksum | u64 footer offset
//!           | magic "DEESEND1"
//! body    : u64 chunk count | per chunk { u64 offset, u32 raw len,
//!           u32 enc len } | u64 total raw len
//! ```
//!
//! Design notes:
//!
//! * **Streaming first.** The tag byte before every frame lets a plain
//!   `Read` consumer walk the file without seeking; the footer index at
//!   the end lets a seeking consumer (`dee trace info`) read metadata
//!   without touching the payload.
//! * **Checksums cover the raw bytes**, not the encoded bytes, so a
//!   decoder bug and disk corruption are caught by the same check.
//! * **Bounded allocation.** Declared lengths are validated against
//!   [`MAX_CHUNK_SIZE`] before any buffer is sized from them; a hostile
//!   header cannot force a huge reservation.
//! * **The reader is fail-closed.** Every deviation — bad magic, bad
//!   checksum, truncated frame, trailing bytes, a footer that disagrees
//!   with the chunks actually seen — is `ErrorKind::InvalidData`, which
//!   the store layer maps to quarantine-and-fall-back.

use std::io::{self, Read, Seek, SeekFrom, Write};

use dee_vm::frame::{checksum64, put_u32, put_u64, Cursor};

use crate::compress;

/// Leading magic of every container file.
pub const CONTAINER_MAGIC: &[u8; 8] = b"DEESTOR1";
/// Trailing magic; its absence means a torn or truncated write.
pub const END_MAGIC: &[u8; 8] = b"DEESEND1";
/// Version of the container layout itself (independent of the trace
/// format version it carries).
pub const CONTAINER_VERSION: u32 = 1;
/// Default payload bytes per chunk.
pub const DEFAULT_CHUNK_SIZE: u32 = 256 * 1024;
/// Upper bound accepted for the header's chunk size and any declared
/// chunk length — the allocation cap for hostile inputs.
pub const MAX_CHUNK_SIZE: u32 = 8 * 1024 * 1024;

const TAG_CHUNK: u8 = 1;
const TAG_FOOTER: u8 = 0;
const ENC_RAW: u8 = 0;
const ENC_LZ: u8 = 1;
/// header magic + 3 × u32 + reserved u32.
const HEADER_BYTES: u64 = 24;
/// body checksum + footer offset + end magic.
const TRAILER_BYTES: u64 = 24;

fn invalid(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

/// The reader is fail-closed: running out of bytes mid-frame IS
/// corruption (a torn or truncated file), so it surfaces as
/// `InvalidData` like every other detection, and the store quarantines
/// it the same way.
fn eof_is_corrupt(e: io::Error, what: &str) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        invalid(format!("container truncated in {what}"))
    } else {
        e
    }
}

/// Everything the header declares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContainerHeader {
    /// Container layout version (must equal [`CONTAINER_VERSION`]).
    pub container_version: u32,
    /// Version of the wrapped trace format.
    pub trace_format_version: u32,
    /// Payload bytes per full chunk.
    pub chunk_size: u32,
}

/// One chunk's entry in the footer index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkEntry {
    /// File offset of the chunk's tag byte.
    pub offset: u64,
    /// Payload bytes the chunk decodes to.
    pub raw_len: u32,
    /// Bytes the chunk occupies on disk (after encoding).
    pub enc_len: u32,
}

/// Footer metadata, as read back by [`read_info`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainerInfo {
    /// The header fields.
    pub header: ContainerHeader,
    /// Per-chunk index.
    pub chunks: Vec<ChunkEntry>,
    /// Total payload bytes across all chunks.
    pub total_raw: u64,
    /// Total file length in bytes.
    pub file_len: u64,
}

impl ContainerInfo {
    /// Total encoded payload bytes (excluding framing).
    #[must_use]
    pub fn total_encoded(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.enc_len)).sum()
    }
}

fn write_header(
    sink: &mut impl Write,
    trace_format_version: u32,
    chunk_size: u32,
) -> io::Result<()> {
    sink.write_all(CONTAINER_MAGIC)?;
    sink.write_all(&CONTAINER_VERSION.to_le_bytes())?;
    sink.write_all(&trace_format_version.to_le_bytes())?;
    sink.write_all(&chunk_size.to_le_bytes())?;
    sink.write_all(&0u32.to_le_bytes())?;
    Ok(())
}

fn read_header(source: &mut impl Read) -> io::Result<ContainerHeader> {
    let mut header = [0u8; HEADER_BYTES as usize];
    source.read_exact(&mut header)?;
    let mut cur = Cursor::new(&header);
    if cur.take(8)? != CONTAINER_MAGIC {
        return Err(invalid("bad container magic"));
    }
    let container_version = cur.u32()?;
    if container_version != CONTAINER_VERSION {
        return Err(invalid(format!(
            "unsupported container version {container_version} (expected {CONTAINER_VERSION})"
        )));
    }
    let trace_format_version = cur.u32()?;
    let chunk_size = cur.u32()?;
    if chunk_size == 0 || chunk_size > MAX_CHUNK_SIZE {
        return Err(invalid(format!("chunk size {chunk_size} out of range")));
    }
    if cur.u32()? != 0 {
        return Err(invalid("reserved header field is nonzero"));
    }
    Ok(ContainerHeader {
        container_version,
        trace_format_version,
        chunk_size,
    })
}

fn footer_body(chunks: &[ChunkEntry], total_raw: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + chunks.len() * 16 + 8);
    put_u64(&mut body, chunks.len() as u64);
    for chunk in chunks {
        put_u64(&mut body, chunk.offset);
        put_u32(&mut body, chunk.raw_len);
        put_u32(&mut body, chunk.enc_len);
    }
    put_u64(&mut body, total_raw);
    body
}

/// A `Write` adapter that chunks, compresses, checksums, and indexes the
/// payload stream. [`finish`](ContainerWriter::finish) MUST be called —
/// dropping the writer without it leaves the container truncated (which
/// the reader will reject, so a torn write is detected, not silently
/// half-read).
pub struct ContainerWriter<W: Write> {
    sink: W,
    pending: Vec<u8>,
    chunk_size: usize,
    offset: u64,
    chunks: Vec<ChunkEntry>,
    total_raw: u64,
}

impl<W: Write> ContainerWriter<W> {
    /// Starts a container, writing the header immediately.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn new(sink: W, trace_format_version: u32) -> io::Result<Self> {
        Self::with_chunk_size(sink, trace_format_version, DEFAULT_CHUNK_SIZE)
    }

    /// Starts a container with an explicit chunk size (clamped into
    /// `1..=MAX_CHUNK_SIZE`).
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn with_chunk_size(
        mut sink: W,
        trace_format_version: u32,
        chunk_size: u32,
    ) -> io::Result<Self> {
        let chunk_size = chunk_size.clamp(1, MAX_CHUNK_SIZE);
        write_header(&mut sink, trace_format_version, chunk_size)?;
        Ok(ContainerWriter {
            sink,
            pending: Vec::with_capacity(chunk_size as usize),
            chunk_size: chunk_size as usize,
            offset: HEADER_BYTES,
            chunks: Vec::new(),
            total_raw: 0,
        })
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let raw = std::mem::take(&mut self.pending);
        let checksum = checksum64(&raw);
        let compressed = compress::compress(&raw);
        let (encoding, payload): (u8, &[u8]) = if compressed.len() < raw.len() {
            (ENC_LZ, &compressed)
        } else {
            (ENC_RAW, &raw)
        };
        self.sink.write_all(&[TAG_CHUNK])?;
        self.sink.write_all(&(raw.len() as u32).to_le_bytes())?;
        self.sink.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.sink.write_all(&[encoding])?;
        self.sink.write_all(&checksum.to_le_bytes())?;
        self.sink.write_all(payload)?;
        self.chunks.push(ChunkEntry {
            offset: self.offset,
            raw_len: raw.len() as u32,
            enc_len: payload.len() as u32,
        });
        // tag + raw_len + enc_len + encoding + checksum + payload
        self.offset += 1 + 4 + 4 + 1 + 8 + payload.len() as u64;
        self.total_raw += raw.len() as u64;
        self.pending = raw;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final partial chunk and writes the footer; returns the
    /// underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_chunk()?;
        let body = footer_body(&self.chunks, self.total_raw);
        self.sink.write_all(&[TAG_FOOTER])?;
        self.sink.write_all(&body)?;
        self.sink.write_all(&checksum64(&body).to_le_bytes())?;
        self.sink.write_all(&self.offset.to_le_bytes())?;
        self.sink.write_all(END_MAGIC)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

impl<W: Write> Write for ContainerWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut remaining = buf;
        while !remaining.is_empty() {
            let space = self.chunk_size - self.pending.len();
            let take = space.min(remaining.len());
            self.pending.extend_from_slice(&remaining[..take]);
            remaining = &remaining[take..];
            if self.pending.len() == self.chunk_size {
                self.flush_chunk()?;
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Deliberately does NOT cut a chunk: chunk boundaries are a
        // function of the payload alone, keeping container bytes
        // deterministic regardless of the caller's flush pattern.
        Ok(())
    }
}

/// A `Read` adapter that streams the payload back out of a container,
/// verifying every chunk checksum on the way and the footer at the end.
///
/// `read` returns `Ok(0)` only after the footer and trailing magic have
/// been verified and the underlying stream is exhausted — a consumer that
/// reads to EOF has therefore verified the whole file.
pub struct ContainerReader<R: Read> {
    source: R,
    header: ContainerHeader,
    current: Vec<u8>,
    position: usize,
    offset: u64,
    seen: Vec<ChunkEntry>,
    total_raw: u64,
    finished: bool,
}

impl<R: Read> ContainerReader<R> {
    /// Opens a container, reading and validating the header.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic/version/chunk size; transport errors
    /// pass through.
    pub fn new(mut source: R) -> io::Result<Self> {
        let header = read_header(&mut source).map_err(|e| eof_is_corrupt(e, "header"))?;
        Ok(ContainerReader {
            source,
            header,
            current: Vec::new(),
            position: 0,
            offset: HEADER_BYTES,
            seen: Vec::new(),
            total_raw: 0,
            finished: false,
        })
    }

    /// The validated header.
    #[must_use]
    pub fn header(&self) -> &ContainerHeader {
        &self.header
    }

    /// Loads and verifies the next frame. Returns `false` once the footer
    /// has been verified (payload exhausted).
    fn refill(&mut self) -> io::Result<bool> {
        if self.finished {
            return Ok(false);
        }
        let mut tag = [0u8; 1];
        self.source
            .read_exact(&mut tag)
            .map_err(|e| eof_is_corrupt(e, "frame tag (footer missing)"))?;
        match tag[0] {
            TAG_CHUNK => {
                // raw_len(4) enc_len(4) encoding(1) checksum(8).
                let mut head = [0u8; 17];
                self.source
                    .read_exact(&mut head)
                    .map_err(|e| eof_is_corrupt(e, "chunk header"))?;
                let mut cur = Cursor::new(&head);
                let raw_len = cur.u32()?;
                let enc_len = cur.u32()?;
                let encoding = cur.u8()?;
                let declared = cur.u64()?;
                if raw_len == 0 || raw_len > self.header.chunk_size {
                    return Err(invalid(format!("chunk raw length {raw_len} out of range")));
                }
                if enc_len == 0 || enc_len > raw_len {
                    // The writer stores incompressible chunks raw, so a
                    // valid encoded length never exceeds the raw length.
                    return Err(invalid(format!(
                        "chunk encoded length {enc_len} out of range"
                    )));
                }
                let mut encoded = vec![0u8; enc_len as usize];
                self.source
                    .read_exact(&mut encoded)
                    .map_err(|e| eof_is_corrupt(e, "chunk payload"))?;
                let raw = match encoding {
                    ENC_RAW => {
                        if enc_len != raw_len {
                            return Err(invalid("raw-encoded chunk with mismatched lengths"));
                        }
                        encoded
                    }
                    ENC_LZ => compress::decompress(&encoded, raw_len as usize)
                        .map_err(|e| invalid(format!("chunk decompression failed: {e}")))?,
                    other => return Err(invalid(format!("unknown chunk encoding {other}"))),
                };
                if checksum64(&raw) != declared {
                    return Err(invalid(format!(
                        "chunk {} checksum mismatch",
                        self.seen.len()
                    )));
                }
                self.seen.push(ChunkEntry {
                    offset: self.offset,
                    raw_len,
                    enc_len,
                });
                self.offset += 1 + 4 + 4 + 1 + 8 + u64::from(enc_len);
                self.total_raw += u64::from(raw_len);
                self.current = raw;
                self.position = 0;
                Ok(true)
            }
            TAG_FOOTER => {
                self.verify_footer()?;
                self.finished = true;
                Ok(false)
            }
            other => Err(invalid(format!("unknown frame tag {other}"))),
        }
    }

    fn verify_footer(&mut self) -> io::Result<()> {
        let footer_offset = self.offset;
        let expected_body = footer_body(&self.seen, self.total_raw);
        let mut body = vec![0u8; expected_body.len()];
        self.source
            .read_exact(&mut body)
            .map_err(|e| eof_is_corrupt(e, "footer body"))?;
        if body != expected_body {
            return Err(invalid("footer index disagrees with the chunks read"));
        }
        let mut trailer = [0u8; TRAILER_BYTES as usize];
        self.source
            .read_exact(&mut trailer)
            .map_err(|e| eof_is_corrupt(e, "footer trailer"))?;
        let mut cur = Cursor::new(&trailer);
        if cur.u64()? != checksum64(&body) {
            return Err(invalid("footer checksum mismatch"));
        }
        if cur.u64()? != footer_offset {
            return Err(invalid("footer offset mismatch"));
        }
        if cur.take(8)? != END_MAGIC {
            return Err(invalid("bad end magic"));
        }
        let mut probe = [0u8; 1];
        loop {
            match self.source.read(&mut probe) {
                Ok(0) => return Ok(()),
                Ok(_) => return Err(invalid("trailing bytes after container end")),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl<R: Read> Read for ContainerReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while self.position == self.current.len() {
            if !self.refill()? {
                return Ok(0);
            }
        }
        let n = buf.len().min(self.current.len() - self.position);
        buf[..n].copy_from_slice(&self.current[self.position..self.position + n]);
        self.position += n;
        Ok(n)
    }
}

/// Reads container metadata via the footer index without touching the
/// payload (requires a seekable source; `dee trace info` uses this).
///
/// # Errors
///
/// `InvalidData` when the trailer, footer, or header is malformed.
pub fn read_info<R: Read + Seek>(mut source: R) -> io::Result<ContainerInfo> {
    let file_len = source.seek(SeekFrom::End(0))?;
    // Smallest possible container: header + footer with zero chunks.
    if file_len < HEADER_BYTES + 1 + 16 + TRAILER_BYTES {
        return Err(invalid("file too short to be a container"));
    }
    source.seek(SeekFrom::Start(0))?;
    let header = read_header(&mut source)?;
    source.seek(SeekFrom::Start(file_len - TRAILER_BYTES))?;
    let mut trailer = [0u8; TRAILER_BYTES as usize];
    source.read_exact(&mut trailer)?;
    let mut cur = Cursor::new(&trailer);
    let body_checksum = cur.u64()?;
    let footer_offset = cur.u64()?;
    if cur.take(8)? != END_MAGIC {
        return Err(invalid("bad end magic"));
    }
    // Room for at least the chunk count and the total length.
    let body_len = (file_len - TRAILER_BYTES)
        .checked_sub(footer_offset.saturating_add(1))
        .filter(|&len| footer_offset >= HEADER_BYTES && len >= 16)
        .ok_or_else(|| invalid("footer offset out of range"))?;
    source.seek(SeekFrom::Start(footer_offset))?;
    let mut tag = [0u8; 1];
    source.read_exact(&mut tag)?;
    if tag[0] != TAG_FOOTER {
        return Err(invalid("footer offset does not point at a footer"));
    }
    let mut body = vec![0u8; body_len as usize];
    source.read_exact(&mut body)?;
    if checksum64(&body) != body_checksum {
        return Err(invalid("footer checksum mismatch"));
    }
    let mut cur = Cursor::new(&body);
    let chunk_count = cur.u64()?;
    if chunk_count.checked_mul(16).and_then(|n| n.checked_add(16)) != Some(body_len) {
        return Err(invalid("footer body length disagrees with chunk count"));
    }
    let mut chunks = Vec::with_capacity(chunk_count.min(1 << 16) as usize);
    for _ in 0..chunk_count {
        chunks.push(ChunkEntry {
            offset: cur.u64()?,
            raw_len: cur.u32()?,
            enc_len: cur.u32()?,
        });
    }
    let total_raw = cur.u64()?;
    cur.finish()?;
    Ok(ContainerInfo {
        header,
        chunks,
        total_raw,
        file_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 31 + i / 7) % 251) as u8).collect()
    }

    fn build(bytes: &[u8], chunk_size: u32) -> Vec<u8> {
        let mut writer =
            ContainerWriter::with_chunk_size(Vec::new(), 1, chunk_size).expect("header");
        writer.write_all(bytes).expect("payload");
        writer.finish().expect("footer")
    }

    fn read_all(container: &[u8]) -> io::Result<Vec<u8>> {
        let mut reader = ContainerReader::new(container)?;
        let mut out = Vec::new();
        reader.read_to_end(&mut out)?;
        Ok(out)
    }

    #[test]
    fn round_trip_across_chunk_sizes() {
        let raw = payload(10_000);
        for chunk_size in [1u32, 7, 64, 4_096, 1 << 20] {
            let container = build(&raw, chunk_size);
            assert_eq!(read_all(&container).expect("round trip"), raw);
        }
    }

    #[test]
    fn empty_payload_round_trips() {
        let container = build(&[], 4_096);
        assert_eq!(read_all(&container).expect("round trip"), Vec::<u8>::new());
    }

    #[test]
    fn container_bytes_are_deterministic() {
        let raw = payload(50_000);
        assert_eq!(build(&raw, 4_096), build(&raw, 4_096));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let raw = payload(2_000);
        let container = build(&raw, 512);
        for cut in 0..container.len() {
            let err = read_all(&container[..cut]).expect_err("truncation must fail");
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected_or_detected() {
        // Flip each byte in turn: the read must either fail or still
        // yield the exact original payload (some header bytes — e.g. the
        // reserved field — are checked directly; none may corrupt data).
        let raw = payload(1_500);
        let container = build(&raw, 256);
        let mut tampered = container.clone();
        for i in 0..container.len() {
            tampered[i] ^= 0x5A;
            match read_all(&tampered) {
                Ok(decoded) => assert_eq!(decoded, raw, "silent corruption at byte {i}"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "byte {i}: {e}"),
            }
            tampered[i] = container[i];
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut container = build(&payload(100), 64);
        container.push(0);
        let err = read_all(&container).expect_err("trailing byte");
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn info_reads_footer_without_payload_scan() {
        let raw = payload(10_000);
        let container = build(&raw, 1_024);
        let info = read_info(Cursor::new(&container)).expect("info");
        assert_eq!(info.header.trace_format_version, 1);
        assert_eq!(info.header.chunk_size, 1_024);
        assert_eq!(info.chunks.len(), 10);
        assert_eq!(info.total_raw, 10_000);
        assert_eq!(info.file_len, container.len() as u64);
        assert!(info.total_encoded() > 0);
    }

    #[test]
    fn info_rejects_torn_files() {
        let raw = payload(3_000);
        let container = build(&raw, 512);
        for cut in [0, 10, container.len() / 2, container.len() - 1] {
            assert!(
                read_info(Cursor::new(&container[..cut])).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn info_rejects_hostile_footer_fields_without_overflow() {
        let container = build(&payload(3_000), 512);
        let (len, at) = (container.len(), container.len() - 16);
        for offset in [u64::MAX, u64::MAX - 3, 0, 23] {
            let mut bad = container.clone();
            bad[at..at + 8].copy_from_slice(&offset.to_le_bytes());
            assert!(read_info(Cursor::new(&bad)).is_err(), "offset {offset}");
        }
        // A chunk count whose byte size overflows, under a valid checksum.
        let footer = u64::from_le_bytes(container[at..at + 8].try_into().unwrap()) as usize;
        let mut bad = container.clone();
        bad[footer + 1..footer + 9].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let sum = checksum64(&bad[footer + 1..len - 24]);
        bad[len - 24..len - 16].copy_from_slice(&sum.to_le_bytes());
        assert!(read_info(Cursor::new(&bad)).is_err());
    }

    #[test]
    fn hostile_chunk_lengths_do_not_allocate() {
        // A forged header claiming max chunk size plus a chunk claiming
        // a huge encoded length must fail on the length check (enc > raw)
        // or on truncation — never by reserving the claimed bytes.
        let mut forged = Vec::new();
        forged.extend_from_slice(CONTAINER_MAGIC);
        forged.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        forged.extend_from_slice(&1u32.to_le_bytes());
        forged.extend_from_slice(&MAX_CHUNK_SIZE.to_le_bytes());
        forged.extend_from_slice(&0u32.to_le_bytes());
        forged.push(1); // chunk tag
        forged.extend_from_slice(&MAX_CHUNK_SIZE.to_le_bytes()); // raw_len
        forged.extend_from_slice(&MAX_CHUNK_SIZE.to_le_bytes()); // enc_len
        forged.push(0); // raw encoding
        forged.extend_from_slice(&0u64.to_le_bytes()); // checksum
                                                       // No payload bytes at all.
        let err = read_all(&forged).expect_err("forged chunk");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // And a chunk size beyond the cap is rejected at the header.
        let mut oversized = forged.clone();
        oversized[16..20].copy_from_slice(&(MAX_CHUNK_SIZE + 1).to_le_bytes());
        assert!(read_all(&oversized).is_err());
    }
}
