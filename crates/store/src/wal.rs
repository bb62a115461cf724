//! The write-ahead log: durability for the delta memtable.
//!
//! One file (`lbr.wal`), append-only. Each **record** is one committed
//! update batch:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [op_count: u32 LE] then per op:
//!           [tag: u8 — 0 insert, 1 delete]
//!           [line_len: u32 LE][line: one N-Triples line, UTF-8]
//! ```
//!
//! Ops are **term-level and effective**: the store resolves `DELETE WHERE`
//! patterns and drops no-op inserts/deletes *before* logging, so replay is
//! deterministic and independent of query evaluation. Terms ride as
//! N-Triples text because the dictionary is rebuilt on compaction — raw
//! IDs would dangle.
//!
//! Group commit: a batch is one record and one `fsync` regardless of how
//! many ops it carries. Recovery reads records until the first short or
//! CRC-mismatching frame — a torn tail from a crash mid-append — and
//! truncates the file there, so the log always reopens to exactly the
//! committed prefix.
//!
//! ## Checkpoints
//!
//! Next to the log lives an optional **checkpoint** (`lbr.ckpt`): the
//! full merged view as of some commit, written atomically (temp file →
//! fsync → rename → directory fsync) by the store whenever it folds the
//! delta into fresh segments. After a checkpoint the WAL is truncated —
//! its records are folded into the image — so the log only ever holds
//! the updates since the last fold and reopen cost stops growing with
//! history. [`read_checkpoint`] loads the image; a present-but-corrupt
//! checkpoint is a hard error, because the atomic write protocol never
//! leaves a torn image behind (unlike the WAL's expected torn tail).

use lbr_bitmat::{disk, BitMatError, BitMatStore};
use lbr_rdf::{parse_ntriples, Dictionary, EncodedGraph, EncodedTriple, Triple};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The WAL file name inside a `wal_dir`.
pub const WAL_FILE: &str = "lbr.wal";

/// The checkpoint file name inside a `wal_dir`.
pub const CHECKPOINT_FILE: &str = "lbr.ckpt";

/// The compacted segment file a v2 checkpoint ships with: the BitMat
/// store of the checkpoint graph in `lbr_bitmat::disk` format, ready to
/// be `mmap`ed on reopen instead of rebuilt.
pub const SEGMENTS_FILE: &str = "lbr.seg";

/// Magic prefix of a v2 checkpoint frame. A v1 frame starts with its
/// payload length instead — `"LBRC"` as a little-endian length would be
/// a ~1.1 GB payload, and the CRC would reject it regardless, so the
/// two formats cannot be confused.
const CKPT_MAGIC_V2: &[u8; 8] = b"LBRCKPT2";

/// Fsyncs a directory, pinning entry creations and renames inside it to
/// disk — syncing a file's *data* alone does not make its *name*
/// durable, so a crash right after creating `lbr.wal` could otherwise
/// lose the whole file despite acknowledged commits.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// What one logged operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOpKind {
    /// Add the triple.
    Insert,
    /// Remove the triple.
    Delete,
}

/// One term-level operation of a committed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalOp {
    /// Insert or delete.
    pub kind: WalOpKind,
    /// The concrete triple (already resolved — never a pattern).
    pub triple: Triple,
}

/// The result of reading a WAL: the committed records plus how much of a
/// torn tail (if any) followed them.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Fully committed batches, oldest first.
    pub records: Vec<Vec<WalOp>>,
    /// Byte length of the valid prefix.
    pub valid_bytes: u64,
    /// Bytes of torn tail discarded after the valid prefix.
    pub truncated_bytes: u64,
}

/// The append-only log handle.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    sync: bool,
}

impl Wal {
    /// Opens (creating if absent) the log in `dir`, recovering the
    /// committed records and truncating any torn tail in place.
    pub fn open(dir: &Path) -> std::io::Result<(Wal, WalRecovery)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let recovery = decode(&bytes);
        if recovery.truncated_bytes > 0 {
            file.set_len(recovery.valid_bytes)?;
            file.sync_all()?;
        }
        // Make the file's *existence* durable too: without the directory
        // fsync a crash after the first acknowledged commit could lose
        // the just-created log file itself.
        sync_dir(dir)?;
        file.seek(SeekFrom::Start(recovery.valid_bytes))?;
        Ok((
            Wal {
                file,
                path,
                sync: true,
            },
            recovery,
        ))
    }

    /// Reads a WAL file without touching it (no truncation) — what the
    /// crash-recovery tests use to learn the committed prefix.
    pub fn inspect(dir: &Path) -> std::io::Result<WalRecovery> {
        let bytes = std::fs::read(dir.join(WAL_FILE))?;
        Ok(decode(&bytes))
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Disables the per-commit fsync (benchmarks; crash safety is then
    /// the file system's problem).
    pub fn set_sync(&mut self, sync: bool) {
        self.sync = sync;
    }

    /// Whether the per-commit fsync is enabled.
    pub fn is_sync(&self) -> bool {
        self.sync
    }

    /// Truncates the log to empty — called right after a checkpoint made
    /// every logged record redundant. The file itself stays (same
    /// inode), so no directory fsync is needed here.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()
    }

    /// Appends one committed batch as a single record, then fsyncs once
    /// (group commit: the batch shares that one fsync).
    pub fn append(&mut self, ops: &[WalOp]) -> std::io::Result<()> {
        let payload = encode_payload(ops);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        if self.sync {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

fn encode_payload(ops: &[WalOp]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        out.push(match op.kind {
            WalOpKind::Insert => 0,
            WalOpKind::Delete => 1,
        });
        let line = op.triple.to_string();
        out.extend_from_slice(&(line.len() as u32).to_le_bytes());
        out.extend_from_slice(line.as_bytes());
    }
    out
}

/// Decodes a WAL image into committed records plus the torn tail length.
/// Any malformed frame — short header, short payload, CRC mismatch, or a
/// payload that does not parse back into ops — ends the valid prefix.
pub fn decode(bytes: &[u8]) -> WalRecovery {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let len = le_u32(header, 0) as usize;
        let crc = le_u32(header, 4);
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Some(ops) = decode_payload(payload) else {
            break;
        };
        records.push(ops);
        pos += 8 + len;
    }
    WalRecovery {
        records,
        valid_bytes: pos as u64,
        truncated_bytes: (bytes.len() - pos) as u64,
    }
}

/// Reads the little-endian u32 at `at`; the caller has already
/// length-checked the slice, so this never sees fewer than 4 bytes.
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Reads the little-endian u64 at `at`; caller length-checked.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    (le_u32(bytes, at) as u64) | ((le_u32(bytes, at + 4) as u64) << 32)
}

fn decode_payload(payload: &[u8]) -> Option<Vec<WalOp>> {
    let count = u32::from_le_bytes(payload.get(0..4)?.try_into().ok()?) as usize;
    let mut pos = 4usize;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = match payload.get(pos)? {
            0 => WalOpKind::Insert,
            1 => WalOpKind::Delete,
            _ => return None,
        };
        pos += 1;
        let len = u32::from_le_bytes(payload.get(pos..pos + 4)?.try_into().ok()?) as usize;
        pos += 4;
        let line = std::str::from_utf8(payload.get(pos..pos + len)?).ok()?;
        pos += len;
        let mut triples = parse_ntriples(line).ok()?;
        if triples.len() != 1 {
            return None;
        }
        ops.push(WalOp {
            kind,
            triple: triples.pop()?,
        });
    }
    (pos == payload.len()).then_some(ops)
}

/// Writes `triples` as the checkpoint image of `dir`, atomically: the
/// frame goes to a temp file, is fsynced, renamed over
/// [`CHECKPOINT_FILE`], and the directory is fsynced so the rename
/// survives a crash. A reader sees either the old complete image or the
/// new one, never a torn mix. The frame is
/// `[payload_len: u32 LE][crc32(payload): u32 LE][payload]` with the
/// payload being the triples as N-Triples lines.
///
/// `sync` mirrors the WAL's group-commit fsync switch: benchmarks that
/// turned off per-commit syncing skip the checkpoint syncs too.
pub fn write_checkpoint(dir: &Path, triples: &[Triple], sync: bool) -> std::io::Result<()> {
    let mut payload = String::new();
    for t in triples {
        payload.push_str(&t.to_string());
        payload.push('\n');
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
    frame.extend_from_slice(payload.as_bytes());
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    let mut file = File::create(&tmp)?;
    file.write_all(&frame)?;
    if sync {
        file.sync_all()?;
    }
    drop(file);
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    if sync {
        sync_dir(dir)?;
    }
    Ok(())
}

/// How a v2 checkpoint pins the segment file it was written with: the
/// exact byte length plus a CRC of the header page. A crash between the
/// two renames of [`write_checkpoint_v2`] leaves image and segment file
/// from different checkpoints — the mismatch is detected here and the
/// opener falls back to rebuilding from the (always-authoritative)
/// checkpoint graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef {
    /// Byte length of `lbr.seg`.
    pub len: u64,
    /// CRC-32 of the segment file's first page (`min(4096, len)` bytes).
    pub head_crc: u32,
}

/// A decoded checkpoint: the graph it restores, and (v2 only) the
/// reference to the compacted segment file written alongside.
#[derive(Debug)]
pub struct CheckpointImage {
    /// Dictionary + encoded triples of the checkpointed merged view. A
    /// v1 checkpoint stores N-Triples text, so its graph is re-encoded
    /// here; a v2 checkpoint restores the exact dictionary the segments
    /// were built in.
    pub graph: EncodedGraph,
    /// The segment-file reference (v2 checkpoints only).
    pub segments: Option<SegmentRef>,
}

fn ckpt_corrupt(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("corrupt checkpoint: {what}"),
    )
}

/// Reads `dir`'s checkpoint as term-level triples. `Ok(None)` when no
/// checkpoint exists. A present-but-corrupt checkpoint is a hard error:
/// the atomic write protocol never leaves a torn image behind, so
/// corruption is real damage — silently falling back to the boot-time
/// source would undo every checkpointed update.
pub fn read_checkpoint(dir: &Path) -> std::io::Result<Option<Vec<Triple>>> {
    let Some(image) = read_checkpoint_image(dir)? else {
        return Ok(None);
    };
    let mut out = Vec::with_capacity(image.graph.triples.len());
    for e in &image.graph.triples {
        out.push(
            image
                .graph
                .dict
                .decode(e)
                .ok_or_else(|| ckpt_corrupt("triple ID outside the dictionary"))?,
        );
    }
    Ok(Some(out))
}

/// Reads `dir`'s checkpoint in full — graph plus, for a v2 checkpoint
/// frame, the segment-file reference. Same error contract as [`read_checkpoint`].
pub fn read_checkpoint_image(dir: &Path) -> std::io::Result<Option<CheckpointImage>> {
    let bytes = match std::fs::read(dir.join(CHECKPOINT_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let v2 = bytes.starts_with(CKPT_MAGIC_V2);
    let base = if v2 { CKPT_MAGIC_V2.len() } else { 0 };
    let header = bytes
        .get(base..base + 8)
        .ok_or_else(|| ckpt_corrupt("short header"))?;
    let len = le_u32(header, 0) as usize;
    let crc = le_u32(header, 4);
    let payload = bytes
        .get(base + 8..base + 8 + len)
        .ok_or_else(|| ckpt_corrupt("short payload"))?;
    if bytes.len() != base + 8 + len {
        return Err(ckpt_corrupt("trailing bytes"));
    }
    if crc32(payload) != crc {
        return Err(ckpt_corrupt("CRC mismatch"));
    }
    if v2 {
        decode_v2_payload(payload).map(Some)
    } else {
        let text =
            std::str::from_utf8(payload).map_err(|_| ckpt_corrupt("payload is not UTF-8"))?;
        let graph = EncodedGraph::from_ntriples(text)
            .map_err(|_| ckpt_corrupt("payload is not N-Triples"))?;
        Ok(Some(CheckpointImage {
            graph,
            segments: None,
        }))
    }
}

/// Decodes a v2 payload: `[seg_len u64][seg_head_crc u32]
/// [dict_len u64][dict bytes][n_triples u64][(s p o) u32×3 …]`.
fn decode_v2_payload(payload: &[u8]) -> std::io::Result<CheckpointImage> {
    let mut pos = 0usize;
    let mut take = |n: usize| -> std::io::Result<&[u8]> {
        let b = payload
            .get(pos..pos + n)
            .ok_or_else(|| ckpt_corrupt("short v2 payload"))?;
        pos += n;
        Ok(b)
    };
    let seg_len = le_u64(take(8)?, 0);
    let head_crc = le_u32(take(4)?, 0);
    let dict_len = le_u64(take(8)?, 0) as usize;
    let dict_bytes = take(dict_len)?;
    let dict = Dictionary::from_bytes(dict_bytes)
        .map_err(|e| ckpt_corrupt(&format!("dictionary: {e}")))?;
    let n_triples = le_u64(take(8)?, 0) as usize;
    if n_triples > payload.len() / 12 {
        return Err(ckpt_corrupt("triple count exceeds payload"));
    }
    let mut triples = Vec::with_capacity(n_triples);
    for _ in 0..n_triples {
        let b = take(12)?;
        let e = EncodedTriple {
            s: le_u32(b, 0),
            p: le_u32(b, 4),
            o: le_u32(b, 8),
        };
        if e.s >= dict.n_subjects() || e.p >= dict.n_predicates() || e.o >= dict.n_objects() {
            return Err(ckpt_corrupt("triple ID outside the dictionary"));
        }
        triples.push(e);
    }
    if pos != payload.len() {
        return Err(ckpt_corrupt("trailing v2 payload bytes"));
    }
    Ok(CheckpointImage {
        graph: EncodedGraph { dict, triples },
        segments: Some(SegmentRef {
            len: seg_len,
            head_crc,
        }),
    })
}

/// The segment file's header page: its first `min(4096, len)` bytes —
/// what [`SegmentRef::head_crc`] covers.
pub fn read_segment_head(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len().min(4096) as usize;
    let mut head = vec![0u8; len];
    file.read_exact(&mut head)?;
    Ok(head)
}

fn io_of_bitmat(e: BitMatError) -> std::io::Error {
    match e {
        BitMatError::Io(io) => io,
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Writes a **v2** checkpoint: the compacted segment file first
/// (`lbr.seg`, via [`disk::save_store`], temp → fsync → rename), then
/// the checkpoint frame carrying the dictionary, the encoded triples and
/// the [`SegmentRef`] pinning the segment file (temp → fsync → rename →
/// directory fsync). Each rename is atomic; a crash between the two
/// leaves a segment/image pair whose `SegmentRef` does not match, which
/// the opener detects and survives by rebuilding from the image.
pub fn write_checkpoint_v2(
    dir: &Path,
    graph: &EncodedGraph,
    segments: &BitMatStore,
    sync: bool,
) -> std::io::Result<()> {
    // 1. The segment file.
    let tmp_seg = dir.join(format!("{SEGMENTS_FILE}.tmp"));
    let seg_len = disk::save_store(segments, &tmp_seg).map_err(io_of_bitmat)?;
    let head_crc = crc32(&read_segment_head(&tmp_seg)?);
    if sync {
        File::open(&tmp_seg)?.sync_all()?;
    }
    std::fs::rename(&tmp_seg, dir.join(SEGMENTS_FILE))?;

    // 2. The checkpoint frame referencing it.
    let dict_bytes = graph.dict.to_bytes();
    let mut payload = Vec::with_capacity(28 + dict_bytes.len() + 12 * graph.triples.len());
    payload.extend_from_slice(&seg_len.to_le_bytes());
    payload.extend_from_slice(&head_crc.to_le_bytes());
    payload.extend_from_slice(&(dict_bytes.len() as u64).to_le_bytes());
    payload.extend_from_slice(&dict_bytes);
    payload.extend_from_slice(&(graph.triples.len() as u64).to_le_bytes());
    for e in &graph.triples {
        payload.extend_from_slice(&e.s.to_le_bytes());
        payload.extend_from_slice(&e.p.to_le_bytes());
        payload.extend_from_slice(&e.o.to_le_bytes());
    }
    let mut frame = Vec::with_capacity(16 + payload.len());
    frame.extend_from_slice(CKPT_MAGIC_V2);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    let mut file = File::create(&tmp)?;
    file.write_all(&frame)?;
    if sync {
        file.sync_all()?;
    }
    drop(file);
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    if sync {
        sync_dir(dir)?;
    }
    Ok(())
}

/// CRC-32 (IEEE 802.3, reflected) — implemented here because the build
/// environment is offline and the workspace vendors no checksum crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_rdf::Term;

    fn op(kind: WalOpKind, s: &str) -> WalOp {
        WalOp {
            kind,
            triple: Triple::new(
                Term::iri(s),
                Term::iri("p"),
                Term::literal("v \"quoted\"\n"),
            ),
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lbr-wal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_reopen_roundtrip_with_escapes() {
        let dir = tmp_dir("roundtrip");
        let batches = vec![
            vec![op(WalOpKind::Insert, "a"), op(WalOpKind::Insert, "b")],
            vec![op(WalOpKind::Delete, "a")],
            vec![],
        ];
        {
            let (mut wal, rec) = Wal::open(&dir).unwrap();
            assert!(rec.records.is_empty());
            for b in &batches {
                wal.append(b).unwrap();
            }
        }
        let (_, rec) = Wal::open(&dir).unwrap();
        assert_eq!(rec.records, batches);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        let dir = tmp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(&[op(WalOpKind::Insert, "a")]).unwrap();
            wal.append(&[op(WalOpKind::Insert, "b"), op(WalOpKind::Delete, "a")])
                .unwrap();
        }
        let full = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let first = decode(&full).records[0].clone();
        let boundary = u32::from_le_bytes(full[0..4].try_into().unwrap()) as usize + 8;
        for cut in 0..full.len() {
            std::fs::write(dir.join(WAL_FILE), &full[..cut]).unwrap();
            let (_, rec) = Wal::open(&dir).unwrap();
            // Every cut keeps exactly the records whose frames fit.
            let expect: usize = if cut < boundary {
                0
            } else if cut < full.len() {
                1
            } else {
                2
            };
            assert_eq!(rec.records.len(), expect, "cut at {cut}");
            if expect >= 1 {
                assert_eq!(rec.records[0], first);
            }
            // And the truncation is persistent: reopening is clean.
            let again = Wal::inspect(&dir).unwrap();
            assert_eq!(again.truncated_bytes, 0, "cut at {cut} left a tail");
            assert_eq!(again.records.len(), expect);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_roundtrip() {
        let dir = tmp_dir("ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_checkpoint(&dir).unwrap(), None);
        let triples = vec![
            Triple::new(Term::iri("a"), Term::iri("p"), Term::literal("v \"q\"\n")),
            Triple::new(Term::iri("b"), Term::iri("p"), Term::iri("a")),
        ];
        write_checkpoint(&dir, &triples, true).unwrap();
        assert_eq!(read_checkpoint(&dir).unwrap(), Some(triples.clone()));
        // Overwriting replaces the image atomically; no temp file stays.
        write_checkpoint(&dir, &triples[..1], false).unwrap();
        assert_eq!(read_checkpoint(&dir).unwrap(), Some(triples[..1].to_vec()));
        assert!(!dir.join(format!("{CHECKPOINT_FILE}.tmp")).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_a_hard_error() {
        let dir = tmp_dir("ckpt-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let triples = vec![Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("b"))];
        write_checkpoint(&dir, &triples, true).unwrap();
        let mut bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(dir.join(CHECKPOINT_FILE), &bytes).unwrap();
        let err = read_checkpoint(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_payload_is_rejected() {
        let dir = tmp_dir("bitflip");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(&[op(WalOpKind::Insert, "a")]).unwrap();
        }
        let mut bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let (_, rec) = Wal::open(&dir).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.valid_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
