//! Streaming binary trace container.
//!
//! A recorded instruction stream on disk: a fixed header (magic, format
//! version, benchmark metadata) followed by length-prefixed *chunks* of
//! fixed-size instruction records, each chunk closed by an FNV-1a
//! checksum. [`TraceWriter`] appends records and patches the total count
//! into the header on [`TraceWriter::finish`]; [`TraceReader`] replays a
//! file of any size in constant memory (one chunk buffered at a time),
//! verifying every chunk checksum and failing with a clean
//! [`TraceError`] — never a panic — on corrupt or truncated input.
//!
//! The record encoding is lossless for every [`Instruction`] the writer
//! accepts (it refuses a taken non-branch): capturing a synthetic profile
//! with [`record_synthetic`] and replaying the file yields a stream
//! bit-identical to driving the generator directly, so trace files
//! compose with every consumer of [`TraceSource`] (`uarch::simulate`, the
//! validation harness, the bench probes).
//!
//! The container is deliberately self-contained: it carries the
//! `(benchmark, seed)` provenance, and each record carries its PC, so a
//! trace file is the *complete* input of a simulation — external tools
//! can produce the same format to drive arbitrary workloads.

use crate::profile::{Profile, SpecBenchmark};
use crate::trace::SyntheticTrace;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use uarch::instr::{Instruction, OpClass, TraceSource};

/// File magic, first 8 bytes of every trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"PV3T1DTR";
/// Container format version.
pub const TRACE_VERSION: u32 = 2;
/// Size of one encoded instruction record.
pub const RECORD_BYTES: usize = 26;
/// Records per chunk (~104 KB of payload): the constant-memory unit.
pub const CHUNK_RECORDS: u32 = 4096;

/// Byte offset of the `total_records` header field patched by `finish`.
const TOTAL_RECORDS_OFFSET: u64 = 24;
/// `total_records` value of a file whose writer never finished.
const UNFINISHED: u64 = u64::MAX;
/// Chunk header: record count (u32) + payload length (u32) + FNV-1a
/// checksum (u64).
const CHUNK_HEADER_BYTES: usize = 16;
/// Sanity cap on a chunk's declared payload length, so a corrupt length
/// field cannot drive a giant allocation.
const MAX_PAYLOAD_BYTES: u32 = 1 << 26;

/// 64-bit FNV-1a over a byte slice — the per-chunk checksum. (The
/// orchestrator's content hash lives above this crate in the dependency
/// graph, so the trace format carries its own.)
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reading or writing a trace file failed.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The file's format version is not [`TRACE_VERSION`].
    BadVersion(u32),
    /// A header field is malformed.
    BadHeader(&'static str),
    /// The writer never called [`TraceWriter::finish`]; the record count
    /// is unknown and the tail may be torn.
    Unfinished,
    /// A chunk failed validation (checksum mismatch, implausible length).
    CorruptChunk {
        /// Zero-based chunk ordinal.
        chunk: u64,
        /// What failed.
        reason: String,
    },
    /// The file ended before the header's record count was satisfied.
    Truncated {
        /// Records the header promised.
        expected_records: u64,
        /// Records actually read.
        read_records: u64,
    },
    /// A record holds an impossible instruction (on read), or would (on
    /// write).
    BadRecord {
        /// Zero-based record ordinal.
        record: u64,
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a pv3t1d trace file (bad magic)"),
            TraceError::BadVersion(v) => {
                write!(f, "unsupported trace version {v} (expected {TRACE_VERSION})")
            }
            TraceError::BadHeader(what) => write!(f, "malformed trace header: {what}"),
            TraceError::Unfinished => {
                write!(f, "trace file was never finalized (record count unknown)")
            }
            TraceError::CorruptChunk { chunk, reason } => {
                write!(f, "corrupt chunk {chunk}: {reason}")
            }
            TraceError::Truncated {
                expected_records,
                read_records,
            } => write!(
                f,
                "truncated trace: header promises {expected_records} records, \
                 file ends after {read_records}"
            ),
            TraceError::BadRecord { record, reason } => {
                write!(f, "bad record {record}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Provenance metadata carried in a trace file's header.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Benchmark or workload label (free-form, ≤ 65535 bytes).
    pub name: String,
    /// Generator seed (0 if not applicable).
    pub seed: u64,
}

/// Record flag bits; the others are reserved and rejected.
const HAS_SRC1: u8 = 1;
const HAS_SRC2: u8 = 1 << 1;
const HAS_ADDR: u8 = 1 << 2;
const TAKEN: u8 = 1 << 4;

fn encode_record(i: &Instruction, out: &mut Vec<u8>) {
    let op = match i.op {
        OpClass::IntAlu => 0u8,
        OpClass::IntMul => 1,
        OpClass::Fp => 2,
        OpClass::Load => 3,
        OpClass::Store => 4,
        OpClass::Branch => 5,
    };
    let flag = |set: bool, bit: u8| if set { bit } else { 0 };
    let flags = flag(i.src1.is_some(), HAS_SRC1)
        | flag(i.src2.is_some(), HAS_SRC2)
        | flag(i.addr.is_some(), HAS_ADDR)
        | flag(i.taken, TAKEN);
    out.push(op);
    out.push(flags);
    out.extend_from_slice(&i.src1.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&i.src2.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&i.pc.to_le_bytes());
    out.extend_from_slice(&i.addr.unwrap_or(0).to_le_bytes());
}

fn decode_record(rec: &[u8], record: u64) -> Result<Instruction, TraceError> {
    debug_assert_eq!(rec.len(), RECORD_BYTES);
    let op = match rec[0] {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::Fp,
        3 => OpClass::Load,
        4 => OpClass::Store,
        5 => OpClass::Branch,
        _ => {
            return Err(TraceError::BadRecord {
                record,
                reason: "unknown op class",
            })
        }
    };
    let flags = rec[1];
    if flags & !(HAS_SRC1 | HAS_SRC2 | HAS_ADDR | TAKEN) != 0 {
        return Err(TraceError::BadRecord {
            record,
            reason: "reserved flag bits set",
        });
    }
    if flags & TAKEN != 0 && op != OpClass::Branch {
        return Err(TraceError::BadRecord {
            record,
            reason: "taken bit on a non-branch op",
        });
    }
    let u32_at = |o: usize| u32::from_le_bytes(rec[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(rec[o..o + 8].try_into().expect("8 bytes"));
    Ok(Instruction {
        op,
        pc: u64_at(10),
        src1: (flags & HAS_SRC1 != 0).then(|| u32_at(2)),
        src2: (flags & HAS_SRC2 != 0).then(|| u32_at(6)),
        addr: (flags & HAS_ADDR != 0).then(|| u64_at(18)),
        taken: flags & TAKEN != 0,
    })
}

/// Appends instruction records to a seekable sink in checksummed chunks.
///
/// The header's record count is written as a sentinel and patched by
/// [`TraceWriter::finish`]; a file whose writer was dropped without
/// finishing reads back as [`TraceError::Unfinished`], so torn writes are
/// detected instead of silently replayed short.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    chunk: Vec<u8>,
    chunk_records: u32,
    total: u64,
    finished: bool,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`.
    pub fn create<P: AsRef<Path>>(path: P, meta: &TraceMeta) -> Result<Self, TraceError> {
        Self::new(BufWriter::new(File::create(path)?), meta)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Writes the header to a fresh sink.
    pub fn new(mut sink: W, meta: &TraceMeta) -> Result<Self, TraceError> {
        if meta.name.len() > u16::MAX as usize {
            return Err(TraceError::BadHeader("name longer than 65535 bytes"));
        }
        sink.write_all(&TRACE_MAGIC)?;
        sink.write_all(&TRACE_VERSION.to_le_bytes())?;
        sink.write_all(&(RECORD_BYTES as u32).to_le_bytes())?;
        sink.write_all(&meta.seed.to_le_bytes())?;
        sink.write_all(&UNFINISHED.to_le_bytes())?;
        sink.write_all(&(meta.name.len() as u16).to_le_bytes())?;
        sink.write_all(meta.name.as_bytes())?;
        Ok(Self {
            sink,
            chunk: Vec::with_capacity(CHUNK_RECORDS as usize * RECORD_BYTES),
            chunk_records: 0,
            total: 0,
            finished: false,
        })
    }

    /// Appends one instruction, flushing a chunk every [`CHUNK_RECORDS`].
    /// A taken non-branch is refused as [`TraceError::BadRecord`], since
    /// the reader would reject it.
    pub fn push(&mut self, instr: &Instruction) -> Result<(), TraceError> {
        assert!(!self.finished, "push after finish");
        if instr.taken && instr.op != OpClass::Branch {
            return Err(TraceError::BadRecord {
                record: self.total,
                reason: "taken bit on a non-branch op",
            });
        }
        encode_record(instr, &mut self.chunk);
        self.chunk_records += 1;
        self.total += 1;
        if self.chunk_records == CHUNK_RECORDS {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        if self.chunk_records == 0 {
            return Ok(());
        }
        self.sink.write_all(&self.chunk_records.to_le_bytes())?;
        self.sink.write_all(&(self.chunk.len() as u32).to_le_bytes())?;
        self.sink.write_all(&fnv1a64(&self.chunk).to_le_bytes())?;
        self.sink.write_all(&self.chunk)?;
        self.chunk.clear();
        self.chunk_records = 0;
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.total
    }

    /// Flushes the final chunk, patches the header's record count, and
    /// returns the sink and the total record count.
    pub fn finish(mut self) -> Result<(W, u64), TraceError> {
        self.flush_chunk()?;
        self.sink.seek(SeekFrom::Start(TOTAL_RECORDS_OFFSET))?;
        self.sink.write_all(&self.total.to_le_bytes())?;
        self.sink.seek(SeekFrom::End(0))?;
        self.sink.flush()?;
        self.finished = true;
        Ok((self.sink, self.total))
    }
}

/// Streams instruction records out of a trace container in constant
/// memory: one chunk is buffered and checksum-verified at a time,
/// regardless of file size.
///
/// Use [`TraceReader::next_record`] (or the [`Iterator`] impl) for
/// error-aware streaming; the [`TraceSource`] impl panics on error or
/// exhaustion, mirroring [`crate::ReplayTrace`]'s contract for pipeline
/// consumers that cannot handle a short stream.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    meta: TraceMeta,
    total: u64,
    read_records: u64,
    chunk: Vec<u8>,
    chunk_off: usize,
    chunks_read: u64,
    poisoned: bool,
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Parses the header from a fresh source.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        read_exact_or(&mut src, &mut magic, TraceError::BadHeader("file too short"))?;
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut fixed = [0u8; 26];
        read_exact_or(&mut src, &mut fixed, TraceError::BadHeader("file too short"))?;
        let u32_at = |o: usize| u32::from_le_bytes(fixed[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(fixed[o..o + 8].try_into().expect("8 bytes"));
        let version = u32_at(0);
        if version != TRACE_VERSION {
            return Err(TraceError::BadVersion(version));
        }
        if u32_at(4) as usize != RECORD_BYTES {
            return Err(TraceError::BadHeader("unexpected record size"));
        }
        let seed = u64_at(8);
        let total = u64_at(16);
        if total == UNFINISHED {
            return Err(TraceError::Unfinished);
        }
        let name_len = u16::from_le_bytes(fixed[24..26].try_into().expect("2 bytes")) as usize;
        let mut name = vec![0u8; name_len];
        read_exact_or(&mut src, &mut name, TraceError::BadHeader("file too short"))?;
        let name =
            String::from_utf8(name).map_err(|_| TraceError::BadHeader("name is not UTF-8"))?;
        Ok(Self {
            src,
            meta: TraceMeta { name, seed },
            total,
            read_records: 0,
            chunk: Vec::new(),
            chunk_off: 0,
            chunks_read: 0,
            poisoned: false,
        })
    }

    /// The header's provenance metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Total records the file holds.
    pub fn total_records(&self) -> u64 {
        self.total
    }

    fn load_chunk(&mut self) -> Result<(), TraceError> {
        let mut header = [0u8; CHUNK_HEADER_BYTES];
        read_exact_or(
            &mut self.src,
            &mut header,
            TraceError::Truncated {
                expected_records: self.total,
                read_records: self.read_records,
            },
        )?;
        let count = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let checksum = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        if count == 0 || payload_len > MAX_PAYLOAD_BYTES {
            return Err(TraceError::CorruptChunk {
                chunk: self.chunks_read,
                reason: format!("implausible chunk header (count {count}, {payload_len} bytes)"),
            });
        }
        if payload_len as usize != count as usize * RECORD_BYTES {
            return Err(TraceError::CorruptChunk {
                chunk: self.chunks_read,
                reason: format!(
                    "payload length {payload_len} does not match {count} records"
                ),
            });
        }
        self.chunk.resize(payload_len as usize, 0);
        read_exact_or(
            &mut self.src,
            &mut self.chunk,
            TraceError::Truncated {
                expected_records: self.total,
                read_records: self.read_records,
            },
        )?;
        let found = fnv1a64(&self.chunk);
        if found != checksum {
            return Err(TraceError::CorruptChunk {
                chunk: self.chunks_read,
                reason: format!("checksum mismatch (stored {checksum:#018x}, computed {found:#018x})"),
            });
        }
        self.chunk_off = 0;
        self.chunks_read += 1;
        Ok(())
    }

    /// Reads the next record; `Ok(None)` at clean end of stream. After an
    /// error the reader is poisoned and keeps returning that condition's
    /// terminal state (`None` from the iterator).
    pub fn next_record(&mut self) -> Result<Option<Instruction>, TraceError> {
        if self.poisoned {
            return Ok(None);
        }
        if self.read_records == self.total {
            return Ok(None);
        }
        if self.chunk_off == self.chunk.len() {
            if let Err(e) = self.load_chunk() {
                self.poisoned = true;
                return Err(e);
            }
        }
        let rec = &self.chunk[self.chunk_off..self.chunk_off + RECORD_BYTES];
        match decode_record(rec, self.read_records) {
            Ok(i) => {
                self.chunk_off += RECORD_BYTES;
                self.read_records += 1;
                Ok(Some(i))
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }
}

fn read_exact_or<R: Read>(src: &mut R, buf: &mut [u8], eof: TraceError) -> Result<(), TraceError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            eof
        } else {
            TraceError::Io(e)
        }
    })
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Instruction, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

impl<R: Read> TraceSource for TraceReader<R> {
    /// # Panics
    ///
    /// Panics on exhaustion or a read error — pipeline consumers need an
    /// infinite stream, so a short or corrupt file is a hard
    /// configuration error, exactly like [`crate::ReplayTrace`].
    fn next_instr(&mut self) -> Instruction {
        match self.next_record() {
            Ok(Some(i)) => i,
            Ok(None) => panic!(
                "trace file exhausted after {} records; record a longer trace \
                 (warmup + instructions + in-flight slack)",
                self.total
            ),
            Err(e) => panic!("trace file unreadable: {e}"),
        }
    }
}

/// Records the first `len` instructions of `SyntheticTrace::new(profile,
/// seed)` into `sink`, returning the finished sink.
pub fn record_synthetic<W: Write + Seek>(
    profile: Profile,
    name: &str,
    seed: u64,
    len: u64,
    sink: W,
) -> Result<W, TraceError> {
    let mut src = SyntheticTrace::new(profile, seed);
    let meta = TraceMeta {
        name: name.to_string(),
        seed,
    };
    let mut w = TraceWriter::new(sink, &meta)?;
    for _ in 0..len {
        w.push(&src.next_instr())?;
    }
    let (sink, _) = w.finish()?;
    Ok(sink)
}

/// Records a benchmark's synthetic stream to a trace file at `path`,
/// returning the record count.
pub fn record_bench_to_path<P: AsRef<Path>>(
    bench: SpecBenchmark,
    seed: u64,
    len: u64,
    path: P,
) -> Result<u64, TraceError> {
    let sink = record_synthetic(
        bench.profile(),
        &bench.to_string(),
        seed,
        len,
        BufWriter::new(File::create(path)?),
    )?;
    sink.into_inner().map_err(|e| TraceError::Io(e.into_error()))?;
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_meta() -> TraceMeta {
        TraceMeta {
            name: "gcc".into(),
            seed: 42,
        }
    }

    fn write_trace(instrs: &[Instruction]) -> Vec<u8> {
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), &sample_meta()).unwrap();
        for i in instrs {
            w.push(i).unwrap();
        }
        let (sink, n) = w.finish().unwrap();
        assert_eq!(n, instrs.len() as u64);
        sink.into_inner()
    }

    fn varied_instrs(n: usize) -> Vec<Instruction> {
        (0..n)
            .map(|i| match i % 5 {
                0 => Instruction::load(i as u64 * 64, Some(3)).at_pc(0x1000 + i as u64 * 4),
                1 => Instruction::store(i as u64 * 8, None).with_src2(7),
                2 => Instruction::branch(0x2000 + (i as u64 % 13) * 4, i % 2 == 0),
                3 => Instruction::int_alu().at_pc(i as u64),
                _ => Instruction {
                    op: OpClass::Fp,
                    pc: 9,
                    src1: Some(1),
                    src2: Some(2),
                    addr: None,
                    taken: false,
                },
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let instrs = varied_instrs(CHUNK_RECORDS as usize * 2 + 57);
        let bytes = write_trace(&instrs);
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.meta(), &sample_meta());
        assert_eq!(r.total_records(), instrs.len() as u64);
        let read: Vec<Instruction> = r.by_ref().map(|i| i.unwrap()).collect();
        assert_eq!(read, instrs);
    }

    #[test]
    fn a_taken_non_branch_is_refused_at_write() {
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), &sample_meta()).unwrap();
        let mut alu = Instruction::int_alu();
        alu.taken = true;
        assert!(matches!(w.push(&alu), Err(TraceError::BadRecord { record: 0, .. })));
        assert_eq!(w.records(), 0);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = write_trace(&[]);
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.total_records(), 0);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn checksum_is_pinned() {
        // The chunk checksum is part of the on-disk format: changing
        // fnv1a64 breaks every existing trace file.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"pv3t1d"), 0x95ec_6e96_aa3d_c611);
    }

    #[test]
    fn bad_magic_is_clean_error() {
        let mut bytes = write_trace(&varied_instrs(4));
        bytes[0] ^= 0xff;
        assert!(matches!(
            TraceReader::new(Cursor::new(bytes)),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn unfinished_file_is_detected() {
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), &sample_meta()).unwrap();
        for i in varied_instrs(10) {
            w.push(&i).unwrap();
        }
        // Drop without finish: simulate a crash mid-record.
        let TraceWriter { sink, .. } = w;
        assert!(matches!(
            TraceReader::new(Cursor::new(sink.into_inner())),
            Err(TraceError::Unfinished)
        ));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut bytes = write_trace(&varied_instrs(100));
        let flip = bytes.len() - 20;
        bytes[flip] ^= 0x01;
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        let err = r.find_map(|i| i.err()).expect("corruption must surface");
        assert!(matches!(err, TraceError::CorruptChunk { .. }), "{err}");
    }

    #[test]
    fn truncated_file_is_clean_error_not_panic() {
        let bytes = write_trace(&varied_instrs(CHUNK_RECORDS as usize + 100));
        for cut in [bytes.len() - 1, bytes.len() - 200, 60] {
            let mut r = TraceReader::new(Cursor::new(bytes[..cut].to_vec())).unwrap();
            let err = r.find_map(|i| i.err()).expect("truncation must surface");
            assert!(matches!(err, TraceError::Truncated { .. }), "cut {cut}: {err}");
        }
    }

    #[test]
    fn reader_is_poisoned_after_error() {
        let mut bytes = write_trace(&varied_instrs(50));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.next_record().is_err());
        assert!(r.next_record().unwrap().is_none(), "poisoned reader ends");
    }
}
