//! Golden round-trip armor for the streaming trace container: every
//! synthetic profile must survive record → write → read → replay
//! bit-identically, at both the instruction level and the full
//! pipeline-simulation level, and damaged files must fail as clean
//! errors, never panics.

use cachesim::{CacheConfig, DataCache, RetentionProfile, Scheme};
use proptest::prelude::*;
use std::io::Cursor;
use uarch::front::{FetchSource, FrontEnd};
use uarch::instr::TraceSource;
use uarch::sim::simulate;
use workloads::stream::{
    record_synthetic, TraceError, TraceMeta, TraceReader, TraceWriter, CHUNK_RECORDS, RECORD_BYTES,
};
use workloads::{RecordedTrace, SpecBenchmark, SyntheticTrace};

const LEN: u64 = 6_000;
const SEED: u64 = 2024;

fn recorded_bytes(bench: SpecBenchmark, seed: u64, len: u64) -> Vec<u8> {
    record_synthetic(
        bench.profile(),
        &bench.to_string(),
        seed,
        len,
        Cursor::new(Vec::new()),
    )
    .expect("in-memory recording cannot fail")
    .into_inner()
}

#[test]
fn all_profiles_roundtrip_bit_identical_to_direct_generation() {
    for bench in SpecBenchmark::ALL {
        let bytes = recorded_bytes(bench, SEED, LEN);
        let mut reader = TraceReader::new(Cursor::new(bytes)).expect("valid header");
        assert_eq!(reader.meta().name, bench.to_string());
        assert_eq!(reader.meta().seed, SEED);
        assert_eq!(reader.total_records(), LEN);

        let mut fresh = SyntheticTrace::new(bench.profile(), SEED);
        for i in 0..LEN {
            let from_file = reader.next_record().expect("clean read").expect("in range");
            assert_eq!(from_file, fresh.next_instr(), "{bench} instr {i}");
        }
        assert!(reader.next_record().expect("clean end").is_none());
    }
}

#[test]
fn file_replay_matches_recorded_trace_replay() {
    // The two capture paths (in-memory RecordedTrace, on-disk container)
    // must agree record for record once the file's instructions go
    // through a front end.
    for bench in [SpecBenchmark::Gcc, SpecBenchmark::Mcf] {
        let bytes = recorded_bytes(bench, 7, 3_000);
        let mut reader = TraceReader::new(Cursor::new(bytes)).expect("valid header");
        let mut from_file = FrontEnd::new(&mut reader);
        let recorded = RecordedTrace::record(bench.profile(), 7, 3_000);
        let mut replay = recorded.replay();
        for i in 0..3_000 {
            assert_eq!(from_file.next_fetched(), replay.next_fetched(), "{bench} instr {i}");
        }
    }
}

#[test]
fn pipeline_simulation_over_file_is_bit_identical() {
    // The acceptance-level check: a full uarch+cachesim simulation driven
    // from the trace file must produce byte-for-byte identical results to
    // one driven by the live generator.
    for bench in [SpecBenchmark::Gzip, SpecBenchmark::Twolf] {
        let bytes = recorded_bytes(bench, SEED, LEN);
        let mut reader = TraceReader::new(Cursor::new(bytes)).expect("valid header");

        let retention = RetentionProfile::PerLine(
            (0..1024).map(|i| 4_000 + (i % 7) * 3_000).collect(),
        );
        let cfg = CacheConfig::paper(Scheme::partial_refresh_dsp());
        let mut cache_file = DataCache::new(cfg, retention.clone());
        let mut cache_live = DataCache::new(cfg, retention);

        let sim_instrs = 4_000; // leaves in-flight slack inside LEN
        let from_file = simulate(&mut reader, &mut cache_file, sim_instrs);
        let mut live = SyntheticTrace::new(bench.profile(), SEED);
        let from_live = simulate(&mut live, &mut cache_live, sim_instrs);

        assert_eq!(from_file, from_live, "{bench} SimResult");
        assert_eq!(cache_file.stats(), cache_live.stats(), "{bench} CacheStats");
        assert_eq!(
            cache_file.l2().hits(),
            cache_live.l2().hits(),
            "{bench} L2 hits"
        );
    }
}

#[test]
fn corrupt_chunks_and_truncations_never_panic() {
    let bytes = recorded_bytes(SpecBenchmark::Applu, 3, CHUNK_RECORDS as u64 + 500);

    // Flip every 97th byte (one at a time) and stream to the end: each
    // damaged file must produce Ok records then at most one clean error.
    for pos in (0..bytes.len()).step_by(97) {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x40;
        match TraceReader::new(Cursor::new(damaged)) {
            Err(_) => {} // header damage: clean open failure
            Ok(reader) => {
                let mut saw_err = false;
                for rec in reader {
                    match rec {
                        Ok(_) => assert!(!saw_err, "records after a poisoned error"),
                        Err(_) => saw_err = true,
                    }
                }
            }
        }
    }

    // Truncate at every boundary class: header, chunk header, payload.
    for cut in [0, 5, 20, 41, 50, 60, 1_000, bytes.len() - 3] {
        match TraceReader::new(Cursor::new(bytes[..cut].to_vec())) {
            Err(e) => {
                assert!(
                    !matches!(e, TraceError::Io(_)),
                    "truncation must map to a domain error, got {e}"
                );
            }
            Ok(reader) => {
                let err = reader
                    .filter_map(|r| r.err())
                    .next()
                    .expect("truncated body must surface an error");
                assert!(matches!(err, TraceError::Truncated { .. }), "cut {cut}: {err}");
            }
        }
    }

    // A version-1 header: its layout is no longer read.
    let mut v1 = bytes.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        TraceReader::new(Cursor::new(v1)),
        Err(TraceError::BadVersion(1))
    ));

    // Well-framed records with bad flags: a taken bit on a non-branch op
    // (op class 5 is the branch), and bit 3, which version 1 used for
    // branch metadata and which is now reserved.
    let payload = header_len("applu") + 16;
    let chunk = payload..payload + CHUNK_RECORDS as usize * RECORD_BYTES;
    let victim = bytes[chunk.clone()]
        .chunks(RECORD_BYTES)
        .position(|rec| rec[0] != 5)
        .expect("chunk 0 holds a non-branch");
    for bit in [1 << 4, 1 << 3] {
        let mut damaged = bytes.clone();
        damaged[payload + victim * RECORD_BYTES + 1] |= bit;
        let checksum = fnv1a64(&damaged[chunk.clone()]);
        damaged[payload - 8..payload].copy_from_slice(&checksum.to_le_bytes());
        let reader = TraceReader::new(Cursor::new(damaged)).expect("header intact");
        let err = reader
            .filter_map(|r| r.err())
            .next()
            .expect("a bad flag must surface an error");
        assert!(
            matches!(err, TraceError::BadRecord { record, .. } if record == victim as u64),
            "bit {bit}: {err}"
        );
    }
}

/// Streams `bytes` to the end or to the first error, which it returns.
/// Every failure must be a domain error (a byte slice never fails with
/// real I/O), nothing may follow it, and no more records may come out
/// than the bytes hold.
fn drain_reader(bytes: &[u8]) -> Result<Option<TraceError>, TestCaseError> {
    let reader = match TraceReader::new(bytes) {
        Ok(reader) => reader,
        Err(e) => {
            prop_assert!(!matches!(e, TraceError::Io(_)), "open: {e}");
            return Ok(Some(e));
        }
    };
    let mut records = 0usize;
    let mut failure = None;
    for rec in reader {
        prop_assert!(failure.is_none(), "a record followed an error");
        match rec {
            Ok(_) => records += 1,
            Err(e) => {
                prop_assert!(!matches!(e, TraceError::Io(_)), "read: {e}");
                failure = Some(e);
            }
        }
    }
    prop_assert!(records * RECORD_BYTES <= bytes.len());
    Ok(failure)
}

/// The length of a file header naming `name`: where chunk 0 starts.
fn header_len(name: &str) -> usize {
    let meta = TraceMeta {
        name: name.into(),
        seed: 0,
    };
    let w = TraceWriter::new(Cursor::new(Vec::new()), &meta).expect("in-memory");
    w.finish().expect("in-memory").0.into_inner().len()
}

/// A finished file's header promising `total` records, with no chunks.
fn header_promising(total: u64) -> Vec<u8> {
    let mut bytes = record_synthetic(
        SpecBenchmark::Gcc.profile(),
        "fuzz",
        0,
        total,
        Cursor::new(Vec::new()),
    )
    .expect("in-memory")
    .into_inner();
    bytes.truncate(header_len("fuzz"));
    bytes
}

/// The chunk checksum: 64-bit FNV-1a over the payload.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, usually rejected by the header checks.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        drain_reader(&bytes)?;
    }

    /// A valid header followed by arbitrary chunk bytes: the chunk
    /// header, length and checksum checks must reject them cleanly.
    #[test]
    fn valid_header_then_arbitrary_chunks_never_panic(
        total in 1u64..20_000,
        body in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let mut bytes = header_promising(total);
        bytes.extend_from_slice(&body);
        prop_assert!(drain_reader(&bytes)?.is_some(), "a record count was left unmet");
    }

    /// A well-framed chunk (matching count, length and checksum) around
    /// arbitrary record bytes: the chunk passes its checks, and the
    /// record decoder must reject bad op classes and flags cleanly.
    #[test]
    fn framed_arbitrary_records_never_panic(
        total in 1u64..300,
        payload in proptest::collection::vec(any::<u8>(), RECORD_BYTES..4096),
    ) {
        let count = payload.len() / RECORD_BYTES;
        let payload = &payload[..count * RECORD_BYTES];
        let mut bytes = header_promising(total);
        bytes.extend_from_slice(&(count as u32).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        let failure = drain_reader(&bytes)?;
        prop_assert!(
            !matches!(failure, Some(TraceError::CorruptChunk { .. })),
            "a well-framed chunk was rejected: {failure:?}"
        );
    }
}
