//! Fault injection: corrupt store files must surface the right typed
//! [`StoreError`] with the offending chunk index — and never panic.

use std::path::{Path, PathBuf};

use cascade_store::{
    crc32, export_dataset, import_dataset, ChunkReader, ChunkWriter, StoreError,
    StreamingEventSource, MAGIC,
};
use cascade_tgraph::{Event, EventSource, SynthConfig};

const CHUNK: usize = 128;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cascade_store_fault");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir.join(format!("{}_{}.evt", tag, std::process::id()))
}

fn write_sample(tag: &str) -> (PathBuf, usize) {
    let data = SynthConfig::wiki().with_scale(0.004).generate(13);
    let path = scratch(tag);
    let summary = export_dataset(&data, &path, CHUNK).expect("export succeeds");
    assert!(summary.chunks >= 4, "sample must span several chunks");
    (path, summary.chunks)
}

/// Byte offset where chunk frame `k` starts (header + k full frames).
fn frame_offset(path: &Path, k: usize) -> usize {
    let mut reader = ChunkReader::open(path).expect("file is valid before injection");
    let meta = reader.meta();
    let frame_len = 48 + meta.expected_payload_len(meta.chunk_size) + 4;
    let mut off = 32;
    for _ in 0..k {
        let chunk = reader
            .next_frame()
            .expect("frames before target are intact")
            .expect("target frame exists");
        assert_eq!(
            meta.expected_payload_len(chunk.events.len()) + 52,
            frame_len
        );
        off += frame_len;
    }
    off
}

#[test]
fn roundtrip_is_lossless() {
    let data = SynthConfig::wiki().with_scale(0.004).generate(13);
    let path = scratch("roundtrip");
    export_dataset(&data, &path, CHUNK).expect("export succeeds");
    let back = import_dataset(&path, "back").expect("import succeeds");
    assert_eq!(back.num_events(), data.num_events());
    assert_eq!(back.stream().events(), data.stream().events());
    for i in [0, data.num_events() / 2, data.num_events() - 1] {
        assert_eq!(back.features().row(i), data.features().row(i));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flip_in_payload_is_a_crc_mismatch() {
    let (path, _) = write_sample("bitflip");
    let target_chunk = 2;
    let off = frame_offset(&path, target_chunk) + 48 + 5; // inside payload
    let mut bytes = std::fs::read(&path).expect("file readable");
    bytes[off] ^= 0x10;
    std::fs::write(&path, &bytes).expect("file writable");

    let mut reader = ChunkReader::open(&path).expect("header still valid");
    let mut yielded = 0;
    let err = loop {
        match reader.next_frame() {
            Ok(Some(_)) => yielded += 1,
            Ok(None) => panic!("corruption must be detected"),
            Err(e) => break e,
        }
    };
    // Every chunk before the bad one still streams intact.
    assert_eq!(yielded, target_chunk);
    match err {
        StoreError::CrcMismatch {
            chunk,
            stored,
            computed,
        } => {
            assert_eq!(chunk, target_chunk);
            assert_ne!(stored, computed);
        }
        other => panic!("expected CrcMismatch, got {}", other),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_is_a_truncated_frame() {
    let (path, chunks) = write_sample("trunc");
    let bytes = std::fs::read(&path).expect("file readable");
    // Cut into the middle of the last frame's payload.
    let cut = frame_offset(&path, chunks - 1) + 60;
    std::fs::write(&path, &bytes[..cut]).expect("file writable");

    let mut reader = ChunkReader::open(&path).expect("header still valid");
    let mut yielded = 0;
    let err = loop {
        match reader.next_frame() {
            Ok(Some(_)) => yielded += 1,
            Ok(None) => panic!("truncation must be detected"),
            Err(e) => break e,
        }
    };
    assert_eq!(yielded, chunks - 1);
    assert!(
        matches!(err, StoreError::TruncatedFrame { chunk } if chunk == chunks - 1),
        "expected TruncatedFrame at {}, got {}",
        chunks - 1,
        err
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_tail_frames_are_a_truncated_frame() {
    // Cut exactly at a frame boundary: a clean EOF, but short of the
    // header's declared event count.
    let (path, chunks) = write_sample("shortfall");
    let bytes = std::fs::read(&path).expect("file readable");
    let cut = frame_offset(&path, chunks - 2);
    std::fs::write(&path, &bytes[..cut]).expect("file writable");

    let mut reader = ChunkReader::open(&path).expect("header still valid");
    let mut yielded = 0;
    let err = loop {
        match reader.next_frame() {
            Ok(Some(_)) => yielded += 1,
            Ok(None) => panic!("shortfall must be detected"),
            Err(e) => break e,
        }
    };
    assert_eq!(yielded, chunks - 2);
    assert!(matches!(err, StoreError::TruncatedFrame { chunk } if chunk == chunks - 2));
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_skew_is_typed() {
    let (path, _) = write_sample("version");
    let mut bytes = std::fs::read(&path).expect("file readable");
    bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
    std::fs::write(&path, &bytes).expect("file writable");
    assert!(matches!(
        ChunkReader::open(&path),
        Err(StoreError::VersionSkew {
            found: 7,
            supported: 1
        })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_magic_is_typed() {
    let path = scratch("magic");
    std::fs::write(&path, b"PNG\x0d and then some trailing bytes").expect("file writable");
    match ChunkReader::open(&path) {
        Err(StoreError::BadMagic { found }) => assert_ne!(found, MAGIC),
        other => panic!("expected BadMagic, got {:?}", other.map(|_| ())),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn tiny_file_is_truncated_not_a_panic() {
    let path = scratch("tiny");
    std::fs::write(&path, &MAGIC[..3]).expect("file writable");
    assert!(matches!(
        ChunkReader::open(&path),
        Err(StoreError::TruncatedFrame { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_frame_header_is_reported_not_trusted() {
    // Blow up payload_len in frame 1's header: the reader must flag the
    // inconsistency instead of allocating a bogus buffer. (The CRC would
    // also catch this, but the sanity check fires first by design.)
    let (path, _) = write_sample("badlen");
    let off = frame_offset(&path, 1);
    let mut bytes = std::fs::read(&path).expect("file readable");
    bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).expect("file writable");

    let mut reader = ChunkReader::open(&path).expect("header still valid");
    assert!(reader.next_frame().expect("frame 0 intact").is_some());
    assert!(matches!(
        reader.next_frame(),
        Err(StoreError::Corrupt { chunk: 1, .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn streaming_source_surfaces_corruption_with_chunk_index() {
    let (path, _) = write_sample("stream_corrupt");
    let target_chunk = 3;
    let off = frame_offset(&path, target_chunk) + 48 + 9;
    let mut bytes = std::fs::read(&path).expect("file readable");
    bytes[off] ^= 0x01;
    std::fs::write(&path, &bytes).expect("file writable");

    let mut src = StreamingEventSource::open(&path, 2).expect("header still valid");
    let mut yielded = 0;
    let err = loop {
        match src.next_chunk() {
            Ok(Some(_)) => yielded += 1,
            Ok(None) => panic!("corruption must surface through the source"),
            Err(e) => break e,
        }
    };
    // The partially corrupt file still streams every chunk before the
    // bad one.
    assert_eq!(yielded, target_chunk);
    assert_eq!(err.chunk, Some(target_chunk));
    assert!(err.message.contains("crc mismatch"));
    // After the error the source is terminated, not wedged.
    assert!(src
        .next_chunk()
        .expect("post-error source is inert")
        .is_none());
    std::fs::remove_file(&path).ok();
}

#[test]
fn streaming_source_reset_reports_a_failed_reopen() {
    let (path, _) = write_sample("reset_reopen");
    let mut src = StreamingEventSource::open(&path, 2).expect("header is valid at open");
    assert!(src.next_chunk().expect("frame 0 intact").is_some());
    let mut bytes = std::fs::read(&path).expect("file readable");
    bytes[..4].copy_from_slice(b"JUNK");
    std::fs::write(&path, &bytes).expect("file writable");

    let err = src.reset().expect_err("the reopen reads a bad header");
    assert!(err.message.contains("not a cascade event store"), "{err}");
    assert!(src
        .next_chunk()
        .expect("a source whose reopen failed is inert")
        .is_none());
    std::fs::remove_file(&path).ok();
}

#[test]
fn streaming_source_matches_in_memory_source() {
    let data = SynthConfig::wiki().with_scale(0.004).generate(13);
    let path = scratch("identical");
    export_dataset(&data, &path, CHUNK).expect("export succeeds");

    let mut mem = cascade_tgraph::InMemorySource::from_dataset(&data, CHUNK);
    let mut disk = StreamingEventSource::open(&path, 2).expect("open succeeds");
    assert_eq!(mem.num_events(), disk.num_events());
    assert_eq!(mem.num_nodes(), disk.num_nodes());
    assert_eq!(mem.feature_dim(), disk.feature_dim());
    for round in 0..2 {
        loop {
            let a = mem.next_chunk().expect("in-memory source never fails");
            let b = disk.next_chunk().expect("file is intact");
            assert_eq!(a, b, "divergence in round {}", round);
            if a.is_none() {
                break;
            }
        }
        mem.reset().expect("reset never fails");
        disk.reset().expect("reset reopens the file");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_header_declaring_events_the_file_cannot_hold_reserves_nothing() {
    let (path, _) = write_sample("hugecount");
    let mut bytes = std::fs::read(&path).expect("file readable");
    bytes[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
    std::fs::write(&path, &bytes).expect("file writable");
    // Sixteen TiB of events if the count were believed up front.
    let err = import_dataset(&path, "huge").expect_err("the frames run out first");
    assert!(matches!(err, StoreError::Corrupt { chunk: 4, .. }), "{err}");
    std::fs::remove_file(&path).ok();
}

/// The workspace's hostile-input battery over the `CEVT` reader: every
/// strict prefix, a huge value over every offset and seeded bit flips of
/// a small store (features on, frames of 3 + 3 + 2 events) must each be
/// a typed [`StoreError`] or read to the end and — written back through
/// [`ChunkWriter`] under the header the reader accepted — reproduce the
/// input byte for byte. The write-back allocates by the accepted
/// header, so a count the reader lets through unbounded aborts here.
/// Last, a NaN or an infinite time in any event under a recomputed,
/// valid CRC (the writer frames whatever it is given) must be
/// [`StoreError::Corrupt`] at its frame, after the frames before it:
/// a NaN compares false both ways and would switch every order check
/// downstream off.
#[test]
fn chunk_reader_survives_the_hostile_input_battery() {
    let (input, output) = (scratch("battery_in"), scratch("battery_out"));
    let mut writer = ChunkWriter::create(&input, 6, 2, 3).expect("temp file is writable");
    for i in 0..8u32 {
        let event = Event::new(i % 6, (i + 1) % 6, f64::from(i) + 0.5);
        let row = [i as f32, -0.25];
        writer.push(event, &row).expect("temp file is writable");
    }
    assert_eq!(writer.finish().expect("temp file is writable").chunks, 3);
    let valid = std::fs::read(&input).expect("file readable");

    cascade_util::check_decoder("cevt_store", &valid, |bytes| {
        std::fs::write(&input, bytes).expect("temp file is writable");
        let mut reader = ChunkReader::open(&input).ok()?;
        let mut chunks = Vec::new();
        while let Some(chunk) = reader.next_frame().ok()? {
            chunks.push(chunk);
        }
        let meta = reader.meta();
        let mut writer =
            ChunkWriter::create(&output, meta.num_nodes, meta.feature_dim, meta.chunk_size)
                .expect("temp file is writable");
        for chunk in &chunks {
            for (i, e) in chunk.events.iter().enumerate() {
                let row = &chunk.features[i * meta.feature_dim..(i + 1) * meta.feature_dim];
                writer.push(*e, row).expect("temp file is writable");
            }
        }
        writer.finish().expect("temp file is writable");
        Some(std::fs::read(&output).expect("file readable"))
    });

    let mut frame = 32;
    for (chunk, count) in [3, 3, 2].into_iter().enumerate() {
        let crc_at = frame + 48 + count * (16 + 2 * 4);
        for event in 0..count {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut bytes = valid.clone();
                let time_at = frame + 48 + event * 16 + 8;
                bytes[time_at..time_at + 8].copy_from_slice(&bad.to_le_bytes());
                let crc = crc32(&bytes[frame..crc_at]);
                bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
                std::fs::write(&input, &bytes).expect("temp file is writable");
                let mut reader = ChunkReader::open(&input).expect("the header is intact");
                for _ in 0..chunk {
                    assert!(matches!(reader.next_frame(), Ok(Some(_))));
                }
                let err = reader
                    .next_frame()
                    .expect_err("a non-finite time is refused");
                assert!(
                    matches!(&err, StoreError::Corrupt { chunk: c, message }
                        if *c == chunk && message.contains("non-finite")),
                    "{bad} in event {event} of frame {chunk}: {err}"
                );
            }
        }
        frame = crc_at + 4;
    }
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
}
