//! `dee-store` — a persistent, checksummed trace-artifact store with
//! streaming replay.
//!
//! The paper's evaluation re-simulates the *same* dynamic traces (up to
//! 100 M instructions per benchmark) under dozens of resource/predictor
//! configurations. Tracing is the expensive, pure-function step; this
//! crate makes it a **record-once / replay-many** artifact:
//!
//! * [`container`] — the `DEESTOR1` chunked container format: per-chunk
//!   64-bit checksums ([`checksum64`], from [`dee_vm::frame`]), hand-rolled
//!   byte-oriented LZ/RLE compression ([`compress`]/[`decompress`]), and
//!   a seekable footer index, wrapping the existing `DEETRC1` trace
//!   layout;
//! * [`Store`] — content-addressed artifacts
//!   (`workload`-`scale`-`v<fmt>`-`digest`) published atomically
//!   (write-to-temp + rename) and read fail-closed: corruption is
//!   quarantined with a typed error, never a panic, and
//!   [`Store::get_or_record`] transparently falls back to re-tracing;
//! * [`StoreReader`] — streams `TraceRecord`s chunk-by-chunk, so replay
//!   runs in constant memory regardless of trace length.
//!
//! The invariant threaded through everything: **replay is byte-identical
//! to re-tracing**. Consumers (the bench sweeps, `dee-serve`'s disk
//! cache tier, the `dee trace` CLI) verify replayed output against the
//! workload reference and quarantine on any disagreement, so a store can
//! speed experiments up but can never silently change a result.
//!
//! See DESIGN.md §9 for the on-disk layout and the failure-mode table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compress;
pub mod container;
mod store;

pub use compress::{compress, decompress};
pub use container::{ContainerInfo, ContainerReader, ContainerWriter, DEFAULT_CHUNK_SIZE};
pub use dee_vm::frame::{checksum64, fnv1a, fnv1a_words};
pub use store::{
    digest_file, fold_digests, info_file, valid_artifact_name, verify_file, verify_snapshot_bytes,
    ArtifactKey, DigestEntry, GcReport, Store, StoreEntry, StoreError, StoreReader, StoreSource,
    StoreStats, VerifyReport, ARTIFACT_EXT, SNAPSHOT_EXT, SNAPSHOT_MAGIC,
};

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::{Assembler, Reg};
    use dee_vm::frame::seal;
    use dee_vm::{trace_program, Trace};
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dee_store_unit_{}_{tag}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
        }
        dir
    }

    fn sample_trace(n: i32) -> (Trace, ArtifactKey) {
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, n);
        asm.label("top");
        asm.sw(r1, Reg::ZERO, 32);
        asm.addi(r1, r1, -1);
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.out(r1);
        asm.halt();
        let program = asm.assemble().unwrap();
        let trace = trace_program(&program, &[], 100_000).unwrap();
        let key = ArtifactKey::new("unit", &format!("n{n}"), &program.to_listing(), &[]);
        (trace, key)
    }

    #[test]
    fn put_load_round_trip() {
        let dir = scratch("round_trip");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(40);
        assert!(!store.contains(&key));
        assert!(store.load(&key).unwrap().is_none());
        store.put(&key, &trace).unwrap();
        assert!(store.contains(&key));
        let loaded = store.load(&key).unwrap().expect("published");
        assert_eq!(loaded.records(), trace.records());
        assert_eq!(loaded.output(), trace.output());
        assert_eq!(loaded.output_checksum(), trace.output_checksum());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn artifact_bytes_are_deterministic() {
        let dir = scratch("determinism");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(25);
        let first = store.put(&key, &trace).unwrap();
        let bytes_a = std::fs::read(&first).unwrap();
        let second = store.put(&key, &trace).unwrap();
        assert_eq!(first, second, "same key, same path");
        assert_eq!(bytes_a, std::fs::read(&second).unwrap(), "same content");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn get_or_record_records_once_then_replays() {
        let dir = scratch("record_replay");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(12);
        let expected_records = trace.records().to_vec();
        let (first, source) = store
            .get_or_record(&key, || Ok::<_, String>(trace))
            .unwrap();
        assert_eq!(source, StoreSource::Vm);
        let (second, source) = store
            .get_or_record(&key, || Err::<Trace, _>("must not re-trace".to_string()))
            .unwrap();
        assert_eq!(source, StoreSource::Disk);
        assert_eq!(second.records(), expected_records.as_slice());
        assert_eq!(second.output(), first.output());
        assert_eq!(
            store
                .stats()
                .disk_hits
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(
            store
                .stats()
                .writes
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corruption_quarantines_and_falls_back() {
        let dir = scratch("quarantine");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(33);
        let path = store.put(&key, &trace).unwrap();
        // Flip one byte in the middle of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.load(&key).expect_err("must detect corruption");
        match &err {
            StoreError::Corrupt { quarantined, .. } => {
                let q = quarantined.as_ref().expect("moved to quarantine");
                assert!(q.exists(), "quarantined file kept for inspection");
            }
            StoreError::Io(e) => panic!("expected Corrupt, got Io: {e}"),
        }
        assert!(!store.contains(&key), "corrupt file no longer published");
        // get_or_record degrades to re-tracing and re-publishes.
        let (replayed, source) = store
            .get_or_record(&key, || Ok::<_, String>(trace.clone()))
            .unwrap();
        assert_eq!(source, StoreSource::Vm);
        assert_eq!(replayed.output(), trace.output());
        assert!(store.contains(&key), "republished after fallback");
        assert_eq!(
            store
                .stats()
                .quarantined
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn streaming_reader_matches_eager_load() {
        let dir = scratch("streaming");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(60);
        store.put(&key, &trace).unwrap();
        let mut reader = store.open_reader(&key).unwrap().expect("published");
        assert_eq!(reader.record_count(), trace.len() as u64);
        let mut streamed = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            streamed.push(record);
        }
        assert_eq!(streamed.as_slice(), trace.records());
        assert_eq!(reader.read_output().unwrap(), trace.output());
        reader.finish().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn list_gc_and_verify() {
        let dir = scratch("list_gc");
        let store = Store::open(&dir).unwrap();
        let (trace_a, key_a) = sample_trace(5);
        let (trace_b, key_b) = sample_trace(6);
        let path_a = store.put(&key_a, &trace_a).unwrap();
        store.put(&key_b, &trace_b).unwrap();
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 2);
        assert!(listed.windows(2).all(|w| w[0].name <= w[1].name));
        let report = verify_file(&path_a).expect("intact artifact verifies");
        assert_eq!(report.records, trace_a.len() as u64);
        assert_eq!(report.output_checksum, trace_a.output_checksum());
        let info = info_file(&path_a).expect("footer readable");
        assert!(info.total_raw > 0);
        // Corrupt key_a, trip quarantine, then gc clears it.
        let mut bytes = std::fs::read(&path_a).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path_a, &bytes).unwrap();
        assert!(store.load(&key_a).is_err());
        let report = store.gc().unwrap();
        assert_eq!(report.quarantine_removed, 1);
        assert_eq!(store.gc().unwrap(), GcReport::default(), "gc is idempotent");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn digest_listing_agrees_across_stores_and_detects_content() {
        let dir_a = scratch("digest_a");
        let dir_b = scratch("digest_b");
        let store_a = Store::open(&dir_a).unwrap();
        let store_b = Store::open(&dir_b).unwrap();
        let (trace_1, key_1) = sample_trace(21);
        let (trace_2, key_2) = sample_trace(22);
        store_a.put(&key_1, &trace_1).unwrap();
        store_a.put(&key_2, &trace_2).unwrap();
        store_b.put(&key_1, &trace_1).unwrap();
        let list_a = store_a.digest_listing().unwrap();
        let list_b = store_b.digest_listing().unwrap();
        assert_eq!(list_a.len(), 2);
        assert_eq!(list_b.len(), 1);
        let in_a = list_a.iter().find(|e| e.name == key_1.filename()).unwrap();
        assert_eq!(
            in_a, &list_b[0],
            "same artifact content must digest identically on both stores"
        );
        assert_ne!(fold_digests(&list_a), fold_digests(&list_b));
        store_b.put(&key_2, &trace_2).unwrap();
        assert_eq!(
            fold_digests(&store_b.digest_listing().unwrap()),
            fold_digests(&list_a),
            "converged stores fold to the same digest"
        );
        // Corrupting payload bytes changes (or hides) the digest.
        let path = store_a.path_for(&key_1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40] ^= 0xFF; // inside the first chunk frame
        std::fs::write(&path, &bytes).unwrap();
        let relisted = store_a.digest_listing().unwrap();
        let entry = relisted.iter().find(|e| e.name == key_1.filename());
        assert!(
            entry.is_none() || entry.unwrap().digest != in_a.digest,
            "content change must change the advertised digest"
        );
        std::fs::remove_dir_all(dir_a).ok();
        std::fs::remove_dir_all(dir_b).ok();
    }

    #[test]
    fn install_artifact_round_trips_and_is_fail_closed() {
        let dir_src = scratch("install_src");
        let dir_dst = scratch("install_dst");
        let src = Store::open(&dir_src).unwrap();
        let dst = Store::open(&dir_dst).unwrap();
        let (trace, key) = sample_trace(17);
        src.put(&key, &trace).unwrap();
        let name = key.filename();
        let bytes = src.artifact_bytes(&name).unwrap().expect("published");
        assert!(dst.install_artifact(&name, &bytes).unwrap());
        assert!(
            !dst.install_artifact(&name, &bytes).unwrap(),
            "re-install is an idempotent no-op"
        );
        let replayed = dst.load(&key).unwrap().expect("installed");
        assert_eq!(replayed.output(), trace.output());
        // Corrupt bytes are rejected before publish, leaving no trace.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        let (_, other_key) = sample_trace(18);
        let err = dst
            .install_artifact(&other_key.filename(), &bad)
            .expect_err("corrupt sync bytes must be refused");
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(!dst.contains(&other_key));
        let tmp_orphans = std::fs::read_dir(dir_dst.join("tmp")).unwrap().count();
        assert_eq!(tmp_orphans, 0, "failed install leaves no tmp orphan");
        // Hostile names never touch the filesystem.
        for name in ["../escape.dtrc", "UPPER.dtrc", "x/y.dtrc", "", "plain"] {
            assert!(!valid_artifact_name(name), "{name}");
            assert!(dst.artifact_bytes(name).is_err());
            assert!(dst.install_artifact(name, &bytes).is_err());
        }
        assert!(valid_artifact_name(&name));
        std::fs::remove_dir_all(dir_src).ok();
        std::fs::remove_dir_all(dir_dst).ok();
    }

    #[test]
    fn snapshot_put_load_round_trip_and_quarantine() {
        let dir = scratch("snapshot");
        let store = Store::open(&dir).unwrap();
        let name = "unit-tiny-v1-00000000000000aa-r4096.dsnp";
        let bytes = seal(SNAPSHOT_MAGIC, b"snapshot-payload");
        assert!(store.load_snapshot(name).unwrap().is_none());
        store.put_snapshot(name, &bytes).unwrap();
        assert_eq!(store.load_snapshot(name).unwrap().unwrap(), bytes);
        assert_eq!(store.list_snapshots().unwrap().len(), 1);
        assert!(store.list().unwrap().is_empty(), "dsnp not a trace");
        // Bad framing is refused at publish time.
        let mut bad = bytes.clone();
        bad[10] ^= 0x40;
        assert!(matches!(
            store.put_snapshot(name, &bad),
            Err(StoreError::Corrupt { .. })
        ));
        // On-disk corruption quarantines at load time.
        let path = dir.join(name);
        std::fs::write(&path, &bad).unwrap();
        match store.load_snapshot(name) {
            Err(StoreError::Corrupt { quarantined, .. }) => {
                assert!(quarantined.expect("moved").exists());
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(store.load_snapshot(name).unwrap().is_none());
        // Hostile names never touch the filesystem.
        for bad_name in ["../x.dsnp", "x.dtrc.dsnp.other", "UPPER.dsnp", "x"] {
            assert!(store.put_snapshot(bad_name, &bytes).is_err(), "{bad_name}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshots_join_digest_listing_and_sync_install() {
        let dir_a = scratch("snap_digest_a");
        let dir_b = scratch("snap_digest_b");
        let store_a = Store::open(&dir_a).unwrap();
        let store_b = Store::open(&dir_b).unwrap();
        let (trace, key) = sample_trace(14);
        store_a.put(&key, &trace).unwrap();
        let snap_name = "unit-tiny-v1-00000000000000bb-r0.dsnp";
        let snap_bytes = seal(SNAPSHOT_MAGIC, b"state-at-zero");
        store_a.put_snapshot(snap_name, &snap_bytes).unwrap();
        let listing = store_a.digest_listing().unwrap();
        assert_eq!(listing.len(), 2, "trace and snapshot both advertised");
        assert!(listing.windows(2).all(|w| w[0].name <= w[1].name));
        // Replicate the snapshot through the generic artifact channel.
        assert!(valid_artifact_name(snap_name));
        let fetched = store_a.artifact_bytes(snap_name).unwrap().unwrap();
        assert!(store_b.install_artifact(snap_name, &fetched).unwrap());
        assert_eq!(
            store_b.load_snapshot(snap_name).unwrap().unwrap(),
            snap_bytes
        );
        // Corrupt snapshot bytes are refused by install, fail-closed.
        let mut bad = fetched.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        let other = "unit-tiny-v1-00000000000000cc-r0.dsnp";
        assert!(matches!(
            store_b.install_artifact(other, &bad),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(store_b.load_snapshot(other).unwrap().is_none());
        std::fs::remove_dir_all(dir_a).ok();
        std::fs::remove_dir_all(dir_b).ok();
    }

    #[test]
    fn verify_snapshot_bytes_rejects_bad_framing() {
        assert!(verify_snapshot_bytes(&seal(SNAPSHOT_MAGIC, b"ok")).is_ok());
        assert!(verify_snapshot_bytes(b"short").is_err());
        assert!(verify_snapshot_bytes(b"NOTSNAP_0123456789abcdef").is_err());
        let mut flipped = seal(SNAPSHOT_MAGIC, b"payload");
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(verify_snapshot_bytes(&flipped).is_err());
    }

    #[test]
    fn keys_separate_content_and_are_filename_safe() {
        let a = ArtifactKey::new("xlisp", "tiny", "listing-a", &[1, 2]);
        let b = ArtifactKey::new("xlisp", "tiny", "listing-b", &[1, 2]);
        let c = ArtifactKey::new("xlisp", "tiny", "listing-a", &[2, 1]);
        assert_ne!(a.digest, b.digest, "program content keyed");
        assert_ne!(a.digest, c.digest, "memory content keyed");
        let weird = ArtifactKey::new("Prog/RAM: 1", "A D-HOC", "l", &[]);
        assert!(weird
            .filename()
            .chars()
            .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || "-_.".contains(ch)));
        assert!(weird.filename().ends_with(".dtrc"));
    }

    #[test]
    fn version_mismatch_is_corruption() {
        let dir = scratch("version");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(9);
        let path = store.put(&key, &trace).unwrap();
        // Bump the trace-format version field in the header (offset 12).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0x02;
        std::fs::write(&path, &bytes).unwrap();
        match store.load(&key) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("trace format"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
