//! Pins the on-disk bytes and the stable digests artifacts are keyed by.
//! A trace artifact, snapshot or filename written by one build must be
//! read back, and found, by the next: a failure here means a format
//! changed, and its version has to be bumped with it.

use dee::store::{checksum64, ArtifactKey, Store};
use dee::workloads::{Scale, Workload, WorkloadRegistry};

fn tiny_compress() -> (Workload, ArtifactKey) {
    let w = WorkloadRegistry::builtin()
        .build("compress", Scale::Tiny)
        .unwrap();
    let key = ArtifactKey::new(&w.name, "tiny", &w.program.to_listing(), &w.initial_memory);
    (w, key)
}

#[test]
fn trace_artifact_and_snapshot_bytes_are_pinned() {
    let (w, key) = tiny_compress();
    let trace = dee::vm::trace_program(&w.program, &w.initial_memory, w.step_limit).unwrap();
    let dir = std::env::temp_dir().join(format!("dee_pinned_formats_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).unwrap();

    let artifact = std::fs::read(store.put(&key, &trace).unwrap()).unwrap();
    assert_eq!((trace.len(), artifact.len()), (8417, 13_211));
    assert_eq!(checksum64(&artifact), 0x37f4_3756_c76f_e474, "DEESTOR1");

    dee::snap::publish_checkpoints(&store, &key, &w.program, &w.initial_memory, 1000).unwrap();
    let name = dee::snap::snapshot_filename(&key, 1000);
    assert_eq!(name, "compress-tiny-v1-3ae074912e87a57c-r1000.dsnp");
    let snapshot = std::fs::read(dir.join(&name)).unwrap();
    assert_eq!(snapshot.len(), 5275);
    assert_eq!(checksum64(&snapshot), 0x0a5f_33ef_385b_7ae4, "DEESNAP1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_filename_spec_and_state_digests_are_pinned() {
    let (w, key) = tiny_compress();
    assert_eq!(key.filename(), "compress-tiny-v1-3ae074912e87a57c.dtrc");
    assert_eq!(dee::gen::GenSpec::default().digest(), 0x545e_13f8);
    let mut machine = dee::vm::Machine::new();
    machine.try_load_memory(&w.initial_memory).unwrap();
    machine.run(&w.program, w.step_limit).unwrap();
    assert_eq!(machine.state_digest(), 0xabdc_0a69_f244_4c39);
    let output = dee::vm::output_checksum(machine.output());
    assert_eq!(output, 0x29e5_9297_f8fd_745a);
}
