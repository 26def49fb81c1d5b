//! `sanity --partitions N --trace DIR` must write partition ids into its
//! event traces — the header flag and the per-record ids — exactly as
//! `lb-experiments` does: both go through the one `lb_bench::simulate`.

use std::process::Command;

use gpu_sim::trace::{Event, TraceReader, FLAG_PART_IDS};

#[test]
fn partitioned_sanity_traces_carry_partition_ids() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sanity_partition_trace");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_sanity"))
        .args(["--quick", "--partitions", "2", "--trace"])
        .arg(&dir)
        .arg("GA")
        .output()
        .expect("sanity binary must run");
    assert!(out.status.success(), "sanity exited with {:?}", out.status);

    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("trace dir exists") {
        let path = entry.expect("readable dir entry").path();
        let bytes = std::fs::read(&path).expect("readable trace");
        let mut r = TraceReader::new(&bytes).expect("trace parses");
        assert_eq!(
            r.mask() & FLAG_PART_IDS,
            FLAG_PART_IDS,
            "{}: no partition flag",
            path.display()
        );
        let mut per_part = [0u64; 2];
        while let Some((_, ev)) = r.next_event().expect("trace decodes") {
            if let Event::L2Access { part, line, .. } = ev {
                assert_eq!(part, line & 1, "{}: L2 access on the wrong partition", path.display());
                per_part[part as usize] += 1;
            }
        }
        assert!(per_part.iter().all(|&n| n > 0), "{}: L2 events {per_part:?}", path.display());
        files += 1;
    }
    assert_eq!(files, 4, "base, pcal, cerf and lb each write one trace");
    std::fs::remove_dir_all(&dir).expect("trace dir removable");
}
