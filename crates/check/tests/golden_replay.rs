//! Golden replay: a seeded end-to-end run (dataset → ORCA → train →
//! recommend → evaluate) snapshotted byte-for-byte against a checked-in
//! golden file. Regenerate with `UPDATE_GOLDEN=1 cargo test -p xr_check`.

use xr_check::golden::{assert_matches_golden, replay, with_threads, ReplayConfig};

#[test]
fn small_replay_matches_the_checked_in_golden_file() {
    let snapshot = with_threads(1, || replay(&ReplayConfig::small()));
    assert_matches_golden("replay_small.txt", &snapshot);
}

#[test]
fn replay_is_byte_identical_across_thread_counts() {
    let serial = with_threads(1, || replay(&ReplayConfig::small()));
    let parallel = with_threads(8, || replay(&ReplayConfig::small()));
    assert_eq!(serial, parallel, "replay diverges between AFTER_THREADS=1 and AFTER_THREADS=8");
}
