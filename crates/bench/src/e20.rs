//! E20 — time travel: `@ version` cite latency vs history depth (anchor
//! spacing sweep), and storage growth with vs without compaction under a
//! commit storm.
//!
//! The paper's citations are stamped with the version they cited; E20
//! prices actually *serving* those stamps later:
//!
//! * **`@ version` latency vs depth** — after a commit storm and a
//!   restart, a historical cite below the recovered checkpoint must be
//!   reconstructed from the nearest retained anchor plus a WAL-segment
//!   replay. The replay tail is bounded by the anchor spacing
//!   (`--checkpoint-every`), so the sweep shows latency tracking
//!   spacing, not total history depth.
//! * **storage growth under compaction** — the same storm against two
//!   stores, one left alone and one `compact`ed to a recent window. The
//!   gap is the price of keeping every version citable forever.

use std::path::{Path, PathBuf};
use std::time::Duration;

use citesys_net::script::{Interpreter, SharedStore};

use crate::table::{ms, timed, Table};

/// Bench sizing: (commits in the storm, anchor spacings swept).
pub fn config(quick: bool) -> (usize, Vec<u64>) {
    if quick {
        (24, vec![2, 8])
    } else {
        (96, vec![4, 16])
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("citesys-e20")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The setup script: the two-table schema, one seed family, the
/// paper-style views, one sealing commit (version 1).
fn setup_script() -> String {
    "schema Family(FID:int, FName:text, Desc:text) key(0)\n\
     schema FamilyIntro(FID:int, Text:text) key(0)\n\
     insert Family(0, 'F0', 'D0')\n\
     insert FamilyIntro(0, 'intro 0')\n\
     view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'\n\
     view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'\n\
     commit\n"
        .to_string()
}

const CITE: &str = "cite Q(FName) :- Family(0, FName, Desc), FamilyIntro(0, Text)";

/// Opens a durable interpreter over a fresh dir with `every`-record
/// auto-checkpointing and ample anchor retention, runs the setup plus a
/// `commits`-version storm, and drops the process. Returns the dir and
/// the latest version.
pub fn storm_dir(tag: &str, commits: usize, every: u64) -> (PathBuf, u64) {
    let dir = temp_dir(tag);
    let shared =
        SharedStore::open_durable_shared_with_retention(&dir, usize::MAX).expect("open data dir");
    shared.lock().store_mut().set_checkpoint_every(Some(every));
    let mut interp = Interpreter::with_store(shared);
    interp.run(&setup_script()).expect("setup");
    for i in 0..commits {
        let fid = 1_000 + i as i64;
        interp
            .run_line(&format!("insert Family({fid}, 'N{fid}', 'D')"))
            .expect("insert");
        interp.run_line("commit").expect("commit");
    }
    let latest = interp.shared().lock().store().latest_version();
    (dir, latest)
}

/// Reopens a storm dir the way `serve --data-dir` would after a
/// restart: the op log starts at the recovered checkpoint, so versions
/// below it resolve through retained anchors.
pub fn reopen(dir: &Path) -> Interpreter {
    let shared = SharedStore::open_durable_shared_with_retention(dir, usize::MAX).expect("reopen");
    Interpreter::with_store(shared)
}

/// One `cite … @ version` round-trip; returns its wall time.
pub fn cite_at(interp: &mut Interpreter, version: u64) -> Duration {
    let (out, wall) = timed(|| {
        interp
            .run_line(&format!("{CITE} @ {version}"))
            .expect("cite")
    });
    assert!(
        out.contains(&format!("at version {version}")),
        "historical stamp missing: {out}"
    );
    wall
}

/// Total on-disk footprint of a data dir (checkpoint + WAL + anchors).
pub fn dir_size(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                total += dir_size(&path);
            } else if let Ok(meta) = entry.metadata() {
                total += meta.len();
            }
        }
    }
    total
}

fn kib(bytes: u64) -> String {
    format!("{:.1} KiB", bytes as f64 / 1024.0)
}

/// Builds the E20 table.
pub fn table(quick: bool) -> Table {
    let (commits, spacings) = config(quick);
    let mut rows = Vec::new();

    // Arm 1: @ version latency vs depth, per anchor spacing.
    for every in &spacings {
        let (dir, latest) = storm_dir(&format!("sweep-{every}"), commits, *every);
        let mut interp = reopen(&dir);
        let retained = interp.shared().lock().store().checkpoints_retained();
        // Depth sweep: the present, the middle of history, the oldest
        // committed version. All but the first resolve via an anchor
        // whose replay tail is < `every` records.
        for (label, version) in [
            ("latest", latest),
            ("mid-history", latest / 2),
            ("oldest", 1),
        ] {
            let wall = cite_at(&mut interp, version);
            rows.push(vec![
                format!("@ {label} (v{version}), anchor every {every}"),
                ms(wall),
                format!("{retained} checkpoint(s) retained"),
                format!("replay tail < {every} record(s)"),
            ]);
        }
        drop(interp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Arm 2: storage growth with vs without compaction.
    let every = spacings[0];
    let window = every;
    let (keep_dir, _) = storm_dir("keep-all", commits, every);
    let keep_size = dir_size(&keep_dir);
    let (compact_dir, latest) = storm_dir("compacted", commits, every);
    let mut interp = reopen(&compact_dir);
    let out = interp
        .run_line(&format!("compact {window}"))
        .expect("compact");
    assert!(out.starts_with("compacted to version"), "{out}");
    let compact_size = dir_size(&compact_dir);
    let floor = interp.shared().lock().store().history_base_version();
    rows.push(vec![
        format!("{commits}-commit storm, full history kept"),
        "-".into(),
        kib(keep_size),
        format!("every version since 0 citable"),
    ]);
    rows.push(vec![
        format!("{commits}-commit storm, compacted to window {window}"),
        "-".into(),
        kib(compact_size),
        format!("citable from v{floor} of v{latest}"),
    ]);
    drop(interp);
    let _ = std::fs::remove_dir_all(&keep_dir);
    let _ = std::fs::remove_dir_all(&compact_dir);

    Table {
        id: "E20",
        title: "time travel: @ version latency vs history depth, compaction savings",
        expectation: "historical cite latency tracks the anchor spacing (replay tail), \
                      not total history depth; compaction reclaims most anchor storage \
                      while keeping the recent window citable",
        headers: vec![
            "arm".into(),
            "wall".into(),
            "size / note".into(),
            "detail".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_then_reopen_serves_history_at_every_depth() {
        let (dir, latest) = storm_dir("test-depths", 6, 2);
        let mut interp = reopen(&dir);
        for version in 1..=latest {
            cite_at(&mut interp, version);
        }
        drop(interp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_shrinks_the_dir_and_floors_history() {
        let (dir, latest) = storm_dir("test-compact", 8, 2);
        let before = dir_size(&dir);
        let mut interp = reopen(&dir);
        interp.run_line("compact 2").expect("compact");
        // The floor lands on the nearest retained anchor at or below the
        // requested window — never above it.
        let floor = interp.shared().lock().store().history_base_version();
        assert!(floor <= latest - 2, "floor {floor} vs latest {latest}");
        assert!(floor > 0, "something was compacted");
        assert!(dir_size(&dir) < before, "anchors were pruned");
        cite_at(&mut interp, latest - 2);
        cite_at(&mut interp, floor);
        drop(interp);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
