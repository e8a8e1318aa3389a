//! E17 — durability: WAL-on vs WAL-off commit throughput, and cold vs
//! warm restart time-to-first-cite.
//!
//! The paper's citations are only worth minting if the fixed, citable
//! versions survive a restart. E17 prices that guarantee:
//!
//! * **commit throughput** — the same single-insert commit stream
//!   against an in-memory store and against a durable one (`--data-dir`
//!   semantics: every commit appended to the write-ahead log and
//!   fsynced *before* the ack). The gap is the cost of the durability
//!   contract on the write path.
//! * **restart time-to-first-cite** — a cold process (run the setup
//!   script, materialize views, search for a plan, cite) versus a warm
//!   restart (recover the checkpoint: data, registry, views and plans
//!   come back together; the first cite is a plan hit over pre-seeded
//!   materializations).

use std::path::PathBuf;
use std::time::Duration;

use citesys_net::script::{Interpreter, SharedStore};

use crate::table::{ms, timed, Table};

/// Bench sizing: (families loaded, commits measured).
pub fn config(quick: bool) -> (usize, usize) {
    if quick {
        (16, 30)
    } else {
        (64, 200)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("citesys-e17")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The setup script: schemas, `families` rows, the paper-style views,
/// one sealing commit.
pub fn setup_script(families: usize) -> String {
    let mut s = String::from(
        "schema Family(FID:int, FName:text, Desc:text) key(0)\n\
         schema FamilyIntro(FID:int, Text:text) key(0)\n",
    );
    for fid in 0..families {
        s.push_str(&format!("insert Family({fid}, 'F{fid}', 'D{fid}')\n"));
        s.push_str(&format!("insert FamilyIntro({fid}, 'intro {fid}')\n"));
    }
    s.push_str(
        "view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'\n\
         view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'\n\
         commit\n",
    );
    s
}

const FIRST_CITE: &str = "cite Q(FName) :- Family(0, FName, Desc), FamilyIntro(0, Text)";

/// Runs `commits` single-insert commits on `interp`, returning the wall
/// time. Keys start at 1_000_000 (clear of the loaded rows) and are
/// offset by `round * commits`, so repeated measurement rounds over one
/// interpreter keep inserting **fresh** tuples — reused keys would be
/// set-semantics no-ops and every commit would seal an empty changeset,
/// measuring nothing.
pub fn commit_stream(interp: &mut Interpreter, commits: usize, round: usize) -> Duration {
    let (_, wall) = timed(|| {
        for i in 0..commits {
            let fid = 1_000_000 + (round * commits + i) as i64;
            interp
                .run_line(&format!("insert Family({fid}, 'N{fid}', 'D')"))
                .expect("insert");
            interp.run_line("commit").expect("commit");
        }
    });
    wall
}

/// Arm 1: a WAL-off (in-memory) interpreter.
pub fn mem_interp(families: usize) -> Interpreter {
    let mut interp = Interpreter::new();
    interp.run(&setup_script(families)).expect("setup");
    interp
}

/// Arm 2: a WAL-on (durable) interpreter over a fresh data dir.
/// Returns the interpreter and the dir (caller removes it).
pub fn durable_interp(families: usize, tag: &str) -> (Interpreter, PathBuf) {
    let dir = temp_dir(tag);
    let shared = SharedStore::open_durable_shared(&dir).expect("open data dir");
    let mut interp = Interpreter::with_store(shared);
    interp.run(&setup_script(families)).expect("setup");
    (interp, dir)
}

/// Cold start: fresh in-memory process runs the whole setup script and
/// the first cite. Returns time-to-first-cite.
pub fn cold_start(families: usize) -> Duration {
    let (_, wall) = timed(|| {
        let mut interp = Interpreter::new();
        interp.run(&setup_script(families)).expect("setup");
        interp.run_line(FIRST_CITE).expect("cite");
    });
    wall
}

/// Warm start: open a checkpointed data dir (data + registry + views +
/// plans recovered together) and run the first cite. Returns
/// time-to-first-cite; callers prepare the dir with
/// [`prepare_warm_dir`].
pub fn warm_start(dir: &PathBuf) -> Duration {
    let (_, wall) = timed(|| {
        let shared = SharedStore::open_durable_shared(dir).expect("reopen");
        let mut interp = Interpreter::with_store(shared);
        let out = interp.run_line(FIRST_CITE).expect("cite");
        assert!(out.contains("answer tuple"), "{out}");
        let stats = interp
            .shared()
            .lock()
            .store()
            .view_cache_stats()
            .expect("service built");
        assert_eq!(stats.materializations, 0, "warm start must not rebuild");
    });
    wall
}

/// Builds a checkpointed data dir whose checkpoint holds warm views and
/// plans (setup + cite + `checkpoint`), then drops the process.
pub fn prepare_warm_dir(families: usize, tag: &str) -> PathBuf {
    let (mut interp, dir) = durable_interp(families, tag);
    interp.run_line(FIRST_CITE).expect("warm cite");
    interp.run_line("checkpoint").expect("checkpoint");
    dir
}

/// Builds the E17 table.
pub fn table(quick: bool) -> Table {
    let (families, commits) = config(quick);
    let mut rows = Vec::new();

    // Arm 1: commit throughput, WAL off vs on.
    let mut mem = mem_interp(families);
    let wall = commit_stream(&mut mem, commits, 0);
    rows.push(vec![
        format!("{commits} commits, wal off (memory)"),
        ms(wall),
        format!(
            "{:.0} commits/s",
            commits as f64 / wall.as_secs_f64().max(1e-9)
        ),
        "-".into(),
    ]);
    let (mut durable, dir) = durable_interp(families, "throughput");
    let wall = commit_stream(&mut durable, commits, 0);
    let wal_records = durable.shared().lock().obs().commits.get(); // one record per commit
    rows.push(vec![
        format!("{commits} commits, wal on (fsync before ack)"),
        ms(wall),
        format!(
            "{:.0} commits/s",
            commits as f64 / wall.as_secs_f64().max(1e-9)
        ),
        format!("{wal_records} acked"),
    ]);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    // Arm 2: restart time-to-first-cite, cold vs warm.
    let wall = cold_start(families);
    rows.push(vec![
        "cold start → first cite (script replay)".into(),
        ms(wall),
        "full load + materialize + plan search".into(),
        "-".into(),
    ]);
    let dir = prepare_warm_dir(families, "warm");
    let wall = warm_start(&dir);
    rows.push(vec![
        "warm restart → first cite (checkpoint recovery)".into(),
        ms(wall),
        "views pre-seeded, plan served from checkpoint".into(),
        "0 materializations".into(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);

    Table {
        id: "E17",
        title: "durability: WAL commit cost and cold vs warm restart",
        expectation: "wal-on commits pay an fsync per ack but stay the same order of \
                      magnitude; a warm restart reaches its first cite without \
                      re-materializing views or re-searching plans",
        headers: vec![
            "arm".into(),
            "wall".into(),
            "rate / note".into(),
            "detail".into(),
        ],
        rows,
    }
}
