//! Crash-recovery acceptance tests: reopening a durable data directory
//! after a crash (no clean shutdown, no final checkpoint) must
//! reconstruct exactly the pre-crash **acked** state — same database
//! version, same `cite` answers, same fixity digests — with the
//! materialized-view cache and plan cache still warm, and a WAL whose
//! final record was torn mid-write must truncate cleanly instead of
//! failing to open.

use std::path::PathBuf;
use std::sync::Arc;

use citesys_net::script::{Interpreter, SharedStore};
use citesys_net::server::{Server, ServerConfig};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("citesys-recovery-test")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_interp(dir: &PathBuf) -> Interpreter {
    Interpreter::with_store(SharedStore::open_durable_shared(dir).expect("open data dir"))
}

const SETUP: &str = "\
schema Family(FID:int, FName:text, Desc:text) key(0)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(11, 'Calcitonin', 'C1')
insert Family(13, 'Dopamine', 'D1')
insert FamilyIntro(11, '1st')
view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'
view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'
commit
";

const CITE: &str = "cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)";

/// The core equivalence: for several different post-checkpoint histories
/// (plain commits, transactions, deletes, delete-then-reinsert), the
/// recovered store answers exactly like the pre-crash one and stays
/// warm.
#[test]
fn recover_equals_pre_crash_acked_state() {
    let histories: &[&[&str]] = &[
        // One plain commit after the cite.
        &["insert FamilyIntro(13, '3rd')", "commit"],
        // A transaction mixing insert and delete.
        &[
            "begin",
            "insert Family(14, 'Ghrelin', 'G1')",
            "insert FamilyIntro(14, '4th')",
            "delete Family(13, 'Dopamine', 'D1')",
            "commit",
        ],
        // Two commits, the second deleting-then-reinserting (nets to
        // nothing but still seals a version).
        &[
            "insert FamilyIntro(13, '3rd')",
            "commit",
            "begin",
            "delete FamilyIntro(13, '3rd')",
            "insert FamilyIntro(13, '3rd')",
            "commit",
        ],
    ];
    for (i, history) in histories.iter().enumerate() {
        let dir = temp_dir(&format!("equiv-{i}"));
        // --- Pre-crash session -------------------------------------------
        let mut live = durable_interp(&dir);
        live.run(SETUP).unwrap();
        live.run_line(CITE).unwrap(); // warm views + plan, then…
        live.run_line("checkpoint").unwrap(); // …checkpoint captures them
        for line in *history {
            live.run_line(line).unwrap(); // each commit acked ⇒ WAL-logged
        }
        let expected_cite = live.run_line(CITE).unwrap();
        let expected_tables = live.run_line("tables").unwrap();
        let expected_dump = live.run_line("dump Family").unwrap();
        let live_views = live.shared().lock().store().view_cache_stats().unwrap();
        // CRASH: drop without checkpoint, clean save or shutdown.
        drop(live);

        // --- Post-crash session ------------------------------------------
        let mut revived = durable_interp(&dir);
        assert_eq!(
            revived.run_line("tables").unwrap(),
            expected_tables,
            "history {i}: same relations after recovery"
        );
        assert_eq!(
            revived.run_line("dump Family").unwrap(),
            expected_dump,
            "history {i}: same tuples after recovery"
        );
        let recovered_cite = revived.run_line(CITE).unwrap();
        assert_eq!(
            recovered_cite, expected_cite,
            "history {i}: same cite answers, version and citation text"
        );
        // `verify` re-executes against the recovered snapshot: the
        // fixity digest must reproduce, proving byte-equivalent data.
        let verify_out = revived.run_line("verify").unwrap();
        assert!(verify_out.contains("fixity verified"), "{verify_out}");
        // Warmth: the recovered service re-cites without materializing
        // any view from scratch (checkpoint seeded them; WAL replay
        // carried them by delta), and without a fresh rewriting search.
        let stats = revived.shared().lock().store().view_cache_stats().unwrap();
        assert_eq!(
            stats.materializations, 0,
            "history {i}: views recovered warm: {stats:?} (live was {live_views:?})"
        );
        assert_eq!(stats.drops, 0, "history {i}: {stats:?}");
        let plans = revived.shared().lock().store().plan_cache_stats();
        assert_eq!(
            (plans.hits, plans.misses),
            (1, 0),
            "history {i}: plan recovered warm"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A WAL whose final record was torn mid-write (the crash happened
/// during the append) must truncate cleanly: the store opens, every
/// *previously acked* commit survives, and new commits append normally.
#[test]
fn torn_final_wal_record_truncates_cleanly() {
    let dir = temp_dir("torn");
    let mut live = durable_interp(&dir);
    live.run(SETUP).unwrap();
    live.run_line(CITE).unwrap();
    live.run_line("checkpoint").unwrap();
    live.run_line("insert FamilyIntro(13, '3rd')").unwrap();
    live.run_line("commit").unwrap(); // acked ⇒ must survive
    let expected = live.run_line(CITE).unwrap();
    drop(live);

    // Tear the tail: a record header and half an op, no `end` trailer —
    // exactly what a crash mid-append leaves behind.
    let wal = dir.join("wal.log");
    let mut text = std::fs::read_to_string(&wal).unwrap();
    text.push_str("record 3 2\ni FamilyIntro(14, '4t");
    std::fs::write(&wal, text).unwrap();

    let mut revived = durable_interp(&dir);
    assert_eq!(
        revived.run_line(CITE).unwrap(),
        expected,
        "acked commit survives; torn record is dropped"
    );
    // The truncated log keeps working: commit, crash, recover again.
    revived.run_line("insert FamilyIntro(14, '4th')").unwrap();
    revived.run_line("commit").unwrap();
    let expected = revived.run_line(CITE).unwrap();
    drop(revived);
    let mut again = durable_interp(&dir);
    assert_eq!(again.run_line(CITE).unwrap(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The TCP server wires the same durability: a server killed without
/// `shutdown` (dropped hard) comes back with its sessions' acked commits
/// and serves identical answers over the wire.
#[test]
fn server_restart_recovers_over_tcp() {
    use citesys_net::client::Connection;
    use citesys_net::protocol::Response;

    fn send_ok(conn: &mut Connection, line: &str) -> Vec<String> {
        match conn.send(line).expect("round-trip") {
            Response::Ok(lines) => lines,
            Response::Err { message, .. } => panic!("server error on '{line}': {message}"),
        }
    }

    let dir = temp_dir("tcp");
    let config = |dir: &PathBuf| ServerConfig {
        data_dir: Some(dir.clone()),
        ..Default::default()
    };
    let server = Server::spawn(config(&dir)).expect("bind");
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).expect("connect");
    for line in SETUP.lines().filter(|l| !l.trim().is_empty()) {
        send_ok(&mut conn, line);
    }
    send_ok(&mut conn, CITE);
    send_ok(&mut conn, "checkpoint");
    send_ok(&mut conn, "begin");
    send_ok(&mut conn, "insert FamilyIntro(13, '3rd')");
    send_ok(&mut conn, "commit");
    let expected = send_ok(&mut conn, CITE);
    drop(conn);
    // Hard stop: no client-issued shutdown, no final checkpoint.
    server.stop();

    let server = Server::spawn(config(&dir)).expect("rebind");
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).expect("reconnect");
    assert_eq!(
        send_ok(&mut conn, CITE),
        expected,
        "recovered server answers identically over the wire"
    );
    let stats = send_ok(&mut conn, "stats");
    assert!(
        stats.iter().any(|l| l == "view_materializations 0"),
        "warm recovery visible in wire stats: {stats:?}"
    );
    drop(conn);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a checkpoint the schemas cannot be recovered, so an
/// uncheckpointed-WAL directory is rejected loudly — but the normal
/// flow checkpoints at every DDL, so a store that ever declared a
/// schema always recovers.
#[test]
fn ddl_checkpoint_makes_first_commit_recoverable() {
    let dir = temp_dir("ddl");
    let mut live = durable_interp(&dir);
    live.run_line("schema R(A:int) key(0)").unwrap();
    live.run_line("insert R(1)").unwrap();
    live.run_line("commit").unwrap();
    drop(live); // crash before any cite or explicit checkpoint

    let mut revived = durable_interp(&dir);
    let out = revived.run_line("tables").unwrap();
    assert!(out.contains("R: 1 tuples"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The warmth checks above read the shared store; make sure an isolated
/// session over the same recovered store sees the same data (sessions
/// share one durable store).
#[test]
fn recovered_store_is_shared_across_sessions() {
    let dir = temp_dir("shared");
    let mut live = durable_interp(&dir);
    live.run(SETUP).unwrap();
    live.run_line("checkpoint").unwrap();
    drop(live);

    let shared = SharedStore::open_durable_shared(&dir).unwrap();
    let mut a = Interpreter::session(Arc::clone(&shared), None);
    let mut b = Interpreter::session(Arc::clone(&shared), None);
    let out = a.run_line("tables").unwrap();
    assert!(out.contains("Family: 2 tuples"), "{out}");
    // A commit from one session is durable and visible to the other.
    b.run_line("insert FamilyIntro(13, '3rd')").unwrap();
    b.run_line("commit").unwrap();
    let out = a.run_line("tables").unwrap();
    assert!(out.contains("FamilyIntro: 2 tuples"), "{out}");
    drop(a);
    drop(b);
    drop(shared);

    let mut revived = durable_interp(&dir);
    let out = revived.run_line("tables").unwrap();
    assert!(
        out.contains("FamilyIntro: 2 tuples"),
        "commit survived: {out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
