//! E16 — the network front end: N-client cite throughput and
//! cross-connection group commit.
//!
//! The paper frames citation as an always-on service over a live
//! repository; E16 measures the serving layer end to end, over real TCP
//! sockets on the loopback interface:
//!
//! * **cite throughput** — N client connections each streaming
//!   λ-parameterized `cite` commands at one server. Cites run on
//!   lock-free service clones outside the store lock, so throughput
//!   should grow with clients until the protocol round-trip dominates.
//! * **group commit** — N clients each running `begin…commit`
//!   transactions that race into the committer's coalescing window,
//!   against the same workload with the window disabled (every
//!   transaction pays its own version seal and snapshot swap). The
//!   observable is the server's swap counter: **fewer snapshot swaps
//!   than commits** under the grouped arm, equal under the baseline.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use citesys_net::client::Connection;
use citesys_net::protocol::Response;
use citesys_net::server::{Server, ServerConfig};

use crate::table::{ms, timed, Table};

/// Bench sizing: client-count sweep, cite rounds per client, commit
/// rounds per client.
pub fn config(quick: bool) -> (Vec<usize>, usize, usize) {
    if quick {
        (vec![1, 2, 4], 15, 8)
    } else {
        (vec![1, 2, 4, 8], 80, 30)
    }
}

fn send_ok(conn: &mut Connection, line: &str) -> Vec<String> {
    match conn.send(line).expect("protocol round-trip") {
        Response::Ok(lines) => lines,
        Response::Err { message, .. } => panic!("server error on '{line}': {message}"),
    }
}

/// Spawns a server and loads a GtoPdb-style Family/FamilyIntro dataset
/// of `families` rows through one admin connection, with the paper's V2
/// and V3 views registered and the service warmed by one cite.
pub fn spawn_loaded(commit_window: Duration, families: usize) -> (Server, String) {
    spawn_loaded_with(
        ServerConfig {
            commit_window,
            ..Default::default()
        },
        families,
    )
}

/// [`spawn_loaded`] with full control over the server configuration
/// (E18 sizes the worker pool per experiment point).
pub fn spawn_loaded_with(config: ServerConfig, families: usize) -> (Server, String) {
    let server = Server::spawn(config).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut admin = Connection::connect(&addr).expect("connect");
    send_ok(
        &mut admin,
        "schema Family(FID:int, FName:text, Desc:text) key(0)",
    );
    send_ok(&mut admin, "schema FamilyIntro(FID:int, Text:text) key(0)");
    for fid in 0..families as i64 {
        send_ok(
            &mut admin,
            &format!("insert Family({fid}, 'F{fid}', 'D{fid}')"),
        );
        send_ok(
            &mut admin,
            &format!("insert FamilyIntro({fid}, 'intro {fid}')"),
        );
    }
    send_ok(
        &mut admin,
        "view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'",
    );
    send_ok(
        &mut admin,
        "view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'",
    );
    send_ok(&mut admin, "commit");
    // Warm: plan cached, views materialized, service snapshot published.
    send_ok(
        &mut admin,
        "cite Q(FName) :- Family(0, FName, Desc), FamilyIntro(0, Text)",
    );
    (server, addr)
}

/// N client threads, each on its own connection, each sending `rounds`
/// λ-parameterized cite commands. Returns the total cites served.
pub fn concurrent_net_cites(addr: &str, clients: usize, rounds: usize, families: usize) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Connection::connect(addr).expect("connect");
                    let mut done = 0usize;
                    for r in 0..rounds {
                        let fid = ((c + 1) * r) % families;
                        send_ok(
                            &mut conn,
                            &format!(
                                "cite Q(FName) :- Family({fid}, FName, Desc), FamilyIntro({fid}, Text)"
                            ),
                        );
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .sum()
    })
}

/// The server's write-path counters moved by one [`commit_storm`].
#[derive(Clone, Copy, Debug)]
pub struct StormCounters {
    /// Commit requests acknowledged during the storm.
    pub commits: u64,
    /// Service snapshot publications during the storm.
    pub snapshot_swaps: u64,
    /// Group-commit windows processed during the storm.
    pub group_windows: u64,
    /// Largest number of transactions one window has merged so far.
    pub largest_group: u64,
}

/// N client threads each running `rounds` begin…commit transactions on
/// disjoint keys, with a barrier before every `commit` so the
/// transactions race into the same commit window. Returns the server
/// counters moved by the storm.
pub fn commit_storm(
    server: &Server,
    addr: &str,
    clients: usize,
    rounds: usize,
) -> (StormCounters, Duration) {
    let obs = server.shared().lock().obs().clone();
    let base = (
        obs.commits.get(),
        obs.snapshot_swaps.get(),
        obs.group_windows.get(),
    );
    let barrier = Arc::new(Barrier::new(clients));
    let (_, wall) = timed(|| {
        std::thread::scope(|scope| {
            for c in 0..clients {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut conn = Connection::connect(addr).expect("connect");
                    for r in 0..rounds {
                        let fid = 1_000_000 + (c * rounds + r) as i64;
                        send_ok(&mut conn, "begin");
                        send_ok(&mut conn, &format!("insert Family({fid}, 'N{fid}', 'D')"));
                        send_ok(
                            &mut conn,
                            &format!("insert FamilyIntro({fid}, 'intro {fid}')"),
                        );
                        barrier.wait();
                        send_ok(&mut conn, "commit");
                    }
                });
            }
        })
    });
    (
        StormCounters {
            commits: obs.commits.get() - base.0,
            snapshot_swaps: obs.snapshot_swaps.get() - base.1,
            group_windows: obs.group_windows.get() - base.2,
            largest_group: obs.largest_group.get(),
        },
        wall,
    )
}

/// Builds the E16 table.
pub fn table(quick: bool) -> Table {
    let (sweep, cite_rounds, commit_rounds) = config(quick);
    let families = if quick { 16 } else { 64 };
    let mut rows = Vec::new();

    // Arm 1: cite throughput vs client count (one warm server).
    let (server, addr) = spawn_loaded(Duration::from_millis(2), families);
    for &clients in &sweep {
        let (total, wall) = timed(|| concurrent_net_cites(&addr, clients, cite_rounds, families));
        rows.push(vec![
            format!("cite × {clients} client(s)"),
            ms(wall),
            format!("{:.0} cites/s", total as f64 / wall.as_secs_f64().max(1e-9)),
            "-".into(),
        ]);
    }
    server.stop();

    // Arm 2: group commit vs per-transaction commit. Same storm, two
    // servers: one with a coalescing window, one with it disabled.
    let clients = *sweep.last().expect("non-empty sweep");
    for (label, window) in [
        ("group commit (5ms window)", Duration::from_millis(5)),
        ("per-txn commit (no window)", Duration::ZERO),
    ] {
        let (server, addr) = spawn_loaded(window, families);
        let (moved, wall) = commit_storm(&server, &addr, clients, commit_rounds);
        rows.push(vec![
            format!("{label}, {clients} clients × {commit_rounds} txns"),
            ms(wall),
            format!(
                "{} commits / {} swaps / {} windows",
                moved.commits, moved.snapshot_swaps, moved.group_windows
            ),
            format!("largest group {}", moved.largest_group),
        ]);
        server.stop();
    }

    Table {
        id: "E16",
        title: "network front end: concurrent cites and group commit",
        expectation: "cite throughput grows with clients (lock-free read path); \
                      the grouped arm seals fewer snapshot swaps than commits, \
                      the windowless arm roughly one swap per commit",
        headers: vec![
            "workload".into(),
            "wall (ms)".into(),
            "throughput / counters".into(),
            "notes".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_group_commit_coalesces() {
        let (server, addr) = spawn_loaded(Duration::from_millis(50), 8);
        let (moved, _) = commit_storm(&server, &addr, 3, 4);
        assert_eq!(moved.commits, 12);
        assert!(
            moved.snapshot_swaps < moved.commits,
            "coalescing must save swaps: {moved:?}"
        );
        assert!(moved.largest_group >= 2, "{moved:?}");
        server.stop();
    }

    #[test]
    fn e16_cite_throughput_arm_runs() {
        let (server, addr) = spawn_loaded(Duration::from_millis(2), 8);
        assert_eq!(concurrent_net_cites(&addr, 2, 5, 8), 10);
        server.stop();
    }
}
