//! Connection soak (satellite 3): the event transport must hold
//! hundreds of idle sockets — ten thousand with `CITESYS_SOAK=1` — on
//! a fixed two-worker set, spawning **zero** per-connection threads,
//! reaping nothing early, and returning every file descriptor when the
//! clients leave and the server stops.
//!
//! This is deliberately a single `#[test]`: it counts the process's
//! file descriptors and threads via `/proc/self`, which only means
//! anything when no sibling test is opening sockets concurrently.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use citesys_net::client::Connection;
use citesys_net::protocol::Response;
use citesys_net::server::{Server, ServerConfig};

fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Best-effort raise of `RLIMIT_NOFILE` toward `want` descriptors,
/// returning the soft limit actually in force afterwards. Root (the
/// usual CI user here) can lift the hard limit too; everyone else gets
/// clamped to it, and the test scales itself to whatever came back.
fn raise_fd_limit(want: u64) -> u64 {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    unsafe {
        let mut rl = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut rl) != 0 {
            return 1024;
        }
        if rl.cur < want {
            let raised = Rlimit {
                cur: want,
                max: want.max(rl.max),
            };
            if setrlimit(RLIMIT_NOFILE, &raised) != 0 {
                // Hard limit held: settle for soft = hard.
                let capped = Rlimit {
                    cur: rl.max,
                    max: rl.max,
                };
                let _ = setrlimit(RLIMIT_NOFILE, &capped);
            }
            if getrlimit(RLIMIT_NOFILE, &mut rl) != 0 {
                return 1024;
            }
        }
        rl.cur
    }
}

/// A minimal idle client: one socket, banner consumed, then silence.
/// (A full [`Connection`] clones its stream; at 10k connections that
/// extra descriptor per client matters.)
fn connect_idle(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut buf = [0u8; 64];
    let mut seen = Vec::new();
    while !seen.contains(&b'\n') {
        let n = stream.read(&mut buf).expect("banner read");
        assert!(n > 0, "EOF before banner");
        seen.extend_from_slice(&buf[..n]);
    }
    assert!(seen.starts_with(b"citesys-net"), "{seen:?}");
    stream
}

fn poll_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

#[test]
fn event_loop_holds_thousands_of_idle_connections_on_two_workers() {
    let target: usize = if std::env::var("CITESYS_SOAK").is_ok() {
        10_000
    } else {
        512
    };
    // Each held connection costs ~3 descriptors in-process (client
    // socket + the server's socket and its reader clone). Raise the
    // limit if we can, then clamp the target to what we actually got.
    let soft = raise_fd_limit((target * 3 + 512) as u64) as usize;
    let fd_baseline = fd_count();
    let budget = soft.saturating_sub(fd_baseline + 128) / 3;
    let held = target.min(budget).max(16);

    let server = Server::spawn(ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_secs(300),
        commit_window: Duration::from_millis(50),
        max_connections: held + 8,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let threads_with_server_up = thread_count();

    // Hold `held` idle sockets. Reading each banner proves the server
    // accepted and registered the connection before we move on.
    let mut idle = Vec::with_capacity(held);
    for _ in 0..held {
        idle.push(connect_idle(&addr));
    }
    assert_eq!(
        server.open_connections(),
        held,
        "every idle socket is held server-side"
    );
    assert_eq!(
        thread_count(),
        threads_with_server_up,
        "{held} connections must not spawn a single extra thread"
    );

    // The multiplexed workers still serve an active session promptly.
    let mut active = Connection::connect(&addr).unwrap();
    for line in [
        "schema R(A:int, B:text) key(0)",
        "insert R(1, 'soak')",
        "commit",
        "view V(A, B) :- R(A, B) | cite CV(D) :- D = 'src'",
    ] {
        match active.send(line).unwrap() {
            Response::Ok(_) => {}
            Response::Err { message, .. } => panic!("{line}: {message}"),
        }
    }
    match active.send("cite Q(A) :- R(A, B)").unwrap() {
        Response::Ok(lines) => {
            assert!(lines[0].contains("1 answer tuple(s)"), "{lines:?}")
        }
        Response::Err { message, .. } => panic!("cite under load: {message}"),
    }
    drop(active);

    // Drop every client: the pollers must notice each EOF and release
    // the slot without a thread ever having been parked on it.
    drop(idle);
    assert!(
        poll_until(Duration::from_secs(30), || server.open_connections() == 0),
        "connections leaked: {} still held",
        server.open_connections()
    );

    // Shutdown drains: workers, committer, pollers and their wakeup
    // eventfds all return their descriptors.
    server.stop();
    assert!(
        poll_until(Duration::from_secs(5), || fd_count() <= fd_baseline),
        "fd leak: {} now vs {} at baseline",
        fd_count(),
        fd_baseline
    );
}
