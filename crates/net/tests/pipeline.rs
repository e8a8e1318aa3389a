//! Pipelining and event-transport tests: the event-driven connection
//! layer must be wire-compatible with the blocking worker pool, `@tag`
//! echoes must come back in request order, commit bursts must coalesce
//! into one group window, and every failure path (mid-pipeline
//! disconnects, oversized lines, idle sessions, full servers) must
//! leave no state behind.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use citesys_net::client::Connection;
use citesys_net::protocol::{Response, WireErrorKind};
use citesys_net::server::{Server, ServerConfig};

fn spawn(config: ServerConfig) -> (Server, String) {
    let server = Server::spawn(config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Blocking transport, per-transaction commits (deterministic group
/// stats for equivalence checks).
fn blocking_config() -> ServerConfig {
    ServerConfig {
        commit_window: Duration::ZERO,
        ..Default::default()
    }
}

/// Event transport on a deliberately tiny worker set — every test here
/// multiplexes more sockets than workers.
fn event_config() -> ServerConfig {
    ServerConfig {
        event_loop: true,
        workers: 2,
        commit_window: Duration::ZERO,
        ..Default::default()
    }
}

fn ok_lines(resp: Response) -> Vec<String> {
    match resp {
        Response::Ok(lines) => lines,
        Response::Err { kind, message } => panic!("unexpected error [{kind:?}]: {message}"),
    }
}

/// Writes one raw request byte-for-byte, then reads the server's whole
/// response stream to EOF (banner included).
fn exchange(addr: &str, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream.write_all(request).expect("send request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read to EOF");
    reply
}

fn poll_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

const SCRIPT: &[&str] = &[
    "schema R(A:int, B:text) key(0)",
    "insert R(1, 'a')",
    "insert R(2, 'b')",
    "commit",
    "view V(A, B) :- R(A, B) | cite CV(D) :- D = 'src'",
    "cite Q(A) :- R(A, B)",
    "begin",
    "insert R(3, 'c')",
    "commit",
    "dump R",
    "tables",
];

/// The tentpole equivalence: a 64-deep-capable pipelined session on
/// the event transport produces exactly the responses — and exactly
/// the store statistics — of the same script run synchronously on the
/// blocking transport.
#[test]
fn pipelined_equals_sync_responses_and_stats() {
    let (sync_server, sync_addr) = spawn(blocking_config());
    let mut conn = Connection::connect(&sync_addr).unwrap();
    let sync_responses: Vec<Response> =
        SCRIPT.iter().map(|line| conn.send(line).unwrap()).collect();
    drop(conn);

    let (event_server, event_addr) = spawn(event_config());
    let mut conn = Connection::connect(&event_addr).unwrap();
    let pipelined_responses = conn.pipeline(SCRIPT).unwrap();
    drop(conn);

    assert_eq!(sync_responses, pipelined_responses);

    let sync = sync_server.shared().lock().obs().clone();
    let event = event_server.shared().lock().obs().clone();
    assert_eq!(sync.commits.get(), event.commits.get());
    assert_eq!(sync.snapshot_swaps.get(), event.snapshot_swaps.get());
    assert_eq!(sync.group_windows.get(), event.group_windows.get());
    assert_eq!(sync.largest_group.get(), event.largest_group.get());
    assert_eq!(sync.service_builds.get(), event.service_builds.get());
    sync_server.stop();
    event_server.stop();
}

/// Tags are optional per request and echo back on the matching frame,
/// interleaved with untagged traffic, strictly in request order.
#[test]
fn tags_echo_in_request_order_mixed_with_untagged() {
    let (server, addr) = spawn(event_config());
    let mut conn = Connection::connect(&addr).unwrap();
    conn.send_nowait(Some("a1"), "schema R(A:int)").unwrap();
    conn.send_nowait(None, "insert R(1)").unwrap();
    conn.send_nowait(Some("z/9"), "commit").unwrap();
    conn.send_nowait(Some("last"), "dump R").unwrap();

    let (tag, resp) = conn.read_tagged_response().unwrap().unwrap();
    assert_eq!(tag.as_deref(), Some("a1"));
    assert!(ok_lines(resp)[0].contains("schema R"));
    let (tag, resp) = conn.read_tagged_response().unwrap().unwrap();
    assert_eq!(tag, None);
    ok_lines(resp);
    let (tag, resp) = conn.read_tagged_response().unwrap().unwrap();
    assert_eq!(tag.as_deref(), Some("z/9"));
    assert!(ok_lines(resp)[0].contains("committed version 1"));
    let (tag, resp) = conn.read_tagged_response().unwrap().unwrap();
    assert_eq!(tag.as_deref(), Some("last"));
    let rows = ok_lines(resp);
    assert_eq!(rows.last().map(String::as_str), Some("1"), "{rows:?}");
    server.stop();
}

/// The same raw bytes — tags, CRLF endings, blanks, comments, parse
/// errors, a quit — produce byte-identical reply streams on both
/// transports.
#[test]
fn event_and_blocking_transports_byte_identical() {
    let request: &[u8] = b"@s1 schema R(A:int, B:text) key(0)\n\
        insert R(1, 'a')\r\n\
        @x insert R(2, 'b')\n\
        @c1 commit\n\
        tables\n\
        \n\
        # a comment line\r\n\
        @oops bogus nonsense\n\
        @ not-a-tag\n\
        @q quit\n";
    let (blocking, blocking_addr) = spawn(blocking_config());
    let (event, event_addr) = spawn(event_config());
    let from_blocking = exchange(&blocking_addr, request);
    let from_event = exchange(&event_addr, request);
    assert_eq!(
        String::from_utf8_lossy(&from_blocking),
        String::from_utf8_lossy(&from_event),
    );
    // Spot-check the shared stream really carries tagged frames.
    let text = String::from_utf8_lossy(&from_event).to_string();
    assert!(text.contains("ok @s1 1"), "{text}");
    assert!(text.contains("ok @c1 1"), "{text}");
    assert!(text.contains("err @oops parse"), "{text}");
    assert!(text.ends_with("ok @q 1\nbye\n"), "{text}");
    blocking.stop();
    event.stop();
}

/// A client that vanishes mid-pipeline (open transaction, responses
/// never read) rolls back cleanly: no partial data, the connection
/// count returns to what it was, and later commits work.
#[test]
fn mid_pipeline_disconnect_rolls_back_and_leaks_nothing() {
    let (server, addr) = spawn(event_config());
    let mut admin = Connection::connect(&addr).unwrap();
    ok_lines(admin.send("schema R(A:int, B:text) key(0)").unwrap());
    ok_lines(admin.send("insert R(1, 'keep')").unwrap());
    ok_lines(admin.send("commit").unwrap());

    let mut doomed = TcpStream::connect(&addr).unwrap();
    doomed
        .write_all(b"@t1 begin\n@t2 insert R(99, 'ghost')\n@t3 delete R(1, 'keep')\n")
        .unwrap();
    doomed.flush().unwrap();
    // Give the worker a moment to execute the burst, then vanish
    // without reading a single response (and without commit or quit).
    std::thread::sleep(Duration::from_millis(100));
    drop(doomed);

    assert!(
        poll_until(Duration::from_secs(2), || server.open_connections() == 1),
        "dead pipeline reaped: {} connections still held",
        server.open_connections()
    );
    let rows = ok_lines(admin.send("dump R").unwrap());
    assert!(rows.iter().any(|l| l.contains("keep")), "{rows:?}");
    assert!(!rows.iter().any(|l| l.contains("ghost")), "{rows:?}");
    ok_lines(admin.send("insert R(2, 'later')").unwrap());
    let lines = ok_lines(admin.send("commit").unwrap());
    assert!(lines[0].contains("committed version 2"), "{lines:?}");
    server.stop();
}

/// Regression (satellite 4): an oversized line on a pipelined
/// connection flushes every earlier queued response first, answers
/// `err proto` for the bad request, and only then closes — on *both*
/// transports, with identical bytes.
#[test]
fn oversized_line_flushes_earlier_responses_then_closes() {
    let mut request = b"schema R(A:int)\ninsert R(1)\n@t3 insert R(".to_vec();
    request.extend_from_slice("9".repeat(300).as_bytes());
    request.extend_from_slice(b")\n");
    let mut streams = Vec::new();
    for event_loop in [false, true] {
        let (server, addr) = spawn(ServerConfig {
            max_line_bytes: 64,
            event_loop,
            ..event_config()
        });
        let reply = String::from_utf8_lossy(&exchange(&addr, &request)).to_string();
        // Both earlier commands answered, in order, before the error…
        let schema_at = reply.find("schema R (1 attributes)").expect(&reply);
        let err_at = reply.find("err proto line exceeds 64 bytes").expect(&reply);
        assert!(schema_at < err_at, "{reply}");
        // …and the error frame is the last thing on the wire (the
        // close happened after the flush, not instead of it).
        assert!(
            reply.ends_with("err proto line exceeds 64 bytes\n"),
            "{reply}"
        );
        streams.push(reply);
        server.stop();
    }
    assert_eq!(streams[0], streams[1], "transports diverged");
}

/// A pipelined burst of transactions lands on the group committer
/// inside one coalescing window: session-local commands keep executing
/// behind the in-flight commit, so both commits merge.
#[test]
fn pipelined_commit_burst_coalesces_into_one_window() {
    let (server, addr) = spawn(ServerConfig {
        commit_window: Duration::from_millis(100),
        ..event_config()
    });
    let mut admin = Connection::connect(&addr).unwrap();
    ok_lines(admin.send("schema R(A:int, B:text) key(0)").unwrap());
    ok_lines(admin.send("commit").unwrap());
    let obs = server.shared().lock().obs().clone();
    let base = (obs.commits.get(), obs.group_windows.get());

    let mut conn = Connection::connect(&addr).unwrap();
    let burst = [
        "begin",
        "insert R(10, 'x')",
        "commit",
        "begin",
        "insert R(11, 'y')",
        "commit",
    ];
    for (i, line) in burst.iter().enumerate() {
        conn.send_nowait(Some(&format!("b{i}")), line).unwrap();
    }
    let mut acks = Vec::new();
    for i in 0..burst.len() {
        let (tag, resp) = conn.read_tagged_response().unwrap().unwrap();
        assert_eq!(tag.as_deref(), Some(format!("b{i}").as_str()));
        acks.push(ok_lines(resp));
    }
    assert!(acks[2][0].contains("group of 2"), "{acks:?}");
    assert!(acks[5][0].contains("group of 2"), "{acks:?}");

    assert_eq!(obs.commits.get() - base.0, 2);
    assert_eq!(
        obs.group_windows.get() - base.1,
        1,
        "burst split across windows"
    );
    assert!(obs.largest_group.get() >= 2);
    let rows = ok_lines(admin.send("dump R").unwrap());
    // CSV header plus the two tuples from the merged burst.
    assert_eq!(rows.len(), 3, "{rows:?}");
    server.stop();
}

/// `quit` mid-pipeline: the farewell is the session's final frame and
/// everything the client queued after it is dropped unexecuted.
#[test]
fn quit_drops_the_pipelined_tail() {
    let (server, addr) = spawn(event_config());
    let mut conn = Connection::connect(&addr).unwrap();
    // One write, so the tail is in the server's buffer before it acts
    // on `quit`; separate sends would race the close and can hit a reset.
    conn.stream()
        .write_all(b"schema R(A:int)\nquit\ntables\n")
        .unwrap();
    ok_lines(conn.read_tagged_response().unwrap().unwrap().1);
    let (_, resp) = conn.read_tagged_response().unwrap().unwrap();
    assert_eq!(ok_lines(resp), vec!["bye".to_string()]);
    assert!(
        conn.read_tagged_response().unwrap().is_none(),
        "no frame for the post-quit command"
    );
    server.stop();
}

/// The event transport reaps idle sessions on the same contract as the
/// blocking pool: an `err proto` frame, then a close.
#[test]
fn idle_event_session_times_out_with_protocol_error() {
    let (server, addr) = spawn(ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..event_config()
    });
    let mut conn = Connection::connect(&addr).unwrap();
    ok_lines(conn.send("schema R(A:int)").unwrap());
    match conn.read_response().unwrap().expect("timeout frame") {
        Response::Err { kind, message } => {
            assert_eq!(kind, WireErrorKind::Proto);
            assert!(message.contains("idle timeout"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    assert!(
        conn.read_response().unwrap().is_none(),
        "closed after timeout"
    );
    server.stop();
}

/// Connections over `max_connections` are turned away with a banner
/// plus `err proto server full…`, and a slot freed by a departing
/// client becomes usable again.
#[test]
fn over_capacity_connections_get_server_full_then_a_freed_slot_works() {
    let (server, addr) = spawn(ServerConfig {
        max_connections: 2,
        ..event_config()
    });
    let held1 = Connection::connect(&addr).unwrap();
    let held2 = Connection::connect(&addr).unwrap();
    assert_eq!(server.open_connections(), 2);

    let mut extra = Connection::connect(&addr).unwrap();
    match extra.read_response().unwrap().expect("rejection frame") {
        Response::Err { kind, message } => {
            assert_eq!(kind, WireErrorKind::Proto);
            assert_eq!(message, "server full: 2 connections held");
        }
        other => panic!("{other:?}"),
    }
    drop(extra);

    drop(held1);
    assert!(
        poll_until(Duration::from_secs(2), || server.open_connections() < 2),
        "departed client never released its slot"
    );
    let mut replacement = Connection::connect(&addr).unwrap();
    ok_lines(replacement.send("schema R(A:int)").unwrap());
    drop(held2);
    server.stop();
}

/// `shutdown` over the event transport stops the whole server after
/// draining the farewell frame.
#[test]
fn shutdown_over_event_transport_stops_the_server() {
    let (server, addr) = spawn(event_config());
    let mut conn = Connection::connect(&addr).unwrap();
    let lines = ok_lines(conn.send("shutdown").unwrap());
    assert_eq!(lines, vec!["shutting down".to_string()]);
    server.wait();
    assert!(
        Connection::connect(&addr).is_err()
            || Connection::connect(&addr)
                .and_then(|mut c| c.send("tables"))
                .is_err(),
        "server no longer serves"
    );
}
