//! Protocol fuzz: randomly generated command pipelines — tagged and
//! untagged, CRLF and LF, valid, garbage and oversized — are sent
//! pipelined with random TCP segmentation, and the full response stream
//! must be **byte-identical** to the one a fresh server returns for the
//! same lines sent lock-step (one request in flight).
//!
//! The generator places a `tables` barrier after every `commit`: a
//! pipelined commit burst legitimately coalesces (`group of N` differs
//! from the strictly sequential lock-step run), so equivalence is
//! asserted on the one-commit-in-flight schedule both runs share.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use citesys_net::server::{Server, ServerConfig};
use proptest::prelude::*;

mod common;

/// Line cap for both servers: small enough that the fuzzer can afford
/// to cross it.
const LINE_CAP: usize = 160;

fn spawn() -> (Server, String) {
    let server = Server::spawn(ServerConfig {
        workers: 2,
        commit_window: Duration::ZERO,
        max_line_bytes: LINE_CAP,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// One fuzz op: (opcode, key, tag selector, crlf). Rendered to command
/// lines by [`render`].
type FuzzOp = (u8, i64, u8, bool);

const GARBAGE: &[&str] = &[
    "bogus nonsense",
    "@",
    "@ leading-space-is-not-a-tag",
    "@@double",
    "insert R(",
    "schema",
    "cite",
    "dump",
];

/// Expands one fuzz op into wire lines (a line and its CRLF flag).
fn render(op: FuzzOp, lines: &mut Vec<(String, bool)>) {
    let (code, k, tagsel, crlf) = op;
    let body = match code {
        0 | 1 => format!("insert R({k}, 'v{k}')"),
        2 => format!("delete R({k}, 'v{k}')"),
        3 => "begin".to_string(),
        4 => "rollback".to_string(),
        5 => "commit".to_string(),
        6 => "cite Q(A) :- R(A, B)".to_string(),
        7 => "dump R".to_string(),
        8 => "tables".to_string(),
        9 => GARBAGE[k as usize % GARBAGE.len()].to_string(),
        10 => String::new(),
        _ => "# fuzz comment".to_string(),
    };
    let line = if tagsel == 0 {
        body.clone()
    } else {
        format!("@t{tagsel} {body}")
    };
    lines.push((line, crlf));
    if code == 5 {
        // Barrier: hold the next command until the commit acks, so the
        // group size is 1 in both runs (see module docs).
        lines.push(("tables".to_string(), false));
    }
}

/// Sends `head` in the given segment sizes (cycled), then `tail` as a
/// single write, and returns the full reply stream read to EOF. The
/// tail is whatever triggers the close (an oversized line or a quit):
/// one syscall puts it in the kernel buffer whole, so the server's
/// close can never race the client into a broken-pipe mid-request.
fn exchange(addr: &str, head: &[u8], tail: &[u8], chunks: &[usize]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut sent = 0;
    let mut i = 0;
    while sent < head.len() {
        let n = chunks[i % chunks.len()].min(head.len() - sent);
        i += 1;
        stream.write_all(&head[sent..sent + n]).expect("send");
        stream.flush().expect("flush");
        sent += n;
    }
    stream.write_all(tail).expect("send tail");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read to EOF");
    reply
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The equivalence property: request bytes pipelined in random
    /// segments yield the reply bytes of the same lines sent lock-step.
    #[test]
    fn pipelined_replies_equal_lock_step_replies(
        ops in prop::collection::vec((0u8..12, 0i64..6, 0u8..4, any::<bool>()), 0..24),
        oversized in any::<bool>(),
        chunks in prop::collection::vec(1usize..48, 1..24),
    ) {
        let mut lines: Vec<(String, bool)> = vec![
            ("schema R(A:int, B:text) key(0)".to_string(), false),
            ("commit".to_string(), false),
            ("tables".to_string(), false),
        ];
        for op in ops {
            render(op, &mut lines);
        }
        let mut head = Vec::new();
        for (line, crlf) in &lines {
            head.extend_from_slice(line.as_bytes());
            head.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
        }
        // The stream must end in something that closes the connection:
        // either a line over the byte cap or a clean quit.
        let tail = if oversized {
            format!("{}quit\n", "x".repeat(LINE_CAP + 40)).into_bytes()
        } else {
            b"quit\n".to_vec()
        };

        let (reference, reference_addr) = spawn();
        let (pipelined, pipelined_addr) = spawn();
        let from_lock_step = common::lock_step(&reference_addr, &[head.as_slice(), &tail].concat());
        let from_pipeline = exchange(&pipelined_addr, &head, &tail, &chunks);
        reference.stop();
        pipelined.stop();
        prop_assert_eq!(
            String::from_utf8_lossy(&from_lock_step).to_string(),
            String::from_utf8_lossy(&from_pipeline).to_string()
        );
    }
}
