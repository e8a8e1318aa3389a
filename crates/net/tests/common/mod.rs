//! The lock-step reference shared by the wire-equivalence tests: the
//! same request lines a pipelined client sends, sent one at a time with
//! one response in flight.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Sends `request` to a server at `addr` one line at a time, reading
/// each line's whole response frame before sending the next, and
/// returns every byte the server wrote (banner included) until it
/// closed the connection. A closer (`quit`, an oversized line) ends the
/// exchange; lines after it are never sent.
pub fn lock_step(addr: &str, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut reply = Vec::new();
    reader.read_until(b'\n', &mut reply).expect("banner");
    for line in request.split_inclusive(|&b| b == b'\n') {
        if stream.write_all(line).is_err() || !read_frame(&mut reader, &mut reply) {
            break;
        }
    }
    // The server has closed (or will, on the closer); take whatever it
    // wrote before that.
    let _ = reader.read_to_end(&mut reply);
    reply
}

/// Appends one raw response frame (`ok [@tag] <n>` plus `n` payload
/// lines, or one `err` line) to `reply`; false at EOF or on a reset.
fn read_frame(reader: &mut impl BufRead, reply: &mut Vec<u8>) -> bool {
    let start = reply.len();
    if !matches!(reader.read_until(b'\n', reply), Ok(n) if n > 0) {
        return false;
    }
    let header = String::from_utf8_lossy(&reply[start..]).to_string();
    if let Some(rest) = header.strip_prefix("ok ") {
        let n: usize = rest
            .split_whitespace()
            .last()
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("bad ok header {header:?}"));
        for _ in 0..n {
            if !matches!(reader.read_until(b'\n', reply), Ok(n) if n > 0) {
                return false;
            }
        }
    }
    true
}
