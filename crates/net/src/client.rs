//! Client side of the wire protocol: a [`Connection`] for programmatic
//! use (tests, benches, tools) and [`run_script`] for the
//! `citesys client` CLI mode.

use std::io::{self, BufReader, Write};
use std::net::TcpStream;

use crate::protocol::{self, Response, WireErrorKind};

/// One protocol connection: sends command lines, reads framed
/// responses.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    banner: String,
}

impl Connection {
    /// Connects and validates the server banner.
    pub fn connect(addr: &str) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut banner = String::new();
        io::BufRead::read_line(&mut reader, &mut banner)?;
        let banner = banner.trim_end_matches(['\n', '\r']).to_string();
        if !banner.starts_with("citesys-net") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("not a citesys-net server (banner: '{banner}')"),
            ));
        }
        Ok(Connection {
            stream,
            reader,
            banner,
        })
    }

    /// The banner line the server greeted with.
    pub fn banner(&self) -> &str {
        &self.banner
    }

    /// Sends one command line and reads its framed response.
    pub fn send(&mut self, line: &str) -> io::Result<Response> {
        self.send_nowait(None, line)?;
        protocol::read_response(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// Raw write access (protocol tests use this to split lines across
    /// TCP segments).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Reads one framed response without sending anything (pair with
    /// [`stream`](Self::stream) writes).
    pub fn read_response(&mut self) -> io::Result<Option<Response>> {
        protocol::read_response(&mut self.reader)
    }

    /// Queues one command line **without waiting for the response** —
    /// the pipelined send half. With `tag`, the line goes out as
    /// `@<tag> <line>` and the server echoes the tag in the response
    /// frame. Follow with [`Self::read_tagged_response`] calls, one
    /// per queued line, in order.
    pub fn send_nowait(&mut self, tag: Option<&str>, line: &str) -> io::Result<()> {
        // One write per request line: a server that hangs up on an
        // oversized line has already answered it, and a second write
        // racing that close would turn the answer into a reset.
        let request = match tag {
            Some(t) => format!("@{t} {line}\n"),
            None => format!("{line}\n"),
        };
        self.stream.write_all(request.as_bytes())
    }

    /// Reads one framed response with its echoed tag (`None` for
    /// untagged frames); `Ok(None)` at clean EOF.
    pub fn read_tagged_response(&mut self) -> io::Result<Option<(Option<String>, Response)>> {
        protocol::read_tagged_response(&mut self.reader)
    }

    /// Pipelines a whole batch: sends every line (tagged `1`, `2`, …
    /// by position), then reads every response, verifying the echoed
    /// tags come back in request order. Returns the responses
    /// positionally.
    pub fn pipeline(&mut self, lines: &[&str]) -> io::Result<Vec<Response>> {
        for (i, line) in lines.iter().enumerate() {
            self.send_nowait(Some(&(i + 1).to_string()), line)?;
        }
        let mut responses = Vec::with_capacity(lines.len());
        for i in 0..lines.len() {
            let (tag, resp) = self.read_tagged_response()?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            })?;
            let expect = (i + 1).to_string();
            if tag.as_deref() != Some(expect.as_str()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("pipelined response out of order: expected tag @{expect}, got {tag:?}"),
                ));
            }
            responses.push(resp);
        }
        Ok(responses)
    }
}

/// Why a client script stopped: the server's error kind (`None` for a
/// connection or framing failure) and the line to report on stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptFailure {
    /// The wire error kind the server answered with; `None` when the
    /// connection itself failed.
    pub kind: Option<WireErrorKind>,
    /// `error: line <n>: <message>` (or `error connecting to …`).
    pub message: String,
}

impl ScriptFailure {
    fn at(line: usize, kind: Option<WireErrorKind>, message: impl std::fmt::Display) -> Self {
        // Trailing whitespace is not part of the report (a server
        // message that ended in a newline arrives ending in "; ").
        let message = format!("error: line {line}: {message}");
        ScriptFailure {
            kind,
            message: message.trim_end().to_string(),
        }
    }
}

fn connect(addr: &str) -> Result<Connection, ScriptFailure> {
    Connection::connect(addr).map_err(|e| ScriptFailure {
        kind: None,
        message: format!("error connecting to {addr}: {e}"),
    })
}

/// Streams `script` to the server at `addr` line by line, writing each
/// response's payload to `out`. Stops at the first error (script
/// semantics) and returns it.
pub fn run_script(addr: &str, script: &str, out: &mut impl Write) -> Result<(), ScriptFailure> {
    let mut conn = connect(addr)?;
    for (i, line) in script.lines().enumerate() {
        match conn.send(line) {
            Ok(Response::Ok(lines)) => {
                for l in lines {
                    let _ = writeln!(out, "{l}");
                }
            }
            Ok(Response::Err { kind, message }) => {
                return Err(ScriptFailure::at(i + 1, Some(kind), message))
            }
            Err(e) => return Err(ScriptFailure::at(i + 1, None, e)),
        }
    }
    // Best-effort clean close; the server also handles plain EOF.
    let _ = conn.send("quit");
    Ok(())
}

/// [`run_script`] in **pipelined** mode (`citesys client --pipeline`):
/// every script line is sent up front, tagged with its line number,
/// and the responses are read back in one pass — one round trip
/// instead of one per line. Output and errors match [`run_script`]
/// with one caveat: because the whole script is already on the wire,
/// lines after a failing one have still executed server-side (the
/// sync runner stops sending at the first error).
pub fn run_script_pipelined(
    addr: &str,
    script: &str,
    out: &mut impl Write,
) -> Result<(), ScriptFailure> {
    let mut conn = connect(addr)?;
    let lines: Vec<&str> = script.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        conn.send_nowait(Some(&(i + 1).to_string()), line)
            .map_err(|e| ScriptFailure::at(i + 1, None, e))?;
    }
    for i in 0..lines.len() {
        match conn.read_tagged_response() {
            Ok(Some((tag, Response::Ok(payload)))) => {
                if tag.as_deref() != Some((i + 1).to_string().as_str()) {
                    return Err(ScriptFailure::at(
                        i + 1,
                        None,
                        format_args!("response tag mismatch (got {tag:?})"),
                    ));
                }
                for l in payload {
                    let _ = writeln!(out, "{l}");
                }
            }
            Ok(Some((_tag, Response::Err { kind, message }))) => {
                return Err(ScriptFailure::at(i + 1, Some(kind), message))
            }
            Ok(None) => {
                return Err(ScriptFailure::at(
                    i + 1,
                    None,
                    "server closed the connection",
                ))
            }
            Err(e) => return Err(ScriptFailure::at(i + 1, None, e)),
        }
    }
    let _ = conn.send("quit");
    Ok(())
}
