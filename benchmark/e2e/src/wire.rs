//! A minimal client for the `citesys-net v1` framing: one request line,
//! then `ok <n>` followed by exactly `n` payload lines, or one
//! `err <kind> <message>` line.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A hung server must fail the run, not hang it past the driver's limit.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

pub enum Reply {
    /// The payload lines, each still terminated by `\n`.
    Ok(Vec<u8>),
    /// The whole `err …` line.
    Err(String),
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut client = Client {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            line: Vec::new(),
        };
        let banner = client.read_line()?;
        if !banner.starts_with("citesys-net v1") {
            return Err(bad(format!("unexpected banner: {banner}")));
        }
        Ok(client)
    }

    fn read_line(&mut self) -> io::Result<String> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(String::from_utf8_lossy(&self.line).trim_end().to_string())
    }

    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let header = self.read_line()?;
        if header.starts_with("err ") {
            return Ok(Reply::Err(header));
        }
        let n: usize = header
            .strip_prefix("ok ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad(format!("bad response header: {header}")))?;
        let mut payload = Vec::new();
        for _ in 0..n {
            if self.reader.read_until(b'\n', &mut payload)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
        }
        Ok(Reply::Ok(payload))
    }

    /// The payload of a request that must succeed.
    pub fn expect_ok(&mut self, line: &str) -> io::Result<String> {
        match self.request(line)? {
            Reply::Ok(payload) => Ok(String::from_utf8_lossy(&payload).into_owned()),
            Reply::Err(e) => Err(bad(format!("'{line}' failed: {e}"))),
        }
    }
}
