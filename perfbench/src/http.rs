//! A minimal HTTP/1.1 keep-alive client: one connection, one request
//! at a time, `Content-Length` bodies only (all `holo-serve` sends).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One persistent connection to the server under test.
pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A reply: status code and body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Conn {
    /// Connect with `TCP_NODELAY`, so small requests are not held back.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            addr,
            writer: s.try_clone()?,
            reader: BufReader::new(s),
        })
    }

    /// Send one request and read its reply. Never retried: a failure
    /// is reported, and ingest requests are not idempotent.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut req = head.into_bytes();
        req.extend_from_slice(body.as_bytes());
        self.writer.write_all(&req)?;

        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut len = None;
        let mut close = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated headers",
                ));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                let (k, v) = (k.trim(), v.trim());
                if k.eq_ignore_ascii_case("content-length") {
                    len = Some(v.parse::<usize>().map_err(|_| bad("bad content-length"))?);
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.eq_ignore_ascii_case("close");
                }
            }
        }
        let len = len.ok_or_else(|| bad("reply without content-length"))?;
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        let body = String::from_utf8(buf).map_err(|_| bad("reply body is not utf-8"))?;
        if close {
            *self = Conn::open(self.addr)?;
        }
        Ok(Reply { status, body })
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}
