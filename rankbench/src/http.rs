//! A keep-alive HTTP/1.1 client: one persistent connection, reopened when
//! the server recycles it (`Connection: close`) or drops it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest a request may take before the run gives up on the server.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Reply {
    pub status: u16,
    /// The `X-Saphyra-Cache` header (`hit`, `miss`, `shared`, `batched`),
    /// empty when absent.
    pub cache: String,
    pub body: String,
}

pub struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
        }
    }

    /// Sends one request. A failure on a reused connection is retried once
    /// on a fresh one: the server may have closed it between requests.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        let reused = self.stream.is_some();
        match self.try_request(method, path, body) {
            Err(_) if reused => self.try_request(method, path, body),
            r => r,
        }
    }

    fn try_request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            s.set_write_timeout(Some(READ_TIMEOUT))?;
            self.stream = Some(BufReader::new(s));
        }
        let reader = self.stream.as_mut().expect("connected above");
        // One write per request: split header/body segments would hit the
        // Nagle/delayed-ACK stall on a persistent connection.
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        reader.get_mut().write_all(msg.as_bytes())?;

        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let (mut len, mut cache, mut close) = (0usize, String::new(), false);
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad(format!("bad header {header:?}")));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    len = value
                        .parse()
                        .map_err(|_| bad(format!("bad length {value:?}")))?
                }
                "x-saphyra-cache" => cache = value.to_string(),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut buf = vec![0u8; len];
        reader.read_exact(&mut buf)?;
        if close {
            self.stream = None;
        }
        let body = String::from_utf8(buf).map_err(|e| bad(e.to_string()))?;
        Ok(Reply {
            status,
            cache,
            body,
        })
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
