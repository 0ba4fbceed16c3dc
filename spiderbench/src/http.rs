//! A minimal HTTP/1.1 keep-alive client for talking to `spiderd`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status and body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive connection. A response carrying `connection: close`
/// leaves the connection unusable; [`Conn::request`] then reconnects.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    /// Reusable request buffer.
    out: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            out: Vec::new(),
        }
    }

    fn stream(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(BufReader::with_capacity(1 << 16, s));
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Send one request and read its whole response. On an I/O error the
    /// connection is dropped, so the next request starts a fresh one.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let result = self.exchange(method, path, body);
        if !matches!(&result, Ok((_, true))) {
            self.stream = None;
        }
        result.map(|(reply, _)| reply)
    }

    /// The request/response exchange; the flag says whether the server
    /// keeps the connection open.
    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(Reply, bool)> {
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        write!(
            out,
            "{method} {path} HTTP/1.1\r\nhost: spiderd\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        )?;
        out.extend_from_slice(body);
        let stream = self.stream()?;
        stream.get_mut().write_all(&out)?;
        self.out = out;
        let stream = self.stream.as_mut().expect("connected above");

        let mut line = String::new();
        if stream.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("malformed status line {line:?}")))?;
        let mut length: Option<usize> = None;
        let mut keep_alive = true;
        loop {
            line.clear();
            if stream.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside headers".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .parse()
                            .map_err(|_| bad("bad content-length".into()))?,
                    );
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = !value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length".into()))?;
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body)?;
        Ok((Reply { status, body }, keep_alive))
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}
