//! The minimal HTTP/1.1 keep-alive client the `serve_mixed` callers use:
//! one connection, one request in flight, `Content-Length` framing.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The largest response the client accepts; a `Content-Length` beyond it
/// is an error, not an allocation.
const MAX_BODY: usize = 256 << 20;

pub struct Client {
    stream: TcpStream,
    host: String,
    /// Bytes read from the socket and not yet consumed.
    buf: Vec<u8>,
}

pub struct Response {
    pub status: u16,
    /// `X-Lbr-Trace-Id`, when the server traced the request.
    pub trace_id: Option<u64>,
    pub body: Vec<u8>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server that stops answering fails the op instead of hanging
        // the run.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            host: addr.to_string(),
            buf: Vec::with_capacity(64 << 10),
        })
    }

    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        self.send("GET", target, None)
    }

    pub fn post(&mut self, target: &str, content_type: &str, body: &[u8]) -> io::Result<Response> {
        self.send("POST", target, Some((content_type, body)))
    }

    fn send(
        &mut self,
        method: &str,
        target: &str,
        body: Option<(&str, &[u8])>,
    ) -> io::Result<Response> {
        let mut req = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nAccept: application/sparql-results+json, */*\r\n",
            self.host
        )
        .into_bytes();
        if let Some((content_type, body)) = body {
            req.extend_from_slice(
                format!(
                    "Content-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            );
            req.extend_from_slice(body);
        } else {
            req.extend_from_slice(b"\r\n");
        }
        self.stream.write_all(&req)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 << 10];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            if self.buf.len() > 64 << 10 {
                return Err(bad("response head longer than 64 KiB"));
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut trace_id) = (None, None);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-lbr-trace-id") {
                trace_id = u64::from_str_radix(value, 16).ok();
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        if length > MAX_BODY {
            return Err(bad(format!("Content-Length {length} exceeds {MAX_BODY}")));
        }
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok(Response {
            status,
            trace_id,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// Answers each request on one connection with its own body echoed,
    /// writing the response in two pieces so the client must reassemble.
    fn echo_server(listener: TcpListener, requests: usize) {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        for i in 0..requests {
            let mut length = 0;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    length = v.trim().parse().unwrap();
                }
                if line == "\r\n" {
                    break;
                }
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body).unwrap();
            let head = format!(
                "HTTP/1.1 200 OK\r\nX-Lbr-Trace-Id: {:016x}\r\ncontent-length: {}\r\n\r\n",
                i + 10,
                body.len()
            );
            let (a, b) = head.as_bytes().split_at(head.len() / 2);
            stream.write_all(a).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
            stream.write_all(b).unwrap();
            stream.write_all(&body).unwrap();
        }
    }

    #[test]
    fn keeps_one_connection_alive_across_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || echo_server(listener, 3));
        let mut client = Client::connect(addr).unwrap();
        let big = vec![b'x'; 200_000];
        for (i, body) in [&b"first"[..], &big[..], &b""[..]].into_iter().enumerate() {
            let r = client
                .post("/sparql", "application/sparql-query", body)
                .unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.trace_id, Some(i as u64 + 10));
            assert_eq!(r.body, body);
        }
        server.join().unwrap();
        // The server hung up: the next request fails instead of hanging.
        assert!(client.get("/healthz").is_err());
    }
}
