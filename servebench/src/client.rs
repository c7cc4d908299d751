//! A minimal keep-alive HTTP/1.1 client: one request at a time on one
//! connection, chunked or sized bodies, and the output checks every workload
//! applies to every response.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one response may take before the client gives up on it: far past
/// any latency limit, so a stall shows as a failure instead of a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What every response of a workload must look like.
#[derive(Clone, Debug)]
pub struct Expect {
    pub bytes: usize,
    /// Required `X-PTRNG-Tier` value.
    pub tier: &'static str,
    /// Lowest acceptable `X-PTRNG-MinEntropy`, when the tier must carry it.
    /// Where it is not required the header is still checked if present.
    pub min_entropy: Option<f64>,
}

/// The keep-alive request head the client sends for `target`.
pub fn request_head(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// A parsed response head plus the headers the checks need.
#[derive(Debug, Default)]
pub struct Head {
    pub status: u16,
    pub tier: Option<String>,
    pub min_entropy: Option<String>,
    pub close: bool,
    chunked: bool,
    content_length: Option<usize>,
}

/// One keep-alive connection that reconnects when the server closes it, e.g.
/// at its per-connection request cap.
pub struct Conn {
    addr: SocketAddr,
    request: Vec<u8>,
    stream: Option<BufReader<TcpStream>>,
    /// Connections opened, the first included.
    pub connects: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr, target: &str) -> Self {
        Self {
            addr,
            request: request_head(target),
            stream: None,
            connects: 0,
        }
    }

    /// Sends the request and reads the whole response; `body` receives the
    /// decoded body. A transport error drops the connection, so the next call
    /// starts on a fresh one.
    pub fn fetch(&mut self, body: &mut Vec<u8>) -> Result<Head, String> {
        let result = self.exchange(body);
        match &result {
            Ok(head) if !head.close => {}
            _ => self.stream = None,
        }
        result
    }

    fn exchange(&mut self, body: &mut Vec<u8>) -> Result<Head, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.stream = Some(BufReader::with_capacity(1 << 18, stream));
            self.connects += 1;
        }
        let reader = self.stream.as_mut().expect("connected above");
        reader
            .get_mut()
            .write_all(&self.request)
            .map_err(|e| format!("send: {e}"))?;
        let head = read_head(reader)?;
        body.clear();
        if head.chunked {
            read_chunked(reader, body)?;
        } else {
            let len = head.content_length.unwrap_or(0);
            body.resize(len, 0);
            reader.read_exact(body).map_err(|e| format!("body: {e}"))?;
        }
        Ok(head)
    }
}

fn read_line(reader: &mut impl BufRead, line: &mut String) -> Result<(), String> {
    line.clear();
    match reader.read_line(line) {
        Ok(0) => Err("connection closed".to_string()),
        Ok(_) => {
            let trimmed = line.trim_end_matches(['\r', '\n']).len();
            line.truncate(trimmed);
            Ok(())
        }
        Err(e) => Err(format!("read: {e}")),
    }
}

fn read_head(reader: &mut impl BufRead) -> Result<Head, String> {
    let mut line = String::new();
    read_line(reader, &mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{line}`"))?;
    let mut head = Head {
        status,
        ..Head::default()
    };
    loop {
        read_line(reader, &mut line)?;
        if line.is_empty() {
            return Ok(head);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("bad header `{line}`"));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "x-ptrng-tier" => head.tier = Some(value.to_string()),
            "x-ptrng-minentropy" => head.min_entropy = Some(value.to_string()),
            "connection" => head.close = value.eq_ignore_ascii_case("close"),
            "transfer-encoding" => head.chunked = value.eq_ignore_ascii_case("chunked"),
            "content-length" => head.content_length = value.parse().ok(),
            _ => {}
        }
    }
}

fn read_chunked(reader: &mut impl BufRead, body: &mut Vec<u8>) -> Result<(), String> {
    let mut line = String::new();
    loop {
        read_line(reader, &mut line)?;
        let size = usize::from_str_radix(line.split(';').next().unwrap_or("").trim(), 16)
            .map_err(|_| format!("bad chunk size `{line}`"))?;
        if size == 0 {
            read_line(reader, &mut line)?;
            return Ok(());
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader
            .read_exact(&mut body[start..])
            .map_err(|e| format!("chunk: {e}"))?;
        read_line(reader, &mut line)?;
    }
}

/// Checks a response against the workload's contract: status, exact length,
/// tier and entropy claim. The error names the first check that failed.
pub fn check(head: &Head, body: &[u8], expect: &Expect) -> Result<(), String> {
    if head.status != 200 {
        return Err(format!("status {}", head.status));
    }
    if body.len() != expect.bytes {
        return Err(format!("body {} bytes, want {}", body.len(), expect.bytes));
    }
    if head.tier.as_deref() != Some(expect.tier) {
        return Err(format!(
            "X-PTRNG-Tier {:?}, want {}",
            head.tier, expect.tier
        ));
    }
    match (&head.min_entropy, expect.min_entropy) {
        (None, Some(_)) => return Err("missing X-PTRNG-MinEntropy".to_string()),
        (None, None) => {}
        (Some(text), floor) => {
            let h: f64 = text
                .parse()
                .map_err(|_| format!("X-PTRNG-MinEntropy `{text}`"))?;
            if !(h > 0.0 && h <= 1.0 && h >= floor.unwrap_or(0.0)) {
                return Err(format!("X-PTRNG-MinEntropy {h} out of range"));
            }
        }
    }
    Ok(())
}

/// `GET path` on a fresh connection that is closed afterwards (used for the
/// `/metrics` scrapes, which stay outside the timed windows).
pub fn get_once(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut conn = Conn::new(addr, path);
    conn.request =
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").into_bytes();
    let mut body = Vec::new();
    let head = conn.fetch(&mut body)?;
    if head.status != 200 {
        return Err(format!("GET {path}: status {}", head.status));
    }
    String::from_utf8(body).map_err(|_| format!("GET {path}: body is not UTF-8"))
}
