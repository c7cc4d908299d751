//! Minimal HTTP/1.1 wire handling: request parsing and response writing.
//!
//! This is deliberately a *subset* — exactly what an entropy service needs and
//! nothing more:
//!
//! * requests: method + target + version, a bounded header block, query-string
//!   splitting (no percent-decoding: the API surface is plain ASCII),
//! * responses: status line + headers with either a `Content-Length` body or
//!   `Transfer-Encoding: chunked` streaming via [`ChunkedWriter`],
//! * hard limits on line length and header count so a hostile client cannot balloon
//!   memory.
//!
//! No TLS, no compression, no HTTP/2 — front a real deployment with a terminating
//! proxy (see `docs/operations.md`).

use std::io::{BufRead, Write};

use thiserror::Error;

/// Maximum accepted length of the request line or any header line, in bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Maximum accepted number of request headers.
pub const MAX_HEADERS: usize = 64;

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq, Error)]
pub enum HttpError {
    /// The connection closed before a complete request was read.
    #[error("connection closed mid-request")]
    UnexpectedEof,
    /// A line exceeded [`MAX_LINE_BYTES`] or the header block exceeded
    /// [`MAX_HEADERS`].
    #[error("request exceeds size limits: {0}")]
    TooLarge(&'static str),
    /// The bytes did not form a valid HTTP/1.x request head.
    #[error("malformed request: {0}")]
    Malformed(&'static str),
    /// Reading from the socket failed (timeout, reset, …).
    #[error("socket read failed: {0}")]
    Io(String),
}

/// A parsed request head (this server never reads bodies: `GET`/`HEAD` only).
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `HEAD`, …).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Query parameters in order of appearance, split on `&` and `=`.
    pub query: Vec<(String, String)>,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// Reads one request head from `reader`.
    ///
    /// Returns `Ok(None)` on a clean EOF before any byte of a new request — the
    /// keep-alive "client went away" case.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed requests, oversized heads, or socket failures.
    pub fn read_from(reader: &mut impl BufRead) -> Result<Option<Self>, HttpError> {
        let request_line = match read_line(reader)? {
            None => return Ok(None),
            Some(line) if line.is_empty() => {
                // Tolerate a single stray CRLF between pipelined requests.
                match read_line(reader)? {
                    None => return Ok(None),
                    Some(line) if line.is_empty() => {
                        return Err(HttpError::Malformed("empty request line"))
                    }
                    Some(line) => line,
                }
            }
            Some(line) => line,
        };
        let mut request = parse_request_line(&request_line)?;
        loop {
            let line = read_line(reader)?.ok_or(HttpError::UnexpectedEof)?;
            if line.is_empty() {
                break;
            }
            if request.headers.len() == MAX_HEADERS {
                return Err(HttpError::TooLarge("too many headers"));
            }
            request.headers.push(parse_header_line(&line)?);
        }
        Ok(Some(request))
    }

    /// Attempts to parse one complete request head from the front of `buf`
    /// **without blocking** — the entry point for the nonblocking event loop,
    /// where bytes arrive in whatever fragments the network delivers.
    ///
    /// Returns `Ok(Some((request, consumed)))` once a full head (terminated by an
    /// empty line) is present, where `consumed` is the number of bytes of `buf`
    /// the head occupied; `Ok(None)` means the head is still incomplete and the
    /// caller should read more.  Size limits are enforced *incrementally*: a
    /// partial line already past [`MAX_LINE_BYTES`], or a header block already
    /// past [`MAX_HEADERS`], fails immediately instead of waiting for the
    /// terminator a hostile client will never send.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::Malformed`] / [`HttpError::TooLarge`] exactly as
    /// [`Request::read_from`] would for the same bytes; never `Io` or
    /// `UnexpectedEof` (EOF is the caller's to detect on the socket).
    pub fn parse_head(buf: &[u8]) -> Result<Option<(Self, usize)>, HttpError> {
        let mut cursor = 0usize;
        let mut request: Option<Request> = None;
        let mut blank_skipped = false;
        loop {
            let rest = &buf[cursor..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                // Incomplete trailing line: refuse early once it can no longer
                // fit the limit instead of buffering an endless slow drip.
                if rest.len() > MAX_LINE_BYTES {
                    return Err(HttpError::TooLarge("line too long"));
                }
                return Ok(None);
            };
            let mut line = &rest[..nl];
            if line.last() == Some(&b'\r') {
                line = &line[..nl - 1];
            }
            if line.len() > MAX_LINE_BYTES {
                return Err(HttpError::TooLarge("line too long"));
            }
            cursor += nl + 1;
            let line =
                std::str::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 header"))?;
            if let Some(started) = request.as_mut() {
                if line.is_empty() {
                    break;
                }
                if started.headers.len() == MAX_HEADERS {
                    return Err(HttpError::TooLarge("too many headers"));
                }
                started.headers.push(parse_header_line(line)?);
            } else if line.is_empty() {
                // Tolerate a single stray CRLF between pipelined requests.
                if blank_skipped {
                    return Err(HttpError::Malformed("empty request line"));
                }
                blank_skipped = true;
            } else {
                request = Some(parse_request_line(line)?);
            }
        }
        Ok(request.map(|head| (head, cursor)))
    }

    /// First value of the (case-insensitively named) header, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of the query parameter, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this response.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Parses a `METHOD target HTTP/1.x` request line into a header-less [`Request`].
fn parse_request_line(line: &str) -> Result<Request, HttpError> {
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::Malformed("missing method"))?;
    let target = parts.next().ok_or(HttpError::Malformed("missing target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra tokens in request line"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_text
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers: Vec::new(),
    })
}

/// Parses one `Name: value` header line (name lower-cased, both sides trimmed).
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or(HttpError::Malformed("header without colon"))?;
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the terminator.
///
/// Returns `Ok(None)` on EOF before the first byte.
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = reader
            .fill_buf()
            .map_err(|e| HttpError::Io(e.to_string()))?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::UnexpectedEof);
        }
        let (chunk, found) = match buf.iter().position(|&b| b == b'\n') {
            Some(at) => (&buf[..at], true),
            None => (buf, false),
        };
        if line.len() + chunk.len() > MAX_LINE_BYTES {
            return Err(HttpError::TooLarge("line too long"));
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(found);
        reader.consume(consumed);
        if found {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let text =
                String::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 header"))?;
            return Ok(Some(text));
        }
    }
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response head under construction: status plus extra headers.
#[derive(Debug, Clone)]
pub struct ResponseHead {
    /// HTTP status code.
    pub status: u16,
    /// Additional headers (`Content-Type`, `X-PTRNG-*`, `Retry-After`, …).
    pub headers: Vec<(String, String)>,
}

impl ResponseHead {
    /// A head with the given status and no extra headers.
    pub fn new(status: u16) -> Self {
        Self {
            status,
            headers: Vec::new(),
        }
    }

    /// Appends a header (builder style).
    #[must_use]
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    fn write_status_and_headers(
        &self,
        writer: &mut impl Write,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        write!(
            writer,
            "Connection: {}\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        )
    }
}

/// Writes a complete response with a `Content-Length` body.
///
/// With `head_only` (a `HEAD` request) the length header is still sent but the body
/// bytes are suppressed.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    writer: &mut impl Write,
    head: &ResponseHead,
    body: &[u8],
    keep_alive: bool,
    head_only: bool,
) -> std::io::Result<()> {
    head.write_status_and_headers(writer, keep_alive)?;
    write!(writer, "Content-Length: {}\r\n\r\n", body.len())?;
    if !head_only {
        writer.write_all(body)?;
    }
    writer.flush()
}

/// Streams a `Transfer-Encoding: chunked` body: construct with the head, feed
/// [`ChunkedWriter::write_chunk`], terminate with [`ChunkedWriter::finish`].
///
/// Dropping the writer **without** calling `finish` leaves the message unterminated —
/// exactly what an entropy server wants when the engine dies mid-response: the client
/// observes a truncated transfer instead of silently short bytes.
pub struct ChunkedWriter<'a, W: Write> {
    writer: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Writes the status line and headers (plus `Transfer-Encoding: chunked`) and
    /// returns the body writer.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn start(
        writer: &'a mut W,
        head: &ResponseHead,
        keep_alive: bool,
    ) -> std::io::Result<Self> {
        head.write_status_and_headers(writer, keep_alive)?;
        write!(writer, "Transfer-Encoding: chunked\r\n\r\n")?;
        Ok(Self { writer })
    }

    /// Writes one chunk (empty input is a no-op: a zero-length chunk would terminate
    /// the message).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_chunk(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        write!(self.writer, "{:x}\r\n", bytes.len())?;
        self.writer.write_all(bytes)?;
        write!(self.writer, "\r\n")
    }

    /// Terminates the chunked message and flushes.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(self) -> std::io::Result<()> {
        write!(self.writer, "0\r\n\r\n")?;
        self.writer.flush()
    }
}

/// Appends one chunked-transfer frame carrying `bytes` to `out` (empty input is
/// a no-op: a zero-length chunk would terminate the message).
///
/// The event loop's worker pool renders response bytes into buffers instead of
/// writing sockets directly, so the chunk framing needs a buffer-level encoder
/// alongside the writer-level [`ChunkedWriter`].
pub fn encode_chunk(out: &mut Vec<u8>, bytes: &[u8]) {
    if bytes.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", bytes.len()).as_bytes());
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

/// Appends one chunked-transfer frame whose body `fill` writes in place, with
/// no scratch buffer and no copy: `fill` gets `len` writable bytes behind the
/// chunk header and returns how many it wrote.  A short fill is framed with
/// exactly the written bytes; a fill of 0 appends nothing (a zero-length chunk
/// would terminate the message).  Returns the number of bytes framed.
pub fn encode_chunk_with(
    out: &mut Vec<u8>,
    len: usize,
    fill: impl FnOnce(&mut [u8]) -> usize,
) -> usize {
    let head = out.len();
    write!(out, "{len:x}\r\n").expect("buffer writes are infallible");
    let body = out.len();
    out.resize(body + len, 0);
    let filled = fill(&mut out[body..]).min(len);
    if filled == 0 {
        out.truncate(head);
        return 0;
    }
    out.truncate(body + filled);
    if filled < len {
        // Only a stream's last draw comes up short; re-frame it to its length.
        out.splice(head..body, format!("{filled:x}\r\n").into_bytes());
    }
    out.extend_from_slice(b"\r\n");
    filled
}

/// Appends the terminating zero-length chunk — a chunked message assembled with
/// [`encode_chunk`] is not complete until this trailer is queued.
pub fn encode_chunk_end(out: &mut Vec<u8>) {
    out.extend_from_slice(b"0\r\n\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Option<Request>, HttpError> {
        Request::read_from(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_a_request_with_query_and_headers() {
        let req = parse(
            "GET /entropy?bytes=4096&format=raw HTTP/1.1\r\n\
             Host: localhost:7878\r\n\
             User-Agent: curl/8\r\n\
             \r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/entropy");
        assert_eq!(req.query_param("bytes"), Some("4096"));
        assert_eq!(req.query_param("format"), Some("raw"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("host"), Some("localhost:7878"));
        assert_eq!(req.header("HOST"), Some("localhost:7878"));
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_connection_close_and_bare_lf() {
        let req = parse("GET / HTTP/1.0\nConnection: close\n\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_yields_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(matches!(
            parse("GARBAGE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nHost: x\r\n"),
            Err(HttpError::UnexpectedEof)
        ));
    }

    #[test]
    fn size_limits_are_enforced() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        assert!(matches!(parse(&long), Err(HttpError::TooLarge(_))));
        let many: String = (0..=MAX_HEADERS).map(|i| format!("H{i}: v\r\n")).collect();
        let many = format!("GET / HTTP/1.1\r\n{many}\r\n");
        assert!(matches!(parse(&many), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn incremental_parse_matches_the_blocking_parser() {
        let head = "GET /entropy?bytes=64 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
        // Every prefix short of the full head is incomplete, never an error.
        for cut in 0..head.len() {
            assert!(
                Request::parse_head(&head.as_bytes()[..cut])
                    .expect("prefixes parse cleanly")
                    .is_none(),
                "cut at {cut}"
            );
        }
        let (request, consumed) = Request::parse_head(head.as_bytes()).unwrap().unwrap();
        assert_eq!(consumed, head.len());
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/entropy");
        assert_eq!(request.query_param("bytes"), Some("64"));
        assert!(request.wants_close());

        // Trailing pipelined bytes are left unconsumed.
        let two = format!("{head}GET /healthz HTTP/1.1\r\n\r\n");
        let (_, consumed) = Request::parse_head(two.as_bytes()).unwrap().unwrap();
        assert_eq!(consumed, head.len());

        // A single stray CRLF before the request line is tolerated, two are not.
        let (request, consumed) = Request::parse_head(b"\r\nGET / HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.path, "/");
        assert_eq!(consumed, b"\r\nGET / HTTP/1.1\r\n\r\n".len());
        assert!(matches!(
            Request::parse_head(b"\r\n\r\nGET / HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed("empty request line"))
        ));
    }

    #[test]
    fn incremental_parse_enforces_limits_before_completion() {
        // A partial line already past the limit fails without its terminator:
        // the slow-loris defence must not wait for bytes that never come.
        let drip = format!("GET /{}", "a".repeat(MAX_LINE_BYTES + 1));
        assert!(matches!(
            Request::parse_head(drip.as_bytes()),
            Err(HttpError::TooLarge("line too long"))
        ));
        let many: String = (0..=MAX_HEADERS).map(|i| format!("H{i}: v\r\n")).collect();
        let unterminated = format!("GET / HTTP/1.1\r\n{many}");
        assert!(matches!(
            Request::parse_head(unterminated.as_bytes()),
            Err(HttpError::TooLarge("too many headers"))
        ));
        assert!(matches!(
            Request::parse_head(b"GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed("unsupported HTTP version"))
        ));
        assert!(matches!(
            Request::parse_head(b"GET / HTTP/1.1\r\nNoColon\r\n\r\n"),
            Err(HttpError::Malformed("header without colon"))
        ));
    }

    #[test]
    fn chunk_frames_encode_into_buffers() {
        let mut out = Vec::new();
        encode_chunk(&mut out, b"abcd");
        encode_chunk(&mut out, b"");
        encode_chunk(&mut out, &[0u8; 16]);
        encode_chunk_end(&mut out);
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("4\r\nabcd\r\n"), "{text}");
        assert!(text.contains("10\r\n"), "hex sizes: {text}");
        assert!(text.ends_with("0\r\n\r\n"));
    }

    #[test]
    fn in_place_chunks_frame_exactly_the_filled_bytes() {
        let (mut copied, mut in_place) = (Vec::new(), Vec::new());
        encode_chunk(&mut copied, &[7u8; 300]);
        let filled = encode_chunk_with(&mut in_place, 300, |buf| {
            buf.fill(7);
            buf.len()
        });
        assert_eq!(
            (filled, &in_place),
            (300, &copied),
            "full fills frame as before"
        );

        // A short fill re-frames to the drawn length; an empty one adds nothing.
        let mut out = b"head".to_vec();
        let short = encode_chunk_with(&mut out, 300, |buf| {
            buf[..5].copy_from_slice(b"abcde");
            5
        });
        assert_eq!(short, 5);
        assert_eq!(encode_chunk_with(&mut out, 300, |_| 0), 0);
        assert_eq!(out, b"head5\r\nabcde\r\n");
    }

    #[test]
    fn content_length_responses_render() {
        let mut out = Vec::new();
        let head = ResponseHead::new(200).header("Content-Type", "application/json");
        write_response(&mut out, &head, b"{\"ok\":true}", true, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        write_response(&mut out, &ResponseHead::new(404), b"gone", false, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(
            text.ends_with("\r\n\r\n"),
            "HEAD suppresses the body: {text}"
        );
    }

    #[test]
    fn chunked_responses_frame_and_terminate() {
        let mut out = Vec::new();
        let head = ResponseHead::new(200).header("X-PTRNG-MinEntropy", "0.9973");
        let mut body = ChunkedWriter::start(&mut out, &head, true).unwrap();
        body.write_chunk(b"abcd").unwrap();
        body.write_chunk(b"").unwrap();
        body.write_chunk(&[0u8; 16]).unwrap();
        body.finish().unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("4\r\nabcd\r\n"), "{text}");
        assert!(text.contains("10\r\n"), "hex chunk sizes: {text}");
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
