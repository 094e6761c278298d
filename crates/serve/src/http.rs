//! Minimal HTTP/1.1 over std: request parsing, response writing, and a
//! fixed-size thread pool. Enough protocol for the gateway's own routes
//! and `curl` — not a general server. Connections are `Connection:
//! close`; bodies require `Content-Length` and are capped *at header
//! parse time* (the declared length is validated before any buffer is
//! sized from it); the request line and each header line are capped at
//! `MAX_LINE` bytes and the header count at `MAX_HEADERS` before
//! anything is buffered past them; query keys and values are
//! percent-decoded, with `+` as space.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

/// Largest accepted request body; protects the scheduler from
/// accidental uploads (job specs are a few dozen bytes).
const MAX_BODY: usize = 1 << 20;

/// Longest accepted request or header line, terminator included. It is
/// also the read buffer size, so an endless line costs the server at
/// most one more buffer fill past the cap before it is answered.
const MAX_LINE: usize = 8 << 10;

/// Most header lines accepted before the blank line that ends them.
const MAX_HEADERS: usize = 100;

/// Why a request could not be parsed. The connection handler maps these
/// onto proper HTTP responses instead of silently dropping the socket.
#[derive(Debug)]
pub enum RequestError {
    /// Syntactically invalid request (bad request line, garbage
    /// `Content-Length`, over-long line, too many headers, ...) —
    /// answer 400.
    Malformed(String),
    /// Declared body length exceeds `MAX_BODY` (1 MiB) — answer 413.
    /// Raised from the header alone, before any allocation.
    TooLarge,
    /// Transport failure mid-read; there is nobody to answer.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// Decode `%XX` escapes (and `+` as space) in a query component.
/// Malformed escapes are kept literally rather than rejected — query
/// values here are route parameters, not user content, and a stray `%`
/// should read back as written.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len()
                && bytes[i + 1].is_ascii_hexdigit()
                && bytes[i + 2].is_ascii_hexdigit() =>
            {
                let byte = u8::from_str_radix(&s[i + 1..i + 3], 16).expect("two hex digits");
                out.push(byte);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Validate a `Content-Length` header value without ever materialising
/// an attacker-controlled allocation: garbage (including negative
/// numbers) is a 400, anything over [`MAX_BODY`] — even values too big
/// for `usize` — is a 413.
fn parse_content_length(value: &str) -> Result<usize, RequestError> {
    let value = value.trim();
    let parsed: usize = value.parse().map_err(|e: std::num::ParseIntError| {
        if matches!(e.kind(), std::num::IntErrorKind::PosOverflow) {
            RequestError::TooLarge
        } else {
            RequestError::Malformed(format!("invalid Content-Length {value:?}"))
        }
    })?;
    if parsed > MAX_BODY {
        return Err(RequestError::TooLarge);
    }
    Ok(parsed)
}

/// A parsed request: method, decoded path segments, query map, body.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string, e.g. `/jobs/3/events`.
    pub path: String,
    /// Query parameters in order-independent form.
    pub query: BTreeMap<String, String>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The `/`-separated path segments, empty segments dropped.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// A query parameter, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }
}

/// Read one line of at most [`MAX_LINE`] bytes (empty at end of input).
fn read_capped_line(reader: &mut impl BufRead, what: &str) -> Result<String, RequestError> {
    let mut line = String::new();
    reader.take(MAX_LINE as u64).read_line(&mut line)?;
    if line.len() == MAX_LINE && !line.ends_with('\n') {
        return Err(RequestError::Malformed(format!(
            "{what} exceeds {MAX_LINE} bytes"
        )));
    }
    Ok(line)
}

/// Read and parse one request from `stream`: I/O failures surface as
/// [`RequestError::Io`], protocol problems as answerable
/// [`RequestError::Malformed`]/[`RequestError::TooLarge`] variants. The
/// declared `Content-Length` is validated while still a string — the
/// body buffer is only ever sized from a value known to be ≤ the cap.
pub fn read_request(stream: impl Read) -> Result<Request, RequestError> {
    let mut reader = BufReader::with_capacity(MAX_LINE, stream);
    let line = read_capped_line(&mut reader, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing request target".into()))?;
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let mut query = BTreeMap::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(percent_decode(k), percent_decode(v));
    }
    // Headers: only Content-Length matters to us.
    let mut content_length = 0usize;
    for count in 0.. {
        let header = read_capped_line(&mut reader, "header line")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if count == MAX_HEADERS {
            return Err(RequestError::Malformed(format!(
                "more than {MAX_HEADERS} header lines"
            )));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = parse_content_length(value)?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// A response ready to serialise: status, content type, body.
#[derive(Debug)]
pub struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    /// 200 with an explicit content type.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 200,
            content_type,
            body: body.into(),
        }
    }

    /// 200 `application/json`.
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        Response::ok("application/json", body)
    }

    /// 200 `text/markdown`.
    pub fn markdown(body: impl Into<Vec<u8>>) -> Self {
        Response::ok("text/markdown; charset=utf-8", body)
    }

    /// 200 `text/plain`.
    pub fn text(body: impl Into<Vec<u8>>) -> Self {
        Response::ok("text/plain; charset=utf-8", body)
    }

    /// 202 `application/json` — a job was accepted.
    pub fn accepted(body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 202,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// 400 with a plain-text reason.
    pub fn bad_request(msg: &str) -> Self {
        Response {
            status: 400,
            content_type: "text/plain; charset=utf-8",
            body: format!("{msg}\n").into_bytes(),
        }
    }

    /// 404 with a plain-text reason.
    pub fn not_found(msg: &str) -> Self {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: format!("{msg}\n").into_bytes(),
        }
    }

    /// 405 for a method the route does not support.
    pub fn method_not_allowed() -> Self {
        Response {
            status: 405,
            content_type: "text/plain; charset=utf-8",
            body: b"method not allowed\n".to_vec(),
        }
    }

    /// 413 for a declared body length over the cap.
    pub fn payload_too_large() -> Self {
        Response {
            status: 413,
            content_type: "text/plain; charset=utf-8",
            body: format!("request body exceeds {MAX_BODY} bytes\n").into_bytes(),
        }
    }

    /// 500 with a plain-text reason (e.g. a caught handler panic).
    pub fn internal_error(msg: &str) -> Self {
        Response {
            status: 500,
            content_type: "text/plain; charset=utf-8",
            body: format!("{msg}\n").into_bytes(),
        }
    }

    /// The HTTP status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The body length in bytes (what `Content-Length` will declare).
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// The reason phrase for this status.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            _ => "Internal Server Error",
        }
    }

    /// The status line + headers, with the `Content-Length` the full
    /// response would carry.
    fn head(&self) -> String {
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )
    }

    /// Serialise onto `stream` and flush.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        stream.write_all(self.head().as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }

    /// Serialise the head only — the `HEAD` answer to a `GET` route:
    /// identical status and headers (including the `Content-Length` the
    /// body *would* have), no body bytes.
    pub fn write_head_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        stream.write_all(self.head().as_bytes())?;
        stream.flush()
    }
}

/// Write the head of a `text/event-stream` response; the body is
/// streamed afterwards by the SSE feed.
pub fn write_sse_head(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// A fixed-size thread pool for connection handling. Jobs are closures;
/// dropping the pool closes the channel and joins the workers after
/// they drain the queue.
pub struct ThreadPool {
    sender: Option<mpsc::Sender<Box<dyn FnOnce() + Send>>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool of `size` workers (at least 1).
    pub fn new(size: usize) -> Self {
        Self::instrumented(size, None, None)
    }

    /// A pool whose workers maintain a busy gauge and survive panicking
    /// jobs. A panic that escapes a job is caught at the worker loop (a
    /// backstop — handlers catch their own panics to answer 500, but a
    /// panic anywhere else must not shrink the pool permanently), counted
    /// into `panics`, and the worker returns to the queue.
    pub fn instrumented(
        size: usize,
        busy: Option<Arc<bb_trace::telemetry::Gauge>>,
        panics: Option<Arc<bb_trace::telemetry::Counter>>,
    ) -> Self {
        let (sender, receiver) = mpsc::channel::<Box<dyn FnOnce() + Send>>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size.max(1))
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                let busy = busy.clone();
                let panics = panics.clone();
                thread::spawn(move || loop {
                    let job = match receiver.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => return,
                    };
                    match job {
                        Ok(job) => {
                            if let Some(busy) = &busy {
                                busy.add(1);
                            }
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            if let Some(busy) = &busy {
                                busy.add(-1);
                            }
                            if outcome.is_err() {
                                if let Some(panics) = &panics {
                                    panics.inc();
                                }
                            }
                        }
                        Err(_) => return, // channel closed: pool dropped
                    }
                })
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Run `job` on some worker.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(sender) = &self.sender {
            let _ = sender.send(Box::new(job));
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.sender.take(); // close the channel
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_request_line_query_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(
                b"POST /jobs?format=json&x HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\nbody",
            )
            .unwrap();
            s.flush().unwrap();
            // Hold the socket open until the server side has parsed.
            let mut buf = Vec::new();
            let _ = s.read_to_end(&mut buf);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.segments(), ["jobs"]);
        assert_eq!(req.query("format"), Some("json"));
        assert_eq!(req.query("x"), Some(""));
        assert_eq!(req.body, b"body");
        Response::json("{}").write_to(&mut conn).unwrap();
        drop(conn);
        client.join().unwrap();
    }

    #[test]
    fn query_components_are_percent_decoded() {
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("m%64"), "md");
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("100%25"), "100%");
        // Malformed escapes survive literally instead of erroring.
        assert_eq!(percent_decode("50%"), "50%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%4"), "%4");
        // Multi-byte UTF-8 round-trips.
        assert_eq!(percent_decode("%C3%A9"), "é");
    }

    #[test]
    fn content_length_is_validated_before_any_allocation() {
        assert_eq!(parse_content_length(" 42 ").unwrap(), 42);
        assert_eq!(parse_content_length("0").unwrap(), 0);
        assert_eq!(parse_content_length("1048576").unwrap(), MAX_BODY);
        // One over the cap, numeric but huge, and too big for usize all
        // classify as TooLarge (413), never as a buffer size.
        for huge in ["1048577", "999999999999", "99999999999999999999999999"] {
            assert!(
                matches!(parse_content_length(huge), Err(RequestError::TooLarge)),
                "{huge}"
            );
        }
        // Garbage — including negative numbers — is Malformed (400).
        for garbage in ["-1", "abc", "1e6", "0x10", "12 34", ""] {
            assert!(
                matches!(
                    parse_content_length(garbage),
                    Err(RequestError::Malformed(_))
                ),
                "{garbage:?}"
            );
        }
    }

    /// A reader that counts the bytes the parser pulled from it.
    struct Counted<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    /// Parse `head` followed by an endless run of `filler` bytes,
    /// returning the outcome and how many bytes the parser consumed.
    fn parse_endless(head: &str, filler: u8) -> (Result<Request, RequestError>, usize) {
        let mut input = Counted {
            inner: head.as_bytes().chain(io::repeat(filler)),
            read: 0,
        };
        let outcome = read_request(&mut input);
        (outcome, input.read)
    }

    fn malformed(outcome: &Result<Request, RequestError>) -> &str {
        match outcome {
            Err(RequestError::Malformed(message)) => message,
            other => panic!("expected a 400-class rejection, got {other:?}"),
        }
    }

    #[test]
    fn over_long_request_line_is_rejected_after_one_cap() {
        let (outcome, read) = parse_endless("GET /", b'a');
        assert!(malformed(&outcome).contains("request line"));
        assert!(read <= 2 * MAX_LINE, "read {read} bytes");
    }

    #[test]
    fn over_long_header_line_is_rejected_after_one_cap() {
        let head = "GET / HTTP/1.1\r\nX-Long: ";
        let (outcome, read) = parse_endless(head, b'a');
        assert!(malformed(&outcome).contains("header line"));
        assert!(read <= head.len() + 2 * MAX_LINE, "read {read} bytes");
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let header = "X-Spam: 1\r\n";
        let too_many = format!("GET / HTTP/1.1\r\n{}", header.repeat(MAX_HEADERS + 1));
        let (outcome, read) = parse_endless(&too_many, b'a');
        assert!(malformed(&outcome).contains("header lines"));
        assert!(read <= too_many.len() + MAX_LINE, "read {read} bytes");

        // Exactly at both caps is still accepted.
        let max_line = format!("X-Max: {}\r\n", "a".repeat(MAX_LINE - 9));
        assert_eq!(max_line.len(), MAX_LINE);
        let at_caps = format!(
            "GET / HTTP/1.1\r\n{max_line}{}\r\n",
            header.repeat(MAX_HEADERS - 1)
        );
        assert!(read_request(at_caps.as_bytes()).is_ok());
    }

    #[test]
    fn encoded_query_params_reach_the_request_decoded() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /exhibits/t4?form%61t=m%64&note=a+b%20c HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            s.flush().unwrap();
            let mut buf = Vec::new();
            let _ = s.read_to_end(&mut buf);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn).unwrap();
        assert_eq!(req.query("format"), Some("md"));
        assert_eq!(req.query("note"), Some("a b c"));
        Response::json("{}").write_to(&mut conn).unwrap();
        drop(conn);
        client.join().unwrap();
    }

    #[test]
    fn pool_runs_jobs_and_joins_on_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(3);
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins after draining
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn pool_workers_survive_panicking_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let panics = Arc::new(bb_trace::telemetry::Counter::default());
        let done = Arc::new(AtomicUsize::new(0));
        // 2 workers, 4 panicking jobs: without the catch, both workers
        // would be dead after two jobs and the remaining work would hang
        // the drop-join forever.
        let pool = ThreadPool::instrumented(2, None, Some(Arc::clone(&panics)));
        for i in 0..8 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                if i % 2 == 0 {
                    panic!("injected test panic");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 4, "surviving jobs all ran");
        assert_eq!(panics.get(), 4, "every panic was counted");
    }
}
