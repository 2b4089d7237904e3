//! Zero-dependency HTTP/1.1 front end over the job runtime.
//!
//! One request per connection (`Connection: close` throughout), a
//! thread per connection, bounded request sizes. The endpoint surface:
//!
//! | Method & path          | Meaning                             | Responses |
//! |------------------------|-------------------------------------|-----------|
//! | `POST /jobs`           | Submit a [`JobSpec`] JSON body      | `201` `{"id":"j0"}`, `400`, `413`, `429` + `Retry-After`, `503` |
//! | `GET /jobs/:id`        | Job status document                 | `200`, `404` |
//! | `GET /jobs/:id/events` | JSONL event stream (close-delimited)| `200`, `404` |
//! | `DELETE /jobs/:id`     | Cooperative cancel                  | `200`, `404`, `409` |
//! | `GET /metrics`         | Plain-text runtime + pool metrics   | `200` |
//! | `GET /families`        | Registered engine families/problems | `200` |
//! | `GET /healthz`         | Liveness + degraded/quarantine info | `200` |
//! | `GET /readyz`          | Readiness (admission open?)         | `200`, `503` |
//! | `POST /drain`          | Graceful drain: close admission, persist all | `200` |
//!
//! Hardening: both a read and a write timeout bound every connection,
//! and oversized `Content-Length`s are rejected `413` *before* the body
//! is read (cap configurable via `ServeBuilder::max_body_bytes`).
//!
//! The events endpoint streams each line the engine's recorder emits,
//! waking on every line appended to the job's shared buffer, until the
//! job reaches a terminal state and the buffer drains; the end of the
//! body is signalled by the connection closing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::job::JobId;
use crate::protocol::{JobSpec, Json};
use crate::scheduler::{ServeRuntime, SubmitError};

/// Largest accepted header block.
const MAX_HEAD: usize = 16 << 10;
/// Longest an events stream blocks without a wake from its job: a
/// safety net only, since every recorded line and the close wake it.
const EVENT_WAIT: Duration = Duration::from_secs(1);
/// Read and write timeout per connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A running HTTP listener bound to a local address. Dropping (or
/// calling [`shutdown`](Self::shutdown)) stops accepting; in-flight
/// event streams end when their jobs finish.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// The bound local address (useful with `:0` ephemeral binds).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the acceptor thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `runtime` until the
/// returned handle is dropped.
pub fn serve_http(runtime: Arc<ServeRuntime>, addr: &str) -> io::Result<HttpServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("pga-serve-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    if runtime.chaos().is_some_and(|c| c.on_accept()) {
                        // Scripted connection drop: close unanswered,
                        // as if the process vanished mid-accept.
                        drop(conn);
                        continue;
                    }
                    let runtime = Arc::clone(&runtime);
                    let _ = std::thread::Builder::new()
                        .name("pga-serve-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(&runtime, conn);
                        });
                }
            })?
    };
    Ok(HttpServer {
        addr,
        stop,
        acceptor: Some(acceptor),
    })
}

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Why a request could not be read: the HTTP status to answer with plus
/// a human-readable message. IO failures map to `400`.
struct RequestError {
    code: u16,
    message: String,
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        Self {
            code: 400,
            message: e.to_string(),
        }
    }
}

fn bad_request(message: &str) -> RequestError {
    RequestError {
        code: 400,
        message: message.into(),
    }
}

fn read_request(conn: &mut TcpStream, max_body: usize) -> Result<Request, RequestError> {
    conn.set_read_timeout(Some(IO_TIMEOUT))?;
    conn.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(bad_request("bad request line"));
    }
    let mut content_length = 0usize;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        head_bytes += header.len();
        if head_bytes > MAX_HEAD {
            return Err(bad_request("headers too large"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad_request("bad length"))?;
            }
        }
    }
    // Reject oversized bodies *before* reading a byte of them: a
    // misbehaving client cannot make the server buffer its payload.
    if content_length > max_body {
        return Err(RequestError {
            code: 413,
            message: format!("body of {content_length} bytes exceeds the {max_body}-byte cap"),
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn respond(
    conn: &mut TcpStream,
    code: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(code),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    conn.write_all(head.as_bytes())?;
    conn.write_all(body)?;
    conn.flush()
}

fn error_body(message: &str) -> Vec<u8> {
    Json::Obj(vec![("error".into(), Json::Str(message.into()))])
        .to_json_string()
        .into_bytes()
}

fn handle_connection(runtime: &ServeRuntime, mut conn: TcpStream) -> io::Result<()> {
    let request = match read_request(&mut conn, runtime.max_body_bytes()) {
        Ok(request) => request,
        Err(e) => {
            return respond(
                &mut conn,
                e.code,
                "application/json",
                &[],
                &error_body(&e.message),
            );
        }
    };
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => handle_submit(runtime, &mut conn, &request.body),
        ("GET", ["jobs", id]) => match id
            .parse::<JobId>()
            .ok()
            .and_then(|id| runtime.status_json(id))
        {
            Some(doc) => respond(&mut conn, 200, "application/json", &[], doc.as_bytes()),
            None => respond(
                &mut conn,
                404,
                "application/json",
                &[],
                &error_body("no such job"),
            ),
        },
        ("GET", ["jobs", id, "events"]) => handle_events(runtime, &mut conn, id),
        ("DELETE", ["jobs", id]) => match id.parse::<JobId>() {
            Ok(id) if runtime.cancel(id) => {
                let doc = Json::Obj(vec![
                    ("id".into(), Json::Str(id.to_string())),
                    ("cancelled".into(), Json::Bool(true)),
                ]);
                respond(
                    &mut conn,
                    200,
                    "application/json",
                    &[],
                    doc.to_json_string().as_bytes(),
                )
            }
            Ok(id) if runtime.state(id).is_some() => respond(
                &mut conn,
                409,
                "application/json",
                &[],
                &error_body("job already terminal"),
            ),
            _ => respond(
                &mut conn,
                404,
                "application/json",
                &[],
                &error_body("no such job"),
            ),
        },
        ("GET", ["metrics"]) => respond(
            &mut conn,
            200,
            "text/plain",
            &[],
            runtime.metrics_text().as_bytes(),
        ),
        ("GET", ["families"]) => {
            let reg = crate::factory::Registries::builtin();
            let names = |items: Vec<&str>| {
                Json::Arr(items.into_iter().map(|n| Json::Str(n.into())).collect())
            };
            let doc = Json::Obj(vec![
                ("families".into(), names(reg.families.names())),
                ("problems".into(), names(reg.problems.names())),
            ]);
            respond(
                &mut conn,
                200,
                "application/json",
                &[],
                doc.to_json_string().as_bytes(),
            )
        }
        ("GET", ["healthz"]) => {
            let health = runtime.health();
            let doc = Json::Obj(vec![
                (
                    "status".into(),
                    Json::Str(if health.degraded { "degraded" } else { "ok" }.into()),
                ),
                ("degraded".into(), Json::Bool(health.degraded)),
                ("draining".into(), Json::Bool(health.draining)),
                ("live".into(), Json::Num(health.live as f64)),
                ("queued".into(), Json::Num(health.queued as f64)),
                ("poisoned".into(), Json::Num(health.poisoned as f64)),
            ]);
            respond(
                &mut conn,
                200,
                "application/json",
                &[],
                doc.to_json_string().as_bytes(),
            )
        }
        ("GET", ["readyz"]) => {
            if runtime.ready() {
                respond(&mut conn, 200, "application/json", &[], b"{\"ready\":true}")
            } else {
                respond(
                    &mut conn,
                    503,
                    "application/json",
                    &[],
                    b"{\"ready\":false}",
                )
            }
        }
        ("POST", ["drain"]) => {
            let report = runtime.drain();
            let doc = Json::Obj(vec![
                ("persisted".into(), Json::Num(report.persisted as f64)),
                ("failed".into(), Json::Num(report.failed as f64)),
                ("terminal".into(), Json::Num(report.terminal as f64)),
            ]);
            respond(
                &mut conn,
                200,
                "application/json",
                &[],
                doc.to_json_string().as_bytes(),
            )
        }
        (_, ["jobs", ..] | ["metrics"] | ["families"] | ["healthz"] | ["readyz"] | ["drain"]) => {
            respond(
                &mut conn,
                405,
                "application/json",
                &[],
                &error_body("method not allowed"),
            )
        }
        _ => respond(
            &mut conn,
            404,
            "application/json",
            &[],
            &error_body("no such route"),
        ),
    }
}

fn handle_submit(runtime: &ServeRuntime, conn: &mut TcpStream, body: &[u8]) -> io::Result<()> {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => {
            return respond(
                conn,
                400,
                "application/json",
                &[],
                &error_body("body is not UTF-8"),
            )
        }
    };
    let spec = match JobSpec::from_json_str(text) {
        Ok(spec) => spec,
        Err(e) => {
            return respond(
                conn,
                400,
                "application/json",
                &[],
                &error_body(&e.to_string()),
            )
        }
    };
    match runtime.submit(spec) {
        Ok(id) => {
            let doc = Json::Obj(vec![("id".into(), Json::Str(id.to_string()))]);
            respond(
                conn,
                201,
                "application/json",
                &[],
                doc.to_json_string().as_bytes(),
            )
        }
        Err(SubmitError::Shed { retry_after_ms }) => {
            let seconds = retry_after_ms.div_ceil(1000).max(1);
            respond(
                conn,
                429,
                "application/json",
                &[("Retry-After", seconds.to_string())],
                &error_body("queue full"),
            )
        }
        Err(SubmitError::ShuttingDown) => respond(
            conn,
            503,
            "application/json",
            &[],
            &error_body("shutting down"),
        ),
        Err(SubmitError::Invalid(e)) => respond(
            conn,
            400,
            "application/json",
            &[],
            &error_body(&e.to_string()),
        ),
    }
}

/// Streams the job's JSONL events until the job is terminal and its
/// buffer has drained; the body is delimited by connection close.
fn handle_events(runtime: &ServeRuntime, conn: &mut TcpStream, id: &str) -> io::Result<()> {
    let Some(stream) = id.parse::<JobId>().ok().and_then(|id| runtime.events(id)) else {
        return respond(
            conn,
            404,
            "application/json",
            &[],
            &error_body("no such job"),
        );
    };
    conn.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )?;
    let mut batch = Vec::new();
    loop {
        let (lines, done) = stream.wait_lines(EVENT_WAIT);
        // One write per drained batch, not two per line.
        batch.clear();
        for line in &lines {
            batch.extend_from_slice(line.as_bytes());
            batch.push(b'\n');
        }
        if !batch.is_empty() {
            conn.write_all(&batch)?;
        }
        if done {
            break;
        }
    }
    conn.flush()
}
