//! Wire framing for the `scenario serve` Unix-socket protocol.
//!
//! Frames are minimal HTTP/1.1: a request is
//!
//! ```text
//! POST /api HTTP/1.1\r\n
//! Content-Length: <n>\r\n
//! \r\n
//! <n bytes of Request JSON>
//! ```
//!
//! and a response is
//!
//! ```text
//! HTTP/1.1 <status> <reason>\r\n
//! Content-Type: application/json\r\n
//! Content-Length: <n>\r\n
//! \r\n
//! <n bytes of Response JSON>
//! ```
//!
//! except for [`Request::Subscribe`], which is answered with
//! `Content-Type: application/x-ndjson`, no `Content-Length`, and a
//! stream of event lines until the job finishes and the daemon closes
//! the connection. One request per connection; headers are bounded by
//! [`MAX_HEADER`] and bodies by [`MAX_BODY`] — oversized frames are
//! rejected before the body is read, truncated frames surface as
//! [`ApiError::Protocol`]. The framing is hand-rolled (and
//! curl-compatible in spirit) so the daemon works with zero
//! dependencies and offline.

use crate::api::{ApiError, Request, Response};
use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Largest accepted frame body (the JSON payload), in bytes.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// Largest accepted header block (request/status line included), in
/// bytes.
pub const MAX_HEADER: usize = 8 * 1024;

/// The canonical reason phrase for the status codes the API emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one request frame.
pub fn write_request(w: &mut impl Write, request: &Request) -> Result<(), ApiError> {
    let body = request.to_json().compact();
    write!(
        w,
        "POST /api HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )?;
    w.flush()?;
    Ok(())
}

/// Reads one request frame ([`write_request`]'s inverse).
pub fn read_request(r: &mut impl BufRead) -> Result<Request, ApiError> {
    let (first, headers) = read_head(r)?;
    if !first.starts_with("POST ") {
        return Err(ApiError::Protocol(format!(
            "expected 'POST <path> HTTP/1.1' request line, got '{first}'"
        )));
    }
    let body = read_sized_body(r, &headers)?;
    Request::from_json(&parse_body(&body)?)
}

/// Writes one response frame. The status code derives from the
/// response itself ([`ApiError::http_status`] for errors, 200
/// otherwise).
pub fn write_response(w: &mut impl Write, response: &Response) -> Result<(), ApiError> {
    let status = match response {
        Response::Error { error } => error.http_status(),
        _ => 200,
    };
    let body = response.to_json().compact();
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        reason_phrase(status),
        body.len(),
        body
    )?;
    w.flush()?;
    Ok(())
}

/// Writes the header block opening an NDJSON subscription stream;
/// event lines follow until the server closes the connection.
pub fn write_ndjson_header(w: &mut impl Write) -> Result<(), ApiError> {
    write!(
        w,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n"
    )?;
    w.flush()?;
    Ok(())
}

/// Reads one response frame ([`write_response`]'s inverse). Rejects
/// NDJSON streams — those are read via [`Client::subscribe`].
pub fn read_response(r: &mut impl BufRead) -> Result<Response, ApiError> {
    let (first, headers) = read_head(r)?;
    if !first.starts_with("HTTP/1.1 ") {
        return Err(ApiError::Protocol(format!(
            "expected 'HTTP/1.1 <status>' status line, got '{first}'"
        )));
    }
    if content_type(&headers).is_some_and(|t| t.contains("ndjson")) {
        return Err(ApiError::Protocol(
            "unexpected NDJSON stream (use subscribe)".into(),
        ));
    }
    let body = read_sized_body(r, &headers)?;
    Response::from_json(&parse_body(&body)?)
}

/// Reads the request/status line plus headers, enforcing
/// [`MAX_HEADER`]. Returns the first line and the header lines.
fn read_head(r: &mut impl BufRead) -> Result<(String, Vec<String>), ApiError> {
    let mut total = 0usize;
    let mut first = String::new();
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        let n = r
            .read_line(&mut line)
            .map_err(|e| ApiError::Protocol(format!("reading frame head: {e}")))?;
        if n == 0 {
            return Err(ApiError::Protocol("truncated frame head".into()));
        }
        total += n;
        if total > MAX_HEADER {
            return Err(ApiError::Protocol(format!(
                "frame head exceeds {MAX_HEADER} bytes"
            )));
        }
        let line = line.trim_end_matches(['\r', '\n']).to_string();
        if first.is_empty() {
            if line.is_empty() {
                return Err(ApiError::Protocol("empty request line".into()));
            }
            first = line;
        } else if line.is_empty() {
            return Ok((first, headers));
        } else {
            headers.push(line);
        }
    }
}

/// Case-insensitive header lookup.
fn header<'a>(headers: &'a [String], name: &str) -> Option<&'a str> {
    headers.iter().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

fn content_type(headers: &[String]) -> Option<&str> {
    header(headers, "Content-Type")
}

/// Reads a `Content-Length`-delimited body, enforcing [`MAX_BODY`]
/// before any body byte is consumed.
fn read_sized_body(r: &mut impl BufRead, headers: &[String]) -> Result<Vec<u8>, ApiError> {
    let length: usize = header(headers, "Content-Length")
        .ok_or_else(|| ApiError::Protocol("missing Content-Length".into()))?
        .parse()
        .map_err(|_| ApiError::Protocol("unparseable Content-Length".into()))?;
    if length > MAX_BODY {
        return Err(ApiError::Protocol(format!(
            "frame body of {length} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut body = vec![0u8; length];
    r.read_exact(&mut body)
        .map_err(|e| ApiError::Protocol(format!("truncated frame body: {e}")))?;
    Ok(body)
}

fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::Protocol("frame body is not UTF-8".into()))?;
    Json::parse(text).map_err(|e| ApiError::Protocol(format!("frame body: {e}")))
}

/// A blocking client for the daemon's Unix socket: one connection per
/// request, matching the one-request-per-connection framing.
#[derive(Debug, Clone)]
pub struct Client {
    socket: PathBuf,
}

impl Client {
    /// A client targeting the daemon socket at `socket`.
    pub fn new(socket: impl Into<PathBuf>) -> Client {
        Client {
            socket: socket.into(),
        }
    }

    /// The socket path this client targets.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    fn connect(&self) -> Result<UnixStream, ApiError> {
        UnixStream::connect(&self.socket).map_err(|e| {
            ApiError::Io(format!(
                "connecting to {}: {e} (is `scenario serve` running?)",
                self.socket.display()
            ))
        })
    }

    /// Sends one request and reads the single response.
    pub fn request(&self, request: &Request) -> Result<Response, ApiError> {
        let stream = self.connect()?;
        write_request(&mut &stream, request)?;
        read_response(&mut BufReader::new(stream))
    }

    /// Sends one request with a read timeout; `Err(Io)` on expiry.
    /// Used by liveness polls that must not hang on a wedged daemon.
    pub fn request_timeout(
        &self,
        request: &Request,
        timeout: Duration,
    ) -> Result<Response, ApiError> {
        let stream = self.connect()?;
        stream.set_read_timeout(Some(timeout))?;
        write_request(&mut &stream, request)?;
        read_response(&mut BufReader::new(stream))
    }

    /// Opens a subscription stream for `job`: sends the request and, on
    /// a `200` NDJSON answer, returns an iterator over event lines
    /// (ending when the daemon closes the stream). A JSON answer is
    /// decoded and returned as the error it carries.
    pub fn subscribe(&self, job: &str) -> Result<Subscription, ApiError> {
        let stream = self.connect()?;
        write_request(
            &mut &stream,
            &Request::Subscribe {
                job: job.to_string(),
            },
        )?;
        let mut reader = BufReader::new(stream);
        let (first, headers) = read_head(&mut reader)?;
        if !first.starts_with("HTTP/1.1 ") {
            return Err(ApiError::Protocol(format!(
                "expected status line, got '{first}'"
            )));
        }
        if content_type(&headers).is_some_and(|t| t.contains("ndjson")) {
            return Ok(Subscription { reader });
        }
        let body = read_sized_body(&mut reader, &headers)?;
        match Response::from_json(&parse_body(&body)?)? {
            Response::Error { error } => Err(error),
            other => Err(ApiError::Protocol(format!(
                "unexpected subscribe answer: {:?}",
                other.to_json().compact()
            ))),
        }
    }
}

/// An open NDJSON subscription; iterate to receive event lines.
#[derive(Debug)]
pub struct Subscription {
    reader: BufReader<UnixStream>,
}

impl Iterator for Subscription {
    type Item = Result<String, ApiError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(Ok(line.trim_end_matches(['\r', '\n']).to_string())),
            Err(e) => Some(Err(ApiError::Io(format!("subscription stream: {e}")))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{JobInfo, JobState};
    use std::io::Cursor;

    #[test]
    fn request_frames_round_trip() {
        let request = Request::Submit {
            spec_toml: "name = \"smoke\"\nduration = 100.0\n".into(),
        };
        let mut frame = Vec::new();
        write_request(&mut frame, &request).unwrap();
        let text = String::from_utf8(frame.clone()).unwrap();
        assert!(text.starts_with("POST /api HTTP/1.1\r\nContent-Length: "));
        let parsed = read_request(&mut Cursor::new(frame)).unwrap();
        assert_eq!(parsed, request);
    }

    #[test]
    fn response_frames_round_trip_with_status() {
        let response = Response::Job {
            job: JobInfo {
                digest: "ab".into(),
                scenario: "smoke".into(),
                state: JobState::Done,
                total_runs: 8,
                completed_runs: 8,
            },
        };
        let mut frame = Vec::new();
        write_response(&mut frame, &response).unwrap();
        assert!(String::from_utf8(frame.clone())
            .unwrap()
            .starts_with("HTTP/1.1 200 OK\r\n"));
        assert_eq!(read_response(&mut Cursor::new(frame)).unwrap(), response);

        let error = Response::Error {
            error: ApiError::QueueFull { capacity: 2 },
        };
        let mut frame = Vec::new();
        write_response(&mut frame, &error).unwrap();
        assert!(String::from_utf8(frame.clone())
            .unwrap()
            .starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert_eq!(read_response(&mut Cursor::new(frame)).unwrap(), error);
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let head = format!(
            "POST /api HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = read_request(&mut Cursor::new(head.into_bytes())).unwrap_err();
        assert_eq!(err.code(), "protocol");
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut head = String::from("POST /api HTTP/1.1\r\n");
        while head.len() <= MAX_HEADER {
            head.push_str("X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        let err = read_request(&mut Cursor::new(head.into_bytes())).unwrap_err();
        assert!(err.to_string().contains("head exceeds"));
    }

    #[test]
    fn truncated_frames_are_protocol_errors() {
        // head cut off mid-header
        let err =
            read_request(&mut Cursor::new(b"POST /api HTTP/1.1\r\nContent-".to_vec())).unwrap_err();
        assert_eq!(err.code(), "protocol");
        // body shorter than Content-Length
        let err = read_request(&mut Cursor::new(
            b"POST /api HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"request\"".to_vec(),
        ))
        .unwrap_err();
        assert!(err.to_string().contains("truncated frame body"));
        // empty connection
        let err = read_request(&mut Cursor::new(Vec::new())).unwrap_err();
        assert_eq!(err.code(), "protocol");
    }

    #[test]
    fn malformed_bodies_are_protocol_errors() {
        let frame = b"POST /api HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!".to_vec();
        assert_eq!(
            read_request(&mut Cursor::new(frame)).unwrap_err().code(),
            "protocol"
        );
        let frame = b"GET /api HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}".to_vec();
        assert!(read_request(&mut Cursor::new(frame))
            .unwrap_err()
            .to_string()
            .contains("POST"));
    }

    #[test]
    fn deeply_nested_bodies_are_protocol_errors() {
        // a handler thread's default stack, like the daemon's
        let deep = 100_000;
        let body = format!("{}{}", "[".repeat(deep), "]".repeat(deep));
        let frame = format!(
            "POST /api HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let err = std::thread::spawn(move || read_request(&mut Cursor::new(frame.into_bytes())))
            .join()
            .expect("parser must not overflow the stack")
            .unwrap_err();
        assert_eq!(err.code(), "protocol");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn headers_are_case_insensitive() {
        let frame =
            b"POST /api HTTP/1.1\r\ncontent-length: 18\r\n\r\n{\"request\":\"ping\"}".to_vec();
        assert_eq!(
            read_request(&mut Cursor::new(frame)).unwrap(),
            Request::Ping
        );
    }
}
