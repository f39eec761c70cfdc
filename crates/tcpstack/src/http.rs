//! A real HTTP/1.1 codec — request/response parsing and serialization.
//!
//! The ingress gateway terminates genuine HTTP traffic (§3.6): it parses
//! request lines, headers and content-length-framed bodies from a byte
//! stream, and re-serializes responses. The paper builds on NGINX for its
//! "full-fledged HTTP processing"; the reproduction needs parsing fidelity
//! rather than NGINX's module ecosystem, so it implements the codec from
//! scratch.
//!
//! The parser is incremental: feed bytes, get back `Incomplete` until a full
//! message is buffered — exactly how a busy-polling worker consumes a TCP
//! stream.

use bytes::{BufMut, Bytes, BytesMut};

/// HTTP request method (the subset serverless gateways care about).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// PUT
    Put,
    /// DELETE
    Delete,
}

impl Method {
    fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }

    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

/// A parsed HTTP/1.1 request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (path).
    pub path: String,
    /// Headers in arrival order, lowercased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes (content-length framed).
    pub body: Bytes,
}

impl Request {
    /// Header lookup (case-insensitive, first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(128 + self.body.len());
        out.put_slice(self.method.as_str().as_bytes());
        out.put_u8(b' ');
        out.put_slice(self.path.as_bytes());
        out.put_slice(b" HTTP/1.1\r\n");
        let mut has_cl = false;
        for (k, v) in &self.headers {
            if k == "content-length" {
                has_cl = true;
            }
            out.put_slice(k.as_bytes());
            out.put_slice(b": ");
            out.put_slice(v.as_bytes());
            out.put_slice(b"\r\n");
        }
        if !has_cl && !self.body.is_empty() {
            out.put_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        }
        out.put_slice(b"\r\n");
        out.put_slice(&self.body);
        out.freeze()
    }
}

/// A parsed HTTP/1.1 response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, lowercased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Bytes,
}

impl Response {
    /// A 200 OK carrying `body`.
    pub fn ok(body: Bytes) -> Response {
        Response {
            status: 200,
            headers: Vec::new(),
            body,
        }
    }

    /// A 503 Service Unavailable (the overloaded-ingress answer).
    pub fn unavailable() -> Response {
        Response {
            status: 503,
            headers: Vec::new(),
            body: Bytes::new(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(64 + self.body.len());
        out.put_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason()).as_bytes());
        let mut has_cl = false;
        for (k, v) in &self.headers {
            if k == "content-length" {
                has_cl = true;
            }
            out.put_slice(k.as_bytes());
            out.put_slice(b": ");
            out.put_slice(v.as_bytes());
            out.put_slice(b"\r\n");
        }
        if !has_cl {
            out.put_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        }
        out.put_slice(b"\r\n");
        out.put_slice(&self.body);
        out.freeze()
    }
}

/// Parse outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Parse<T> {
    /// A full message was consumed from the buffer.
    Done(T),
    /// More bytes needed; buffer untouched.
    Incomplete,
    /// The stream is irrecoverably malformed.
    Error(ParseError),
}

/// Parsing failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// Request/status line malformed.
    BadStartLine,
    /// A header line had no colon.
    BadHeader,
    /// content-length was not a number.
    BadContentLength,
    /// Method unknown.
    BadMethod,
    /// Header section exceeded the sanity cap (DoS guard).
    TooLarge,
}

/// Maximum bytes of header section before we call it an attack.
const MAX_HEADER_BYTES: usize = 16 * 1024;

fn find_headers_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn parse_headers(section: &str) -> Result<Vec<(String, String)>, ParseError> {
    let mut headers = Vec::new();
    for line in section.split("\r\n").filter(|l| !l.is_empty()) {
        let (k, v) = line.split_once(':').ok_or(ParseError::BadHeader)?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    Ok(headers)
}

fn content_length(headers: &[(String, String)]) -> Result<usize, ParseError> {
    for (k, v) in headers {
        if k == "content-length" {
            return v.parse().map_err(|_| ParseError::BadContentLength);
        }
    }
    Ok(0)
}

/// Incrementally parse one request from `buf`, consuming it on success.
pub fn parse_request(buf: &mut BytesMut) -> Parse<Request> {
    let Some(head_end) = find_headers_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Parse::Error(ParseError::TooLarge);
        }
        return Parse::Incomplete;
    };
    // Parse the head into owned values so the buffer can be split after.
    let parsed = {
        let head = match std::str::from_utf8(&buf[..head_end - 4]) {
            Ok(s) => s,
            Err(_) => return Parse::Error(ParseError::BadStartLine),
        };
        let (start_line, header_section) = head.split_once("\r\n").unwrap_or((head, ""));
        let mut parts = start_line.split(' ');
        let (Some(method), Some(path), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Parse::Error(ParseError::BadStartLine);
        };
        if !version.starts_with("HTTP/1.") {
            return Parse::Error(ParseError::BadStartLine);
        }
        let Some(method) = Method::parse(method) else {
            return Parse::Error(ParseError::BadMethod);
        };
        let headers = match parse_headers(header_section) {
            Ok(h) => h,
            Err(e) => return Parse::Error(e),
        };
        (method, path.to_string(), headers)
    };
    let (method, path, headers) = parsed;
    let body_len = match content_length(&headers) {
        Ok(n) => n,
        Err(e) => return Parse::Error(e),
    };
    if buf.len() < head_end + body_len {
        return Parse::Incomplete;
    }
    let mut msg = buf.split_to(head_end + body_len);
    let body = msg.split_off(head_end).freeze();
    Parse::Done(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Incrementally parse one response from `buf`, consuming it on success.
pub fn parse_response(buf: &mut BytesMut) -> Parse<Response> {
    let Some(head_end) = find_headers_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Parse::Error(ParseError::TooLarge);
        }
        return Parse::Incomplete;
    };
    let parsed = {
        let head = match std::str::from_utf8(&buf[..head_end - 4]) {
            Ok(s) => s,
            Err(_) => return Parse::Error(ParseError::BadStartLine),
        };
        let (start_line, header_section) = head.split_once("\r\n").unwrap_or((head, ""));
        let mut parts = start_line.splitn(3, ' ');
        let (Some(version), Some(code), _) = (parts.next(), parts.next(), parts.next()) else {
            return Parse::Error(ParseError::BadStartLine);
        };
        if !version.starts_with("HTTP/1.") {
            return Parse::Error(ParseError::BadStartLine);
        }
        let Ok(status) = code.parse::<u16>() else {
            return Parse::Error(ParseError::BadStartLine);
        };
        let headers = match parse_headers(header_section) {
            Ok(h) => h,
            Err(e) => return Parse::Error(e),
        };
        (status, headers)
    };
    let (status, headers) = parsed;
    let body_len = match content_length(&headers) {
        Ok(n) => n,
        Err(e) => return Parse::Error(e),
    };
    if buf.len() < head_end + body_len {
        return Parse::Incomplete;
    }
    let mut msg = buf.split_to(head_end + body_len);
    let body = msg.split_off(head_end).freeze();
    Parse::Done(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            method: Method::Post,
            path: "/fn/frontend".to_string(),
            headers: vec![("host".into(), "palladium.cluster".into())],
            body: Bytes::from_static(b"payload-bytes"),
        };
        let mut buf = BytesMut::from(&req.encode()[..]);
        match parse_request(&mut buf) {
            Parse::Done(parsed) => {
                assert_eq!(parsed.method, Method::Post);
                assert_eq!(parsed.path, "/fn/frontend");
                assert_eq!(parsed.header("Host"), Some("palladium.cluster"));
                assert_eq!(parsed.header("content-length"), Some("13"));
                assert_eq!(parsed.body, Bytes::from_static(b"payload-bytes"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(buf.is_empty(), "parser consumed exactly one message");
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok(Bytes::from_static(b"result"));
        let mut buf = BytesMut::from(&resp.encode()[..]);
        match parse_response(&mut buf) {
            Parse::Done(parsed) => {
                assert_eq!(parsed.status, 200);
                assert_eq!(parsed.body, Bytes::from_static(b"result"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn incremental_parsing_waits_for_body() {
        let req = Request {
            method: Method::Post,
            path: "/x".into(),
            headers: vec![],
            body: Bytes::from(vec![7u8; 100]),
        };
        let wire = req.encode();
        let mut buf = BytesMut::new();
        // Feed all but the last byte.
        buf.extend_from_slice(&wire[..wire.len() - 1]);
        assert_eq!(parse_request(&mut buf), Parse::Incomplete);
        buf.extend_from_slice(&wire[wire.len() - 1..]);
        assert!(matches!(parse_request(&mut buf), Parse::Done(_)));
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let r1 = Request {
            method: Method::Get,
            path: "/a".into(),
            headers: vec![],
            body: Bytes::new(),
        };
        let r2 = Request {
            method: Method::Get,
            path: "/b".into(),
            headers: vec![],
            body: Bytes::new(),
        };
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&r1.encode());
        buf.extend_from_slice(&r2.encode());
        let Parse::Done(first) = parse_request(&mut buf) else {
            panic!("first should parse")
        };
        assert_eq!(first.path, "/a");
        let Parse::Done(second) = parse_request(&mut buf) else {
            panic!("second should parse")
        };
        assert_eq!(second.path, "/b");
        assert!(buf.is_empty());
    }

    #[test]
    fn malformed_inputs_error() {
        let mut buf = BytesMut::from(&b"NOTAMETHOD / HTTP/1.1\r\n\r\n"[..]);
        assert_eq!(parse_request(&mut buf), Parse::Error(ParseError::BadMethod));

        let mut buf = BytesMut::from(&b"GET /\r\n\r\n"[..]);
        assert_eq!(
            parse_request(&mut buf),
            Parse::Error(ParseError::BadStartLine)
        );

        let mut buf = BytesMut::from(&b"GET / HTTP/1.1\r\nbadheader\r\n\r\n"[..]);
        assert_eq!(parse_request(&mut buf), Parse::Error(ParseError::BadHeader));

        let mut buf =
            BytesMut::from(&b"GET / HTTP/1.1\r\ncontent-length: xyz\r\n\r\n"[..]);
        assert_eq!(
            parse_request(&mut buf),
            Parse::Error(ParseError::BadContentLength)
        );
    }

    #[test]
    fn header_flood_is_rejected() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"GET / HTTP/1.1\r\n");
        while buf.len() <= MAX_HEADER_BYTES {
            buf.extend_from_slice(b"x-filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        // No terminating blank line: the DoS guard must fire.
        assert_eq!(parse_request(&mut buf), Parse::Error(ParseError::TooLarge));
    }

    #[test]
    fn status_reasons() {
        assert_eq!(Response::unavailable().status, 503);
        let wire = Response::unavailable().encode();
        assert!(wire.starts_with(b"HTTP/1.1 503 Service Unavailable\r\n"));
    }
}
