//! HTTP/1.1 request and response construction and lightweight parsing.
//!
//! The classifiers studied in the paper match on human-readable strings in
//! HTTP payloads — Host headers, `Content-Type: video`, `GET`, user-agent
//! application names (§6.1–§6.6) — so the traces must carry real HTTP.

/// Build an HTTP/1.1 GET request.
pub fn get_request(host: &str, path: &str, user_agent: &str) -> Vec<u8> {
    format!(
        "GET {path} HTTP/1.1\r\n\
         Host: {host}\r\n\
         User-Agent: {user_agent}\r\n\
         Accept: */*\r\n\
         Connection: keep-alive\r\n\r\n"
    )
    .into_bytes()
}

/// Build an HTTP/1.1 response header + body.
pub fn response(status: u16, reason: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = response_head(status, reason, content_type, body.len());
    out.extend_from_slice(body);
    out
}

/// The header block of [`response`] for a body of `body_len` bytes.
pub(crate) fn response_head(
    status: u16,
    reason: &str,
    content_type: &str,
    body_len: usize,
) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {body_len}\r\n\
         Connection: keep-alive\r\n\r\n"
    )
    .into_bytes()
}

/// A "403 Forbidden" block page of the kind Iran's censor injects (§6.6).
pub fn forbidden_block_page() -> Vec<u8> {
    response(
        403,
        "Forbidden",
        "text/html",
        b"<html><head><title>403 Forbidden</title></head>\
          <body>Access to this site is denied.</body></html>",
    )
}

/// Find the value range of a header within an HTTP message, returned as a
/// byte range into `data` (used to assert where matching fields sit).
pub fn header_value_range(data: &[u8], header: &str) -> Option<std::ops::Range<usize>> {
    let lower: Vec<u8> = data.iter().map(|b| b.to_ascii_lowercase()).collect();
    let needle = format!("\r\n{}:", header.to_ascii_lowercase());
    let pos = find(&lower, needle.as_bytes())?;
    let value_start_raw = pos + needle.len();
    let rest = &data[value_start_raw..];
    let skip_ws = rest.iter().take_while(|b| **b == b' ').count();
    let value_start = value_start_raw + skip_ws;
    let value_len = data[value_start..]
        .windows(2)
        .position(|w| w == b"\r\n")
        .unwrap_or(data.len() - value_start);
    Some(value_start..value_start + value_len)
}

/// First occurrence of `needle` in `haystack`.
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A minimally parsed HTTP request line + headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    pub method: String,
    pub path: String,
    pub version: String,
    pub headers: Vec<(String, String)>,
}

impl ParsedRequest {
    /// Parse the head of an HTTP request; tolerant of a truncated header
    /// block (parses the lines that are complete).
    pub fn parse(data: &[u8]) -> Option<ParsedRequest> {
        let text = String::from_utf8_lossy(data);
        let mut lines = text.split("\r\n");
        let request_line = lines.next()?;
        let mut parts = request_line.split_whitespace();
        let method = parts.next()?.to_string();
        let path = parts.next()?.to_string();
        let version = parts.next()?.to_string();
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_string(), value.trim().to_string()));
            }
        }
        Some(ParsedRequest {
            method,
            path,
            version,
            headers,
        })
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = get_request("www.economist.com", "/", "curl/7.88");
        let parsed = ParsedRequest::parse(&req).unwrap();
        assert_eq!(parsed.method, "GET");
        assert_eq!(parsed.path, "/");
        assert_eq!(parsed.version, "HTTP/1.1");
        assert_eq!(parsed.header("Host"), Some("www.economist.com"));
        assert_eq!(parsed.header("host"), Some("www.economist.com"));
    }

    #[test]
    fn header_range_points_at_value() {
        let req = get_request("cloudfront.net", "/video.mp4", "PrimeVideo/5.0");
        let range = header_value_range(&req, "Host").unwrap();
        assert_eq!(&req[range], b"cloudfront.net");
        let range = header_value_range(&req, "user-agent").unwrap();
        assert_eq!(&req[range], b"PrimeVideo/5.0");
        assert!(header_value_range(&req, "Cookie").is_none());
    }

    #[test]
    fn response_has_content_type_and_body() {
        let resp = response(200, "OK", "video/mp4", &[0u8; 10]);
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: video/mp4\r\n"));
        assert!(text.contains("Content-Length: 10\r\n"));
        assert_eq!(resp.len(), resp.len() - 10 + 10);
    }

    #[test]
    fn block_page_is_403() {
        let page = forbidden_block_page();
        assert!(page.starts_with(b"HTTP/1.1 403 Forbidden\r\n"));
    }

    #[test]
    fn find_basics() {
        assert_eq!(find(b"hello world", b"world"), Some(6));
        assert_eq!(find(b"hello", b"xyz"), None);
        assert_eq!(find(b"", b"x"), None);
        assert_eq!(find(b"x", b""), None);
    }
}
