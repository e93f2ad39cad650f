//! Property tests of the daemon's HTTP/1.1 framing (`st_serve::http`)
//! over well-formed, mutated and arbitrary request bytes: framing never
//! panics, every failure is an `InvalidData` error, a body never yields
//! more bytes than arrived, well-formed requests round-trip exactly,
//! and the `MAX_LINE` / `MAX_HEADERS` limits hold to the byte.

use std::io::{BufReader, Cursor, ErrorKind, Read};

use proptest::prelude::*;
use st_serve::http::{read_request, Body, Request, MAX_HEADERS, MAX_LINE};

/// Feeds `bytes` to the framing layer the way a connection does: one
/// request head, then its body read to the end.
fn frame(bytes: &[u8]) -> std::io::Result<Option<(Request, Vec<u8>)>> {
    let mut reader = BufReader::new(Cursor::new(bytes.to_vec()));
    let Some(req) = read_request(&mut reader)? else {
        return Ok(None);
    };
    let mut body = Vec::new();
    Body::for_request(&req, &mut reader).read_to_end(&mut body)?;
    Ok(Some((req, body)))
}

/// The laws every input must satisfy, well-formed or not.
fn check_framing_laws(bytes: &[u8]) {
    match frame(bytes) {
        Ok(None) => assert!(bytes.is_empty(), "None only for an empty connection"),
        Ok(Some((req, body))) => {
            assert!(
                req.headers.len() <= MAX_HEADERS,
                "{} headers",
                req.headers.len()
            );
            assert!(body.len() <= bytes.len(), "body larger than the input");
        }
        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}"),
    }
}

/// Any byte, or one of the bytes HTTP framing is built from (so random
/// runs regularly look almost like requests).
fn byte_strategy() -> impl Strategy<Value = u8> {
    prop_oneof![
        0u8..=255,
        prop::sample::select(b"\r\n\r\n :;0123456789abcdefABCDEF%+?=&/-GETPOS".to_vec()),
    ]
}

/// A well-formed request carrying `header`: its bytes and the body a
/// correct decoder yields. `chunks` picks the framing: `None` sends no
/// body, all zeros `Content-Length`, otherwise `chunked` with the
/// non-zero sizes, cycled.
fn render(header: (&str, &str), body: &[u8], chunks: Option<Vec<usize>>) -> (Vec<u8>, Vec<u8>) {
    let head = format!(
        "post /ingest/a%20b.st?x=1+2 HTTP/1.1\r\n{}: {}\r\n",
        header.0, header.1
    );
    let mut out = head.into_bytes();
    let Some(chunks) = chunks else {
        out.extend_from_slice(b"\r\n");
        return (out, Vec::new());
    };
    if chunks.iter().all(|&n| n == 0) {
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
        out.extend_from_slice(body);
        return (out, body.to_vec());
    }
    out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
    let mut sizes = chunks.iter().copied().filter(|&n| n > 0).cycle();
    let mut rest = body;
    while !rest.is_empty() {
        let n = sizes.next().expect("a non-zero size").min(rest.len());
        out.extend_from_slice(format!("{n:x}\r\n").as_bytes());
        out.extend_from_slice(&rest[..n]);
        out.extend_from_slice(b"\r\n");
        rest = &rest[n..];
    }
    out.extend_from_slice(b"0\r\n\r\n");
    (out, body.to_vec())
}

type RequestSpec = ((&'static str, &'static str), Vec<u8>, Option<Vec<usize>>);

fn request_strategy() -> impl Strategy<Value = RequestSpec> {
    (
        (
            prop::sample::select(vec!["Host", "X-Thing", "user-agent"]),
            prop::sample::select(vec!["localhost", "7", "", "a:b"]),
        ),
        prop::collection::vec(byte_strategy(), 0..200),
        prop::option::of(prop::collection::vec(0usize..40, 0..6)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A well-formed request parses back to exactly what was sent.
    #[test]
    fn well_formed_requests_round_trip(spec in request_strategy()) {
        let (header, body, chunks) = spec;
        let (bytes, expected) = render(header, &body, chunks);
        let (req, got) = frame(&bytes).unwrap().expect("a request was sent");
        prop_assert_eq!(&req.method, "POST");
        prop_assert_eq!(&req.path, "/ingest/a b.st");
        prop_assert_eq!(req.query_param("x"), Some("1 2"));
        prop_assert_eq!(req.header(header.0), Some(header.1));
        prop_assert_eq!(got, expected);
    }

    /// Damaged requests (bytes XOR-flipped, then cut) and arbitrary
    /// bytes never panic, fail only with `InvalidData`, and never yield
    /// a body larger than the input.
    #[test]
    fn damaged_and_arbitrary_bytes_fail_typed(
        spec in request_strategy(),
        flips in prop::collection::vec((0usize..4096, 1u8..=255), 0..4),
        cut in prop::option::of(0usize..4096),
        noise in prop::collection::vec(byte_strategy(), 0..400),
    ) {
        let (header, body, chunks) = spec;
        let (mut bytes, _) = render(header, &body, chunks);
        for (pos, mask) in flips {
            let at = pos % bytes.len();
            bytes[at] ^= mask;
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        check_framing_laws(&bytes);
        check_framing_laws(&noise);
    }

    /// A line of up to `MAX_LINE` bytes (terminator excluded) is
    /// accepted; one byte more is an `InvalidData` error, for the
    /// request line, a header line and a chunk-size line alike.
    #[test]
    fn max_line_is_exact(delta in -2i32..3, which in 0usize..3) {
        let len = (MAX_LINE as i32 + delta) as usize;
        let bytes = match which {
            0 => format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(len - 14)),
            1 => format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "v".repeat(len - 7)),
            // A chunk size with leading zeros, padded to `len`.
            _ => format!(
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{}1\r\nx\r\n0\r\n\r\n",
                "0".repeat(len - 1)
            ),
        };
        match frame(bytes.as_bytes()) {
            Ok(found) => prop_assert!(found.is_some() && delta <= 0, "{}-byte line accepted", len),
            Err(e) => {
                prop_assert!(delta > 0, "{}-byte line rejected: {}", len, e);
                prop_assert_eq!(e.kind(), ErrorKind::InvalidData);
            }
        }
    }

    /// Up to `MAX_HEADERS` headers are accepted; one more is an
    /// `InvalidData` error.
    #[test]
    fn max_headers_is_exact(delta in -2i32..3) {
        let count = (MAX_HEADERS as i32 + delta) as usize;
        let headers: String = (0..count).map(|k| format!("X-H{k}: {k}\r\n")).collect();
        match frame(format!("GET / HTTP/1.1\r\n{headers}\r\n").as_bytes()) {
            Ok(found) => {
                prop_assert!(delta <= 0, "{} headers accepted", count);
                prop_assert_eq!(found.map(|(req, _)| req.headers.len()), Some(count));
            }
            Err(e) => {
                prop_assert!(delta > 0, "{} headers rejected: {}", count, e);
                prop_assert_eq!(e.kind(), ErrorKind::InvalidData);
            }
        }
    }
}
