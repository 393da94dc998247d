//! Property tests for the request reader, the first code every byte
//! from the network reaches: arbitrary input and requests cut at every
//! offset never panic, each read ends in a `Request` or a typed
//! `ReadError`, and no read takes more than `MAX_HEAD_BYTES + max_body`
//! bytes off the stream, however the peer splits or pads its bytes.

use std::io::BufReader;

use proptest::prelude::*;
use tevot_serve::http::{read_request, ReadError, Request, MAX_HEAD_BYTES};

/// Reads one request off `data` through a buffer of `chunk` bytes (a
/// socket's partial reads) and checks the invariants every read must
/// keep, whatever its outcome.
fn read_checked(
    data: &[u8],
    chunk: usize,
    max_body: usize,
) -> Result<Result<Request, ReadError>, TestCaseError> {
    let mut rest = data;
    let mut reader = BufReader::with_capacity(chunk, &mut rest);
    let result = read_request(&mut reader, max_body);
    let unread = reader.buffer().len();
    let consumed = data.len() - rest.len() - unread;
    prop_assert!(consumed <= MAX_HEAD_BYTES + max_body, "consumed {consumed} of {max_body}");
    if let Ok(request) = &result {
        prop_assert!(request.body.len() <= max_body);
        let declared = request.header("content-length").map(|v| v.parse::<usize>());
        prop_assert_eq!(declared.unwrap_or(Ok(0)).ok(), Some(request.body.len()));
    }
    Ok(result)
}

/// Bytes that make up HTTP/1.1 request heads.
const SYNTAX: &[u8] = b"GET POST /predict HTTP/1.1\r\n\r\nHost: x\r\nContent-Length: 0123456789:";

/// Short strings over `alphabet`.
fn token(alphabet: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0..alphabet.len(), len)
        .prop_map(move |picks| picks.into_iter().map(|i| alphabet[i] as char).collect())
}

/// `(method, path, headers, body)` of a parsed request.
type Parts = (String, String, Vec<(String, String)>, Vec<u8>);

/// A well-formed request on the wire (body ≤ 64 bytes, declared by
/// `Content-Length`), with the parts it must parse to.
fn valid_request() -> impl Strategy<Value = (Vec<u8>, Parts)> {
    let name = token(b"abcdefghijklmnopqrstuvwxyzABCXYZ0123456789-", 1..10);
    let value = token(b"abcXYZ0189-_/.,;=!~*() \t", 0..16);
    (
        prop_oneof![Just("GET"), Just("POST")],
        token(b"abcz09-._~", 0..12),
        prop::collection::vec((name, value), 0..6),
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(method, path, mut headers, body)| {
            headers.push(("Content-Length".into(), body.len().to_string()));
            let mut wire = format!("{method} /{path} HTTP/1.1\r\n");
            for (name, value) in &mut headers {
                wire.push_str(&format!("{name}: {value}\r\n"));
                *name = name.to_ascii_lowercase();
                *value = value.trim().to_string();
            }
            let mut wire = format!("{wire}\r\n").into_bytes();
            wire.extend_from_slice(&body);
            (wire, (method.to_string(), format!("/{path}"), headers, body))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (biased towards HTTP syntax so they reach the
    /// header and body paths), split into arbitrary read sizes, end in a
    /// request or a typed error — never a panic, never an overread.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(
            prop_oneof![(0..SYNTAX.len()).prop_map(|i| SYNTAX[i]), any::<u8>()],
            0..512,
        ),
        chunk in 1usize..64,
        max_body in 0usize..64,
    ) {
        let _ = read_checked(&bytes, chunk, max_body)?;
    }

    /// A valid request parses back exactly; every proper prefix of it is
    /// `Eof` (empty), or an error, or — when the cut drops only the final
    /// line break of a bodiless request — the same request.
    #[test]
    fn valid_requests_cut_at_every_offset(
        (wire, expected) in valid_request(),
        chunk in 1usize..32,
    ) {
        for cut in 0..=wire.len() {
            match read_checked(&wire[..cut], chunk, 64)? {
                Ok(r) => {
                    prop_assert!(cut == wire.len() || expected.3.is_empty(), "cut {} parsed", cut);
                    prop_assert_eq!(&(r.method, r.path, r.headers, r.body), &expected);
                }
                Err(ReadError::Eof) => prop_assert_eq!(cut, 0),
                Err(e) => prop_assert!(cut < wire.len(), "full request failed: {}", e),
            }
        }
    }

    /// Heads padded past `MAX_HEAD_BYTES` and bodies declared past
    /// `max_body` are refused with their typed errors, having consumed
    /// no more than the caps.
    #[test]
    fn oversized_heads_and_bodies_stop_at_the_caps(
        pads in prop::collection::vec(0usize..6_000, 0..8),
        declared in 0usize..256,
        max_body in 0usize..128,
        chunk in prop_oneof![1usize..16, 1usize..9_000],
    ) {
        let mut wire = String::from("POST /predict HTTP/1.1\r\n");
        for (i, &pad) in pads.iter().enumerate() {
            wire.push_str(&format!("X-Pad-{i}: {}\r\n", "p".repeat(pad)));
        }
        wire.push_str(&format!("Content-Length: {declared}\r\n\r\n"));
        let head_len = wire.len();
        let mut wire = wire.into_bytes();
        wire.resize(head_len + declared, b'b');
        // The head cap is checked first, the body cap once the head is in.
        let expected = if head_len > MAX_HEAD_BYTES {
            Err(format!("head {MAX_HEAD_BYTES}"))
        } else if declared > max_body {
            Err(format!("body {declared}"))
        } else {
            Ok(declared)
        };
        let outcome = match read_checked(&wire, chunk, max_body)? {
            Ok(request) => Ok(request.body.len()),
            Err(ReadError::HeadTooLarge(cap)) => Err(format!("head {cap}")),
            Err(ReadError::BodyTooLarge(n)) => Err(format!("body {n}")),
            Err(e) => Err(e.to_string()),
        };
        prop_assert_eq!(outcome, expected);
    }
}
