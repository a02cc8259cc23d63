//! Properties of the sans-IO [`RequestParser`]: any valid request byte
//! stream, split at arbitrary boundaries, parses to the same `Request` as
//! one parse over the whole buffer; and every torn/truncated prefix is
//! classified `NeedMore`, never a panic, never a mangled partial parse.

use proptest::prelude::*;
use saphyra_service::http::{ParseStatus, Request, RequestParser};

/// Picks characters of `alphabet` by generated index (the vendored
/// proptest has no `sample::select`).
fn chars_of(alphabet: &'static str, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..alphabet.len(), len).prop_map(move |idx| {
        idx.into_iter()
            .map(|i| alphabet.as_bytes()[i] as char)
            .collect()
    })
}

/// Strategy: a syntactically valid request plus its serialized bytes.
/// Covers `\r\n` and bare-`\n` line endings, absent/empty/non-empty
/// bodies, unknown headers, and binary body bytes.
fn arb_request() -> impl Strategy<Value = Vec<u8>> {
    let method = (0usize..4).prop_map(|i| ["GET", "POST", "put", "DELETE"][i]);
    let path_tail = chars_of("abcXYZ09._-/", 0..12);
    // Header names stick to letters a-h plus '-': no way to spell
    // "content-length", so generated headers can never collide with the
    // framing header added below.
    let headers = proptest::collection::vec(
        (chars_of("abcdefgh-", 1..8), chars_of(" abc123=;,", 0..10)),
        0..4,
    );
    let body = proptest::collection::vec(0u8..=255u8, 0..200);
    (method, path_tail, headers, body, any::<bool>()).prop_map(
        |(method, path_tail, headers, body, crlf)| {
            let eol = if crlf { "\r\n" } else { "\n" };
            let path = format!("/{path_tail}");
            let mut out = format!("{method} {path} HTTP/1.1{eol}");
            for (name, value) in headers {
                out.push_str(&format!("{name}: {value}{eol}"));
            }
            if !body.is_empty() {
                out.push_str(&format!("Content-Length: {}{eol}", body.len()));
            }
            out.push_str(eol);
            let mut bytes = out.into_bytes();
            bytes.extend_from_slice(&body);
            bytes
        },
    )
}

/// One parse over the whole of `bytes`, which must hold a complete request.
fn parse_whole(bytes: &[u8]) -> Request {
    match RequestParser::new()
        .parse(bytes)
        .expect("valid request errored")
    {
        ParseStatus::Complete { request, .. } => request,
        ParseStatus::NeedMore => panic!("whole request classified NeedMore"),
    }
}

/// Drives a parser over `bytes` cut at the given split points, asserting
/// `NeedMore` before completion. Returns the parsed request and how many
/// bytes it consumed.
fn parse_split(bytes: &[u8], splits: &[usize]) -> (Request, usize) {
    let mut parser = RequestParser::new();
    let mut cuts: Vec<usize> = splits.iter().map(|&s| s % (bytes.len() + 1)).collect();
    cuts.push(bytes.len());
    cuts.sort_unstable();
    let mut fed = 0usize;
    for cut in cuts {
        if cut < fed {
            continue;
        }
        fed = cut;
        match parser.parse(&bytes[..fed]).expect("valid request errored") {
            ParseStatus::Complete { request, consumed } => return (request, consumed),
            ParseStatus::NeedMore => {
                assert!(
                    fed < bytes.len(),
                    "full request classified NeedMore: {:?}",
                    String::from_utf8_lossy(bytes)
                );
            }
        }
    }
    unreachable!("parser never completed on the full buffer");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn split_boundaries_do_not_change_the_parse(
        bytes in arb_request(),
        splits in proptest::collection::vec(0usize..10_000, 0..8),
    ) {
        let reference = parse_whole(&bytes);

        let (incremental, consumed) = parse_split(&bytes, &splits);
        prop_assert_eq!(consumed, bytes.len(), "consumed != request length");
        prop_assert_eq!(&incremental.method, &reference.method);
        prop_assert_eq!(&incremental.path, &reference.path);
        prop_assert_eq!(&incremental.headers, &reference.headers);
        prop_assert_eq!(&incremental.body, &reference.body);
    }

    #[test]
    fn truncated_prefixes_classify_consistently_and_never_panic(
        bytes in arb_request(),
        cut in 0usize..10_000,
        splits in proptest::collection::vec(0usize..10_000, 0..4),
    ) {
        // A strict prefix of a valid request is always NeedMore, fed
        // whole or in arbitrary pieces.
        let cut = cut % bytes.len().max(1);
        let prefix = &bytes[..cut];

        let mut parser = RequestParser::new();
        prop_assert!(
            matches!(parser.parse(prefix).expect("prefix errored"), ParseStatus::NeedMore),
            "torn prefix of {} bytes did not classify NeedMore", cut
        );
        // Feeding the same prefix piecewise agrees.
        let mut piecewise = RequestParser::new();
        let mut cuts: Vec<usize> = splits.iter().map(|&s| s % (cut + 1)).collect();
        cuts.push(cut);
        cuts.sort_unstable();
        for c in cuts {
            prop_assert!(matches!(
                piecewise.parse(&prefix[..c]).expect("prefix errored"),
                ParseStatus::NeedMore
            ));
        }
    }

    #[test]
    fn pipelined_streams_parse_back_to_back(
        reqs in proptest::collection::vec(arb_request(), 1..5),
        splits in proptest::collection::vec(0usize..10_000, 0..6),
    ) {
        // Concatenate several requests; the parser must carve them back
        // out at exactly the right boundaries whatever the feed pattern.
        let stream: Vec<u8> = reqs.iter().flatten().copied().collect();
        let mut cuts: Vec<usize> = splits.iter().map(|&s| s % (stream.len() + 1)).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();

        let mut parser = RequestParser::new();
        let mut start = 0usize; // offset of the current request
        let mut parsed = Vec::new();
        for cut in cuts {
            if cut < start {
                continue;
            }
            // Keep consuming completions inside this feed window —
            // exactly what the reactor's parse loop does.
            while let ParseStatus::Complete { request, consumed } =
                parser.parse(&stream[start..cut]).expect("stream errored")
            {
                start += consumed;
                parsed.push(request);
            }
        }
        prop_assert_eq!(parsed.len(), reqs.len(), "request count diverged");
        prop_assert_eq!(start, stream.len(), "trailing bytes left unconsumed");
        for (got, raw) in parsed.iter().zip(&reqs) {
            let want = parse_whole(raw);
            prop_assert_eq!(&got.method, &want.method);
            prop_assert_eq!(&got.path, &want.path);
            prop_assert_eq!(&got.body, &want.body);
        }
    }
}
