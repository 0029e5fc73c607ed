//! Property tests of the lexer's two guarantees: lexing arbitrary input never panics, and
//! token spans round-trip — strictly increasing, non-overlapping, on `char` boundaries, with
//! nothing but whitespace between consecutive tokens (so re-slicing the source at the spans
//! reconstructs every non-whitespace byte of the input).

use p2plab_lint::lexer::{lex, Token};
use proptest::prelude::*;

/// Fragments chosen to collide in nasty ways when concatenated: quote openers, hash fences,
/// comment openers/closers, escapes, prefix letters.
const SOUP: &[&str] = &[
    "r#\"",
    "\"#",
    "r\"",
    "br#\"",
    "b\"",
    "b'",
    "'",
    "\"",
    "\\",
    "\\\"",
    "\\'",
    "//",
    "/*",
    "*/",
    "/**",
    "//!",
    "///",
    "'a",
    "'a'",
    "'static",
    "r#match",
    "#",
    "#[",
    "#![",
    "[",
    "]",
    "{",
    "}",
    "(",
    ")",
    "::",
    ":",
    ";",
    ",",
    "!",
    "ident",
    "std",
    "collections",
    "HashMap",
    "dbg",
    "todo",
    "Instant",
    "now",
    "TransportEvent",
    "lint:allow(nondet-hash)",
    "—",
    "0xff",
    "1.5e-3",
    "34_059_056",
    "1..10",
    "\n",
    " ",
    "\t",
    "é",
    "🦀",
    "日本語",
];

/// Checks the span round-trip invariant for `src`.
fn assert_spans_tile(src: &str, tokens: &[Token]) {
    let mut prev_end = 0usize;
    for t in tokens {
        assert!(t.start < t.end, "empty span {t:?} in {src:?}");
        assert!(t.end <= src.len(), "span past end {t:?} in {src:?}");
        assert!(t.start >= prev_end, "overlap at {t:?} in {src:?}");
        assert!(
            src.is_char_boundary(t.start) && src.is_char_boundary(t.end),
            "{t:?}"
        );
        assert!(
            src[prev_end..t.start].chars().all(char::is_whitespace),
            "non-whitespace gap {:?} before {t:?} in {src:?}",
            &src[prev_end..t.start]
        );
        prev_end = t.end;
    }
    assert!(
        src[prev_end..].chars().all(char::is_whitespace),
        "unlexed tail {:?} in {src:?}",
        &src[prev_end..]
    );
}

proptest! {
    /// Arbitrary token-soup concatenations: never panic, spans tile the input.
    #[test]
    fn token_soup_lexes_and_round_trips(
        picks in prop::collection::vec(prop::sample::select((0..SOUP.len()).collect()), 0..40),
    ) {
        let src: String = picks.iter().map(|&i| SOUP[i]).collect();
        let tokens = lex(&src);
        assert_spans_tile(&src, &tokens);
    }

    /// Arbitrary bytes (lossily decoded): never panic, spans tile the input.
    #[test]
    fn arbitrary_bytes_lex_and_round_trip(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let tokens = lex(&src);
        assert_spans_tile(&src, &tokens);
    }

    /// Lexing is deterministic (same input, same stream) and line numbers never decrease.
    #[test]
    fn lexing_is_deterministic_and_lines_monotonic(
        picks in prop::collection::vec(prop::sample::select((0..SOUP.len()).collect()), 0..40),
    ) {
        let src: String = picks.iter().map(|&i| SOUP[i]).collect();
        let a = lex(&src);
        let b = lex(&src);
        assert_eq!(a, b);
        for pair in a.windows(2) {
            assert!(pair[0].line <= pair[1].line, "lines regressed in {src:?}");
        }
    }
}
