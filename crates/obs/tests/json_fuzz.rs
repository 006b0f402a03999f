//! One parser, one corpus: arbitrary bytes and structured mutations of
//! valid documents go through `JsonValue::parse` and the JSONL
//! `parse_line` built on it. Neither may panic on any input, and
//! whatever parses must re-render to a document that parses back to
//! an equal value.

use proptest::collection::vec;
use proptest::prelude::*;

use aalign_obs::{parse_line, JsonValue};

/// Valid documents to mutate: trace lines and nested wire objects,
/// heavy on strings, multibyte characters and `\u` escapes — the
/// window where a byte-indexed parser slices off a char boundary.
const SEEDS: [&str; 6] = [
    r#"{"ev":"query_begin","query":"Q\"1\"\né","subjects":3}"#,
    r#"{"ev":"col","column":6,"strategy":"iterate","sweeps":4,"switched":true,"probe":"none"}"#,
    r#"{"ev":"align_end","subject":0,"score":-3,"iterate_columns":30,"scan_columns":10,"inter_columns":0,"dur_us":88}"#,
    r#"{"schema_version":1,"id":"a😀zé","hits":[{"db_index":7,"score":-12}],"gcups":3.5e-1}"#,
    r#"{"error":{"code":"bad_request","message":"tab\there \\ 😀"},"buckets":[[1,2],[18446744073709551615,1]]}"#,
    r#"[null,true,false,0,-0,1.0,"",{},[]]"#,
];

/// Spliced into the seeds at a random byte offset.
const FRAGMENTS: [&str; 10] = [
    "\\u", "\\u00", "\\ud83d", "\\ude00", "é", "😀", "\"", "\\", "[", "1e999",
];

fn cases() -> ProptestConfig {
    // Miri interprets; a handful of cases still walks every branch.
    ProptestConfig::with_cases(if cfg!(miri) { 16 } else { 2048 })
}

fn check(text: &str) -> Result<(), TestCaseError> {
    let _ = parse_line(text);
    if let Ok(value) = JsonValue::parse(text) {
        let rendered = value.render();
        prop_assert_eq!(
            JsonValue::parse(&rendered),
            Ok(value),
            "{text:?} rendered as {rendered:?}"
        );
    }
    Ok(())
}

#[test]
fn seeds_parse_unmutated() {
    for seed in SEEDS {
        JsonValue::parse(seed).unwrap_or_else(|e| panic!("{seed}: {e}"));
    }
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..96)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_documents_never_panic(
        seed in 0..SEEDS.len(),
        op in 0..3u8,
        at in any::<usize>(),
        flip in 1..=255u8,
        fragment in 0..FRAGMENTS.len(),
    ) {
        let mut doc = SEEDS[seed].as_bytes().to_vec();
        let at = at % doc.len();
        match op {
            0 => doc[at] ^= flip,
            1 => doc.truncate(at),
            _ => drop(doc.splice(at..at, FRAGMENTS[fragment].bytes())),
        }
        check(&String::from_utf8_lossy(&doc))?;
    }
}
