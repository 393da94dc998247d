//! Property tests for the JSON parser every request body and report
//! goes through: arbitrary input never panics, rendered values parse
//! back exactly, and nesting past `MAX_DEPTH` is refused with an error
//! instead of overflowing the stack.

use proptest::prelude::*;
use tevot_obs::json::{parse, Json, MAX_DEPTH};

/// Bytes that make up JSON syntax.
const SYNTAX: &[u8] = b"{}[]\":,\\/ubfnrt0123456789aeE.+- \nnulltruefalse";

/// Strings over every Unicode plane, ASCII and control characters
/// weighted up.
fn text() -> impl Strategy<Value = String> {
    let scalar = prop_oneof![0u32..0x80, 0u32..0x20, 0u32..0x11_0000]
        .prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'));
    prop::collection::vec(scalar, 0..12).prop_map(|chars| chars.into_iter().collect())
}

/// `Json` values nested at most `depth` arrays/objects deep, with finite
/// numbers (JSON cannot spell NaN or infinity).
struct JsonTree(u32);

impl Strategy for JsonTree {
    type Value = Json;

    fn sample(&self, rng: &mut TestRng) -> Json {
        let number = prop_oneof![
            any::<i64>().prop_map(|n| n as f64),
            any::<f64>().prop_filter("finite", |x| x.is_finite()),
        ];
        match (0..if self.0 == 0 { 4 } else { 6 }).sample(rng) {
            0 => Json::Null,
            1 => Json::Bool(any::<bool>().sample(rng)),
            2 => Json::Num(number.sample(rng)),
            3 => Json::Str(text().sample(rng)),
            4 => Json::Arr(prop::collection::vec(JsonTree(self.0 - 1), 0..4usize).sample(rng)),
            _ => Json::Obj(
                prop::collection::vec((text(), JsonTree(self.0 - 1)), 0..4usize).sample(rng),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any bytes, read as lossy UTF-8 and biased towards JSON syntax so
    /// they reach strings, escapes, numbers and nesting, parse to `Ok`
    /// or `Err` without panicking; whatever parses renders to text that
    /// parses again.
    #[test]
    fn arbitrary_input_never_panics(
        bytes in prop::collection::vec(
            prop_oneof![
                (0..SYNTAX.len()).prop_map(|i| SYNTAX[i]),
                any::<u8>(),
            ],
            0..96,
        ),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(value) = parse(&text) {
            prop_assert!(parse(&value.to_string()).is_ok(), "re-render of {:?} failed", text);
        }
    }

    /// Render → parse is the identity on every value of depth ≤ 8
    /// (object member order included).
    #[test]
    fn render_then_parse_round_trips(value in JsonTree(8)) {
        let rendered = value.to_string();
        prop_assert_eq!(parse(&rendered).ok(), Some(value), "{}", rendered);
    }

    /// Nesting past `MAX_DEPTH` (any mix of arrays and objects, closed
    /// or not) is an `Err`; up to it, a closed document is `Ok`.
    #[test]
    fn nesting_beyond_max_depth_is_an_error(
        openers in prop_oneof![
            prop::collection::vec(any::<bool>(), 1..=MAX_DEPTH),
            prop::collection::vec(any::<bool>(), MAX_DEPTH + 1..MAX_DEPTH * 64),
        ],
        closed: bool,
    ) {
        let mut text: String =
            openers.iter().map(|&array| if array { "[" } else { "{\"k\":" }).collect();
        text.push('0');
        if closed {
            text.extend(openers.iter().rev().map(|&array| if array { ']' } else { '}' }));
        }
        match parse(&text) {
            Err(e) => prop_assert!(openers.len() > MAX_DEPTH || !closed, "{}", e),
            Ok(_) => prop_assert!(openers.len() <= MAX_DEPTH && closed),
        }
    }
}
