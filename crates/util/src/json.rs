//! Minimal hand-rolled JSON: a value tree, an emitter and a
//! recursive-descent parser.
//!
//! Replaces the external `serde`/`serde_json` dependency for the two
//! places the workspace actually needs JSON — catalogue product records
//! and harness benchmark output — so the tier-1 build works with zero
//! network access. Deliberately small:
//!
//! * objects preserve insertion order (deterministic emission);
//! * numbers are `f64` (integers round-trip exactly up to 2^53, which
//!   covers every counter in this repository);
//! * strings escape `"` `\\` and control characters on output and accept
//!   all standard escapes (including `\uXXXX` surrogate pairs) on input.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and emitted as-is.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9.007_199_254_740_992e15 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Emit compact JSON (no whitespace).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    /// Emit human-readable JSON with two-space indentation.
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.emit_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Append compact JSON to `out` (what [`Json::emit`] returns).
    pub fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&fmt_number(*v)),
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    fn emit_pretty_into(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| {
            for _ in 0..n {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.emit_pretty_into(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    emit_string(k, out);
                    out.push_str(": ");
                    v.emit_pretty_into(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
            other => other.emit_into(out),
        }
    }
}

/// Format a JSON number: shortest round-trip representation, with
/// non-finite values (which JSON cannot express) mapped to `null`.
pub fn fmt_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        // Integral values without a fractional part or exponent.
        format!("{}", v as i64)
    } else {
        // Rust's float Display is the shortest string that round-trips.
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string — what
/// [`Json::Str`] emits, without building the value.
pub fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    // Bytes that need no escape are copied a run at a time. Every byte
    // that does is ASCII, so run boundaries are char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting depth accepted by [`parse`]. The parser is
/// recursive-descent, so without a bound a hostile wire payload of
/// `[[[[…` could exhaust the thread stack; 128 levels is far beyond any
/// document this workspace produces.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Trailing whitespace is allowed; trailing
/// content is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Bulk-copy the whole run of unescaped bytes up to
                    // the next quote or escape, validated as UTF-8 once.
                    // (Validating from `pos` to end-of-input per character
                    // turns parsing quadratic — megabyte documents took
                    // tens of seconds.)
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("bad utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            // Rust parses "1e999" to +inf rather than failing; JSON has no
            // non-finite numbers, so an overflowing literal from the wire
            // is a malformed document, not infinity.
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(self.err("number out of f64 range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_string_matches_the_char_by_char_escaper_byte_for_byte() {
        // The escaper `emit_string` replaced: one char at a time.
        fn reference(s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{0008}' => out.push_str("\\b"),
                    '\u{000C}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let controls: String = (0u8..0x20).map(char::from).collect();
        let mut cases = vec![
            String::new(),
            "plain ascii".to_string(),
            "\"".to_string(),
            "\\".to_string(),
            "\u{7f}".to_string(),
            "é中🚀".to_string(),
            "a\"b\\c\u{7f}d\u{1}é\n中\t🚀\u{1f}".to_string(),
            controls.clone(),
        ];
        cases.extend(controls.chars().map(|c| format!("x{c}é{c}")));
        for case in &cases {
            let mut got = String::from("prefix:");
            emit_string(case, &mut got);
            assert_eq!(got, format!("prefix:{}", reference(case)), "{case:?}");
        }
    }

    #[test]
    fn emits_escapes() {
        let v = Json::Str("a\"b\\c\nd\te\u{0001}".to_string());
        assert_eq!(v.emit(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_number(0.0), "0");
        assert_eq!(fmt_number(-3.0), "-3");
        assert_eq!(fmt_number(42.5), "42.5");
        // Rust's float Display is positional, never exponent notation.
        assert_eq!(fmt_number(1.0e-7), "0.0000001");
        assert_eq!(fmt_number(f64::NAN), "null");
        assert_eq!(fmt_number(f64::INFINITY), "null");
        // Integral counters up to 2^53 stay exact.
        assert_eq!(fmt_number(4_200_000_000_000.0), "4200000000000");
    }

    #[test]
    fn emit_parse_roundtrip() {
        let v = Json::obj(vec![
            ("id", Json::Str("S2A_MSIL1C_2017".into())),
            ("size", Json::Num(123456789.0)),
            ("cloud", Json::Num(0.125)),
            ("tags", Json::Arr(vec![Json::Str("π ≈ 3".into()), Json::Null])),
            ("ok", Json::Bool(true)),
            (
                "footprint",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Num(-4.5), Json::Num(39.25)]),
                    Json::Arr(vec![Json::Num(12.0), Json::Num(-1.75)]),
                ]),
            ),
        ]);
        let text = v.emit();
        assert_eq!(parse(&text).unwrap(), v);
        let pretty = v.emit_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parses_standard_escapes_and_surrogates() {
        let v = parse(r#""é\n🌍""#).unwrap();
        assert_eq!(v, Json::Str("é\n🌍".to_string()));
    }

    #[test]
    fn object_order_preserved() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(v.emit(), r#"{"z":1,"a":2,"m":3}"#);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":1,}"#).is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        let e = parse(r#"{"a" 1}"#).unwrap_err();
        assert!(e.to_string().contains("byte"));
    }

    #[test]
    fn control_chars_roundtrip() {
        // Every C0 control character survives emit → parse, as does DEL
        // (which JSON passes through raw).
        let s: String = (0u32..0x20).chain([0x7f]).map(|c| char::from_u32(c).unwrap()).collect();
        let v = Json::Str(s.clone());
        let emitted = v.emit();
        assert!(
            emitted.bytes().all(|b| b == 0x7f || b >= 0x20),
            "no raw C0 control bytes on the wire: {emitted:?}"
        );
        assert_eq!(parse(&emitted).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_roundtrip() {
        // \u escapes (BMP and surrogate pairs) parse to the same string
        // the raw-UTF-8 emission re-parses to.
        let parsed = parse(r#""éA🌍€""#).unwrap();
        assert_eq!(parsed, Json::Str("éA🌍€".to_string()));
        assert_eq!(parse(&parsed.emit()).unwrap(), parsed);
        // Lone or malformed surrogates are rejected, not mangled.
        assert!(parse(r#""\ud83c""#).is_err());
        assert!(parse(r#""\ud83cx""#).is_err());
        assert!(parse(r#""\ud83cA""#).is_err());
        assert!(parse(r#""\udf0d""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn nonfinite_floats_emit_null_and_never_parse() {
        // Emission maps non-finite to null (valid JSON, documented loss);
        // parsing never manufactures a non-finite value, even from
        // overflowing literals.
        assert_eq!(Json::Num(f64::NAN).emit(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).emit(), "null");
        assert!(parse("1e999").is_err(), "overflow must not parse to inf");
        assert!(parse("-1e999").is_err());
        assert!(parse("1e308").is_ok(), "in-range exponents still parse");
        for (k, v) in [("a", f64::INFINITY), ("b", f64::NAN)] {
            let doc = Json::obj(vec![(k, Json::Num(v))]).emit();
            let back = parse(&doc).unwrap();
            assert_eq!(back.get(k), Some(&Json::Null));
        }
    }

    #[test]
    fn integers_roundtrip_to_the_53_bit_limit() {
        // Counters cross the wire as JSON numbers; every integer with an
        // exact f64 representation must round-trip bit-for-bit.
        for v in [
            0i64,
            1,
            -1,
            i64::from(i32::MAX),
            i64::from(i32::MIN),
            (1i64 << 53) - 1,
            1i64 << 53,
            -(1i64 << 53),
        ] {
            let emitted = Json::Num(v as f64).emit();
            let back = parse(&emitted).unwrap();
            assert_eq!(back.as_f64(), Some(v as f64), "via {emitted}");
        }
        assert_eq!(
            parse(&Json::Num(((1u64 << 53) - 1) as f64).emit()).unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        // Beyond 2^53 the accessors refuse rather than silently round.
        assert_eq!(Json::Num(1.8e19).as_u64(), None);
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok(), "exactly MAX_DEPTH levels parse");
        let too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&too_deep).is_err());
        let hostile = "[".repeat(200_000);
        assert!(parse(&hostile).is_err(), "hostile wire input errors cleanly");
        // Depth is container nesting, not document length: a long flat
        // array is fine.
        let flat = format!("[{}]", vec!["0"; 10_000].join(","));
        assert!(parse(&flat).is_ok());
    }

    #[test]
    fn integer_accessors_guard_range_and_fraction() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn megabyte_string_documents_parse_in_linear_time() {
        // Regression: the string scanner used to UTF-8-validate from the
        // cursor to end-of-input for every character, making large
        // documents quadratic (a 1.3 MB query result took ~27 s). The
        // bulk-run path must keep escapes and multibyte runs intact.
        let row = "[\"http://e/f17\",\"POINT (12.5 ± ε 83.7)\",\"a\\\"b\\nc\"]";
        let doc = format!("[{}]", vec![row; 20_000].join(","));
        assert!(doc.len() > 1_000_000);
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "megabyte parse must be far from quadratic: {:?}",
            t0.elapsed()
        );
        let rows = v.as_arr().unwrap();
        assert_eq!(rows.len(), 20_000);
        let first = rows[0].as_arr().unwrap();
        assert_eq!(first[0].as_str(), Some("http://e/f17"));
        assert_eq!(first[1].as_str(), Some("POINT (12.5 ± ε 83.7)"));
        assert_eq!(first[2].as_str(), Some("a\"b\nc"));
    }
}
