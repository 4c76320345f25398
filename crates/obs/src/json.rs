//! Minimal JSON support: string escaping for the emitters and a small
//! recursive-descent parser for the jq-free schema validator.
//!
//! The parser accepts standard JSON (RFC 8259) with one laxity: numbers
//! are parsed through `f64`. `\uXXXX` escapes decode fully, including
//! astral characters split across surrogate pairs; an *unpaired*
//! surrogate half decodes to U+FFFD rather than erroring (lenient, like
//! most production parsers). It exists so `scripts/verify.sh` can
//! validate trace/metric output with nothing but the workspace's own
//! code.

/// Escape a string for embedding inside a JSON string literal
/// (quotes, backslashes and control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, via `f64`.
    Num(f64),
    /// String (unescaped).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The `f64` if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value pairs if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Look up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so without a bound a hostile document of
/// nothing but `[` overflows the stack and aborts the process; the
/// trace, metrics and benchmark documents it reads nest a few levels.
const MAX_DEPTH: usize = 256;

/// Parse a complete JSON document; trailing whitespace is allowed,
/// trailing garbage is an error, and so is nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses one value; `depth` counts the arrays and objects it sits in.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{s}` at byte {start}"))
}

/// Reads the four hex digits of a `\uXXXX` escape with `*pos` on the
/// `u`; leaves `*pos` on the last digit.
fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
    let s = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    let code = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
    *pos += 4;
    Ok(code)
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let code = parse_hex4(b, pos)?;
                        let c = match code {
                            0xD800..=0xDBFF => {
                                // High surrogate: pair it with an
                                // immediately following `\uXXXX` low
                                // surrogate to form one astral scalar.
                                // (Decoding each half independently
                                // through `char::from_u32` mangled every
                                // valid pair into two U+FFFDs.)
                                let save = *pos;
                                if b.get(*pos + 1) == Some(&b'\\')
                                    && b.get(*pos + 2) == Some(&b'u')
                                {
                                    *pos += 2;
                                    let lo = parse_hex4(b, pos)?;
                                    if (0xDC00..=0xDFFF).contains(&lo) {
                                        let scalar = 0x10000
                                            + ((code - 0xD800) << 10)
                                            + (lo - 0xDC00);
                                        char::from_u32(scalar).unwrap_or('\u{fffd}')
                                    } else {
                                        // Not a low half: leave it for
                                        // the next loop iteration and
                                        // replace the lone high half.
                                        *pos = save;
                                        '\u{fffd}'
                                    }
                                } else {
                                    '\u{fffd}'
                                }
                            }
                            // Lone low surrogates land here and become
                            // U+FFFD via the `None` branch.
                            _ => char::from_u32(code).unwrap_or('\u{fffd}'),
                        };
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(items));
    }
    loop {
        skip_ws(b, pos);
        let k = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let v = parse_value(b, pos, depth)?;
        items.push((k, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(items));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("k").unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":[true,false]},"e":"x"}"#;
        let v = parse(doc).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[2].as_num().unwrap(), -300.0);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn surrogate_pair_decodes_to_astral_char() {
        let v = parse(r#""\uD83D\uDE00 and \uD83D\uDE80""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600} and \u{1f680}"));
        // BMP escapes are unaffected.
        assert_eq!(parse(r#""A\u00E9""#).unwrap().as_str(), Some("A\u{e9}"));
    }

    #[test]
    fn lone_high_surrogate_becomes_replacement_char() {
        assert_eq!(parse(r#""\uD83D""#).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(parse(r#""\uD83Dx""#).unwrap().as_str(), Some("\u{fffd}x"));
        // High surrogate followed by a non-surrogate escape: the escape
        // must survive on its own.
        assert_eq!(parse(r#""\uD800A""#).unwrap().as_str(), Some("\u{fffd}A"));
        assert_eq!(parse(r#""\uD800\n""#).unwrap().as_str(), Some("\u{fffd}\n"));
    }

    #[test]
    fn lone_low_surrogate_becomes_replacement_char() {
        assert_eq!(parse(r#""\uDE00""#).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(parse(r#""a\uDC00b""#).unwrap().as_str(), Some("a\u{fffd}b"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deep = open.repeat(100_000);
            let err = parse(&deep).unwrap_err();
            let at = MAX_DEPTH * open.len();
            assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
            // The bound itself still parses.
            let ok = format!("{}1{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(parse(&ok).is_ok(), "{MAX_DEPTH} levels of {open}");
            let over = format!(
                "{}1{}",
                open.repeat(MAX_DEPTH + 1),
                close.repeat(MAX_DEPTH + 1)
            );
            assert!(parse(&over).is_err(), "{} levels of {open}", MAX_DEPTH + 1);
        }
    }

    /// Byte flips, truncations and insertions of valid documents, from a
    /// fixed seed: `parse` returns `Ok` or `Err` on every one and never
    /// panics.
    #[test]
    fn mutated_documents_never_panic() {
        let docs = [
            r#"{"traceEvents":[{"name":"svi.step","ph":"X","ts":12.5,"dur":3,"pid":1,"tid":2,"args":{"step":7}}],"displayTimeUnit":"ms"}"#,
            r#"{"name":"core.bnn.svi_fwd_bwd_ms_p50","kind":"gauge","value":-1.25e-3,"tags":{"workload":"fig1_hmc"},"ok":true,"none":null}"#,
            r#"{"workloads":[{"name":"fig1_svi_lr","why":"a \"quoted\" \u00e9 \uD83D\uDE00 line\n"}],"bound":[0.25,0.1,[[],{}]]}"#,
        ];
        // splitmix64: the test's own seeded stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let specials = b"[]{}\":,\\u0e-+. \n";
        for case in 0..3000 {
            let mut bytes = docs[case % docs.len()].as_bytes().to_vec();
            for _ in 0..1 + next() % 4 {
                let at = (next() % (bytes.len() as u64 + 1)) as usize;
                let byte = if next() % 2 == 0 {
                    specials[(next() % specials.len() as u64) as usize]
                } else {
                    next() as u8
                };
                match next() % 3 {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.truncate(at),
                    _ => bytes.insert(at, byte),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let outcome = std::panic::catch_unwind(|| parse(&text));
            assert!(outcome.is_ok(), "case {case}: parse panicked on {text:?}");
        }
    }
}
