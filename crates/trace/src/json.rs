//! A small dependency-free JSON tree with one renderer, one parser and a
//! Chrome-trace validator.
//!
//! The workspace is hermetic (no serde). Every bench report is built as a
//! [`Json`] tree and rendered by its [`Display`](std::fmt::Display) impl,
//! and every CI gate reads the emitted files back with [`parse`]: a
//! recursive-descent parser for the full JSON grammar. The CI smoke gate
//! also proves the emitted `trace.json` parses and has events on every
//! component lane ([`validate_chrome_trace`]).

use std::fmt;

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. Non-finite values render as `null`.
    Num(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs (duplicate keys preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A number rounded to `decimals` places, exactly as
    /// `format!("{x:.decimals$}")` rounds it.
    pub fn rounded(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}").parse().unwrap_or(x))
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Whether this value renders without line breaks of its own: a
    /// scalar or an empty container.
    fn is_flat(&self) -> bool {
        match self {
            Json::Arr(v) => v.is_empty(),
            Json::Obj(v) => v.is_empty(),
            _ => true,
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(n) => return write_num(f, *n),
            Json::Str(s) => return write_str(f, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(pairs) => {
                ('{', '}', pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        // Empty containers are flat, so a broken container has members.
        let one_line = members.iter().all(|(_, v)| v.is_flat());
        write!(f, "{open}")?;
        for (i, (key, value)) in members.into_iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            if !one_line {
                write!(f, "\n{:w$}", "", w = indent + 2)?;
            } else if i > 0 {
                f.write_str(" ")?;
            }
            if let Some(key) = key {
                write_str(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, indent + 2)?;
        }
        if !one_line {
            write!(f, "\n{:indent$}", "")?;
        }
        write!(f, "{close}")
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Numbers convert through `f64`: integers above 2^53 lose precision.
macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_from_number!(f64, u64, u32, usize);

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Renders the tree as JSON. A container whose members are all scalars
/// (or empty containers) goes on one line; any other container puts each
/// member on its own line, indented two spaces per level, so a report
/// reads one row per line. Integral numbers print without a fraction,
/// other finite numbers in Rust's shortest round-trip form, and NaN or
/// infinities as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    // Integers up to 2^53 are exact in an f64 and print as integers.
    const EXACT: f64 = 9_007_199_254_740_992.0;
    if !n.is_finite() {
        f.write_str("null")
    } else if n.fract() == 0.0 && n.abs() <= EXACT {
        write!(f, "{}", n as i64)
    } else {
        write!(f, "{n:?}")
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Parse error with byte offset for debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (rejects trailing garbage).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { at: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
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

    fn literal(&mut self, lit: &str, val: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{}'", lit)))
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
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
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
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{0008}'),
                    Some(b'f') => s.push('\u{000C}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or_else(|| self.err("bad \\u escape"))?;
                            let v = (d as char)
                                .to_digit(16)
                                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
                            code = code * 16 + v;
                        }
                        // Surrogates are not emitted by this workspace;
                        // map unpaired ones to U+FFFD rather than erroring.
                        s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-by-byte.
                    if b < 0x80 {
                        s.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = if b >= 0xF0 {
                            4
                        } else if b >= 0xE0 {
                            3
                        } else {
                            2
                        };
                        let end = (start + len).min(self.bytes.len());
                        let chunk = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?;
                        s.push_str(chunk);
                        self.pos = end;
                    }
                }
            }
        }
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Summary of a validated Chrome trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceFileSummary {
    /// Non-metadata events on the router lane (pid 1).
    pub router_events: usize,
    /// Non-metadata events on the rcu lane (pid 2).
    pub rcu_events: usize,
    /// Non-metadata events on the cpm lane (pid 3).
    pub cpm_events: usize,
    /// Total non-metadata events.
    pub total_events: usize,
}

/// Parse `text` as Chrome trace-event JSON and require at least one real
/// (non-`"M"`, non-`dropped_events`) event on *every* component lane.
pub fn validate_chrome_trace(text: &str) -> Result<TraceFileSummary, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let events = doc.as_arr().ok_or("top level must be a JSON array")?;
    let mut summary = TraceFileSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let obj = match ev {
            Json::Obj(_) => ev,
            _ => return Err(format!("event {} is not an object", i)),
        };
        let ph = obj
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {} missing \"ph\"", i))?;
        let name = obj
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {} missing \"name\"", i))?;
        if ph == "M" || name == "dropped_events" {
            continue;
        }
        obj.get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {} missing numeric \"ts\"", i))?;
        let pid = obj
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {} missing numeric \"pid\"", i))?;
        summary.total_events += 1;
        match pid as u32 {
            1 => summary.router_events += 1,
            2 => summary.rcu_events += 1,
            3 => summary.cpm_events += 1,
            other => return Err(format!("event {} has unknown pid {}", i, other)),
        }
    }
    if summary.router_events == 0 {
        return Err("no router-lane events in trace".to_string());
    }
    if summary.rcu_events == 0 {
        return Err("no rcu-lane events in trace".to_string());
    }
    if summary.cpm_events == 0 {
        return Err("no cpm-lane events in trace".to_string());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -12.5e1 ").unwrap(), Json::Num(-125.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse("{\"a\":[1,{\"b\":false}],\"c\":\"x\"}").unwrap();
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1].get("b"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".to_string()));
    }

    #[test]
    fn renders_escapes_floats_and_layout() {
        let s = |v: &str| Json::Str(v.to_string()).to_string();
        assert_eq!(s("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(s("tab\t"), "\"tab\\u0009\"");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
        let row = Json::obj([("a", Json::Num(1.0)), ("v", Json::Arr(vec![]))]);
        assert_eq!(row.to_string(), "{\"a\": 1, \"v\": []}");
        let doc = Json::obj([("rows", vec![row.clone(), row].into()), ("ok", true.into())]);
        let lines = [
            "{",
            "  \"rows\": [",
            "    {\"a\": 1, \"v\": []},",
            "    {\"a\": 1, \"v\": []}",
            "  ],",
            "  \"ok\": true",
            "}",
        ];
        assert_eq!(doc.to_string(), lines.join("\n"));
    }

    /// `tree` with every non-finite number replaced by `null`, the one
    /// lossy corner of rendering.
    fn finite_only(tree: &Json) -> Json {
        match tree {
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(v) => Json::Arr(v.iter().map(finite_only).collect()),
            Json::Obj(v) => {
                Json::Obj(v.iter().map(|(k, v)| (k.clone(), finite_only(v))).collect())
            }
            other => other.clone(),
        }
    }

    fn random_string(rng: &mut snacknoc_prng::Rng) -> String {
        const CHARS: [char; 14] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '💡',
        ];
        (0..rng.range(0..8)).map(|_| CHARS[rng.range_usize(0..CHARS.len())]).collect()
    }

    fn random_tree(rng: &mut snacknoc_prng::Rng, depth: u32) -> Json {
        let leaf_only = depth == 0;
        match rng.range(0..if leaf_only { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.flip()),
            2 => Json::Str(random_string(rng)),
            3 => {
                let int = rng.range(0..1 << 53) as f64;
                Json::Num(if rng.flip() { -int } else { int })
            }
            4 => Json::Num(match rng.range(0..5) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => (rng.unit_f64() - 0.5) * 1e-9,
                _ => (rng.unit_f64() - 0.5) * 1e18,
            }),
            5 => Json::Arr((0..rng.range(0..4)).map(|_| random_tree(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.range(0..4))
                    .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn rendered_trees_parse_back_to_themselves() {
        snacknoc_prng::prop_check!(cases = 256, seed = 0x150A_0001, |rng| {
            let tree = random_tree(rng, 4);
            let text = tree.to_string();
            assert_eq!(parse(&text), Ok(finite_only(&tree)), "{text}");
        });
    }

    #[test]
    fn validator_requires_all_three_lanes() {
        let two_lanes = "[\
            {\"name\":\"x\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{}},\
            {\"name\":\"y\",\"ph\":\"i\",\"ts\":2,\"pid\":2,\"tid\":0,\"s\":\"t\",\"args\":{}}]";
        assert!(validate_chrome_trace(two_lanes).is_err());
        let three = "[\
            {\"name\":\"x\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":0,\"args\":{}},\
            {\"name\":\"y\",\"ph\":\"i\",\"ts\":2,\"pid\":2,\"tid\":0,\"args\":{}},\
            {\"name\":\"z\",\"ph\":\"X\",\"ts\":3,\"dur\":2,\"pid\":3,\"tid\":0,\"args\":{}}]";
        let summary = validate_chrome_trace(three).unwrap();
        assert_eq!(summary.total_events, 3);
        assert_eq!(summary.cpm_events, 1);
    }
}
