//! Hand-written JSON output (the workspace's `serde_json` is an offline
//! stub that always errors), plus a small parser the self-tests use to
//! check that what is written parses.

/// A JSON string literal, quoted and escaped.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives. JSON has no NaN or infinity; the benchmark never produces one on
/// purpose, so one showing up is reported as a bug.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

#[cfg(test)]
pub use parser::{parse, Json};

#[cfg(test)]
mod parser {
    /// A parsed JSON value (objects keep their key order).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(u8::is_ascii_whitespace)
            {
                self.pos += 1;
            }
        }

        fn expect(&mut self, byte: u8) -> Result<(), String> {
            if self.bytes.get(self.pos) == Some(&byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", byte as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(Json::Str),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(_) => self.number(),
                None => Err("unexpected end of input".into()),
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                fields.push((key, self.value()?));
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = Vec::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return String::from_utf8(out).map_err(|e| e.to_string());
                    }
                    Some(b'\\') => {
                        let escaped = *self.bytes.get(self.pos + 1).ok_or("dangling escape")?;
                        self.pos += 2;
                        match escaped {
                            b'n' => out.push(b'\n'),
                            b'r' => out.push(b'\r'),
                            b't' => out.push(b'\t'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or("short \\u escape")?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                let c = char::from_u32(code).ok_or("bad \\u escape")?;
                                out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                                self.pos += 4;
                            }
                            other => out.push(other),
                        }
                    }
                    Some(&b) => {
                        out.push(b);
                        self.pos += 1;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
            {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_round_trip_through_escaping() {
        let raw = "a \"quoted\" \\ path\n\ttab \u{1} é";
        assert_eq!(parse(&string(raw)).unwrap(), Json::Str(raw.into()));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(86012.0), "86012");
        assert_eq!(
            parse(&number(0.000123456789)).unwrap().as_f64(),
            Some(0.000123456789)
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(parse(bad).is_err(), "{bad} must not parse");
        }
        let doc = parse(" {\"a\": [1, 2.5, {\"b\": null}], \"c\": true} ").unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
    }
}
