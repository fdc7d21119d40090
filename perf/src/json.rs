//! A JSON reader just big enough for `perf compare` to read back the
//! documents `--json` writes (the workspace vendors no serde).

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    /// Members in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.space();
        match p.at == p.bytes.len() {
            true => Ok(value),
            false => Err(p.error("trailing characters")),
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        self.object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    pub fn array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.at)
    }

    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(token.as_bytes());
        if hit {
            self.at += token.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => self
                .members(b'}', |p| {
                    let key = p.string()?;
                    p.space();
                    if !p.eat(":") {
                        return Err(p.error("expected ':'"));
                    }
                    Ok((key, p.value()?))
                })
                .map(Json::Object),
            Some(b'[') => self.members(b']', Parser::value).map(Json::Array),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end")),
        }
    }

    /// A bracketed, comma-separated list; `self.at` is on the opener.
    fn members<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut out = Vec::new();
        loop {
            self.space();
            if self.bytes.get(self.at) == Some(&close) {
                self.at += 1;
                return Ok(out);
            }
            if !out.is_empty() && !self.eat(",") {
                return Err(self.error("expected ',' or a closing bracket"));
            }
            self.space();
            out.push(item(self)?);
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid utf-8"));
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.at + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(self.error("unsupported escape")),
                    };
                    out.push(escaped);
                    self.at += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_benchmark_writes() {
        let doc = Json::parse(
            r#"{"schema": 1, "ok": true, "none": null, "runs": [
                {"workload": "tree_read", "metrics": {"p50_us": {"value": 1.25e0, "unit": "us"}}},
                {"workload": "a\"b", "metrics": {}}], "empty": []}"#,
        )
        .unwrap();
        let runs = doc.get("runs").and_then(Json::array).unwrap();
        assert_eq!(
            runs[0].get("workload").and_then(Json::str),
            Some("tree_read")
        );
        let p50 = runs[0]
            .get("metrics")
            .and_then(|m| m.get("p50_us"))
            .unwrap();
        assert_eq!(p50.get("value").and_then(Json::num), Some(1.25));
        assert_eq!(runs[1].get("workload").and_then(Json::str), Some("a\"b"));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("none"), Some(&Json::Null));
        assert_eq!(
            doc.get("empty").and_then(Json::array).map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1 2]", "{\"a\" 1}", "\"open", "{} x", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }
}
