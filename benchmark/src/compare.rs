//! `compare A B`: two sets of result lines (as `run --out` appends
//! them), one row per workload and end-to-end metric.

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// As much JSON as the result lines use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.src.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.src.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.at))
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.src.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.at += 1;
                    out.push(match self.src.get(self.at) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    });
                }
                Some(&c) => out.push(c),
            }
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.src.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_space();
                if self.src.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_space();
                    match self.src.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected , or }} at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.src.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_space();
                    match self.src.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected , or ] at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .src
                    .get(self.at)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.src[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }
}

fn parse(line: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: line.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_space();
    if p.at == p.src.len() {
        Ok(v)
    } else {
        Err(format!("trailing bytes at {}", p.at))
    }
}

/// workload → metric → the values of the untraced runs in the file.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    for (no, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let row = parse(line).map_err(|e| format!("{path}:{}: {e}", no + 1))?;
        if row.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = row
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| format!("{path}:{}: no workload", no + 1))?;
        let Some(Json::Obj(metrics)) = row.get("metrics") else {
            return Err(format!("{path}:{}: no metrics", no + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::num) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// Median and the quartile distance as a share of it.
fn centre(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    let med = median(&mut v);
    let spread = if v.len() >= 2 && med != 0.0 {
        let (q1, q3) = quartiles(&mut v);
        (q3 - q1) / med.abs()
    } else {
        0.0
    };
    (med, spread)
}

/// `ok`, `regressed` (B's median worse than A's by more than the bound)
/// or `unresolved` (a set's own spread is wider than the bound, so the
/// medians decide nothing).
fn verdict(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> &'static str {
    let worse_by = match better {
        Better::Lower => (b.0 - a.0) / a.0,
        Better::Higher => (a.0 - b.0) / a.0,
    };
    if a.1 > bound || b.1 > bound {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    }
}

/// Prints the table; `Ok(true)` when every row is `ok`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<13} {:<20} {:>3} {:>12} {:>7} {:>3} {:>12} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "iqr/med",
        "nB",
        "median B",
        "iqr/med",
        "B/A",
        "bound"
    );
    let mut all_ok = true;
    for (workload, metrics_a) in &a {
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metrics_a.get(def.name),
                b.get(workload).and_then(|m| m.get(def.name)),
            ) else {
                continue;
            };
            let (ca, cb) = (centre(va), centre(vb));
            let word = verdict(def.better, def.bound, ca, cb);
            all_ok &= word == "ok";
            println!(
                "{:<13} {:<20} {:>3} {:>12.3} {:>7.3} {:>3} {:>12.3} {:>7.3} {:>7.3} {:>6.2}  {} ({} is better, base A = {:.3} {})",
                workload, def.name, va.len(), ca.0, ca.1, vb.len(), cb.0, cb.1,
                cb.0 / ca.0, def.bound, word, def.better.word(), ca.0, def.unit
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let line = r#"{"workload": "mixed_open", "seed": 3, "trace": 0, "correct": true, "attempted": 10, "failed": 0, "metrics": {"ok_per_s": {"value": 1499.5, "unit": "1/s"}, "setup_s": {"value": 1.1e-1, "unit": "s"}}, "x": [1, null, "a\"b"]}"#;
        let row = parse(line).unwrap();
        assert_eq!(row.get("workload").and_then(Json::str), Some("mixed_open"));
        assert_eq!(row.get("correct"), Some(&Json::Bool(true)));
        let value = |name: &str| row.get("metrics")?.get(name)?.get("value")?.num();
        assert_eq!(value("ok_per_s"), Some(1499.5));
        assert_eq!(value("setup_s"), Some(0.11));
        assert_eq!(
            row.get("x"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Null,
                Json::Str("a\"b".into())
            ]))
        );
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\": }").is_err());
    }

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        // within the bound either way
        assert_eq!(verdict(Lower, 0.10, (100.0, 0.02), (109.0, 0.02)), "ok");
        assert_eq!(verdict(Lower, 0.10, (100.0, 0.02), (50.0, 0.02)), "ok");
        // worse by more than the bound, in the metric's own direction
        assert_eq!(
            verdict(Lower, 0.10, (100.0, 0.02), (111.0, 0.02)),
            "regressed"
        );
        assert_eq!(verdict(Higher, 0.10, (100.0, 0.02), (111.0, 0.02)), "ok");
        assert_eq!(
            verdict(Higher, 0.10, (100.0, 0.02), (89.0, 0.02)),
            "regressed"
        );
        // a set noisier than the bound decides nothing
        assert_eq!(
            verdict(Lower, 0.10, (100.0, 0.12), (150.0, 0.02)),
            "unresolved"
        );
        assert_eq!(
            verdict(Lower, 0.10, (100.0, 0.02), (100.0, 0.3)),
            "unresolved"
        );
    }

    #[test]
    fn centre_is_median_and_relative_quartile_distance() {
        let (med, spread) = centre(&[3.0, 1.0, 2.0]);
        assert_eq!(med, 2.0);
        assert_eq!(spread, 1.0);
        assert_eq!(centre(&[5.0]), (5.0, 0.0));
    }
}
