//! The flat `BENCH_<name>.json` report format, in both directions, and
//! the trend gate that compares a fresh report with its committed
//! baseline.
//!
//! Every virtual-time study (`service`, `persist`, `sequential`,
//! `chaos`, `lint`) and `repro allocs` builds a [`BenchReport`] and
//! writes it with [`BenchReport::write`]; the `bench-gate` binary parses
//! two reports with [`BenchReport::parse`] and runs [`gate`]. One module
//! owns the format, so the writers, the reader and the gate cannot
//! drift apart.
//!
//! The format is a JSON subset with one entry per line:
//!
//! ```text
//! {
//!   "scenario": { "requests": 1000000, "seed": 99316174 },
//!   "fault_sweep": [
//!     { "error_permille": 0, "read_retries": 0 },
//!     { "error_permille": 250, "read_retries": 50 }
//!   ],
//!   "throughput_rps": 996117.298
//! }
//! ```
//!
//! Values are unsigned integers, fixed-point decimals (the decimal count
//! is part of the value, so parse → render is byte-lossless) and
//! booleans. The writer refuses non-finite numbers.
//!
//! For gating, a report flattens to `key`, `section.key` and
//! `rows[first=value].key` names (a row is identified by its first
//! field). Every `scenario.*` key and every boolean is pinned: it must be
//! equal in both reports, and a mismatch is reported as a scenario
//! mismatch instead of as a list of regressions. Every other baseline
//! metric must be present in the fresh report and may not move more than
//! [`TOLERANCE`] in its bad direction: down for names containing
//! `throughput`, up for everything else.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;

/// Relative drift a gated metric may move in its bad direction.
pub const TOLERANCE: f64 = 0.20;

/// The workspace root, anchored at this crate's manifest (cargo runs
/// bench binaries from the package directory).
pub fn workspace_root() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => PathBuf::from(m).join("../.."),
        Err(_) => PathBuf::from("."),
    }
}

/// Where reports (`BENCH_<name>.json`) and the persist store go:
/// `$BMF_BENCH_OUT` when set (CI writes fresh copies next to, never
/// over, the committed baselines), the workspace root otherwise. Give
/// an absolute path: cargo runs benches from the package directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("BMF_BENCH_OUT").map_or_else(workspace_root, PathBuf::from)
}

/// Latency percentiles over one request class, in virtual nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Requests in this class.
    pub count: u64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Worst case.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Order-statistic percentiles over a latency sample (sorts it in
    /// place). Empty input yields all-zero percentiles.
    pub fn from_sorted(lat: &mut [u64]) -> Self {
        lat.sort_unstable();
        let pct = |num: u64, den: u64| -> u64 {
            if lat.is_empty() {
                0
            } else {
                lat[((lat.len() - 1) as u64 * num / den) as usize]
            }
        };
        LatencySummary {
            count: lat.len() as u64,
            p50_ns: pct(50, 100),
            p99_ns: pct(99, 100),
            p999_ns: pct(999, 1000),
            max_ns: lat.last().copied().unwrap_or(0),
        }
    }

    /// The summary as report fields, in the order every report uses.
    pub fn fields(&self) -> [(&'static str, Value); 5] {
        crate::fields! {
            count: self.count, p50_ns: self.p50_ns, p99_ns: self.p99_ns,
            p999_ns: self.p999_ns, max_ns: self.max_ns,
        }
    }
}

/// One report value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An unsigned counter.
    Int(u64),
    /// A decimal and the number of digits rendered after its point.
    Fixed(f64, usize),
    /// A flag.
    Bool(bool),
}

impl Value {
    /// The value as a number (`true` is 1).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(n) => n as f64,
            Value::Fixed(v, _) => v,
            Value::Bool(b) => f64::from(u8::from(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Fixed(v, d) => write!(f, "{v:.d$}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Int(u64::from(n))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// Report fields from `key: value` pairs with identifier keys, for
/// [`BenchReport::section`] and [`BenchReport::row`]:
/// `fields! { count: n, p99_ns: Value::Fixed(p99, 3) }`.
#[macro_export]
macro_rules! fields {
    ($($key:ident: $value:expr),* $(,)?) => {
        [$((stringify!($key), $crate::study::Value::from($value))),*]
    };
}

/// The named values of one section or row, in report order.
type Fields = Vec<(String, Value)>;

#[derive(Debug, Clone, PartialEq)]
enum Entry {
    Scalar(Value),
    Section(Fields),
    Rows(Vec<Fields>),
}

/// A flat bench report: top-level scalars, one-line sections and arrays
/// of one-line rows, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    entries: Vec<(String, Entry)>,
}

fn owned<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Fields {
    fields.into_iter().map(|(k, v)| (k.into(), v)).collect()
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        BenchReport::default()
    }

    /// Appends a top-level `"key": value` line.
    pub fn scalar(&mut self, key: &str, value: impl Into<Value>) {
        self.entries
            .push((key.to_string(), Entry::Scalar(value.into())));
    }

    /// Appends a one-line `"name": { ... }` section.
    pub fn section<K: Into<String>>(
        &mut self,
        name: impl Into<String>,
        fields: impl IntoIterator<Item = (K, Value)>,
    ) {
        self.entries
            .push((name.into(), Entry::Section(owned(fields))));
    }

    /// Appends one row to the `"name": [ ... ]` array, starting the array
    /// unless it is the last entry. The first field identifies the row
    /// when the report is gated.
    pub fn row<K: Into<String>>(
        &mut self,
        name: &str,
        fields: impl IntoIterator<Item = (K, Value)>,
    ) {
        let row = owned(fields);
        if let Some((last, Entry::Rows(rows))) = self.entries.last_mut() {
            if last == name {
                rows.push(row);
                return;
            }
        }
        self.entries
            .push((name.to_string(), Entry::Rows(vec![row])));
    }

    /// Renders the report in the flat format.
    ///
    /// # Errors
    ///
    /// Names the first non-finite value: NaN and infinities never reach
    /// a report.
    pub fn render(&self) -> Result<String, String> {
        fn line(fields: &Fields) -> String {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            format!("{{ {} }}", body.join(", "))
        }
        if let Some((key, _)) = self
            .flatten()
            .into_iter()
            .find(|(_, v)| matches!(v, Value::Fixed(x, _) if !x.is_finite()))
        {
            return Err(format!("non-finite value for `{key}` refused"));
        }
        let mut out = String::from("{\n");
        for (i, (name, entry)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let body = match entry {
                Entry::Scalar(v) => v.to_string(),
                Entry::Section(fields) => line(fields),
                Entry::Rows(rows) => {
                    let rows: Vec<String> =
                        rows.iter().map(|r| format!("    {}", line(r))).collect();
                    format!("[\n{}\n  ]", rows.join(",\n"))
                }
            };
            out.push_str(&format!("  \"{name}\": {body}{comma}\n"));
        }
        out.push_str("}\n");
        Ok(out)
    }

    /// Renders the report to `BENCH_<name>.json` in [`out_dir`] and
    /// returns that path.
    ///
    /// # Errors
    ///
    /// Propagates [`BenchReport::render`] and I/O failures.
    pub fn write(&self, name: &str) -> Result<PathBuf, String> {
        let path = out_dir().join(format!("BENCH_{name}.json"));
        let text = self.render()?;
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Parses a report in the flat format.
    ///
    /// # Errors
    ///
    /// Describes the first byte that does not fit the format.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let entries = p.list(b'{', b'}', |p| {
            let name = p.key()?;
            let entry = match p.peek() {
                Some(b'{') => Entry::Section(p.fields()?),
                Some(b'[') => Entry::Rows(p.list(b'[', b']', Parser::fields)?),
                _ => Entry::Scalar(p.value()?),
            };
            Ok((name, entry))
        })?;
        if p.peek().is_some() {
            return Err(p.error("trailing data after the report"));
        }
        Ok(BenchReport { entries })
    }

    /// Every value under its gate name (`key`, `section.key`,
    /// `rows[first=value].key`), in report order.
    pub fn flatten(&self) -> Vec<(String, Value)> {
        let mut flat = Vec::new();
        for (name, entry) in &self.entries {
            match entry {
                Entry::Scalar(v) => flat.push((name.clone(), *v)),
                Entry::Section(fields) => {
                    flat.extend(fields.iter().map(|(k, v)| (format!("{name}.{k}"), *v)));
                }
                Entry::Rows(rows) => {
                    for row in rows {
                        let Some(((id_key, id), rest)) = row.split_first() else {
                            continue;
                        };
                        let prefix = format!("{name}[{id_key}={id}]");
                        flat.extend(rest.iter().map(|(k, v)| (format!("{prefix}.{k}"), *v)));
                    }
                }
            }
        }
        flat
    }

    /// The value under a gate name, as a number.
    ///
    /// # Errors
    ///
    /// Names the key when the report does not carry it.
    pub fn metric(&self, key: &str) -> Result<f64, String> {
        self.flatten()
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_f64())
            .ok_or_else(|| format!("report has no `{key}`"))
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("byte {}: {what}", self.i)
    }

    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", c as char)))
        }
    }

    /// `open item, item, ... close`, possibly empty.
    fn list<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(items);
                }
                _ => return Err(self.error(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    /// `"name":`
    fn key(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        while let Some(&c) = self.s.get(self.i) {
            if c == b'"' {
                break;
            }
            if c == b'\\' || c.is_ascii_control() {
                return Err(self.error("keys are plain names"));
            }
            self.i += 1;
        }
        let name = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.expect(b'"')?;
        self.expect(b':')?;
        Ok(name)
    }

    /// `{ "k": v, ... }` with scalar values only.
    fn fields(&mut self) -> Result<Fields, String> {
        self.list(b'{', b'}', |p| Ok((p.key()?, p.value()?)))
    }

    fn value(&mut self) -> Result<Value, String> {
        self.peek();
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_alphanumeric() || matches!(c, b'.' | b'-' | b'+'))
        {
            self.i += 1;
        }
        let tok = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
        let bad = || format!("byte {start}: `{tok}` is not a report value");
        match tok {
            "true" => return Ok(Value::Bool(true)),
            "false" => return Ok(Value::Bool(false)),
            _ => {}
        }
        if tok.is_empty() || tok.contains(['e', 'E', '+']) {
            return Err(bad());
        }
        if let Some((_, frac)) = tok.split_once('.') {
            tok.parse()
                .map(|v| Value::Fixed(v, frac.len()))
                .map_err(|_| bad())
        } else if tok.starts_with('-') {
            tok.parse().map(|v| Value::Fixed(v, 0)).map_err(|_| bad())
        } else {
            tok.parse().map(Value::Int).map_err(|_| bad())
        }
    }
}

/// Compares a fresh report with its committed baseline and returns one
/// line per failure (empty: the gate passes).
///
/// `ignore` entries match a gate name exactly (`serial_cv_fit.wall_s`)
/// or by its last component (`wall_s` ignores every section's
/// `wall_s`). See the module docs for the rules.
pub fn gate(fresh: &BenchReport, baseline: &BenchReport, ignore: &[String]) -> Vec<String> {
    let ignored = |key: &str| {
        ignore.iter().any(|ig| {
            key == ig
                || key
                    .strip_suffix(ig.as_str())
                    .is_some_and(|p| p.ends_with('.'))
        })
    };
    let pinned = |key: &str, v: &Value| key.starts_with("scenario.") || matches!(v, Value::Bool(_));
    let fresh_flat: BTreeMap<String, Value> = fresh.flatten().into_iter().collect();
    let base_flat: BTreeMap<String, Value> = baseline.flatten().into_iter().collect();
    let shown = |v: Option<&Value>| v.map_or_else(|| "absent".to_string(), Value::to_string);

    let keys: BTreeSet<&String> = base_flat.keys().chain(fresh_flat.keys()).collect();
    let mut mismatches = Vec::new();
    for key in keys {
        let (b, f) = (base_flat.get(key), fresh_flat.get(key));
        if b.or(f).is_some_and(|v| pinned(key, v)) && !ignored(key) && b != f {
            mismatches.push(format!(
                "scenario mismatch {key}: baseline {}, fresh {}",
                shown(b),
                shown(f)
            ));
        }
    }
    if !mismatches.is_empty() {
        return mismatches;
    }

    let mut failures = Vec::new();
    for (key, base) in baseline.flatten() {
        if pinned(&key, &base) || ignored(&key) {
            continue;
        }
        let Some(new) = fresh_flat.get(&key) else {
            failures.push(format!("metric {key} missing from fresh report"));
            continue;
        };
        let (b, n) = (base.as_f64(), new.as_f64());
        let worse = if key.contains("throughput") {
            n < b * (1.0 - TOLERANCE)
        } else {
            n > b * (1.0 + TOLERANCE) && n > b
        };
        if worse {
            failures.push(format!(
                "{key} regressed beyond {TOLERANCE}: baseline {base}, fresh {new}"
            ));
        }
    }
    failures
}
