//! The declarative scenario language: TOML-subset scenario files parsed into
//! [`ScenarioSpec`] + [`WorkloadConfig`].
//!
//! The paper's pitch is *one platform, many experimental questions* — which only holds if a new
//! experiment is data, not a new bench binary. This module is the front end that makes it so: a
//! hand-rolled parser for a TOML subset (the vendored serde stub has no-op derives, so nothing
//! here can lean on a real deserializer) that turns a scenario file into exactly the structs
//! the existing [`ScenarioBuilder`](crate::scenario::ScenarioBuilder) pipeline runs.
//!
//! A scenario file has up to seven sections:
//!
//! ```toml
//! [scenario]          # name, seed, deadline, sample_interval, machines, event budgets
//! name = "gossip-flash-crowd"
//! seed = 11
//! machines = 8
//! deadline = "300s"
//!
//! [topology]          # link profile (or explicit rates), loss, node count
//! link = "dsl-8m"
//! loss = 0.01
//!
//! [topology.condition] # optional link conditioner (or `preset = "<name>"`)
//! jitter = "3ms"
//! burst_enter = 0.05
//! burst_exit = 0.25
//! burst_loss = 0.9
//!
//! [transport]         # optional protocol depth: MTU fragmentation + congestion control
//! mtu = 1500
//! congestion = "aimd"
//!
//! [workload]          # which workload runs; params live in [workload.<kind>]
//! kind = "gossip"
//!
//! [workload.gossip]
//! nodes = 40
//! fanout = 3
//!
//! [arrivals]          # optional override of the workload's natural arrival pattern
//! kind = "flash-crowd"
//! trickle_rate = 0.5
//! trigger = "30s"
//! burst_rate = 50.0
//!
//! [sessions]          # optional churn process
//! kind = "exponential"
//! mean_session = "120s"
//! mean_downtime = "20s"
//! ```
//!
//! Durations are strings with a unit suffix (`ns`, `us`, `ms`, `s`). Every parse error carries
//! the offending line and dotted key path ([`DslError`]), unknown keys are rejected (a typoed
//! key must fail, not silently fall back to a default), and [`ScenarioFile::validate`] runs the
//! same checks [`run_scenario`](crate::scenario::run_scenario) would before anything executes.
//!
//! The supported TOML subset: `[section]` headers (dotted), `key = value` with dotted keys,
//! basic strings, integers (with `_` separators), floats, booleans, (nested) arrays with
//! optional trailing commas spanning multiple lines, and `#` comments. Not supported:
//! `[[array-of-tables]]`, inline tables, literal/multiline strings, dates.

use crate::adversary::{AdversaryPlan, Selection};
use crate::report::RunReport;
use crate::scenario::{ArrivalSpec, ScenarioError, ScenarioSpec, SessionProcess};
use crate::workloads::{
    DhtLookupSpec, GossipShardedSpec, GossipSpec, MeshPattern, PingMeshSpec, SwarmSpec,
    WorkloadConfig, WORKLOAD_KINDS,
};
use p2plab_bittorrent::ClientConfig;
use p2plab_net::{
    AccessLinkClass, BurstLoss, CcKind, LinkCondition, NetworkConfig, TopologySpec, TransportConfig,
};
use p2plab_sim::{FxHashSet, SimDuration};
use std::fmt;

/// A parse or schema error in a scenario (or campaign) file, carrying the line number and the
/// dotted key path it refers to — the two things a user needs to fix the file.
#[derive(Debug, Clone, PartialEq)]
pub struct DslError {
    /// 1-based line the error refers to (0 when no line applies).
    pub line: usize,
    /// Dotted key path the error refers to (empty when no key applies).
    pub path: String,
    /// What is wrong.
    pub message: String,
}

impl DslError {
    fn new(line: usize, path: impl Into<String>, message: impl Into<String>) -> DslError {
        DslError {
            line,
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: ", self.line)?;
        }
        if !self.path.is_empty() {
            write!(f, "key `{}`: ", self.path)?;
        }
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for DslError {}

/// A parsed TOML value (of the supported subset), tagged with the line it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array (possibly nested).
    Array(Vec<Spanned>),
    /// A nested table (from a dotted key or `[section]` header).
    Table(TomlTable),
}

impl TomlValue {
    /// A short label of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Array(_) => "array",
            TomlValue::Table(_) => "table",
        }
    }

    /// Renders the value back as TOML source (used for campaign override columns).
    pub fn render(&self) -> String {
        match self {
            TomlValue::Str(s) => format!("{s:?}"),
            TomlValue::Int(i) => i.to_string(),
            TomlValue::Float(v) => fmt_float(*v),
            TomlValue::Bool(b) => b.to_string(),
            TomlValue::Array(items) => {
                let inner: Vec<String> = items.iter().map(|s| s.value.render()).collect();
                format!("[{}]", inner.join(", "))
            }
            TomlValue::Table(_) => "{...}".into(),
        }
    }
}

/// A [`TomlValue`] plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The value.
    pub value: TomlValue,
    /// 1-based source line of the value.
    pub line: usize,
}

/// A parsed TOML table: ordered key/value entries (file order) plus the line of the header (or
/// key) that opened it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TomlTable {
    entries: Vec<(String, Spanned)>,
    line: usize,
}

impl TomlTable {
    /// The entry stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Spanned> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The table's entries in file order.
    pub fn entries(&self) -> &[(String, Spanned)] {
        &self.entries
    }

    /// 1-based line of the header (or dotted key) that opened this table.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Inserts or replaces the value at the dotted `path`, creating intermediate tables as
    /// needed. Campaign matrix expansion uses this to apply one grid cell's overrides.
    pub fn set_path(&mut self, path: &str, value: Spanned) -> Result<(), DslError> {
        let mut parts = path.split('.').peekable();
        let mut table = self;
        loop {
            let part = parts.next().expect("split yields at least one part");
            if parts.peek().is_none() {
                match table.entries.iter_mut().find(|(k, _)| k == part) {
                    Some((_, slot)) => *slot = value,
                    None => table.entries.push((part.to_string(), value)),
                }
                return Ok(());
            }
            // Descend (or create) an intermediate table. The index dance keeps the borrow
            // checker happy across the loop iteration.
            let idx = match table.entries.iter().position(|(k, _)| k == part) {
                Some(idx) => match table.entries[idx].1.value {
                    TomlValue::Table(_) => idx,
                    _ => {
                        return Err(DslError::new(
                            table.entries[idx].1.line,
                            path,
                            format!(
                                "cannot descend into `{part}`: it is a {}, not a table",
                                table.entries[idx].1.value.type_name()
                            ),
                        ))
                    }
                },
                None => {
                    table.entries.push((
                        part.to_string(),
                        Spanned {
                            value: TomlValue::Table(TomlTable::default()),
                            line: value.line,
                        },
                    ));
                    table.entries.len() - 1
                }
            };
            table = match &mut table.entries[idx].1.value {
                TomlValue::Table(t) => t,
                _ => unreachable!("non-tables were rejected above"),
            };
        }
    }
}

/// Parses the supported TOML subset into a root [`TomlTable`].
pub fn parse_toml(text: &str) -> Result<TomlTable, DslError> {
    let mut parser = TomlParser {
        bytes: text.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut root = TomlTable::default();
    let mut headers_seen: FxHashSet<String> = FxHashSet::default();
    // Dotted path of the table current `key = value` lines land in ([] = root).
    let mut current: Vec<String> = Vec::new();

    loop {
        parser.skip_trivia();
        match parser.peek() {
            None => break,
            Some(b'[') => {
                let line = parser.line;
                parser.pos += 1;
                if parser.peek() == Some(b'[') {
                    return Err(DslError::new(
                        line,
                        "",
                        "array-of-tables `[[...]]` is not supported",
                    ));
                }
                let path = parser.key_path()?;
                parser.skip_spaces();
                parser.expect(b']')?;
                parser.end_of_line()?;
                let dotted = path.join(".");
                if !headers_seen.insert(dotted.clone()) {
                    return Err(DslError::new(line, dotted, "duplicate table header"));
                }
                ensure_table(&mut root, &path, line)?;
                current = path;
            }
            Some(_) => {
                let line = parser.line;
                let path = parser.key_path()?;
                parser.skip_spaces();
                parser.expect(b'=')?;
                parser.skip_spaces();
                let value = parser.value()?;
                parser.end_of_line()?;
                let table = ensure_table(&mut root, &current, line)?;
                insert_path(table, &path, Spanned { value, line }, &current)?;
            }
        }
    }
    Ok(root)
}

/// Navigates (creating as needed) to the table at `path`, erroring when a segment is already
/// bound to a non-table value.
fn ensure_table<'a>(
    root: &'a mut TomlTable,
    path: &[String],
    line: usize,
) -> Result<&'a mut TomlTable, DslError> {
    let mut table = root;
    for (depth, part) in path.iter().enumerate() {
        let idx = match table.entries.iter().position(|(k, _)| k == part) {
            Some(idx) => match table.entries[idx].1.value {
                TomlValue::Table(_) => idx,
                _ => {
                    return Err(DslError::new(
                        line,
                        path[..=depth].join("."),
                        format!(
                            "already defined as a {}, not a table",
                            table.entries[idx].1.value.type_name()
                        ),
                    ))
                }
            },
            None => {
                table.entries.push((
                    part.clone(),
                    Spanned {
                        value: TomlValue::Table(TomlTable {
                            entries: Vec::new(),
                            line,
                        }),
                        line,
                    },
                ));
                table.entries.len() - 1
            }
        };
        table = match &mut table.entries[idx].1.value {
            TomlValue::Table(t) => t,
            _ => unreachable!("non-tables were rejected above"),
        };
    }
    Ok(table)
}

/// Inserts a `key = value` entry (possibly dotted) into `table`, rejecting duplicates.
/// `prefix` is the enclosing section path, used only to build full error paths.
fn insert_path(
    table: &mut TomlTable,
    path: &[String],
    value: Spanned,
    prefix: &[String],
) -> Result<(), DslError> {
    let full_path = |depth: usize| {
        prefix
            .iter()
            .chain(path[..depth].iter())
            .cloned()
            .collect::<Vec<_>>()
            .join(".")
    };
    let line = value.line;
    let mut table = table;
    for (depth, part) in path.iter().enumerate() {
        let last = depth + 1 == path.len();
        if last {
            if table.entries.iter().any(|(k, _)| k == part) {
                return Err(DslError::new(line, full_path(depth + 1), "duplicate key"));
            }
            table.entries.push((part.clone(), value));
            return Ok(());
        }
        let idx = match table.entries.iter().position(|(k, _)| k == part) {
            Some(idx) => match table.entries[idx].1.value {
                TomlValue::Table(_) => idx,
                _ => {
                    return Err(DslError::new(
                        line,
                        full_path(depth + 1),
                        format!(
                            "already defined as a {}, not a table",
                            table.entries[idx].1.value.type_name()
                        ),
                    ))
                }
            },
            None => {
                table.entries.push((
                    part.clone(),
                    Spanned {
                        value: TomlValue::Table(TomlTable {
                            entries: Vec::new(),
                            line,
                        }),
                        line,
                    },
                ));
                table.entries.len() - 1
            }
        };
        table = match &mut table.entries[idx].1.value {
            TomlValue::Table(t) => t,
            _ => unreachable!("non-tables were rejected above"),
        };
    }
    unreachable!("key paths are never empty")
}

struct TomlParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl TomlParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace (including newlines) and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') => self.pos += 1,
                Some(b'\n') => {
                    self.bump();
                }
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DslError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DslError::new(
                self.line,
                "",
                format!(
                    "expected {:?}, found {}",
                    b as char,
                    match self.peek() {
                        Some(c) => format!("{:?}", c as char),
                        None => "end of file".into(),
                    }
                ),
            ))
        }
    }

    /// Requires the rest of the line to be blank or a comment, then consumes the newline.
    fn end_of_line(&mut self) -> Result<(), DslError> {
        self.skip_spaces();
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.pos += 1;
            }
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') | Some(b'\r') => {
                while matches!(self.peek(), Some(b'\r')) {
                    self.pos += 1;
                }
                if self.peek() == Some(b'\n') {
                    self.bump();
                }
                Ok(())
            }
            Some(c) => Err(DslError::new(
                self.line,
                "",
                format!("unexpected {:?} after value", c as char),
            )),
        }
    }

    /// A dotted key path: bare or quoted segments separated by `.`.
    fn key_path(&mut self) -> Result<Vec<String>, DslError> {
        let mut parts = Vec::new();
        loop {
            self.skip_spaces();
            let part = match self.peek() {
                Some(b'"') => self.string()?,
                _ => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    if self.pos == start {
                        return Err(DslError::new(self.line, "", "expected a key"));
                    }
                    String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
                }
            };
            parts.push(part);
            self.skip_spaces();
            if self.peek() == Some(b'.') {
                self.pos += 1;
            } else {
                return Ok(parts);
            }
        }
    }

    fn value(&mut self) -> Result<TomlValue, DslError> {
        match self.peek() {
            Some(b'"') => Ok(TomlValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b't') | Some(b'f') => {
                let start = self.pos;
                while self
                    .peek()
                    .map(|b| b.is_ascii_alphabetic())
                    .unwrap_or(false)
                {
                    self.pos += 1;
                }
                match &self.bytes[start..self.pos] {
                    b"true" => Ok(TomlValue::Bool(true)),
                    b"false" => Ok(TomlValue::Bool(false)),
                    other => Err(DslError::new(
                        self.line,
                        "",
                        format!(
                            "unexpected value {:?}",
                            String::from_utf8_lossy(other).into_owned()
                        ),
                    )),
                }
            }
            Some(c) if c == b'-' || c == b'+' || c.is_ascii_digit() => self.number(),
            other => Err(DslError::new(
                self.line,
                "",
                format!(
                    "expected a value, found {}",
                    match other {
                        Some(c) => format!("{:?}", c as char),
                        None => "end of file".into(),
                    }
                ),
            )),
        }
    }

    fn array(&mut self) -> Result<TomlValue, DslError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(TomlValue::Array(items));
            }
            let line = self.line;
            let value = self.value()?;
            items.push(Spanned { value, line });
            self.skip_trivia();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(TomlValue::Array(items));
                }
                _ => return Err(DslError::new(self.line, "", "expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, DslError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    other => {
                        return Err(DslError::new(
                            self.line,
                            "",
                            format!(
                                "unsupported escape \\{}",
                                other.map(|b| b as char).unwrap_or(' ')
                            ),
                        ))
                    }
                },
                Some(b'\n') | None => {
                    return Err(DslError::new(self.line, "", "unterminated string"))
                }
                Some(b) => {
                    // Re-assemble UTF-8 sequences byte by byte.
                    let rest = &self.bytes[self.pos - 1..];
                    let len = utf8_len(b);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| DslError::new(self.line, "", "invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += len - 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<TomlValue, DslError> {
        let start = self.pos;
        let line = self.line;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit()
                || b == b'.'
                || b == b'e'
                || b == b'E'
                || b == b'+'
                || b == b'-'
                || b == b'_'
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        let clean: String = raw.chars().filter(|&c| c != '_').collect();
        if clean.contains('.') || clean.contains('e') || clean.contains('E') {
            clean
                .parse::<f64>()
                .map(TomlValue::Float)
                .map_err(|_| DslError::new(line, "", format!("bad number {raw:?}")))
        } else {
            clean
                .parse::<i64>()
                .map(TomlValue::Int)
                .map_err(|_| DslError::new(line, "", format!("bad number {raw:?}")))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Strict reader over one section of a parsed file: every getter marks its key as used, and
/// [`Sect::finish`] rejects whatever was not consumed — a typoed key fails loudly with its line
/// instead of silently falling back to a default.
pub(crate) struct Sect<'a> {
    table: &'a TomlTable,
    path: String,
    used: FxHashSet<&'a str>,
}

impl<'a> Sect<'a> {
    pub(crate) fn new(table: &'a TomlTable, path: impl Into<String>) -> Sect<'a> {
        Sect {
            table,
            path: path.into(),
            used: FxHashSet::default(),
        }
    }

    fn key_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Spanned> {
        let entry = self
            .table
            .entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(k, v)| (k.as_str(), v));
        if let Some((k, v)) = entry {
            self.used.insert(k);
            return Some(v);
        }
        None
    }

    /// Marks `key` as consumed without reading it (used for the non-selected workload
    /// subtables: present, legal, not parsed).
    pub(crate) fn mark_used(&mut self, key: &str) {
        if let Some((k, _)) = self.table.entries.iter().find(|(k, _)| k == key) {
            self.used.insert(k.as_str());
        }
    }

    fn type_err(&self, key: &str, spanned: &Spanned, wanted: &str) -> DslError {
        DslError::new(
            spanned.line,
            self.key_path(key),
            format!("expected {wanted}, found {}", spanned.value.type_name()),
        )
    }

    pub(crate) fn missing(&self, key: &str) -> DslError {
        DslError::new(self.table.line, self.key_path(key), "missing required key")
    }

    pub(crate) fn opt_str(&mut self, key: &str) -> Result<Option<&'a str>, DslError> {
        match self.get(key) {
            None => Ok(None),
            Some(s) => match &s.value {
                TomlValue::Str(v) => Ok(Some(v.as_str())),
                _ => Err(self.type_err(key, s, "a string")),
            },
        }
    }

    pub(crate) fn req_str(&mut self, key: &str) -> Result<&'a str, DslError> {
        self.opt_str(key)?.ok_or_else(|| self.missing(key))
    }

    pub(crate) fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, DslError> {
        match self.get(key) {
            None => Ok(None),
            Some(s) => match s.value {
                TomlValue::Int(i) if i >= 0 => Ok(Some(i as u64)),
                TomlValue::Int(_) => Err(DslError::new(
                    s.line,
                    self.key_path(key),
                    "expected a non-negative integer",
                )),
                _ => Err(self.type_err(key, s, "an integer")),
            },
        }
    }

    pub(crate) fn opt_usize(&mut self, key: &str) -> Result<Option<usize>, DslError> {
        Ok(self.opt_u64(key)?.map(|v| v as usize))
    }

    pub(crate) fn opt_u32(&mut self, key: &str) -> Result<Option<u32>, DslError> {
        match self.opt_u64(key)? {
            None => Ok(None),
            Some(v) => u32::try_from(v).map(Some).map_err(|_| {
                DslError::new(
                    self.table.line,
                    self.key_path(key),
                    "value does not fit in 32 bits",
                )
            }),
        }
    }

    pub(crate) fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, DslError> {
        match self.get(key) {
            None => Ok(None),
            Some(s) => match s.value {
                TomlValue::Float(v) => Ok(Some(v)),
                TomlValue::Int(i) => Ok(Some(i as f64)),
                _ => Err(self.type_err(key, s, "a number")),
            },
        }
    }

    pub(crate) fn req_f64(&mut self, key: &str) -> Result<f64, DslError> {
        self.opt_f64(key)?.ok_or_else(|| self.missing(key))
    }

    pub(crate) fn opt_bool(&mut self, key: &str) -> Result<Option<bool>, DslError> {
        match self.get(key) {
            None => Ok(None),
            Some(s) => match s.value {
                TomlValue::Bool(v) => Ok(Some(v)),
                _ => Err(self.type_err(key, s, "a boolean")),
            },
        }
    }

    pub(crate) fn opt_duration(&mut self, key: &str) -> Result<Option<SimDuration>, DslError> {
        match self.get(key) {
            None => Ok(None),
            Some(s) => match &s.value {
                TomlValue::Str(text) => parse_duration(text)
                    .map(Some)
                    .map_err(|e| DslError::new(s.line, self.key_path(key), e)),
                _ => Err(self.type_err(key, s, "a duration string like \"30s\"")),
            },
        }
    }

    pub(crate) fn req_duration(&mut self, key: &str) -> Result<SimDuration, DslError> {
        self.opt_duration(key)?.ok_or_else(|| self.missing(key))
    }

    pub(crate) fn opt_array(&mut self, key: &str) -> Result<Option<&'a [Spanned]>, DslError> {
        match self.get(key) {
            None => Ok(None),
            Some(s) => match &s.value {
                TomlValue::Array(items) => Ok(Some(items.as_slice())),
                _ => Err(self.type_err(key, s, "an array")),
            },
        }
    }

    pub(crate) fn sub_table(&mut self, key: &str) -> Result<Option<&'a TomlTable>, DslError> {
        match self.get(key) {
            None => Ok(None),
            Some(s) => match &s.value {
                TomlValue::Table(t) => Ok(Some(t)),
                _ => Err(self.type_err(key, s, "a table")),
            },
        }
    }

    /// Fails on the first key this section reader never consumed.
    pub(crate) fn finish(self) -> Result<(), DslError> {
        for (k, v) in &self.table.entries {
            if !self.used.contains(k.as_str()) {
                return Err(DslError::new(v.line, self.key_path(k), "unknown key"));
            }
        }
        Ok(())
    }
}

/// Parses a duration literal: a number followed by `ns`, `us`, `ms` or `s` (e.g. `"30s"`,
/// `"2.5s"`, `"100ms"`).
pub fn parse_duration(text: &str) -> Result<SimDuration, String> {
    let text = text.trim();
    let (num, mult_ns) = if let Some(n) = text.strip_suffix("ns") {
        (n, 1u64)
    } else if let Some(n) = text.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = text.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = text.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        return Err(format!(
            "duration {text:?} needs a unit suffix (ns, us, ms or s)"
        ));
    };
    let num = num.trim();
    if let Ok(int) = num.parse::<u64>() {
        return int
            .checked_mul(mult_ns)
            .map(SimDuration::from_nanos)
            .ok_or_else(|| format!("duration {text:?} overflows"));
    }
    match num.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => {
            Ok(SimDuration::from_nanos((v * mult_ns as f64).round() as u64))
        }
        _ => Err(format!("bad duration {text:?}")),
    }
}

/// Formats a duration as a literal [`parse_duration`] reads back exactly: the largest unit that
/// divides the value evenly, so `2_000_000_000 ns` prints as `"2s"` and `1_500_000 ns` as
/// `"1500us"`.
pub fn fmt_duration(d: SimDuration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        "0s".into()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Formats a float so the parser reads it back bit-exactly (Rust's shortest round-trip
/// `Display`, with a `.0` forced onto integral values so it stays a TOML float).
fn fmt_float(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// The named access-link profiles a scenario file can reference by string, mapping to the
/// [`AccessLinkClass`] constructors of the same name.
pub const LINK_PROFILES: [&str; 6] = [
    "bittorrent-dsl",
    "modem-56k",
    "dsl-512k",
    "dsl-8m",
    "lan-10m",
    "wan-1m",
];

/// Resolves a named link profile to its [`AccessLinkClass`], if the name is known.
pub fn link_profile(name: &str) -> Option<AccessLinkClass> {
    match name {
        "bittorrent-dsl" => Some(AccessLinkClass::bittorrent_dsl()),
        "modem-56k" => Some(AccessLinkClass::modem_56k()),
        "dsl-512k" => Some(AccessLinkClass::dsl_512k()),
        "dsl-8m" => Some(AccessLinkClass::dsl_8m()),
        "lan-10m" => Some(AccessLinkClass::lan_10m()),
        "wan-1m" => Some(AccessLinkClass::wan_1m()),
        _ => None,
    }
}

/// The profile name whose base rates/latency match `link` (ignoring loss and conditioner), if
/// any.
fn profile_of(link: AccessLinkClass) -> Option<&'static str> {
    LINK_PROFILES.iter().copied().find(|&name| {
        let p = link_profile(name).expect("LINK_PROFILES entries all resolve");
        p.down_bps == link.down_bps && p.up_bps == link.up_bps && p.latency == link.latency
    })
}

/// The named link-conditioner presets a `[topology.condition]` section can reference with
/// `preset = "<name>"` instead of spelling out every knob.
pub const CONDITION_PRESETS: [&str; 4] = ["clean", "jittery-dsl", "burst-loss", "jitter-burst"];

/// Resolves a named conditioner preset to its [`LinkCondition`], if the name is known.
pub fn condition_preset(name: &str) -> Option<LinkCondition> {
    match name {
        // No conditioning at all — the baseline value a campaign matrix sweeps against.
        "clean" => Some(LinkCondition::none()),
        // Wide uniform jitter, as seen on loaded consumer uplinks.
        "jittery-dsl" => Some(LinkCondition::none().with_jitter(SimDuration::from_millis(5))),
        // Gilbert–Elliott bursts: rare entry, short bad periods, near-total loss inside them.
        "burst-loss" => Some(LinkCondition::none().with_burst(BurstLoss::new(0.02, 0.25, 0.9))),
        // Both at once — the hostile-path profile the protocol-depth demos use.
        "jitter-burst" => Some(
            LinkCondition::none()
                .with_jitter(SimDuration::from_millis(3))
                .with_burst(BurstLoss::new(0.05, 0.25, 0.9)),
        ),
        _ => None,
    }
}

/// Checks a probability knob is within `[0, 1]` before it reaches a builder that would panic.
fn check_rate(rate: f64, line: usize, path: &str) -> Result<(), DslError> {
    if (0.0..=1.0).contains(&rate) {
        Ok(())
    } else {
        Err(DslError::new(
            line,
            path,
            format!("rate must be within [0, 1], got {rate}"),
        ))
    }
}

/// Parses a `[topology.condition]` section into its symmetric base [`LinkCondition`] plus the
/// optional `[topology.condition.down]` / `[topology.condition.up]` directional overrides
/// (asymmetric, eclipse-style degradation: a direction with its own sub-table ignores the base
/// knobs entirely). A `preset` key is exclusive with the explicit knobs at any level; the three
/// `burst_*` keys come as a full set or not at all.
#[allow(clippy::type_complexity)] // lint:allow(bare-allow) — (base, down, up) triple is local to the two call sites
fn parse_condition(
    table: &TomlTable,
) -> Result<(LinkCondition, Option<LinkCondition>, Option<LinkCondition>), DslError> {
    let mut s = Sect::new(table, "topology.condition");
    let down = match s.sub_table("down")? {
        None => None,
        Some(t) => Some(parse_condition_dir(t, "topology.condition.down")?),
    };
    let up = match s.sub_table("up")? {
        None => None,
        Some(t) => Some(parse_condition_dir(t, "topology.condition.up")?),
    };
    let base = parse_condition_knobs(&mut s, table, "topology.condition")?;
    s.finish()?;
    Ok((base, down, up))
}

/// Parses one directional conditioner override sub-table (`down` or `up`).
fn parse_condition_dir(table: &TomlTable, path: &str) -> Result<LinkCondition, DslError> {
    let mut s = Sect::new(table, path);
    let c = parse_condition_knobs(&mut s, table, path)?;
    s.finish()?;
    Ok(c)
}

/// The shared conditioner knob set: a `preset` name, or explicit jitter / reorder / duplicate /
/// burst knobs. The caller's [`Sect::finish`] rejects explicit knobs next to a preset.
fn parse_condition_knobs(
    s: &mut Sect,
    table: &TomlTable,
    path: &str,
) -> Result<LinkCondition, DslError> {
    if let Some(name) = s.opt_str("preset")? {
        let preset = condition_preset(name).ok_or_else(|| {
            DslError::new(
                table.get("preset").map(|v| v.line).unwrap_or(table.line()),
                format!("{path}.preset"),
                format!(
                    "unknown condition preset {name:?} (known: {})",
                    CONDITION_PRESETS.join(", ")
                ),
            )
        })?;
        return Ok(preset);
    }
    let mut c = LinkCondition::none();
    if let Some(jitter) = s.opt_duration("jitter")? {
        c = c.with_jitter(jitter);
    }
    let reorder_rate = s.opt_f64("reorder_rate")?;
    let reorder_delay = s.opt_duration("reorder_delay")?;
    match (reorder_rate, reorder_delay) {
        (None, None) => {}
        (Some(rate), Some(delay)) => {
            check_rate(rate, table.line(), &format!("{path}.reorder_rate"))?;
            c = c.with_reorder(rate, delay);
        }
        _ => {
            return Err(DslError::new(
                table.line(),
                path,
                "reorder_rate and reorder_delay must be given together",
            ))
        }
    }
    if let Some(rate) = s.opt_f64("duplicate_rate")? {
        check_rate(rate, table.line(), &format!("{path}.duplicate_rate"))?;
        c = c.with_duplication(rate);
    }
    let burst_enter = s.opt_f64("burst_enter")?;
    let burst_exit = s.opt_f64("burst_exit")?;
    let burst_loss = s.opt_f64("burst_loss")?;
    match (burst_enter, burst_exit, burst_loss) {
        (None, None, None) => {}
        (Some(enter), Some(exit), Some(loss)) => {
            check_rate(enter, table.line(), &format!("{path}.burst_enter"))?;
            check_rate(exit, table.line(), &format!("{path}.burst_exit"))?;
            check_rate(loss, table.line(), &format!("{path}.burst_loss"))?;
            c = c.with_burst(BurstLoss::new(enter, exit, loss));
        }
        _ => {
            return Err(DslError::new(
                table.line(),
                path,
                "burst_enter, burst_exit and burst_loss must be given together",
            ))
        }
    }
    Ok(c)
}

/// Parses an `[adversary]` section into an [`AdversaryPlan`].
fn parse_adversary(table: &TomlTable) -> Result<AdversaryPlan, DslError> {
    let mut s = Sect::new(table, "adversary");
    let fraction = s.opt_f64("fraction")?.unwrap_or(0.0);
    let items = s
        .opt_array("behaviors")?
        .ok_or_else(|| s.missing("behaviors"))?;
    let mut behaviors = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match &item.value {
            TomlValue::Str(name) => behaviors.push(name.clone()),
            other => {
                return Err(DslError::new(
                    item.line,
                    format!("adversary.behaviors[{i}]"),
                    format!(
                        "expected a behavior name string, found {}",
                        other.type_name()
                    ),
                ))
            }
        }
    }
    let selection = match s.opt_str("selection")?.unwrap_or("random") {
        "random" => Selection::Random,
        "first" => Selection::First,
        "trace" => {
            let items = s.opt_array("trace")?.ok_or_else(|| s.missing("trace"))?;
            let mut indices = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                match item.value {
                    TomlValue::Int(v) if v >= 0 => indices.push(v as usize),
                    _ => {
                        return Err(DslError::new(
                            item.line,
                            format!("adversary.trace[{i}]"),
                            "expected a non-negative participant index",
                        ))
                    }
                }
            }
            Selection::Trace(indices)
        }
        other => {
            return Err(DslError::new(
                table
                    .get("selection")
                    .map(|v| v.line)
                    .unwrap_or(table.line()),
                "adversary.selection",
                format!("unknown selection mode {other:?} (known: random, first, trace)"),
            ))
        }
    };
    s.finish()?;
    let plan = AdversaryPlan {
        fraction,
        behaviors,
        selection,
    };
    plan.validate()
        .map_err(|reason| DslError::new(table.line(), "adversary", reason))?;
    Ok(plan)
}

/// The smallest MTU a `[transport]` section may configure: below this, the 8-byte fragment
/// header dominates every frame and 16-bit fragment counts overflow on realistic messages.
pub const MIN_MTU: u64 = 64;

/// Parses a `[transport]` section into a [`TransportConfig`].
fn parse_transport(table: &TomlTable) -> Result<TransportConfig, DslError> {
    let mut s = Sect::new(table, "transport");
    let mut cfg = TransportConfig::default();
    if let Some(mtu) = s.opt_u64("mtu")? {
        if mtu < MIN_MTU {
            return Err(DslError::new(
                table.get("mtu").map(|v| v.line).unwrap_or(table.line()),
                "transport.mtu",
                format!("mtu must be at least {MIN_MTU} bytes, got {mtu}"),
            ));
        }
        cfg.mtu = Some(mtu);
    }
    if let Some(name) = s.opt_str("congestion")? {
        cfg.congestion = CcKind::parse(name).ok_or_else(|| {
            DslError::new(
                table
                    .get("congestion")
                    .map(|v| v.line)
                    .unwrap_or(table.line()),
                "transport.congestion",
                format!("unknown congestion controller {name:?} (known: legacy, aimd)"),
            )
        })?;
    }
    if let Some(timeout) = s.opt_duration("reassembly_timeout")? {
        if timeout == SimDuration::ZERO {
            return Err(DslError::new(
                table.line(),
                "transport.reassembly_timeout",
                "reassembly timeout must be positive",
            ));
        }
        cfg.reassembly_timeout = timeout;
    }
    s.finish()?;
    Ok(cfg)
}

/// A fully parsed scenario file: the [`ScenarioSpec`] plus the workload to run under it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// The scenario spec built from the file's `[scenario]`, `[topology]`, `[arrivals]` and
    /// `[sessions]` sections.
    pub spec: ScenarioSpec,
    /// The workload configuration built from `[workload]` / `[workload.<kind>]`.
    pub workload: WorkloadConfig,
}

impl ScenarioFile {
    /// Parses a scenario file from TOML source.
    pub fn parse(text: &str) -> Result<ScenarioFile, DslError> {
        let root = parse_toml(text)?;
        ScenarioFile::from_table(&root)
    }

    /// Builds a scenario from an already-parsed table (campaign expansion re-enters here for
    /// every grid cell, after applying the cell's overrides).
    pub fn from_table(root: &TomlTable) -> Result<ScenarioFile, DslError> {
        let mut top = Sect::new(root, "");

        // [scenario]
        let scenario_table = top
            .sub_table("scenario")?
            .ok_or_else(|| top.missing("scenario"))?;
        let mut scenario = Sect::new(scenario_table, "scenario");
        let name = scenario.req_str("name")?.to_string();
        let seed = scenario.opt_u64("seed")?.unwrap_or(0);
        let machines = scenario.opt_usize("machines")?.unwrap_or(1);
        let deadline = scenario
            .opt_duration("deadline")?
            .unwrap_or(SimDuration::from_secs(3600));
        let sample_interval = scenario
            .opt_duration("sample_interval")?
            .unwrap_or(SimDuration::from_secs(10));
        let monitor_resources = scenario.opt_bool("monitor_resources")?.unwrap_or(true);
        let event_capacity = scenario.opt_usize("event_capacity")?;
        let event_budget = scenario.opt_u64("event_budget")?;
        let shards = scenario.opt_usize("shards")?.unwrap_or(1);
        scenario.finish()?;

        // [topology]
        let topology_table = top
            .sub_table("topology")?
            .ok_or_else(|| top.missing("topology"))?;
        let mut topology = Sect::new(topology_table, "topology");
        let profile = topology.opt_str("link")?;
        let down_bps = topology.opt_u64("down_bps")?;
        let up_bps = topology.opt_u64("up_bps")?;
        let latency = topology.opt_duration("latency")?;
        let loss = topology.opt_f64("loss")?.unwrap_or(0.0);
        let nodes = topology.opt_usize("nodes")?;
        let (condition, condition_down, condition_up) = match topology.sub_table("condition")? {
            None => (None, None, None),
            Some(t) => {
                let (base, down, up) = parse_condition(t)?;
                (Some(base), down, up)
            }
        };
        topology.finish()?;
        if !(0.0..=1.0).contains(&loss) {
            return Err(DslError::new(
                topology_table.line(),
                "topology.loss",
                format!("loss rate must be within [0, 1], got {loss}"),
            ));
        }
        let base_link = match (profile, down_bps, up_bps, latency) {
            (Some(name), None, None, None) => link_profile(name).ok_or_else(|| {
                DslError::new(
                    topology_table.line(),
                    "topology.link",
                    format!(
                        "unknown link profile {name:?} (known: {})",
                        LINK_PROFILES.join(", ")
                    ),
                )
            })?,
            (None, Some(down), Some(up), Some(lat)) => AccessLinkClass::new(down, up, lat),
            (Some(_), _, _, _) => {
                return Err(DslError::new(
                    topology_table.line(),
                    "topology.link",
                    "a named link profile cannot be combined with down_bps/up_bps/latency",
                ))
            }
            _ => {
                return Err(DslError::new(
                    topology_table.line(),
                    "topology.link",
                    "topology needs either `link = \"<profile>\"` or all of down_bps, up_bps and latency",
                ))
            }
        };
        let link = base_link
            .with_loss(loss)
            .with_condition(condition)
            .with_condition_down(condition_down)
            .with_condition_up(condition_up);

        // [transport] (optional)
        let transport = match top.sub_table("transport")? {
            None => TransportConfig::default(),
            Some(t) => parse_transport(t)?,
        };

        // [workload] + [workload.<kind>]
        let workload_table = top
            .sub_table("workload")?
            .ok_or_else(|| top.missing("workload"))?;
        let mut workload_sect = Sect::new(workload_table, "workload");
        let kind = workload_sect.req_str("kind")?;
        if !WORKLOAD_KINDS.contains(&kind) {
            let spanned = workload_table.get("kind").expect("kind was read");
            return Err(DslError::new(
                spanned.line,
                "workload.kind",
                format!(
                    "unknown workload kind {kind:?} (known: {})",
                    WORKLOAD_KINDS.join(", ")
                ),
            ));
        }
        // Per-kind parameter subtables: the selected kind's table is parsed strictly below;
        // the other kinds' tables are legal (campaign matrices sweep `workload.kind` over one
        // shared file) but deliberately left unparsed.
        for other in WORKLOAD_KINDS {
            if other != kind {
                workload_sect.mark_used(other);
            }
        }
        let params = workload_sect.sub_table(kind)?;
        workload_sect.finish()?;
        let empty = TomlTable::default();
        let params = params.unwrap_or(&empty);
        let path = format!("workload.{kind}");
        let workload = match kind {
            "swarm" => {
                let mut p = Sect::new(params, path);
                let cfg = SwarmSpec {
                    file_bytes: p.opt_u64("file_bytes")?.unwrap_or(2 * 1024 * 1024),
                    seeders: p.opt_usize("seeders")?.unwrap_or(1),
                    leechers: p
                        .opt_usize("leechers")?
                        .ok_or_else(|| p.missing("leechers"))?,
                    start_interval: p
                        .opt_duration("start_interval")?
                        .unwrap_or(SimDuration::from_secs(2)),
                    seeder_head_start: p
                        .opt_duration("seeder_head_start")?
                        .unwrap_or(SimDuration::from_secs(5)),
                    client_config: ClientConfig::default(),
                };
                p.finish()?;
                WorkloadConfig::Swarm(cfg)
            }
            "ping-mesh" => {
                let mut p = Sect::new(params, path.clone());
                let pattern = match p.opt_str("pattern")?.unwrap_or("full") {
                    "full" => MeshPattern::Full,
                    "ring" => MeshPattern::Ring,
                    other => {
                        return Err(DslError::new(
                            params.get("pattern").map(|s| s.line).unwrap_or(0),
                            format!("{path}.pattern"),
                            format!("unknown mesh pattern {other:?} (known: full, ring)"),
                        ))
                    }
                };
                let spec = PingMeshSpec {
                    name: name.clone(),
                    nodes: p.opt_usize("nodes")?.ok_or_else(|| p.missing("nodes"))?,
                    pattern,
                    pings_per_pair: p.opt_usize("pings_per_pair")?.unwrap_or(5),
                    interval: p
                        .opt_duration("interval")?
                        .unwrap_or(SimDuration::from_secs(1)),
                    stagger: p
                        .opt_duration("stagger")?
                        .unwrap_or(SimDuration::from_millis(1)),
                    packet_bytes: p.opt_u64("packet_bytes")?.unwrap_or(56),
                    settle: p.opt_duration("settle")?,
                };
                p.finish()?;
                WorkloadConfig::PingMesh(spec)
            }
            "gossip" => {
                let mut p = Sect::new(params, path);
                let spec = GossipSpec {
                    name: name.clone(),
                    nodes: p.opt_usize("nodes")?.ok_or_else(|| p.missing("nodes"))?,
                    fanout: p.opt_usize("fanout")?.unwrap_or(3),
                    round_interval: p
                        .opt_duration("round_interval")?
                        .unwrap_or(SimDuration::from_secs(1)),
                    rumor_bytes: p.opt_u64("rumor_bytes")?.unwrap_or(256),
                };
                p.finish()?;
                WorkloadConfig::Gossip(spec)
            }
            "gossip-sharded" => {
                let mut p = Sect::new(params, path);
                let spec = GossipShardedSpec {
                    name: name.clone(),
                    nodes: p.opt_usize("nodes")?.ok_or_else(|| p.missing("nodes"))?,
                    fanout: p.opt_usize("fanout")?.unwrap_or(3),
                    round_interval: p
                        .opt_duration("round_interval")?
                        .unwrap_or(SimDuration::from_secs(1)),
                    rumor_bytes: p.opt_u64("rumor_bytes")?.unwrap_or(256),
                    rounds: p.opt_u32("rounds")?.unwrap_or(0),
                };
                p.finish()?;
                WorkloadConfig::GossipSharded(spec)
            }
            "dht-lookup" => {
                let mut p = Sect::new(params, path);
                let nodes = p.opt_usize("nodes")?.ok_or_else(|| p.missing("nodes"))?;
                let spec = DhtLookupSpec {
                    name: name.clone(),
                    nodes,
                    lookups: p.opt_usize("lookups")?.unwrap_or(nodes),
                    alpha: p.opt_usize("alpha")?.unwrap_or(3),
                    k: p.opt_usize("k")?.unwrap_or(8),
                    rpc_timeout: p
                        .opt_duration("rpc_timeout")?
                        .unwrap_or(SimDuration::from_secs(2)),
                    rpc_attempts: p.opt_u32("rpc_attempts")?.unwrap_or(3),
                    lookup_interval: p
                        .opt_duration("lookup_interval")?
                        .unwrap_or(SimDuration::from_millis(100)),
                };
                p.finish()?;
                WorkloadConfig::DhtLookup(spec)
            }
            _ => unreachable!("kind was checked against WORKLOAD_KINDS"),
        };

        // [arrivals] (optional)
        let arrivals = match top.sub_table("arrivals")? {
            None => None,
            Some(t) => Some(parse_arrivals(t)?),
        };

        // [sessions] (optional)
        let sessions = match top.sub_table("sessions")? {
            None => None,
            Some(t) => Some(parse_sessions(t)?),
        };

        // [adversary] (optional)
        let adversary = match top.sub_table("adversary")? {
            None => None,
            Some(t) => Some(parse_adversary(t)?),
        };
        top.finish()?;

        let nodes = nodes.unwrap_or_else(|| workload.vnodes_required());
        let spec = ScenarioSpec {
            name: name.clone(),
            topology: TopologySpec::uniform(&name, nodes, link),
            deployment: crate::deploy::DeploymentSpec::new(machines),
            network: NetworkConfig {
                transport,
                ..NetworkConfig::default()
            },
            arrivals,
            sessions,
            adversary,
            deadline,
            sample_interval,
            monitor_resources,
            arrival_ramp: None,
            event_capacity,
            event_budget,
            seed,
            shards,
        };
        Ok(ScenarioFile { spec, workload })
    }

    /// Runs the same checks [`run_scenario`](crate::scenario::run_scenario) performs before
    /// anything executes: the spec's internal consistency plus the topology-vs-workload size
    /// check.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.spec.validate()?;
        let needed = self.workload.vnodes_required();
        let available = self.spec.topology.total_nodes();
        if needed > available {
            return Err(ScenarioError::TopologyTooSmall { needed, available });
        }
        Ok(())
    }

    /// Validates and runs the scenario, returning the run's [`RunReport`].
    pub fn run(&self) -> Result<RunReport, ScenarioError> {
        self.validate()?;
        self.workload.run_reported(&self.spec)
    }

    /// Serializes the scenario back as TOML the parser reads into an equal [`ScenarioFile`]
    /// (the round-trip property the DSL tests pin). Only DSL-expressible scenarios are
    /// supported: a single-group uniform topology, a network config that is default apart from
    /// its `[transport]` section, and default client config.
    pub fn to_toml(&self) -> String {
        let spec = &self.spec;
        let mut out = String::with_capacity(1024);
        out.push_str("[scenario]\n");
        out.push_str(&format!("name = {:?}\n", spec.name));
        out.push_str(&format!("seed = {}\n", spec.seed));
        out.push_str(&format!("machines = {}\n", spec.deployment.machines));
        out.push_str(&format!("deadline = \"{}\"\n", fmt_duration(spec.deadline)));
        out.push_str(&format!(
            "sample_interval = \"{}\"\n",
            fmt_duration(spec.sample_interval)
        ));
        if !spec.monitor_resources {
            out.push_str("monitor_resources = false\n");
        }
        if let Some(cap) = spec.event_capacity {
            out.push_str(&format!("event_capacity = {cap}\n"));
        }
        if let Some(budget) = spec.event_budget {
            out.push_str(&format!("event_budget = {budget}\n"));
        }
        if spec.shards != 1 {
            out.push_str(&format!("shards = {}\n", spec.shards));
        }

        let link = spec
            .topology
            .groups
            .first()
            .map(|g| g.link)
            .unwrap_or_else(AccessLinkClass::bittorrent_dsl);
        out.push_str("\n[topology]\n");
        out.push_str(&format!("nodes = {}\n", spec.topology.total_nodes()));
        match profile_of(link) {
            Some(name) => out.push_str(&format!("link = {name:?}\n")),
            None => {
                out.push_str(&format!("down_bps = {}\n", link.down_bps));
                out.push_str(&format!("up_bps = {}\n", link.up_bps));
                out.push_str(&format!("latency = \"{}\"\n", fmt_duration(link.latency)));
            }
        }
        if link.loss_rate != 0.0 {
            out.push_str(&format!("loss = {}\n", fmt_float(link.loss_rate)));
        }
        for (header, condition) in [
            ("[topology.condition]", link.condition),
            ("[topology.condition.down]", link.condition_down),
            ("[topology.condition.up]", link.condition_up),
        ] {
            let Some(c) = condition else { continue };
            out.push_str(&format!("\n{header}\n"));
            if c.jitter != SimDuration::ZERO {
                out.push_str(&format!("jitter = \"{}\"\n", fmt_duration(c.jitter)));
            }
            if c.reorder_rate != 0.0 {
                out.push_str(&format!("reorder_rate = {}\n", fmt_float(c.reorder_rate)));
                out.push_str(&format!(
                    "reorder_delay = \"{}\"\n",
                    fmt_duration(c.reorder_delay)
                ));
            }
            if c.duplicate_rate != 0.0 {
                out.push_str(&format!(
                    "duplicate_rate = {}\n",
                    fmt_float(c.duplicate_rate)
                ));
            }
            if let Some(b) = c.burst {
                out.push_str(&format!("burst_enter = {}\n", fmt_float(b.enter)));
                out.push_str(&format!("burst_exit = {}\n", fmt_float(b.exit)));
                out.push_str(&format!("burst_loss = {}\n", fmt_float(b.loss)));
            }
        }

        let transport = spec.network.transport;
        if transport != TransportConfig::default() {
            out.push_str("\n[transport]\n");
            if let Some(mtu) = transport.mtu {
                out.push_str(&format!("mtu = {mtu}\n"));
            }
            if transport.congestion != CcKind::Legacy {
                out.push_str(&format!("congestion = {:?}\n", transport.congestion.name()));
            }
            let default_timeout = TransportConfig::default().reassembly_timeout;
            if transport.reassembly_timeout != default_timeout {
                out.push_str(&format!(
                    "reassembly_timeout = \"{}\"\n",
                    fmt_duration(transport.reassembly_timeout)
                ));
            }
        }

        out.push_str("\n[workload]\n");
        out.push_str(&format!("kind = {:?}\n", self.workload.kind()));
        out.push_str(&format!("\n[workload.{}]\n", self.workload.kind()));
        match &self.workload {
            WorkloadConfig::Swarm(cfg) => {
                out.push_str(&format!("file_bytes = {}\n", cfg.file_bytes));
                out.push_str(&format!("seeders = {}\n", cfg.seeders));
                out.push_str(&format!("leechers = {}\n", cfg.leechers));
                out.push_str(&format!(
                    "start_interval = \"{}\"\n",
                    fmt_duration(cfg.start_interval)
                ));
                out.push_str(&format!(
                    "seeder_head_start = \"{}\"\n",
                    fmt_duration(cfg.seeder_head_start)
                ));
            }
            WorkloadConfig::PingMesh(p) => {
                out.push_str(&format!("nodes = {}\n", p.nodes));
                out.push_str(&format!(
                    "pattern = {:?}\n",
                    match p.pattern {
                        MeshPattern::Full => "full",
                        MeshPattern::Ring => "ring",
                    }
                ));
                out.push_str(&format!("pings_per_pair = {}\n", p.pings_per_pair));
                out.push_str(&format!("interval = \"{}\"\n", fmt_duration(p.interval)));
                out.push_str(&format!("stagger = \"{}\"\n", fmt_duration(p.stagger)));
                out.push_str(&format!("packet_bytes = {}\n", p.packet_bytes));
                if let Some(settle) = p.settle {
                    out.push_str(&format!("settle = \"{}\"\n", fmt_duration(settle)));
                }
            }
            WorkloadConfig::Gossip(g) => {
                out.push_str(&format!("nodes = {}\n", g.nodes));
                out.push_str(&format!("fanout = {}\n", g.fanout));
                out.push_str(&format!(
                    "round_interval = \"{}\"\n",
                    fmt_duration(g.round_interval)
                ));
                out.push_str(&format!("rumor_bytes = {}\n", g.rumor_bytes));
            }
            WorkloadConfig::GossipSharded(g) => {
                out.push_str(&format!("nodes = {}\n", g.nodes));
                out.push_str(&format!("fanout = {}\n", g.fanout));
                out.push_str(&format!(
                    "round_interval = \"{}\"\n",
                    fmt_duration(g.round_interval)
                ));
                out.push_str(&format!("rumor_bytes = {}\n", g.rumor_bytes));
                if g.rounds != 0 {
                    out.push_str(&format!("rounds = {}\n", g.rounds));
                }
            }
            WorkloadConfig::DhtLookup(d) => {
                out.push_str(&format!("nodes = {}\n", d.nodes));
                out.push_str(&format!("lookups = {}\n", d.lookups));
                out.push_str(&format!("alpha = {}\n", d.alpha));
                out.push_str(&format!("k = {}\n", d.k));
                out.push_str(&format!(
                    "rpc_timeout = \"{}\"\n",
                    fmt_duration(d.rpc_timeout)
                ));
                out.push_str(&format!("rpc_attempts = {}\n", d.rpc_attempts));
                out.push_str(&format!(
                    "lookup_interval = \"{}\"\n",
                    fmt_duration(d.lookup_interval)
                ));
            }
        }

        if let Some(arrivals) = &spec.arrivals {
            out.push_str("\n[arrivals]\n");
            match arrivals {
                ArrivalSpec::Poisson { rate } => {
                    out.push_str("kind = \"poisson\"\n");
                    out.push_str(&format!("rate = {}\n", fmt_float(*rate)));
                }
                ArrivalSpec::UniformRamp { start, interval } => {
                    out.push_str("kind = \"ramp\"\n");
                    out.push_str(&format!("start = \"{}\"\n", fmt_duration(*start)));
                    out.push_str(&format!("interval = \"{}\"\n", fmt_duration(*interval)));
                }
                ArrivalSpec::FlashCrowd {
                    trickle_rate,
                    trigger,
                    burst_rate,
                } => {
                    out.push_str("kind = \"flash-crowd\"\n");
                    out.push_str(&format!("trickle_rate = {}\n", fmt_float(*trickle_rate)));
                    out.push_str(&format!("trigger = \"{}\"\n", fmt_duration(*trigger)));
                    out.push_str(&format!("burst_rate = {}\n", fmt_float(*burst_rate)));
                }
                ArrivalSpec::Trace { times } => {
                    out.push_str("kind = \"trace\"\n");
                    let items: Vec<String> = times
                        .iter()
                        .map(|&t| format!("\"{}\"", fmt_duration(t)))
                        .collect();
                    out.push_str(&format!("times = [{}]\n", items.join(", ")));
                }
            }
        }

        if let Some(sessions) = &spec.sessions {
            out.push_str("\n[sessions]\n");
            match sessions {
                SessionProcess::Exponential {
                    mean_session,
                    mean_downtime,
                } => {
                    out.push_str("kind = \"exponential\"\n");
                    out.push_str(&format!(
                        "mean_session = \"{}\"\n",
                        fmt_duration(*mean_session)
                    ));
                    out.push_str(&format!(
                        "mean_downtime = \"{}\"\n",
                        fmt_duration(*mean_downtime)
                    ));
                }
                SessionProcess::Pareto {
                    scale_session,
                    shape,
                    mean_downtime,
                } => {
                    out.push_str("kind = \"pareto\"\n");
                    out.push_str(&format!(
                        "scale_session = \"{}\"\n",
                        fmt_duration(*scale_session)
                    ));
                    out.push_str(&format!("shape = {}\n", fmt_float(*shape)));
                    out.push_str(&format!(
                        "mean_downtime = \"{}\"\n",
                        fmt_duration(*mean_downtime)
                    ));
                }
                SessionProcess::Trace { pairs } => {
                    out.push_str("kind = \"trace\"\n");
                    let items: Vec<String> = pairs
                        .iter()
                        .map(|&(s, d)| {
                            format!("[\"{}\", \"{}\"]", fmt_duration(s), fmt_duration(d))
                        })
                        .collect();
                    out.push_str(&format!("pairs = [{}]\n", items.join(", ")));
                }
            }
        }

        if let Some(plan) = &spec.adversary {
            out.push_str("\n[adversary]\n");
            out.push_str(&format!("fraction = {}\n", fmt_float(plan.fraction)));
            let items: Vec<String> = plan.behaviors.iter().map(|b| format!("{b:?}")).collect();
            out.push_str(&format!("behaviors = [{}]\n", items.join(", ")));
            match &plan.selection {
                Selection::Random => {}
                Selection::First => out.push_str("selection = \"first\"\n"),
                Selection::Trace(indices) => {
                    out.push_str("selection = \"trace\"\n");
                    let items: Vec<String> = indices.iter().map(|i| i.to_string()).collect();
                    out.push_str(&format!("trace = [{}]\n", items.join(", ")));
                }
            }
        }
        out
    }
}

fn parse_arrivals(table: &TomlTable) -> Result<ArrivalSpec, DslError> {
    let mut s = Sect::new(table, "arrivals");
    let kind = s.req_str("kind")?;
    // Campaign matrices sweep `arrivals.kind` over one shared section (the same convention as
    // `workload.kind` and its subtables), so every kind's parameter keys are legal here; only
    // the selected kind's keys are actually read. The key sets are disjoint, so a typo still
    // fails as an unknown key.
    for key in [
        "rate",
        "start",
        "interval",
        "trickle_rate",
        "trigger",
        "burst_rate",
        "times",
    ] {
        s.mark_used(key);
    }
    let spec = match kind {
        "poisson" => ArrivalSpec::Poisson {
            rate: s.req_f64("rate")?,
        },
        "ramp" => ArrivalSpec::UniformRamp {
            start: s.opt_duration("start")?.unwrap_or(SimDuration::ZERO),
            interval: s.req_duration("interval")?,
        },
        "flash-crowd" => ArrivalSpec::FlashCrowd {
            trickle_rate: s.req_f64("trickle_rate")?,
            trigger: s.req_duration("trigger")?,
            burst_rate: s.req_f64("burst_rate")?,
        },
        "trace" => {
            let items = s.opt_array("times")?.ok_or_else(|| s.missing("times"))?;
            let mut times = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                match &item.value {
                    TomlValue::Str(text) => times.push(parse_duration(text).map_err(|e| {
                        DslError::new(item.line, format!("arrivals.times[{i}]"), e)
                    })?),
                    other => {
                        return Err(DslError::new(
                            item.line,
                            format!("arrivals.times[{i}]"),
                            format!("expected a duration string, found {}", other.type_name()),
                        ))
                    }
                }
            }
            ArrivalSpec::Trace { times }
        }
        other => {
            return Err(DslError::new(
                table.get("kind").map(|s| s.line).unwrap_or(table.line()),
                "arrivals.kind",
                format!(
                    "unknown arrival kind {other:?} (known: poisson, ramp, flash-crowd, trace)"
                ),
            ))
        }
    };
    s.finish()?;
    Ok(spec)
}

fn parse_sessions(table: &TomlTable) -> Result<SessionProcess, DslError> {
    let mut s = Sect::new(table, "sessions");
    let kind = s.req_str("kind")?;
    let spec = match kind {
        "exponential" => SessionProcess::Exponential {
            mean_session: s.req_duration("mean_session")?,
            mean_downtime: s.req_duration("mean_downtime")?,
        },
        "pareto" => SessionProcess::Pareto {
            scale_session: s.req_duration("scale_session")?,
            shape: s.req_f64("shape")?,
            mean_downtime: s.req_duration("mean_downtime")?,
        },
        "trace" => {
            let items = s.opt_array("pairs")?.ok_or_else(|| s.missing("pairs"))?;
            let mut pairs = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let path = format!("sessions.pairs[{i}]");
                let pair = match &item.value {
                    TomlValue::Array(inner) if inner.len() == 2 => inner,
                    other => {
                        return Err(DslError::new(
                            item.line,
                            path,
                            format!(
                                "expected a [session, downtime] duration pair, found {}",
                                other.type_name()
                            ),
                        ))
                    }
                };
                let mut parsed = [SimDuration::ZERO; 2];
                for (j, half) in pair.iter().enumerate() {
                    parsed[j] = match &half.value {
                        TomlValue::Str(text) => parse_duration(text)
                            .map_err(|e| DslError::new(half.line, path.clone(), e))?,
                        other => {
                            return Err(DslError::new(
                                half.line,
                                path.clone(),
                                format!("expected a duration string, found {}", other.type_name()),
                            ))
                        }
                    };
                }
                pairs.push((parsed[0], parsed[1]));
            }
            SessionProcess::Trace { pairs }
        }
        other => {
            return Err(DslError::new(
                table.get("kind").map(|s| s.line).unwrap_or(table.line()),
                "sessions.kind",
                format!("unknown session kind {other:?} (known: exponential, pareto, trace)"),
            ))
        }
    };
    s.finish()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_values_and_sections() {
        let root = parse_toml(
            "top = 1\n\
             [a]\n\
             s = \"hi\" # comment\n\
             f = 2.5\n\
             neg = -3\n\
             b = true\n\
             big = 2_000_000\n\
             arr = [1, 2,\n   3,]\n\
             [a.nested]\n\
             x = \"y\"\n",
        )
        .unwrap();
        assert_eq!(root.get("top").map(|s| &s.value), Some(&TomlValue::Int(1)));
        let a = match &root.get("a").unwrap().value {
            TomlValue::Table(t) => t,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            a.get("s").map(|s| &s.value),
            Some(&TomlValue::Str("hi".into()))
        );
        assert_eq!(a.get("f").map(|s| &s.value), Some(&TomlValue::Float(2.5)));
        assert_eq!(a.get("neg").map(|s| &s.value), Some(&TomlValue::Int(-3)));
        assert_eq!(a.get("b").map(|s| &s.value), Some(&TomlValue::Bool(true)));
        assert_eq!(
            a.get("big").map(|s| &s.value),
            Some(&TomlValue::Int(2_000_000))
        );
        match &a.get("arr").unwrap().value {
            TomlValue::Array(items) => assert_eq!(items.len(), 3),
            other => panic!("{other:?}"),
        }
        match &a.get("nested").unwrap().value {
            TomlValue::Table(t) => {
                assert_eq!(
                    t.get("x").map(|s| &s.value),
                    Some(&TomlValue::Str("y".into()))
                )
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dotted_keys_build_nested_tables() {
        let root = parse_toml("[m]\na.b = 1\na.c = 2\n").unwrap();
        let m = match &root.get("m").unwrap().value {
            TomlValue::Table(t) => t,
            other => panic!("{other:?}"),
        };
        let a = match &m.get("a").unwrap().value {
            TomlValue::Table(t) => t,
            other => panic!("{other:?}"),
        };
        assert_eq!(a.get("b").map(|s| &s.value), Some(&TomlValue::Int(1)));
        assert_eq!(a.get("c").map(|s| &s.value), Some(&TomlValue::Int(2)));
    }

    #[test]
    fn parser_reports_lines_for_errors() {
        // Duplicate key on line 3.
        let err = parse_toml("[a]\nx = 1\nx = 2\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.path, "a.x");
        assert!(err.message.contains("duplicate"));
        // Duplicate header.
        let err = parse_toml("[a]\n[b]\n[a]\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.path, "a");
        // Unterminated string.
        assert!(parse_toml("x = \"oops\n").is_err());
        // Array-of-tables is out of subset.
        let err = parse_toml("[[a]]\n").unwrap_err();
        assert!(err.message.contains("not supported"));
        // Trailing garbage after a value.
        let err = parse_toml("x = 1 garbage\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn duration_literals_round_trip() {
        for (text, ns) in [
            ("30s", 30_000_000_000u64),
            ("100ms", 100_000_000),
            ("250us", 250_000),
            ("7ns", 7),
            ("2.5s", 2_500_000_000),
            ("0.5ms", 500_000),
        ] {
            assert_eq!(parse_duration(text).unwrap(), SimDuration::from_nanos(ns));
        }
        for good in [
            SimDuration::from_secs(2),
            SimDuration::from_millis(1500),
            SimDuration::from_micros(250),
            SimDuration::from_nanos(7),
            SimDuration::ZERO,
        ] {
            assert_eq!(parse_duration(&fmt_duration(good)).unwrap(), good);
        }
        assert!(parse_duration("30").is_err());
        assert!(parse_duration("fast").is_err());
        assert!(parse_duration("-5s").is_err());
    }

    fn minimal_gossip() -> String {
        "[scenario]\nname = \"g\"\n[topology]\nlink = \"dsl-8m\"\n[workload]\nkind = \"gossip\"\n[workload.gossip]\nnodes = 8\n".to_string()
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let file = ScenarioFile::parse(&minimal_gossip()).unwrap();
        assert_eq!(file.spec.name, "g");
        assert_eq!(file.spec.seed, 0);
        assert_eq!(file.spec.deployment.machines, 1);
        assert_eq!(file.spec.deadline, SimDuration::from_secs(3600));
        assert_eq!(file.spec.topology.total_nodes(), 8);
        assert_eq!(file.workload.kind(), "gossip");
        assert!(file.validate().is_ok());
    }

    #[test]
    fn unknown_key_reports_line_and_path() {
        let text = minimal_gossip() + "fanouts = 3\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "workload.gossip.fanouts");
        assert_eq!(err.line, 9);
        assert!(err.to_string().contains("unknown key"), "{err}");
    }

    #[test]
    fn bad_type_reports_line_and_path() {
        let text = minimal_gossip().replace("nodes = 8", "nodes = \"eight\"");
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "workload.gossip.nodes");
        assert_eq!(err.line, 8);
        assert!(err.message.contains("expected an integer"), "{err}");
    }

    #[test]
    fn missing_required_key_reports_path() {
        let text = minimal_gossip().replace("name = \"g\"\n", "");
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "scenario.name");
        assert!(err.message.contains("missing"), "{err}");
    }

    #[test]
    fn unknown_workload_kind_lists_the_registry() {
        let text = minimal_gossip().replace("kind = \"gossip\"", "kind = \"bitcoin\"");
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "workload.kind");
        for kind in WORKLOAD_KINDS {
            assert!(err.message.contains(kind), "{err}");
        }
    }

    #[test]
    fn non_selected_workload_tables_are_legal() {
        let text = minimal_gossip() + "[workload.swarm]\nleechers = 4\n";
        let file = ScenarioFile::parse(&text).unwrap();
        assert_eq!(file.workload.kind(), "gossip");
    }

    #[test]
    fn link_profiles_and_custom_links_are_exclusive() {
        let text =
            minimal_gossip().replace("link = \"dsl-8m\"", "link = \"dsl-8m\"\ndown_bps = 1000");
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "topology.link");
        let text = minimal_gossip().replace("link = \"dsl-8m\"", "link = \"isdn\"");
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert!(err.message.contains("unknown link profile"), "{err}");
        let text = minimal_gossip().replace("link = \"dsl-8m\"", "down_bps = 1000");
        assert!(ScenarioFile::parse(&text).is_err());
    }

    #[test]
    fn every_link_profile_resolves() {
        for name in LINK_PROFILES {
            assert!(link_profile(name).is_some(), "{name}");
            assert_eq!(profile_of(link_profile(name).unwrap()), Some(name));
        }
    }

    #[test]
    fn full_scenario_round_trips() {
        let text = "\
[scenario]
name = \"flash\"
seed = 11
machines = 8
deadline = \"300s\"
sample_interval = \"1s\"
event_budget = 20000000

[topology]
nodes = 40
link = \"dsl-8m\"
loss = 0.01

[workload]
kind = \"gossip\"

[workload.gossip]
nodes = 40
fanout = 4
round_interval = \"500ms\"
rumor_bytes = 512

[arrivals]
kind = \"flash-crowd\"
trickle_rate = 0.5
trigger = \"30s\"
burst_rate = 50.0

[sessions]
kind = \"exponential\"
mean_session = \"120s\"
mean_downtime = \"20s\"
";
        let file = ScenarioFile::parse(text).unwrap();
        assert_eq!(
            file.spec.arrivals,
            Some(ArrivalSpec::FlashCrowd {
                trickle_rate: 0.5,
                trigger: SimDuration::from_secs(30),
                burst_rate: 50.0,
            })
        );
        let reparsed = ScenarioFile::parse(&file.to_toml()).unwrap();
        assert_eq!(reparsed, file);
    }

    #[test]
    fn trace_arrivals_and_sessions_round_trip() {
        let text = minimal_gossip()
            + "[arrivals]\nkind = \"trace\"\ntimes = [\"1s\", \"2s\", \"2s\"]\n\
               [sessions]\nkind = \"trace\"\npairs = [[\"10s\", \"1s\"], [\"20s\", \"2s\"]]\n";
        let file = ScenarioFile::parse(&text).unwrap();
        assert_eq!(
            file.spec.arrivals,
            Some(ArrivalSpec::Trace {
                times: vec![
                    SimDuration::from_secs(1),
                    SimDuration::from_secs(2),
                    SimDuration::from_secs(2)
                ]
            })
        );
        let reparsed = ScenarioFile::parse(&file.to_toml()).unwrap();
        assert_eq!(reparsed, file);
    }

    #[test]
    fn condition_and_transport_sections_round_trip() {
        let text = minimal_gossip()
            + "[topology.condition]\n\
               jitter = \"3ms\"\n\
               reorder_rate = 0.02\n\
               reorder_delay = \"10ms\"\n\
               duplicate_rate = 0.01\n\
               burst_enter = 0.05\n\
               burst_exit = 0.25\n\
               burst_loss = 0.9\n\
               [transport]\n\
               mtu = 1500\n\
               congestion = \"aimd\"\n\
               reassembly_timeout = \"10s\"\n";
        let file = ScenarioFile::parse(&text).unwrap();
        let link = file.spec.topology.groups[0].link;
        let c = link.condition.expect("condition was configured");
        assert_eq!(c.jitter, SimDuration::from_millis(3));
        assert_eq!(c.reorder_rate, 0.02);
        assert_eq!(c.duplicate_rate, 0.01);
        let b = c.burst.expect("burst was configured");
        assert_eq!((b.enter, b.exit, b.loss), (0.05, 0.25, 0.9));
        let t = file.spec.network.transport;
        assert_eq!(t.mtu, Some(1500));
        assert_eq!(t.congestion, CcKind::Aimd);
        assert_eq!(t.reassembly_timeout, SimDuration::from_secs(10));
        assert!(t.active());
        let reparsed = ScenarioFile::parse(&file.to_toml()).unwrap();
        assert_eq!(reparsed, file);
    }

    #[test]
    fn condition_presets_resolve_and_round_trip() {
        for name in CONDITION_PRESETS {
            let preset = condition_preset(name).unwrap_or_else(|| panic!("{name}"));
            let text = minimal_gossip() + &format!("[topology.condition]\npreset = {name:?}\n");
            let file = ScenarioFile::parse(&text).unwrap();
            // Inert presets ("clean") normalize away; real ones survive verbatim.
            let want = if preset.is_noop() { None } else { Some(preset) };
            assert_eq!(file.spec.topology.groups[0].link.condition, want);
            let reparsed = ScenarioFile::parse(&file.to_toml()).unwrap();
            assert_eq!(reparsed, file);
        }
        let text = minimal_gossip() + "[topology.condition]\npreset = \"solar-flare\"\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "topology.condition.preset");
        for name in CONDITION_PRESETS {
            assert!(err.message.contains(name), "{err}");
        }
        // A preset cannot be combined with explicit knobs.
        let text =
            minimal_gossip() + "[topology.condition]\npreset = \"burst-loss\"\njitter = \"1ms\"\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert!(err.message.contains("unknown key"), "{err}");
    }

    #[test]
    fn directional_condition_overrides_round_trip() {
        // Eclipse-style asymmetric degradation: pristine uplink, hostile downlink.
        let text = minimal_gossip()
            + "[topology.condition]\n\
               jitter = \"1ms\"\n\
               [topology.condition.down]\n\
               preset = \"burst-loss\"\n\
               [topology.condition.up]\n\
               jitter = \"8ms\"\n\
               duplicate_rate = 0.05\n";
        let file = ScenarioFile::parse(&text).unwrap();
        let link = file.spec.topology.groups[0].link;
        let base = link.condition.expect("base condition");
        assert_eq!(base.jitter, SimDuration::from_millis(1));
        let down = link.condition_down.expect("down override");
        assert_eq!(Some(down), condition_preset("burst-loss"));
        let up = link.condition_up.expect("up override");
        assert_eq!(up.jitter, SimDuration::from_millis(8));
        assert_eq!(up.duplicate_rate, 0.05);
        assert_eq!(link.effective_condition_down(), Some(down));
        assert_eq!(link.effective_condition_up(), Some(up));
        let reparsed = ScenarioFile::parse(&file.to_toml()).unwrap();
        assert_eq!(reparsed, file);

        // A directional sub-table works without a symmetric base; errors carry the sub-path.
        let text = minimal_gossip() + "[topology.condition.down]\njitter = \"2ms\"\n";
        let file = ScenarioFile::parse(&text).unwrap();
        let link = file.spec.topology.groups[0].link;
        assert_eq!(link.condition, None);
        assert!(link.condition_down.is_some());
        assert_eq!(link.effective_condition_up(), None);
        let reparsed = ScenarioFile::parse(&file.to_toml()).unwrap();
        assert_eq!(reparsed, file);
        let text = minimal_gossip() + "[topology.condition.up]\nduplicate_rate = 1.5\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "topology.condition.up.duplicate_rate");
    }

    #[test]
    fn adversary_section_round_trips() {
        let text = minimal_gossip()
            + "[adversary]\nfraction = 0.25\nbehaviors = [\"silent-drop\", \"equivocate\"]\n";
        let file = ScenarioFile::parse(&text).unwrap();
        let plan = file.spec.adversary.as_ref().expect("plan parsed");
        assert_eq!(plan.fraction, 0.25);
        assert_eq!(plan.behaviors, vec!["silent-drop", "equivocate"]);
        assert_eq!(plan.selection, Selection::Random);
        let reparsed = ScenarioFile::parse(&file.to_toml()).unwrap();
        assert_eq!(reparsed, file);

        let text = minimal_gossip()
            + "[adversary]\nbehaviors = [\"ack-withhold\"]\nselection = \"trace\"\ntrace = [3, 1]\n";
        let file = ScenarioFile::parse(&text).unwrap();
        let plan = file.spec.adversary.as_ref().unwrap();
        assert_eq!(plan.selection, Selection::Trace(vec![3, 1]));
        let reparsed = ScenarioFile::parse(&file.to_toml()).unwrap();
        assert_eq!(reparsed, file);
    }

    #[test]
    fn adversary_section_rejects_bad_inputs() {
        let text = minimal_gossip() + "[adversary]\nfraction = 0.2\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "adversary.behaviors");
        let text = minimal_gossip() + "[adversary]\nbehaviors = [\"omniscient\"]\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert!(err.message.contains("unknown adversary behavior"), "{err}");
        let text =
            minimal_gossip() + "[adversary]\nbehaviors = [\"amplify\"]\nselection = \"psychic\"\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "adversary.selection");
        let text = minimal_gossip() + "[adversary]\nfraction = 1.5\nbehaviors = [\"amplify\"]\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "adversary");
        let text =
            minimal_gossip() + "[adversary]\nbehaviors = [\"amplify\"]\nselection = \"trace\"\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "adversary.trace");
    }

    #[test]
    fn condition_rejects_partial_groups_and_bad_rates() {
        let text = minimal_gossip() + "[topology.condition]\nreorder_rate = 0.1\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert!(err.message.contains("together"), "{err}");
        let text = minimal_gossip() + "[topology.condition]\nburst_enter = 0.1\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert!(err.message.contains("together"), "{err}");
        let text = minimal_gossip() + "[topology.condition]\nduplicate_rate = 1.5\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "topology.condition.duplicate_rate");
    }

    #[test]
    fn transport_rejects_tiny_mtu_and_unknown_controller() {
        let text = minimal_gossip() + "[transport]\nmtu = 16\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "transport.mtu");
        assert!(err.message.contains("at least 64"), "{err}");
        let text = minimal_gossip() + "[transport]\ncongestion = \"bbr\"\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "transport.congestion");
        assert!(err.message.contains("legacy, aimd"), "{err}");
        let text = minimal_gossip() + "[transport]\nreassembly_timeout = \"0s\"\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "transport.reassembly_timeout");
    }

    #[test]
    fn default_transport_section_is_not_emitted() {
        let file = ScenarioFile::parse(&minimal_gossip()).unwrap();
        assert_eq!(file.spec.network.transport, TransportConfig::default());
        let toml = file.to_toml();
        assert!(!toml.contains("[transport]"), "{toml}");
        assert!(!toml.contains("[topology.condition]"), "{toml}");
    }

    #[test]
    fn validate_rejects_too_small_topology() {
        let text = minimal_gossip().replace("link = \"dsl-8m\"", "link = \"dsl-8m\"\nnodes = 4");
        let file = ScenarioFile::parse(&text).unwrap();
        assert_eq!(
            file.validate(),
            Err(ScenarioError::TopologyTooSmall {
                needed: 8,
                available: 4
            })
        );
    }

    #[test]
    fn loss_out_of_range_is_rejected() {
        let text = minimal_gossip().replace("link = \"dsl-8m\"", "link = \"dsl-8m\"\nloss = 1.5");
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "topology.loss");
    }

    #[test]
    fn set_path_overrides_and_creates() {
        let mut root = parse_toml(&minimal_gossip()).unwrap();
        root.set_path(
            "workload.gossip.nodes",
            Spanned {
                value: TomlValue::Int(16),
                line: 0,
            },
        )
        .unwrap();
        root.set_path(
            "scenario.seed",
            Spanned {
                value: TomlValue::Int(5),
                line: 0,
            },
        )
        .unwrap();
        let file = ScenarioFile::from_table(&root).unwrap();
        assert_eq!(file.spec.seed, 5);
        assert_eq!(file.workload.vnodes_required(), 16);
        // Descending through a scalar is an error.
        let err = root
            .set_path(
                "scenario.name.sub",
                Spanned {
                    value: TomlValue::Int(1),
                    line: 0,
                },
            )
            .unwrap_err();
        assert!(err.message.contains("not a table"), "{err}");
    }
}
