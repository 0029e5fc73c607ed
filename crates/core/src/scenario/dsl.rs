//! The declarative scenario language: TOML-subset scenario files parsed into
//! [`ScenarioSpec`] + [`WorkloadConfig`].
//!
//! The paper's pitch is *one platform, many experimental questions* — which only holds if a new
//! experiment is data, not a new bench binary. This module is the front end that makes it so: a
//! hand-rolled parser for a TOML subset (the workspace has no serialization crate, so nothing
//! here can lean on a deserializer) and, on top of it, the description of every section a
//! scenario file can hold:
//!
//! ```toml
//! [scenario]           # name, seed, deadline, sample_interval, machines, event budgets
//! name = "gossip-flash-crowd"
//! deadline = "300s"
//!
//! [topology]           # link profile (or explicit rates), loss, node count
//! link = "dsl-8m"
//!
//! [topology.condition] # optional link conditioner knobs (or `preset = "<name>"`)
//! jitter = "3ms"
//!
//! [transport]          # optional protocol depth: MTU fragmentation + congestion control
//! mtu = 1500
//!
//! [workload]           # which workload runs; its knobs live in [workload.<kind>]
//! kind = "gossip"
//!
//! [workload.gossip]
//! nodes = 40
//!
//! [arrivals]           # optional override of the workload's natural arrival pattern
//! kind = "poisson"
//! rate = 2.0
//!
//! [sessions]           # optional churn process
//! kind = "exponential"
//! mean_session = "120s"
//! mean_downtime = "20s"
//!
//! [adversary]          # optional byzantine fraction and behaviors
//! behaviors = ["silent-drop"]
//! ```
//!
//! **A key is declared once**: one line — `k.opt("fanout", &mut spec.fanout)?` — in the `keys`
//! function next to the struct the key fills (`GossipSpec::keys`,
//! `ArrivalSpec::keys`, `AdversaryPlan::keys`, and here the file-level sections:
//! `scenario_keys`, `topology_keys`, `condition_keys`, `transport_keys`). The line gives the
//! key's name, its type (the place's: see `Value` for how each Rust type is spelled in TOML)
//! and whether it is required; an optional key's default is whatever the spec's constructor
//! put in the place. A scenario file is only ever read: the one interpreter of these
//! descriptions is the reader (`Keys`, run by [`ScenarioFile::from_table`]), and the set of
//! keys a section accepts is the set its description names. Every error carries the
//! offending key's line and dotted path ([`DslError`]); unknown keys are rejected (a typoed key
//! must fail, not silently fall back to a default); and [`ScenarioFile::validate`] runs the
//! checks [`run_scenario`](crate::scenario::run_scenario) makes before it deploys anything.
//!
//! Durations are strings with a unit suffix (`ns`, `us`, `ms`, `s`). The supported TOML subset:
//! `[section]` headers (dotted), `key = value` with dotted keys, basic strings, integers (with
//! `_` separators), floats, booleans, (nested) arrays with optional trailing commas spanning
//! multiple lines, and `#` comments. Not supported: `[[array-of-tables]]`, inline tables,
//! literal/multiline strings, dates.

use crate::adversary::AdversaryPlan;
use crate::report::RunReport;
use crate::scenario::{ArrivalSpec, ScenarioError, ScenarioSpec, SessionProcess};
use crate::workloads::WorkloadConfig;
use p2plab_net::{
    AccessLinkClass, BurstLoss, CcKind, LinkCondition, TopologySpec, TransportConfig,
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
        let mut parents: Vec<&str> = path.split('.').collect();
        let key = parents.pop().expect("split yields at least one part");
        let mut table = self;
        for part in parents {
            table = table.child(part, value.line).map_err(|(line, found)| {
                let message = format!("cannot descend into `{part}`: it is a {found}, not a table");
                DslError::new(line, path, message)
            })?;
        }
        match table.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => table.entries.push((key.to_string(), value)),
        }
        Ok(())
    }

    /// The table under `key`, opened at `line` when the key is absent; when the key holds
    /// something else, that entry's line and type name.
    fn child(&mut self, key: &str, line: usize) -> Result<&mut TomlTable, (usize, &'static str)> {
        let idx = match self.entries.iter().position(|(k, _)| k == key) {
            Some(idx) => idx,
            None => {
                let entries = Vec::new();
                let value = TomlValue::Table(TomlTable { entries, line });
                self.entries
                    .push((key.to_string(), Spanned { value, line }));
                self.entries.len() - 1
            }
        };
        let entry = &mut self.entries[idx].1;
        match &mut entry.value {
            TomlValue::Table(table) => Ok(table),
            other => Err((entry.line, other.type_name())),
        }
    }
}

/// Recursively flattens a table of overrides into `(dotted path, value)` pairs in file order.
/// Every leaf is one literal value — an array included (a `behaviors` list is one override).
pub(crate) fn flatten_overrides(
    table: &TomlTable,
    path_prefix: &str,
    out: &mut Vec<(String, Spanned)>,
) {
    for (key, spanned) in table.entries() {
        let path = join(path_prefix, key);
        match &spanned.value {
            TomlValue::Table(t) => flatten_overrides(t, &path, out),
            _ => out.push((path, spanned.clone())),
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
        table = table.child(part, line).map_err(|(_, found)| {
            let message = format!("already defined as a {found}, not a table");
            DslError::new(line, path[..=depth].join("."), message)
        })?;
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
        let parts: Vec<&str> = prefix
            .iter()
            .chain(&path[..depth])
            .map(String::as_str)
            .collect();
        parts.join(".")
    };
    let (key, parents) = path.split_last().expect("key paths are never empty");
    let line = value.line;
    let mut table = table;
    for (depth, part) in parents.iter().enumerate() {
        table = table.child(part, line).map_err(|(_, found)| {
            let message = format!("already defined as a {found}, not a table");
            DslError::new(line, full_path(depth + 1), message)
        })?;
    }
    if table.entries.iter().any(|(k, _)| k == key) {
        return Err(DslError::new(line, full_path(path.len()), "duplicate key"));
    }
    table.entries.push((key.clone(), value));
    Ok(())
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

/// How a Rust type is spelled as a TOML value. [`decode`](Value::decode) reports a mismatch at
/// the value's own line under `path`.
pub(crate) trait Value: Sized {
    /// Reads the value, or says what is wrong with `s`.
    fn decode(s: &Spanned, path: &str) -> Result<Self, DslError>;
}

fn mismatch(s: &Spanned, path: &str, wanted: &str) -> DslError {
    let found = s.value.type_name();
    DslError::new(s.line, path, format!("expected {wanted}, found {found}"))
}

impl Value for String {
    fn decode(s: &Spanned, path: &str) -> Result<String, DslError> {
        match &s.value {
            TomlValue::Str(v) => Ok(v.clone()),
            _ => Err(mismatch(s, path, "a string")),
        }
    }
}

impl Value for u64 {
    fn decode(s: &Spanned, path: &str) -> Result<u64, DslError> {
        match s.value {
            TomlValue::Int(i) => u64::try_from(i)
                .map_err(|_| DslError::new(s.line, path, "expected a non-negative integer")),
            _ => Err(mismatch(s, path, "an integer")),
        }
    }
}

impl Value for usize {
    fn decode(s: &Spanned, path: &str) -> Result<usize, DslError> {
        u64::decode(s, path).map(|v| v as usize)
    }
}

impl Value for u32 {
    fn decode(s: &Spanned, path: &str) -> Result<u32, DslError> {
        u32::try_from(u64::decode(s, path)?)
            .map_err(|_| DslError::new(s.line, path, "value does not fit in 32 bits"))
    }
}

impl Value for f64 {
    fn decode(s: &Spanned, path: &str) -> Result<f64, DslError> {
        match s.value {
            TomlValue::Float(v) => Ok(v),
            TomlValue::Int(i) => Ok(i as f64),
            _ => Err(mismatch(s, path, "a number")),
        }
    }
}

impl Value for bool {
    fn decode(s: &Spanned, path: &str) -> Result<bool, DslError> {
        match s.value {
            TomlValue::Bool(v) => Ok(v),
            _ => Err(mismatch(s, path, "a boolean")),
        }
    }
}

impl Value for SimDuration {
    fn decode(s: &Spanned, path: &str) -> Result<SimDuration, DslError> {
        match &s.value {
            TomlValue::Str(text) => {
                parse_duration(text).map_err(|e| DslError::new(s.line, path, e))
            }
            _ => Err(mismatch(s, path, "a duration string like \"30s\"")),
        }
    }
}

impl<V: Value> Value for Option<V> {
    fn decode(s: &Spanned, path: &str) -> Result<Option<V>, DslError> {
        V::decode(s, path).map(Some)
    }
}

/// An array; a bad element is reported at its own line as `path[i]`.
impl<V: Value> Value for Vec<V> {
    fn decode(s: &Spanned, path: &str) -> Result<Vec<V>, DslError> {
        let TomlValue::Array(items) = &s.value else {
            return Err(mismatch(s, path, "an array"));
        };
        let element = |(i, item)| V::decode(item, &format!("{path}[{i}]"));
        items.iter().enumerate().map(element).collect()
    }
}

/// One `[session, downtime]` entry of a session trace.
impl Value for (SimDuration, SimDuration) {
    fn decode(s: &Spanned, path: &str) -> Result<Self, DslError> {
        match &s.value {
            TomlValue::Array(pair) if pair.len() == 2 => Ok((
                SimDuration::decode(&pair[0], path)?,
                SimDuration::decode(&pair[1], path)?,
            )),
            _ => Err(mismatch(s, path, "a [session, downtime] duration pair")),
        }
    }
}

/// A value written as one of a closed set of names — link profiles, congestion controllers,
/// mesh patterns. The `impl` is the only place the set is spelled: reading and the
/// `unknown <what> "x" (known: ...)` error both come from it.
pub(crate) trait Named: Sized {
    /// What the names denote, for the error message.
    const WHAT: &'static str;
    /// Every legal name with the value it stands for.
    fn names() -> Vec<(&'static str, Self)>;
}

impl<T: Named> Value for T {
    fn decode(s: &Spanned, path: &str) -> Result<T, DslError> {
        let name = String::decode(s, path)?;
        let mut names = T::names();
        match names.iter().position(|(known, _)| *known == name) {
            Some(i) => Ok(names.swap_remove(i).1),
            None => {
                let known = names.iter().map(|(known, _)| *known);
                Err(DslError::new(s.line, path, unknown(T::WHAT, &name, known)))
            }
        }
    }
}

fn unknown<'a>(what: &str, name: &str, known: impl Iterator<Item = &'a str>) -> String {
    let known: Vec<&str> = known.collect();
    format!("unknown {what} {name:?} (known: {})", known.join(", "))
}

fn join(path: &str, key: &str) -> String {
    match (path.is_empty(), key.is_empty()) {
        (false, false) => format!("{path}.{key}"),
        _ => format!("{path}{key}"),
    }
}

/// The table behind a section's key.
pub(crate) fn table_of<'a>(s: &'a Spanned, path: &str) -> Result<&'a TomlTable, DslError> {
    match &s.value {
        TomlValue::Table(table) => Ok(table),
        _ => Err(mismatch(s, path, "a table")),
    }
}

/// What a section's description — a `fn(&mut Keys, &mut T)` naming each key of the section once,
/// next to the place in `T` the key fills — runs against: the reader. It walks a parsed table:
/// a key's value is decoded into its place, a place whose key is absent keeps what its spec
/// constructor put there, and once the description has run every key it did not name is
/// rejected. The key methods return whether the key was present.
pub(crate) struct Keys<'a> {
    path: String,
    /// The table being read.
    source: &'a TomlTable,
    /// Every key the description has named so far.
    named: Vec<&'static str>,
    /// Only learning which keys a description names: nothing is decoded.
    naming_only: bool,
}

/// The description of a section filling a `T`.
pub(crate) type Describe<T> = fn(&mut Keys, &mut T) -> Result<(), DslError>;

/// A closed set of names, each with the constructor of the value it stands for: the variants
/// of a [tagged](Keys::tagged) section (each `kind` with the blank value the variant's keys are
/// read over), the link profiles, the conditioner presets.
pub(crate) type Kinds<T> = [(&'static str, fn() -> T)];

/// The table a tagged section's selected variant reads its keys from when the file has none.
static ABSENT: TomlTable = TomlTable {
    entries: Vec::new(),
    line: 0,
};

/// The key that selects the variant of a [tagged](Keys::tagged) section.
const KIND: &str = "kind";

impl<'a> Keys<'a> {
    fn new(source: &'a TomlTable, path: String) -> Keys<'a> {
        Keys {
            path,
            source,
            named: Vec::new(),
            naming_only: false,
        }
    }

    /// An error about the section (`key` empty) or a key missing from it, at the header's line.
    pub(crate) fn error(&self, key: &str, message: impl Into<String>) -> DslError {
        DslError::new(self.source.line, join(&self.path, key), message)
    }

    /// Names `key` and hands back its entry when the file has one and this pass decodes.
    fn entry(
        &mut self,
        key: &'static str,
        required: bool,
    ) -> Result<Option<&'a Spanned>, DslError> {
        self.named.push(key);
        match self.source.get(key) {
            _ if self.naming_only => Ok(None),
            None if required => Err(self.error(key, "missing required key")),
            found => Ok(found),
        }
    }

    /// One key. `check` validates a decoded value; its message is reported at the key's line.
    fn key<V: Value>(
        &mut self,
        key: &'static str,
        place: &mut V,
        required: bool,
        check: fn(&V) -> Result<(), String>,
    ) -> Result<bool, DslError> {
        let Some(s) = self.entry(key, required)? else {
            return Ok(false);
        };
        let path = join(&self.path, key);
        let value = V::decode(s, &path)?;
        check(&value).map_err(|message| DslError::new(s.line, path, message))?;
        *place = value;
        Ok(true)
    }

    /// An optional key: when absent, `place` keeps its value.
    pub(crate) fn opt<V: Value>(
        &mut self,
        key: &'static str,
        place: &mut V,
    ) -> Result<bool, DslError> {
        self.key(key, place, false, |_| Ok(()))
    }

    /// A required key.
    pub(crate) fn req<V: Value>(
        &mut self,
        key: &'static str,
        place: &mut V,
    ) -> Result<bool, DslError> {
        self.key(key, place, true, |_| Ok(()))
    }

    /// A required key whose value must pass `check`.
    pub(crate) fn req_checked<V: Value>(
        &mut self,
        key: &'static str,
        place: &mut V,
        check: fn(&V) -> Result<(), String>,
    ) -> Result<bool, DslError> {
        self.key(key, place, true, check)
    }

    /// An optional key whose value must pass `check`.
    pub(crate) fn checked<V: Value>(
        &mut self,
        key: &'static str,
        place: &mut V,
        check: fn(&V) -> Result<(), String>,
    ) -> Result<bool, DslError> {
        self.key(key, place, false, check)
    }

    /// A sub-table, described by `keys`.
    fn table<T>(
        &mut self,
        key: &'static str,
        place: &mut T,
        required: bool,
        keys: Describe<T>,
    ) -> Result<bool, DslError> {
        let Some(s) = self.entry(key, required)? else {
            return Ok(false);
        };
        let path = join(&self.path, key);
        read_section(table_of(s, &path)?, path, place, keys)?;
        Ok(true)
    }

    /// An optional sub-table filling an `Option`: present, it is read over `blank()`.
    fn optional<T>(
        &mut self,
        key: &'static str,
        place: &mut Option<T>,
        blank: fn() -> T,
        keys: Describe<T>,
    ) -> Result<(), DslError> {
        let mut value = blank();
        if self.table(key, &mut value, false, keys)? {
            *place = Some(value);
        }
        Ok(())
    }

    /// The keys of a section that fills an enum: [`KIND`] names one of `kinds`, whose blank
    /// value `keys` — the description of every variant — then fills; the variant's keys sit next
    /// to `kind` or, `nested`, in a sub-table named after the kind. Campaign matrices sweep
    /// `kind` over one shared section, so **every** variant's keys (or sub-table) are legal in
    /// it, but only the selected variant's are read. The variants' key sets are disjoint, so a
    /// typoed key still fails as unknown.
    pub(crate) fn tagged<T>(
        &mut self,
        what: &str,
        place: &mut T,
        kinds: &Kinds<T>,
        nested: bool,
        keys: Describe<T>,
    ) -> Result<(), DslError> {
        let mut kind = String::new();
        self.req(KIND, &mut kind)?;
        let Some((kind, blank)) = kinds.iter().find(|(known, _)| *known == kind) else {
            let line = self.source.get(KIND).map_or(0, |s| s.line);
            let message = unknown(&format!("{what} kind"), &kind, kinds.iter().map(|k| k.0));
            return Err(DslError::new(line, join(&self.path, KIND), message));
        };
        *place = blank();
        if nested {
            self.named.extend(kinds.iter().map(|(known, _)| *known));
            let path = join(&self.path, kind);
            let params = match self.source.get(kind) {
                Some(s) => table_of(s, &path)?,
                None => &ABSENT,
            };
            return read_section(params, path, place, keys);
        }
        self.naming_only = true;
        for (_, other) in kinds {
            keys(self, &mut other())?;
        }
        self.naming_only = false;
        keys(self, place)
    }

    /// Fails on the first key of the table no description named — a typoed key must fail
    /// loudly, with its line, instead of silently falling back to a default.
    fn finish(self) -> Result<(), DslError> {
        let unnamed = |(key, _): &&(String, Spanned)| !self.named.contains(&key.as_str());
        match self.source.entries.iter().find(unnamed) {
            Some((key, s)) => Err(DslError::new(s.line, join(&self.path, key), "unknown key")),
            None => Ok(()),
        }
    }
}

/// Runs the reader over one table: every key `keys` names is decoded into `place`, every
/// other key is rejected.
pub(crate) fn read_section<T>(
    table: &TomlTable,
    path: impl Into<String>,
    place: &mut T,
    keys: Describe<T>,
) -> Result<(), DslError> {
    let mut reader = Keys::new(table, path.into());
    keys(&mut reader, place)?;
    reader.finish()
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

/// The named access-link profiles a scenario file can reference by string, each with the
/// [`AccessLinkClass`] constructor of the same name.
pub const LINK_PROFILES: &Kinds<AccessLinkClass> = &[
    ("bittorrent-dsl", AccessLinkClass::bittorrent_dsl),
    ("modem-56k", AccessLinkClass::modem_56k),
    ("dsl-512k", AccessLinkClass::dsl_512k),
    ("dsl-8m", AccessLinkClass::dsl_8m),
    ("lan-10m", AccessLinkClass::lan_10m),
    ("wan-1m", AccessLinkClass::wan_1m),
];

/// The named link-conditioner presets a `[topology.condition]` section can reference with
/// `preset = "<name>"` instead of spelling out every knob.
pub const CONDITION_PRESETS: &Kinds<LinkCondition> = &[
    // No conditioning at all — the baseline value a campaign matrix sweeps against.
    ("clean", LinkCondition::none),
    // Wide uniform jitter, as seen on loaded consumer uplinks.
    ("jittery-dsl", || {
        LinkCondition::none().with_jitter(SimDuration::from_millis(5))
    }),
    // Gilbert–Elliott bursts: rare entry, short bad periods, near-total loss inside them.
    ("burst-loss", || {
        LinkCondition::none().with_burst(BurstLoss::new(0.02, 0.25, 0.9))
    }),
    // Both at once — the hostile-path profile the protocol-depth demos use.
    ("jitter-burst", || {
        LinkCondition::none()
            .with_jitter(SimDuration::from_millis(3))
            .with_burst(BurstLoss::new(0.05, 0.25, 0.9))
    }),
];

/// Validator of the probability knobs: within `[0, 1]`, checked before the value reaches a
/// builder that would panic on it.
fn rate(rate: &f64) -> Result<(), String> {
    if (0.0..=1.0).contains(rate) {
        return Ok(());
    }
    Err(format!("rate must be within [0, 1], got {rate}"))
}

/// `[scenario]`. The rest of a [`ScenarioSpec`] comes from the file's other sections; the
/// defaults are [`ScenarioSpec::new`]'s.
fn scenario_keys(k: &mut Keys, spec: &mut ScenarioSpec) -> Result<(), DslError> {
    k.req("name", &mut spec.name)?;
    k.opt("seed", &mut spec.seed)?;
    k.opt("machines", &mut spec.deployment.machines)?;
    k.opt("deadline", &mut spec.deadline)?;
    k.opt("sample_interval", &mut spec.sample_interval)?;
    k.opt("monitor_resources", &mut spec.monitor_resources)?;
    k.opt("event_budget", &mut spec.event_budget)?;
    k.opt("shards", &mut spec.shards)?;
    Ok(())
}

/// A named access-link profile (`link = "dsl-8m"`).
struct Profile(AccessLinkClass);

impl Named for Profile {
    const WHAT: &'static str = "link profile";
    fn names() -> Vec<(&'static str, Profile)> {
        LINK_PROFILES
            .iter()
            .map(|&(name, link)| (name, Profile(link())))
            .collect()
    }
}

/// A named conditioner preset (`preset = "burst-loss"`).
struct Preset(LinkCondition);

impl Named for Preset {
    const WHAT: &'static str = "condition preset";
    fn names() -> Vec<(&'static str, Preset)> {
        CONDITION_PRESETS
            .iter()
            .map(|&(name, preset)| (name, Preset(preset())))
            .collect()
    }
}

/// The knob set of the conditioner table `[topology.condition]`.
fn condition_keys(k: &mut Keys, c: &mut LinkCondition) -> Result<(), DslError> {
    // A preset stands for the whole knob set: next to one the explicit knobs are never named,
    // so they are unknown keys.
    let mut preset = None;
    k.opt("preset", &mut preset)?;
    if let Some(Preset(preset)) = preset {
        *c = preset;
        return Ok(());
    }
    k.opt("jitter", &mut c.jitter)?;
    k.checked("duplicate_rate", &mut c.duplicate_rate, rate)?;
    // The reorder pair and the burst triple each come complete or not at all.
    let reorder = [
        k.checked("reorder_rate", &mut c.reorder_rate, rate)?,
        k.opt("reorder_delay", &mut c.reorder_delay)?,
    ];
    if reorder[0] != reorder[1] {
        return Err(k.error("", "reorder_rate and reorder_delay must be given together"));
    }
    let mut burst = BurstLoss {
        enter: 0.0,
        exit: 0.0,
        loss: 0.0,
    };
    let given = [
        k.checked("burst_enter", &mut burst.enter, rate)?,
        k.checked("burst_exit", &mut burst.exit, rate)?,
        k.checked("burst_loss", &mut burst.loss, rate)?,
    ];
    match given {
        [false, false, false] => {}
        [true, true, true] => c.burst = Some(burst),
        _ => {
            let message = "burst_enter, burst_exit and burst_loss must be given together";
            return Err(k.error("", message));
        }
    }
    Ok(())
}

/// `[topology]`: the access link every node gets and, optionally, how many nodes there are
/// (by default as many as the workload needs).
struct Topology {
    nodes: Option<usize>,
    link: AccessLinkClass,
}

fn topology_keys(k: &mut Keys, topology: &mut Topology) -> Result<(), DslError> {
    const LINK: &str = "link";
    k.opt("nodes", &mut topology.nodes)?;
    // The link is a named profile or three explicit keys.
    let mut profile = None;
    let mut rates = (None, None, None);
    k.opt(LINK, &mut profile)?;
    k.opt("down_bps", &mut rates.0)?;
    k.opt("up_bps", &mut rates.1)?;
    k.opt("latency", &mut rates.2)?;
    let link = &mut topology.link;
    *link = match (profile, rates) {
        (Some(Profile(link)), (None, None, None)) => link,
        (None, (Some(down), Some(up), Some(latency))) => AccessLinkClass::new(down, up, latency),
        (Some(_), _) => {
            let message = "a named link profile cannot be combined with down_bps/up_bps/latency";
            return Err(k.error(LINK, message));
        }
        _ => {
            let message = "topology needs either `link = \"<profile>\"` or all of down_bps, up_bps and latency";
            return Err(k.error(LINK, message));
        }
    };
    k.checked("loss", &mut link.loss_rate, rate)?;
    k.optional(
        "condition",
        &mut link.condition,
        LinkCondition::none,
        condition_keys,
    )?;
    // Inert conditioners normalize away.
    *link = link.with_condition(link.condition);
    Ok(())
}

/// The smallest MTU a `[transport]` section may configure: below this, the 8-byte fragment
/// header dominates every frame and 16-bit fragment counts overflow on realistic messages.
pub const MIN_MTU: u64 = 64;

/// `[transport]`; the defaults are [`TransportConfig::default`]'s.
fn transport_keys(k: &mut Keys, t: &mut TransportConfig) -> Result<(), DslError> {
    k.checked("mtu", &mut t.mtu, |mtu| match mtu {
        Some(mtu) if *mtu < MIN_MTU => {
            Err(format!("mtu must be at least {MIN_MTU} bytes, got {mtu}"))
        }
        _ => Ok(()),
    })?;
    k.opt("congestion", &mut t.congestion)?;
    Ok(())
}

impl Named for CcKind {
    const WHAT: &'static str = "congestion controller";
    fn names() -> Vec<(&'static str, CcKind)> {
        [CcKind::Legacy, CcKind::Aimd]
            .map(|kind| (kind.name(), kind))
            .into()
    }
}

/// A fully parsed scenario file: the [`ScenarioSpec`] plus the workload to run under it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// The scenario spec built from the file's `[scenario]`, `[topology]`, `[transport]`,
    /// `[arrivals]`, `[sessions]` and `[adversary]` sections.
    pub spec: ScenarioSpec,
    /// The workload configuration built from `[workload]` / `[workload.<kind>]`.
    pub workload: WorkloadConfig,
}

/// The root table: the sections of a scenario file.
fn file_keys(k: &mut Keys, file: &mut ScenarioFile) -> Result<(), DslError> {
    let spec = &mut file.spec;
    k.table("scenario", spec, true, scenario_keys)?;
    // The DSL's topology is one uniform group, named after the scenario and sized, by
    // default, by the workload. `topology_keys` always replaces the placeholder link.
    let mut topology = Topology {
        nodes: None,
        link: AccessLinkClass::bittorrent_dsl(),
    };
    k.table("topology", &mut topology, true, topology_keys)?;
    k.table(
        "transport",
        &mut spec.network.transport,
        false,
        transport_keys,
    )?;
    k.table(
        "workload",
        &mut file.workload,
        true,
        WorkloadConfig::section,
    )?;
    // A tagged section replaces its blank by the selected kind's, so any kind's will do.
    let (arrivals, sessions) = (ArrivalSpec::KINDS[0].1, SessionProcess::KINDS[0].1);
    k.optional(
        "arrivals",
        &mut spec.arrivals,
        arrivals,
        ArrivalSpec::section,
    )?;
    k.optional(
        "sessions",
        &mut spec.sessions,
        sessions,
        SessionProcess::section,
    )?;
    let honest = || AdversaryPlan::new(0.0, &[]);
    k.optional(
        "adversary",
        &mut spec.adversary,
        honest,
        AdversaryPlan::keys,
    )?;
    let nodes = topology
        .nodes
        .unwrap_or_else(|| file.workload.vnodes_required());
    spec.topology = TopologySpec::uniform(&spec.name, nodes, topology.link);
    Ok(())
}

impl ScenarioFile {
    /// Parses a scenario file from TOML source.
    pub fn parse(text: &str) -> Result<ScenarioFile, DslError> {
        let root = parse_toml(text)?;
        ScenarioFile::from_table(&root)
    }

    /// Parses a scenario file with `overrides` applied: a TOML snippet of dotted keys
    /// (`workload.swarm.leechers = 40`), applied exactly as a campaign applies a
    /// `[cells.<label>]` table. Each key is set into the file's table, which then goes through
    /// the strict reader: an unknown key or a bad value is a [`DslError`] naming its path, an
    /// override may add a section the file lacks, and a topology without `nodes` is sized by
    /// the overridden workload.
    pub fn parse_with(text: &str, overrides: &str) -> Result<ScenarioFile, DslError> {
        let mut flat = Vec::new();
        flatten_overrides(&parse_toml(overrides)?, "", &mut flat);
        ScenarioFile::with_overrides(parse_toml(text)?, &flat)
    }

    /// Sets each dotted `(path, value)` override into `table` and reads the result: the one
    /// path of [`parse_with`](ScenarioFile::parse_with) and of a campaign's cells.
    pub(crate) fn with_overrides(
        mut table: TomlTable,
        overrides: &[(String, Spanned)],
    ) -> Result<ScenarioFile, DslError> {
        for (path, value) in overrides {
            table.set_path(path, value.clone())?;
        }
        ScenarioFile::from_table(&table)
    }

    /// Builds a scenario from an already-parsed table (campaign expansion re-enters here for
    /// every grid cell, after applying the cell's overrides).
    pub fn from_table(root: &TomlTable) -> Result<ScenarioFile, DslError> {
        // Every section overwrites its part of this blank; the required ones all of it.
        let mut file = ScenarioFile {
            spec: ScenarioSpec::new("", TopologySpec::new()),
            workload: (WorkloadConfig::KINDS[0].1)(),
        };
        read_section(root, "", &mut file, file_keys)?;
        Ok(file)
    }

    /// Makes the checks [`run_scenario`](crate::scenario::run_scenario) makes before it
    /// deploys anything: the spec's internal consistency, the topology's size, the arrival
    /// schedule against the deadline, the adversary plan against the workload, and churn and
    /// shard count against the workload's execution path. A file that passes can still fail
    /// only at deployment ([`ScenarioError::DeploymentFailed`]).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.workload.validate(&self.spec)
    }

    /// Runs the scenario, returning the run's [`RunReport`]; the runner performs
    /// [`validate`](ScenarioFile::validate)'s checks first.
    pub fn run(&self) -> Result<RunReport, ScenarioError> {
        self.workload.run(&self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Selection;

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
    fn duration_literals_parse() {
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
        for (kind, _) in WorkloadConfig::KINDS {
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
        for &(name, link) in LINK_PROFILES {
            let text = minimal_gossip().replace("\"dsl-8m\"", &format!("{name:?}"));
            let file = ScenarioFile::parse(&text).unwrap();
            assert_eq!(file.spec.topology.groups()[0].link, link());
        }
    }

    #[test]
    fn full_scenario_parses() {
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
    }

    #[test]
    fn trace_arrivals_and_sessions_parse() {
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
        let pair = |session, downtime| {
            let secs = SimDuration::from_secs;
            (secs(session), secs(downtime))
        };
        assert_eq!(
            file.spec.sessions,
            Some(SessionProcess::Trace {
                pairs: vec![pair(10, 1), pair(20, 2)]
            })
        );
    }

    #[test]
    fn condition_and_transport_sections_parse() {
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
               congestion = \"aimd\"\n";
        let file = ScenarioFile::parse(&text).unwrap();
        let link = file.spec.topology.groups()[0].link;
        let c = link.condition.expect("condition was configured");
        assert_eq!(c.jitter, SimDuration::from_millis(3));
        assert_eq!(c.reorder_rate, 0.02);
        assert_eq!(c.duplicate_rate, 0.01);
        let b = c.burst.expect("burst was configured");
        assert_eq!((b.enter, b.exit, b.loss), (0.05, 0.25, 0.9));
        let t = file.spec.network.transport;
        assert_eq!(t.mtu, Some(1500));
        assert_eq!(t.congestion, CcKind::Aimd);
        assert!(t.active());
    }

    #[test]
    fn condition_presets_resolve() {
        for &(name, preset) in CONDITION_PRESETS {
            let preset = preset();
            let text = minimal_gossip() + &format!("[topology.condition]\npreset = {name:?}\n");
            let file = ScenarioFile::parse(&text).unwrap();
            // Inert presets ("clean") normalize away; real ones survive verbatim.
            let want = if preset.is_noop() { None } else { Some(preset) };
            assert_eq!(file.spec.topology.groups()[0].link.condition, want);
        }
        let text = minimal_gossip() + "[topology.condition]\npreset = \"solar-flare\"\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "topology.condition.preset");
        for &(name, _) in CONDITION_PRESETS {
            assert!(err.message.contains(name), "{err}");
        }
        // A preset cannot be combined with explicit knobs.
        let text =
            minimal_gossip() + "[topology.condition]\npreset = \"burst-loss\"\njitter = \"1ms\"\n";
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert!(err.message.contains("unknown key"), "{err}");
    }

    #[test]
    fn adversary_section_parses() {
        let text = minimal_gossip()
            + "[adversary]\nfraction = 0.25\nbehaviors = [\"silent-drop\", \"equivocate\"]\n";
        let file = ScenarioFile::parse(&text).unwrap();
        let plan = file.spec.adversary.as_ref().expect("plan parsed");
        assert_eq!(plan.fraction, 0.25);
        assert_eq!(plan.behaviors, vec!["silent-drop", "equivocate"]);
        assert_eq!(plan.selection, Selection::Random);

        let text = minimal_gossip()
            + "[adversary]\nbehaviors = [\"ack-withhold\"]\nselection = \"trace\"\ntrace = [3, 1]\n";
        let file = ScenarioFile::parse(&text).unwrap();
        let plan = file.spec.adversary.as_ref().unwrap();
        assert_eq!(plan.selection, Selection::Trace(vec![3, 1]));
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
    fn workload_kinds_match_the_registry() {
        for (kind, blank) in WorkloadConfig::KINDS {
            assert_eq!(blank().kind(), *kind);
        }
    }

    #[test]
    fn loss_out_of_range_is_rejected() {
        let text = minimal_gossip().replace("link = \"dsl-8m\"", "link = \"dsl-8m\"\nloss = 1.5");
        let err = ScenarioFile::parse(&text).unwrap_err();
        assert_eq!(err.path, "topology.loss");
    }

    /// `minimal_gossip()` (8 lines) with `suffix` appended: the suffix starts on line 9.
    fn plus(suffix: &str) -> String {
        minimal_gossip() + suffix
    }

    /// `minimal_gossip()` with the first occurrence of `from` replaced by `to`.
    fn swap(from: &str, to: &str) -> String {
        assert!(minimal_gossip().contains(from), "{from:?} not in the base");
        minimal_gossip().replacen(from, to, 1)
    }

    /// One row per schema rule: `(file, line, dotted key path, message fragment)`. The line is
    /// always the offending key's own (or, for rules about a whole section — a missing key, a
    /// partial knob group — the section header's; 0 when the section itself is absent).
    fn error_corpus() -> Vec<(String, usize, &'static str, &'static str)> {
        let churn = "[sessions]\nkind = \"exponential\"\nmean_session = \"9s\"\n";
        vec![
            // Unknown keys, one per section (and the root).
            (plus("fanouts = 3\n"), 9, "workload.gossip.fanouts", "unknown key"),
            (plus("[mystery]\nx = 1\n"), 9, "mystery", "unknown key"),
            (swap("name = \"g\"\n", "name = \"g\"\nsede = 1\n"), 3, "scenario.sede", "unknown key"),
            (swap("[workload]\n", "bps = 1\n[workload]\n"), 5, "topology.bps", "unknown key"),
            (swap("kind = \"gossip\"\n", "kind = \"gossip\"\nkin = 1\n"), 7, "workload.kin", "unknown key"),
            (plus("[transport]\nmtu = 1500\nmss = 1\n"), 11, "transport.mss", "unknown key"),
            (plus("[arrivals]\nkind = \"poisson\"\nrate = 1.0\nrat = 2\n"), 12, "arrivals.rat", "unknown key"),
            (plus(&format!("{churn}mean_downtime = \"1s\"\nmean = 1\n")), 13, "sessions.mean", "unknown key"),
            (plus("[adversary]\nbehaviors = [\"amplify\"]\nfrac = 0.1\n"), 11, "adversary.frac", "unknown key"),
            (plus("[topology.condition]\njiter = \"1ms\"\n"), 10, "topology.condition.jiter", "unknown key"),
            // A link has one conditioner, which both directions take.
            (plus("[topology.condition.down]\njitter = \"1ms\"\n"), 9, "topology.condition.down", "unknown key"),
            // Settings with one value in use are constants, not keys.
            (plus("[workload.dht-lookup]\nnodes = 8\nrpc_attempts = 0\n").replace("\"gossip\"", "\"dht-lookup\""), 11, "workload.dht-lookup.rpc_attempts", "unknown key"),
            (plus("[workload.dht-lookup]\nnodes = 8\nrpc_attempts = 5000000000\n").replace("\"gossip\"", "\"dht-lookup\""), 11, "workload.dht-lookup.rpc_attempts", "unknown key"),
            (plus("[workload.ping-mesh]\nnodes = 4\nstagger = \"1ms\"\n").replace("\"gossip\"", "\"ping-mesh\""), 11, "workload.ping-mesh.stagger", "unknown key"),
            (plus("[workload.ping-mesh]\nnodes = 4\npacket_bytes = 56\n").replace("\"gossip\"", "\"ping-mesh\""), 11, "workload.ping-mesh.packet_bytes", "unknown key"),
            // A preset stands for the whole knob set: an explicit knob next to it is unknown.
            (plus("[topology.condition]\npreset = \"clean\"\njitter = \"1ms\"\n"), 11, "topology.condition.jitter", "unknown key"),
            // A selection-trace index list without `selection = "trace"` is unknown.
            (plus("[adversary]\nbehaviors = [\"amplify\"]\ntrace = [1]\n"), 11, "adversary.trace", "unknown key"),
            // Wrong types, one per value type.
            (swap("nodes = 8", "nodes = \"eight\""), 8, "workload.gossip.nodes", "expected an integer, found string"),
            (swap("name = \"g\"", "name = 5"), 2, "scenario.name", "expected a string, found integer"),
            (swap("name = \"g\"\n", "name = \"g\"\ndeadline = 30\n"), 3, "scenario.deadline", "expected a duration string"),
            (swap("name = \"g\"\n", "name = \"g\"\ndeadline = \"30\"\n"), 3, "scenario.deadline", "unit suffix"),
            (swap("name = \"g\"\n", "name = \"g\"\nmonitor_resources = 1\n"), 3, "scenario.monitor_resources", "expected a boolean, found integer"),
            (swap("[workload]\n", "loss = \"high\"\n[workload]\n"), 5, "topology.loss", "expected a number, found string"),
            (plus("[arrivals]\nkind = \"trace\"\ntimes = \"1s\"\n"), 11, "arrivals.times", "expected an array, found string"),
            (format!("transport = 3\n{}", minimal_gossip()), 1, "transport", "expected a table, found integer"),
            // Negative and oversized integers.
            (swap("name = \"g\"\n", "name = \"g\"\nseed = -1\n"), 3, "scenario.seed", "non-negative"),
            (plus("[workload.gossip-sharded]\nnodes = 8\nrounds = 5000000000\n").replace("\"gossip\"", "\"gossip-sharded\""), 11, "workload.gossip-sharded.rounds", "32 bits"),
            // Missing required keys and sections.
            (swap("name = \"g\"\n", ""), 1, "scenario.name", "missing required key"),
            (swap("[topology]\nlink = \"dsl-8m\"\n", ""), 0, "topology", "missing required key"),
            (swap("kind = \"gossip\"\n", ""), 5, "workload.kind", "missing required key"),
            (swap("nodes = 8\n", ""), 7, "workload.gossip.nodes", "missing required key"),
            (swap("[workload.gossip]\nnodes = 8\n", ""), 0, "workload.gossip.nodes", "missing required key"),
            (plus("[workload.swarm]\nseeders = 2\n").replace("\"gossip\"", "\"swarm\""), 9, "workload.swarm.leechers", "missing required key"),
            (plus("[workload.ping-mesh]\n").replace("\"gossip\"", "\"ping-mesh\""), 9, "workload.ping-mesh.nodes", "missing required key"),
            (plus("[workload.dht-lookup]\n").replace("\"gossip\"", "\"dht-lookup\""), 9, "workload.dht-lookup.nodes", "missing required key"),
            (plus("[workload.gossip-sharded]\n").replace("\"gossip\"", "\"gossip-sharded\""), 9, "workload.gossip-sharded.nodes", "missing required key"),
            (plus("[arrivals]\nrate = 1.0\n"), 9, "arrivals.kind", "missing required key"),
            (plus("[arrivals]\nkind = \"poisson\"\n"), 9, "arrivals.rate", "missing required key"),
            (plus("[arrivals]\nkind = \"ramp\"\n"), 9, "arrivals.interval", "missing required key"),
            (plus("[arrivals]\nkind = \"flash-crowd\"\ntrickle_rate = 1.0\nburst_rate = 9.0\n"), 9, "arrivals.trigger", "missing required key"),
            (plus("[arrivals]\nkind = \"trace\"\n"), 9, "arrivals.times", "missing required key"),
            (plus("[sessions]\nmean_session = \"9s\"\n"), 9, "sessions.kind", "missing required key"),
            (plus(churn), 9, "sessions.mean_downtime", "missing required key"),
            (plus("[sessions]\nkind = \"pareto\"\nshape = 2.0\nmean_downtime = \"1s\"\n"), 9, "sessions.scale_session", "missing required key"),
            (plus("[sessions]\nkind = \"trace\"\n"), 9, "sessions.pairs", "missing required key"),
            (plus("[adversary]\nfraction = 0.2\n"), 9, "adversary.behaviors", "missing required key"),
            (plus("[adversary]\nbehaviors = [\"amplify\"]\nselection = \"trace\"\n"), 9, "adversary.trace", "missing required key"),
            // A named link profile and explicit rates are exclusive; one of them is required.
            (swap("link = \"dsl-8m\"", "link = \"dsl-8m\"\ndown_bps = 1000"), 3, "topology.link", "cannot be combined"),
            (swap("link = \"dsl-8m\"", "down_bps = 1000"), 3, "topology.link", "needs either"),
            // Conditioner knob groups come complete or not at all.
            (plus("[topology.condition]\nreorder_rate = 0.1\n"), 9, "topology.condition", "reorder_rate and reorder_delay must be given together"),
            (plus("[topology.condition]\nburst_enter = 0.1\nburst_loss = 0.5\n"), 9, "topology.condition", "burst_enter, burst_exit and burst_loss must be given together"),
            // Unknown names, one per closed name set.
            (swap("kind = \"gossip\"", "kind = \"bitcoin\""), 6, "workload.kind", "unknown workload kind \"bitcoin\" (known: swarm, ping-mesh, gossip, gossip-sharded, dht-lookup)"),
            (swap("link = \"dsl-8m\"", "link = \"isdn\""), 4, "topology.link", "unknown link profile \"isdn\" (known: bittorrent-dsl, "),
            (plus("[topology.condition]\npreset = \"solar-flare\"\n"), 10, "topology.condition.preset", "unknown condition preset \"solar-flare\" (known: clean, "),
            (plus("[workload.ping-mesh]\nnodes = 4\npattern = \"spiral\"\n").replace("\"gossip\"", "\"ping-mesh\""), 11, "workload.ping-mesh.pattern", "unknown mesh pattern \"spiral\" (known: full, ring)"),
            (plus("[transport]\ncongestion = \"bbr\"\n"), 10, "transport.congestion", "unknown congestion controller \"bbr\" (known: legacy, aimd)"),
            (plus("[adversary]\nbehaviors = [\"amplify\"]\nselection = \"psychic\"\n"), 11, "adversary.selection", "unknown selection mode \"psychic\" (known: random, first, trace)"),
            (plus("[arrivals]\nkind = \"tsunami\"\n"), 10, "arrivals.kind", "unknown arrival kind \"tsunami\" (known: poisson, ramp, flash-crowd, trace)"),
            (plus("[sessions]\nkind = \"weibull\"\n"), 10, "sessions.kind", "unknown session kind \"weibull\" (known: exponential, pareto, trace)"),
            (plus("[adversary]\nbehaviors = [\"omniscient\"]\n"), 9, "adversary", "unknown adversary behavior \"omniscient\""),
            // Out-of-range values are reported at the key, not at the section header.
            (swap("[workload]\n", "loss = 1.5\n[workload]\n"), 5, "topology.loss", "must be within [0, 1], got 1.5"),
            (plus("[topology.condition]\njitter = \"1ms\"\nduplicate_rate = 1.5\n"), 11, "topology.condition.duplicate_rate", "must be within [0, 1], got 1.5"),
            (plus("[topology.condition]\nreorder_delay = \"1ms\"\nreorder_rate = 2\n"), 11, "topology.condition.reorder_rate", "must be within [0, 1], got 2"),
            (plus("[transport]\ncongestion = \"aimd\"\nmtu = 16\n"), 11, "transport.mtu", "mtu must be at least 64 bytes, got 16"),
            (plus("[adversary]\nbehaviors = [\"amplify\"]\nfraction = 1.5\n"), 9, "adversary", "fraction must be in [0, 1]"),
            // A DHT value that would panic or stall a run is rejected at its key.
            (plus("[workload.dht-lookup]\nnodes = 1\n").replace("\"gossip\"", "\"dht-lookup\""), 10, "workload.dht-lookup.nodes", "a DHT needs at least two nodes, got 1"),
            // So is a gossip value that would panic a run or idle it.
            (plus("fanout = 0\n"), 9, "workload.gossip.fanout", "at least one peer, got 0"),
            (plus("[workload.gossip-sharded]\nnodes = 1\n").replace("\"gossip\"", "\"gossip-sharded\""), 10, "workload.gossip-sharded.nodes", "at least two nodes, got 1"),
            (plus("[workload.gossip-sharded]\nnodes = 8\nfanout = 0\n").replace("\"gossip\"", "\"gossip-sharded\""), 11, "workload.gossip-sharded.fanout", "at least one peer, got 0"),
            // And so is any other value whose run would idle to its deadline or end at once.
            (plus("[workload.swarm]\nleechers = 4\nfile_bytes = 0\n").replace("\"gossip\"", "\"swarm\""), 11, "workload.swarm.file_bytes", "at least one byte, got 0"),
            (plus("[workload.ping-mesh]\nnodes = 4\npings_per_pair = 0\n").replace("\"gossip\"", "\"ping-mesh\""), 11, "workload.ping-mesh.pings_per_pair", "at least one ping, got 0"),
            (plus("[workload.ping-mesh]\nnodes = 1\n").replace("\"gossip\"", "\"ping-mesh\""), 10, "workload.ping-mesh.nodes", "at least two nodes, got 1"),
            (plus("[workload.dht-lookup]\nnodes = 8\nlookups = 0\n").replace("\"gossip\"", "\"dht-lookup\""), 11, "workload.dht-lookup.lookups", "at least one lookup, got 0"),
            // Bad trace elements carry the element's own line and index.
            (plus("[arrivals]\nkind = \"trace\"\ntimes = [\n  \"1s\",\n  5,\n]\n"), 13, "arrivals.times[1]", "duration string"),
            (plus("[arrivals]\nkind = \"trace\"\ntimes = [\"fast\"]\n"), 11, "arrivals.times[0]", "unit suffix"),
            (plus("[sessions]\nkind = \"trace\"\npairs = [\"10s\"]\n"), 11, "sessions.pairs[0]", "[session, downtime] duration pair"),
            (plus("[sessions]\nkind = \"trace\"\npairs = [\n  [\"10s\", \"1s\"],\n  [\"10s\", 3],\n]\n"), 13, "sessions.pairs[1]", "duration string"),
            (plus("[adversary]\nbehaviors = [\"amplify\"]\nselection = \"trace\"\ntrace = [0,\n  -1]\n"), 13, "adversary.trace[1]", "non-negative"),
            (plus("[adversary]\nbehaviors = [\"amplify\", 3]\n"), 10, "adversary.behaviors[1]", "string, found integer"),
        ]
    }

    #[test]
    fn error_corpus_reports_line_path_and_message() {
        let mut failures = Vec::new();
        for (text, line, path, fragment) in error_corpus() {
            match ScenarioFile::parse(&text) {
                Ok(_) => failures.push(format!("accepted, wanted `{path}` error:\n{text}")),
                Err(e) if e.line != line || e.path != path || !e.message.contains(fragment) => {
                    failures.push(format!(
                        "got `{e}`, wanted line {line} `{path}` {fragment:?}"
                    ))
                }
                Err(_) => {}
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    fn minimal_swarm() -> String {
        "[scenario]\nname = \"s\"\n[topology]\nlink = \"dsl-8m\"\n[workload]\nkind = \"swarm\"\n[workload.swarm]\nleechers = 4\n".to_string()
    }

    #[test]
    fn parse_with_checks_overrides_at_their_key() {
        let err = ScenarioFile::parse_with(&minimal_swarm(), "workload.swarm.file_bytes = 0")
            .unwrap_err();
        assert_eq!(err.path, "workload.swarm.file_bytes");
        assert!(err.message.contains("at least one byte"), "{err}");
        // The error's line is the override's own line in the snippet.
        let err = ScenarioFile::parse_with(&minimal_swarm(), "\n\nworkload.swarm.leecher = 8")
            .unwrap_err();
        assert_eq!((err.line, err.path.as_str()), (3, "workload.swarm.leecher"));
        assert!(err.message.contains("unknown key"), "{err}");
        let err = ScenarioFile::parse_with(&minimal_swarm(), "[scenario]\nsede = 1").unwrap_err();
        assert_eq!(err.path, "scenario.sede");
    }

    #[test]
    fn parse_with_adds_sections_and_resizes_the_topology() {
        let overrides = "workload.swarm.leechers = 8\n\
                         sessions.kind = \"exponential\"\n\
                         sessions.mean_session = \"15s\"\n\
                         sessions.mean_downtime = \"30s\"\n";
        let file = ScenarioFile::parse_with(&minimal_swarm(), overrides).unwrap();
        assert_eq!(
            file.spec.sessions,
            Some(SessionProcess::Exponential {
                mean_session: SimDuration::from_secs(15),
                mean_downtime: SimDuration::from_secs(30),
            })
        );
        // 8 leechers, the default seeder and the tracker: the topology follows the workload.
        assert_eq!(file.spec.topology.total_nodes(), 10);
        assert!(file.validate().is_ok());
        // No overrides is the file itself.
        let plain = ScenarioFile::parse(&minimal_swarm()).unwrap();
        assert_eq!(
            ScenarioFile::parse_with(&minimal_swarm(), "").unwrap(),
            plain
        );
    }

    #[test]
    fn parse_with_equals_a_campaign_cell_of_the_same_overrides() {
        let overrides = "scenario.seed = 9\nscenario.machines = 3\ntopology.loss = 0.01\n\
                         workload.swarm.leechers = 6\nadversary.behaviors = [\"silent-drop\"]\n";
        let campaign = format!(
            "[campaign]\nname = \"c\"\n{}[cells.one]\n{overrides}",
            minimal_swarm()
        );
        let cells = crate::scenario::campaign::CampaignSpec::parse(&campaign)
            .unwrap()
            .expand()
            .unwrap();
        let cell = cells.iter().find(|c| c.label == "cell-one").unwrap();
        let file = ScenarioFile::parse_with(&minimal_swarm(), overrides).unwrap();
        assert_eq!(cell.file, file);
        assert_eq!(file.spec.seed, 9);
        assert_eq!(file.spec.topology.total_nodes(), 8);
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
