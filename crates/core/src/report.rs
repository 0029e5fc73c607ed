//! Rendering experiment output: the machine-readable [`RunReport`] artifact plus aligned text
//! tables, CSV series and quick ASCII plots.
//!
//! Every scenario run produces a [`RunReport`] — workload name, spec echo, seed, wall/sim
//! time and the full [`MetricSet`] the run recorded — which the bench binaries serialize to
//! JSON (and CSV) under `results/`. The workspace has no serialization crate, so the JSON
//! form is hand-rolled, and described **once**: `REPORT_FIELDS` lists the document's fields and
//! `KINDS` each metric kind's, every line naming a field next to the place it fills, and
//! [`RunReport::to_json`] and [`RunReport::from_json`] are the two interpreters of those lists
//! (the convention the scenario DSL's `Keys` follows for scenario files). Every report a bench
//! binary writes is read back and compared, which is what catches schema drift.
//!
//! The table/CSV/ASCII helpers below are used by the figure-regeneration binaries to print,
//! for every figure of the paper, the same rows or series the figure plots, so a run of the
//! harness can be compared against the publication side by side.

use p2plab_sim::{
    HistogramSnapshot, Metric, MetricSet, MetricValue, RunOutcome, SimDuration, SimTime, TimeSeries,
};
use std::fmt;
use std::mem::discriminant;

/// Schema tag written into every report, bumped on incompatible format changes; a document
/// carrying any other tag is a [`ReportError::Schema`].
///
/// `v2` added the `events_per_sec` throughput field (the scale benchmarks' headline number).
pub const RUN_REPORT_SCHEMA: &str = "p2plab.run-report.v2";

/// The workload-agnostic artifact of one scenario run.
///
/// Whatever the workload is, the report carries the same identification (workload kind,
/// scenario name, seed, deployment shape), the same timing facts (wall-clock and virtual time,
/// event count, outcome) and the run's full [`MetricSet`]. It is one half of what
/// [`run_scenario`](crate::scenario::run_scenario) returns; the other is the final world, for
/// in-process analysis of workload state. Everything that leaves the process goes through a
/// `RunReport`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Workload kind (`"swarm"`, `"ping-mesh"`, `"gossip"`, ...).
    pub workload: String,
    /// Scenario name (the spec's `name`).
    pub scenario: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Physical machines of the deployment.
    pub machines: usize,
    /// Virtual nodes of the topology.
    pub vnodes: usize,
    /// Participants driven by the arrival process.
    pub participants: usize,
    /// Folding ratio (virtual nodes per machine).
    pub folding_ratio: f64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Virtual time when the run stopped.
    pub stopped_at: SimTime,
    /// Simulation events executed.
    pub events_executed: u64,
    /// Wall-clock event throughput (`events_executed / wall_secs`): one run's reading, host
    /// weather included. Across commits, throughput is compared by `benchmark/run.sh`.
    pub events_per_sec: f64,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Echo of the scenario spec as ordered key/value pairs (for provenance, not re-parsing).
    pub spec: Vec<(String, String)>,
    /// Everything the run recorded.
    pub metrics: MetricSet,
}

/// One JSON field of a record `T`: its name, and how the place it names in `T` is written and
/// read. A record's JSON form is described **once**, as a list of these built by [`field!`];
/// [`write_fields`] and [`read_fields`] are the two interpreters of such a list.
struct Field<T> {
    name: &'static str,
    write: fn(&T, &mut String),
    /// Decodes the value into its place, or says what is wrong with it.
    read: fn(&mut T, &Json) -> Result<(), String>,
}

/// `field!("name", t => place)`: the field `name`, held in the place `place` of the record
/// bound to `t` and spelled as the place's type's [`Codec`] says.
/// `field!("name", Variant(p) => place)` is a field of a [`MetricValue`] kind's payload.
macro_rules! field {
    ($name:literal, $t:ident => $place:expr) => {
        Field {
            name: $name,
            write: |$t, out| $place.write(out),
            read: |$t, json| {
                $place = Codec::read(json)?;
                Ok(())
            },
        }
    };
    ($name:literal, $variant:ident($p:ident) => $place:expr) => {
        Field {
            name: $name,
            write: |value, out| {
                if let MetricValue::$variant($p) = value {
                    $place.write(out)
                }
            },
            read: |value, json| {
                if let MetricValue::$variant($p) = value {
                    $place = Codec::read(json)?;
                }
                Ok(())
            },
        }
    };
}

/// The fields of a [`RunReport`] document, in file order.
const REPORT_FIELDS: &[Field<RunReport>] = &[
    Field {
        name: "schema",
        write: |_, out| out.push_str(&json_str(RUN_REPORT_SCHEMA)),
        read: |_, json| match String::read(json)? {
            schema if schema == RUN_REPORT_SCHEMA => Ok(()),
            schema => Err(format!(
                "unsupported schema {schema:?} (expected {RUN_REPORT_SCHEMA:?})"
            )),
        },
    },
    field!("workload", r => r.workload),
    field!("scenario", r => r.scenario),
    field!("seed", r => r.seed),
    field!("machines", r => r.machines),
    field!("vnodes", r => r.vnodes),
    field!("participants", r => r.participants),
    field!("folding_ratio", r => r.folding_ratio),
    field!("wall_secs", r => r.wall_secs),
    field!("stopped_at_ns", r => r.stopped_at),
    field!("events_executed", r => r.events_executed),
    field!("events_per_sec", r => r.events_per_sec),
    field!("outcome", r => r.outcome),
    field!("spec", r => r.spec),
    field!("metrics", r => r.metrics),
];

/// One kind of metric: the `kind` tag of its JSON object, the blank value its fields are read
/// over, and the fields of its payload.
struct Kind {
    tag: &'static str,
    blank: fn() -> MetricValue,
    fields: &'static [Field<MetricValue>],
}

/// Every metric kind. A metric is written as `{"name": .., "kind": <tag>, <fields>}`.
const KINDS: &[Kind] = &[
    Kind {
        tag: "counter",
        blank: || MetricValue::Counter(0),
        fields: &[field!("value", Counter(c) => *c)],
    },
    Kind {
        tag: "gauge",
        blank: || MetricValue::Gauge(0.0),
        fields: &[field!("value", Gauge(g) => *g)],
    },
    Kind {
        tag: "series",
        blank: || MetricValue::Series(TimeSeries::new()),
        fields: &[field!("points", Series(s) => *s)],
    },
    Kind {
        tag: "histogram",
        blank: || MetricValue::Histogram(HistogramSnapshot::default()),
        fields: &[
            field!("count", Histogram(h) => h.count),
            field!("min", Histogram(h) => h.min),
            field!("max", Histogram(h) => h.max),
            field!("p50", Histogram(h) => h.p50),
            field!("p90", Histogram(h) => h.p90),
            field!("p99", Histogram(h) => h.p99),
            field!("buckets", Histogram(h) => h.buckets),
        ],
    },
];

/// The two keys every metric object starts with, before its kind's fields.
const METRIC_NAME: &str = "name";
const METRIC_KIND: &str = "kind";

/// The kind `value` is of.
fn kind_of(value: &MetricValue) -> &'static Kind {
    KINDS
        .iter()
        .find(|kind| discriminant(&(kind.blank)()) == discriminant(value))
        .expect("every variant is one of `KINDS`")
}

/// The labels a [`RunOutcome`] is written as.
const OUTCOMES: &[(&str, RunOutcome)] = &[
    ("drained", RunOutcome::Drained),
    ("deadline-reached", RunOutcome::DeadlineReached),
    ("event-budget-exhausted", RunOutcome::EventBudgetExhausted),
];

pub(crate) fn outcome_label(o: RunOutcome) -> &'static str {
    let (label, _) = OUTCOMES
        .iter()
        .find(|(_, outcome)| *outcome == o)
        .expect("every outcome is one of `OUTCOMES`");
    label
}

/// The writer: `"name": value` for every field, `sep` between them.
fn write_fields<T>(fields: &[Field<T>], record: &T, sep: &str, out: &mut String) {
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.extend(["\"", field.name, "\": "]);
        (field.write)(record, out);
    }
}

/// The reader: every field must be present in the object `json` and decode into its place; the
/// error names the field.
fn read_fields<T>(fields: &[Field<T>], record: &mut T, json: &Json) -> Result<(), String> {
    for field in fields {
        let name = field.name;
        let value = json.get(name).ok_or(format!("missing field {name:?}"))?;
        (field.read)(record, value).map_err(|e| format!("field {name:?}: {e}"))?;
    }
    Ok(())
}

impl RunReport {
    /// Serializes the report as [`RUN_REPORT_SCHEMA`] (`v2`) JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  ");
        write_fields(REPORT_FIELDS, self, ",\n  ", &mut out);
        out.push_str("\n}\n");
        out
    }

    /// Parses a JSON report produced by [`RunReport::to_json`].
    pub fn from_json(text: &str) -> Result<RunReport, ReportError> {
        let root = Json::parse(text)?;
        let mut report = RunReport::default();
        read_fields(REPORT_FIELDS, &mut report, &root).map_err(ReportError::Schema)?;
        Ok(report)
    }

    /// The run's `progress` curve: what [`Workload::sample`](crate::scenario::Workload::sample)
    /// returned on the sampling grid, plus a final sample at the stop time.
    ///
    /// # Panics
    ///
    /// Panics when the report has no `progress` series; every report the runner builds has one.
    pub fn progress(&self) -> &TimeSeries {
        self.metrics
            .series("progress")
            .expect("every run report carries the progress series")
    }

    /// The scalar metrics (counters, gauges, histogram summaries) as a `metric,kind,value` CSV
    /// — the quick-look sibling of the JSON artifact. One row per scalar field of each metric,
    /// named `<metric>.<field>` when the kind has several; an unset histogram summary (`null`)
    /// and the histogram's bucket array have no row, and series go through [`series_to_csv`].
    pub fn scalars_csv(&self) -> String {
        let mut out = String::from("metric,kind,value\n");
        let scalar = |m: &&Metric| !matches!(m.value, MetricValue::Series(_));
        for m in self.metrics.iter().filter(scalar) {
            let kind = kind_of(&m.value);
            for field in kind.fields {
                let mut value = String::new();
                (field.write)(&m.value, &mut value);
                if value == "null" || value.starts_with('[') {
                    continue;
                }
                out.push_str(&m.name);
                if kind.fields.len() > 1 {
                    out.push_str(&format!(".{}", field.name));
                }
                out.push_str(&format!(",{},{value}\n", kind.tag));
            }
        }
        out
    }
}

/// Why a report could not be parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The text is not well-formed JSON.
    Json(String),
    /// The JSON is well-formed but does not match the report schema.
    Schema(String),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "malformed JSON: {e}"),
            ReportError::Schema(e) => write!(f, "report schema mismatch: {e}"),
        }
    }
}

impl std::error::Error for ReportError {}

/// How a Rust type is spelled as a JSON value — the report's counterpart of the scenario
/// DSL's `Value`. [`read`](Codec::read) says what is wrong with a value; the caller names
/// the field.
trait Codec: Sized {
    fn write(&self, out: &mut String);
    fn read(json: &Json) -> Result<Self, String>;
}

impl Codec for String {
    fn write(&self, out: &mut String) {
        out.push_str(&json_str(self));
    }
    fn read(json: &Json) -> Result<String, String> {
        match json {
            Json::Str(s) => Ok(s.clone()),
            _ => Err("not a string".into()),
        }
    }
}

/// A number token parsed as exactly the type the field holds.
fn number<N: std::str::FromStr>(json: &Json, what: &str) -> Result<N, String> {
    match json {
        Json::Num(raw) => raw.parse().map_err(|_| format!("{raw:?} is not {what}")),
        _ => Err(format!("{json:?} is not a number")),
    }
}

/// Strict: the writer always emits u64 fields as plain decimal integers, so a negative or
/// fractional value here is drift and must be rejected, not saturating-cast.
impl Codec for u64 {
    fn write(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
    fn read(json: &Json) -> Result<u64, String> {
        number(json, "a u64")
    }
}

impl Codec for usize {
    fn write(&self, out: &mut String) {
        (*self as u64).write(out);
    }
    fn read(json: &Json) -> Result<usize, String> {
        u64::read(json).map(|v| v as usize)
    }
}

/// `null` (the writer's spelling of a non-finite float) is rejected in required float
/// positions: the metric pipeline is finite-only, so a null here is drift — surfacing it as a
/// schema error beats loading NaN and failing every later equality check.
impl Codec for f64 {
    fn write(&self, out: &mut String) {
        out.push_str(&json_f64(*self));
    }
    fn read(json: &Json) -> Result<f64, String> {
        number(json, "a number")
    }
}

/// A histogram summary: `null` when nothing was recorded.
impl Codec for Option<f64> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(json: &Json) -> Result<Option<f64>, String> {
        match json {
            Json::Null => Ok(None),
            v => f64::read(v).map(Some),
        }
    }
}

/// Nanoseconds, as an exact integer.
impl Codec for SimTime {
    fn write(&self, out: &mut String) {
        self.as_nanos().write(out);
    }
    fn read(json: &Json) -> Result<SimTime, String> {
        u64::read(json).map(SimTime::from_nanos)
    }
}

/// One of the [`OUTCOMES`] labels.
impl Codec for RunOutcome {
    fn write(&self, out: &mut String) {
        out.push_str(&json_str(outcome_label(*self)));
    }
    fn read(json: &Json) -> Result<RunOutcome, String> {
        let label = String::read(json)?;
        match OUTCOMES.iter().find(|(known, _)| *known == label) {
            Some((_, outcome)) => Ok(*outcome),
            None => Err(format!("unknown outcome {label:?}")),
        }
    }
}

/// `[a,b]`: a series point or a histogram bucket.
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn write(&self, out: &mut String) {
        out.push('[');
        self.0.write(out);
        out.push(',');
        self.1.write(out);
        out.push(']');
    }
    fn read(json: &Json) -> Result<(A, B), String> {
        match json {
            Json::Arr(pair) if pair.len() == 2 => Ok((A::read(&pair[0])?, B::read(&pair[1])?)),
            _ => Err("not a pair".into()),
        }
    }
}

/// The items of a JSON array.
fn items(json: &Json) -> Result<&[Json], String> {
    match json {
        Json::Arr(items) => Ok(items),
        _ => Err("not an array".into()),
    }
}

/// The items of a compact one-line array, `[a,b,..]`, written and read.
fn write_row<V: Codec>(row: &[V], out: &mut String) {
    out.push('[');
    for (i, item) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write(out);
    }
    out.push(']');
}

fn read_row<V: Codec>(json: &Json) -> Result<Vec<V>, String> {
    items(json)?.iter().map(V::read).collect()
}

/// Histogram buckets: a compact array of `[low_edge,count]` pairs.
impl Codec for Vec<(f64, u64)> {
    fn write(&self, out: &mut String) {
        write_row(self, out);
    }
    fn read(json: &Json) -> Result<Self, String> {
        read_row(json)
    }
}

/// A series: a compact array of `[time_ns,value]` points.
impl Codec for TimeSeries {
    fn write(&self, out: &mut String) {
        write_row(self.samples(), out);
    }
    fn read(json: &Json) -> Result<TimeSeries, String> {
        let mut series = TimeSeries::new();
        for (at, value) in read_row::<(SimTime, f64)>(json)? {
            series.push(at, value);
        }
        Ok(series)
    }
}

/// Writes `open`, every line of a top-level field's block on its own indented line, `close`
/// (on a line of its own unless the block is empty).
fn write_block(open: char, close: char, lines: impl Iterator<Item = String>, out: &mut String) {
    out.push(open);
    let mut empty = true;
    for line in lines {
        out.push_str(if empty { "\n    " } else { ",\n    " });
        out.push_str(&line);
        empty = false;
    }
    out.push_str(if empty { "" } else { "\n  " });
    out.push(close);
}

/// The spec echo: an object of strings, one pair a line.
impl Codec for Vec<(String, String)> {
    fn write(&self, out: &mut String) {
        let pair = |(k, v): &(String, String)| format!("{}: {}", json_str(k), json_str(v));
        write_block('{', '}', self.iter().map(pair), out);
    }
    fn read(json: &Json) -> Result<Self, String> {
        let Json::Obj(pairs) = json else {
            return Err("not an object".into());
        };
        let pair = |(k, v): &(String, Json)| match String::read(v) {
            Ok(v) => Ok((k.clone(), v)),
            Err(e) => Err(format!("entry {k:?}: {e}")),
        };
        pairs.iter().map(pair).collect()
    }
}

/// The metrics: an array of metric objects, one a line.
impl Codec for MetricSet {
    fn write(&self, out: &mut String) {
        let metric = |m: &Metric| {
            let kind = kind_of(&m.value);
            let mut line = format!(
                "{{\"{METRIC_NAME}\": {}, \"{METRIC_KIND}\": \"{}\", ",
                json_str(&m.name),
                kind.tag
            );
            write_fields(kind.fields, &m.value, ", ", &mut line);
            line.push('}');
            line
        };
        write_block('[', ']', self.iter().map(metric), out);
    }
    fn read(json: &Json) -> Result<MetricSet, String> {
        let mut metrics = MetricSet::new();
        for (i, entry) in items(json)?.iter().enumerate() {
            metrics.push(read_metric(entry).map_err(|e| format!("metric {i}: {e}"))?);
        }
        Ok(metrics)
    }
}

fn read_metric(entry: &Json) -> Result<Metric, String> {
    let text = |key| match entry.get(key) {
        Some(value) => String::read(value).map_err(|e| format!("field {key:?}: {e}")),
        None => Err(format!("missing field {key:?}")),
    };
    let name = text(METRIC_NAME)?;
    let tag = text(METRIC_KIND)?;
    let kind = KINDS
        .iter()
        .find(|kind| kind.tag == tag)
        .ok_or(format!("unknown metric kind {tag:?}"))?;
    let mut value = (kind.blank)();
    read_fields(kind.fields, &mut value, entry)?;
    Ok(Metric { name, value })
}

/// Formats a finite float so it round-trips exactly through parsing (Rust's shortest
/// round-trip `Display`); non-finite values become `null`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
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

/// A minimal JSON value tree. Numbers keep their raw token so `u64` values beyond the `f64`
/// mantissa (event counts, nanosecond timestamps) parse exactly.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, ReportError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(ReportError::Json(format!(
                "trailing data at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }

    /// The value under `key`, when `self` is an object that has it.
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ReportError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ReportError::Json(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, ReportError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(ReportError::Json(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<Json, ReportError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => {
                    return Err(ReportError::Json(format!(
                        "bad object at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ReportError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(ReportError::Json(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, ReportError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| {
                                    ReportError::Json(format!(
                                        "bad \\u escape at byte {}",
                                        self.pos
                                    ))
                                })?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        other => {
                            return Err(ReportError::Json(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of plain characters up to the next quote or
                    // escape, validating it as UTF-8 (cheap, and keeps the parser free of
                    // position-invariant `unsafe`).
                    let rest = &self.bytes[self.pos..];
                    let chunk_len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let chunk = std::str::from_utf8(&rest[..chunk_len]).map_err(|_| {
                        ReportError::Json(format!("invalid UTF-8 in string at byte {}", self.pos))
                    })?;
                    out.push_str(chunk);
                    self.pos += chunk_len;
                }
                None => return Err(ReportError::Json("unterminated string".into())),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ReportError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii")
            .to_string();
        if raw.parse::<f64>().is_err() {
            return Err(ReportError::Json(format!("bad number {raw:?}")));
        }
        Ok(Json::Num(raw))
    }
}

/// Renders an aligned text table. `headers` names the columns; each row must have the same
/// number of cells.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(header_line.join("  ").len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Renders one or more time series as CSV with a shared, regular time grid
/// (`time_s,<name1>,<name2>,...`), carrying the last value forward between samples.
///
/// The time column is printed with millisecond precision: sub-100-ms sample grids used to
/// collapse into duplicate timestamps under the old one-decimal format.
pub fn series_to_csv(series: &[(&str, &TimeSeries)], step: SimDuration, end: SimTime) -> String {
    let mut out = String::from("time_s");
    for (name, _) in series {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    let grids: Vec<Vec<(SimTime, f64)>> = series
        .iter()
        .map(|(_, s)| s.resample(step, end, 0.0))
        .collect();
    if grids.is_empty() {
        return out;
    }
    for i in 0..grids[0].len() {
        out.push_str(&format!("{:.3}", grids[0][i].0.as_secs_f64()));
        for g in &grids {
            out.push_str(&format!(",{:.3}", g[i].1));
        }
        out.push('\n');
    }
    out
}

/// Renders `(x, y)` points as CSV.
pub fn points_to_csv(x_name: &str, y_name: &str, points: &[(f64, f64)]) -> String {
    let mut out = format!("{x_name},{y_name}\n");
    for (x, y) in points {
        out.push_str(&format!("{x:.6},{y:.6}\n"));
    }
    out
}

/// A rough ASCII plot of a time series (for eyeballing the shape of a figure in a terminal).
/// `width` and `height` are in characters.
pub fn ascii_plot(title: &str, series: &TimeSeries, width: usize, height: usize) -> String {
    let mut out = format!("# {title}\n");
    let Some((end, _)) = series.last() else {
        out.push_str("(empty series)\n");
        return out;
    };
    let max_y = series
        .samples()
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1e-12);
    let width = width.max(10);
    let height = height.max(4);
    let mut grid = vec![vec![' '; width]; height];
    #[expect(
        clippy::needless_range_loop,
        reason = "`col` indexes the second dimension of `grid`"
    )]
    for col in 0..width {
        let t = SimTime::from_secs_f64(end.as_secs_f64() * col as f64 / (width - 1) as f64);
        let v = series.value_at(t, 0.0);
        let row = ((v / max_y) * (height - 1) as f64).round() as usize;
        let row = (height - 1).saturating_sub(row.min(height - 1));
        grid[row][col] = '*';
    }
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{max_y:10.1} |")
        } else if i == height - 1 {
            format!("{:10.1} |", 0.0)
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&label);
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>10}  0 {:->width$}\n",
        "",
        format!(" {:.0}s", end.as_secs_f64()),
        width = width
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2plab_sim::Recorder;

    fn series(points: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in points {
            s.push(SimTime::from_secs(t), v);
        }
        s
    }

    fn sample_report() -> RunReport {
        let mut rec = Recorder::new();
        let c = rec.counter("rumors_sent");
        let g = rec.gauge("peak_nic_utilization");
        let s = rec.time_series("progress");
        let h = rec.histogram("rtt_secs");
        rec.add(c, 42);
        rec.set(g, 0.625);
        rec.push(s, SimTime::from_millis(500), 1.0);
        rec.push(s, SimTime::from_millis(1500), 2.5);
        rec.record(h, 0.030);
        rec.record(h, 0.045);
        rec.record(h, 0.0);
        RunReport {
            workload: "gossip".into(),
            scenario: "unit \"quoted\"\nname".into(),
            seed: 2006,
            machines: 4,
            vnodes: 16,
            participants: 16,
            folding_ratio: 4.0,
            wall_secs: 0.125,
            stopped_at: SimTime::from_millis(1500),
            events_executed: u64::MAX - 3, // beyond f64's exact-integer range on purpose
            events_per_sec: 1.25e6,
            outcome: RunOutcome::Drained,
            spec: vec![
                ("deadline".into(), "600s".into()),
                ("arrivals".into(), "Poisson { rate: 0.5 }".into()),
            ],
            metrics: rec.finish(),
        }
    }

    #[test]
    fn run_report_round_trips_through_json() {
        let report = sample_report();
        let json = report.to_json();
        let loaded = RunReport::from_json(&json).unwrap();
        assert_eq!(report, loaded);
        // And a second generation stays textually stable (writer is deterministic).
        assert_eq!(json, loaded.to_json());
    }

    #[test]
    fn committed_v2_reports_rewrite_byte_identically() {
        // The writer's bytes are pinned by documents it wrote in earlier revisions: loading
        // one and writing it back must reproduce the file.
        for path in [
            "testdata/fig10-1439-clients.report.json",
            "../../benchmark/testdata/sample.report.json",
        ] {
            let file = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file}: {e}"));
            let report = RunReport::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(
                report.to_json() == text,
                "{path} is not rewritten as it stands"
            );
        }
    }

    #[test]
    fn run_report_json_preserves_large_u64_exactly() {
        // events_executed is u64::MAX - 3, which f64 cannot represent; the raw-token number
        // path must keep it exact.
        let loaded = RunReport::from_json(&sample_report().to_json()).unwrap();
        assert_eq!(loaded.events_executed, u64::MAX - 3);
    }

    #[test]
    fn run_report_rejects_wrong_schema_and_malformed_json() {
        let json = sample_report().to_json().replace(RUN_REPORT_SCHEMA, "v0");
        assert!(matches!(
            RunReport::from_json(&json),
            Err(ReportError::Schema(_))
        ));
        assert!(matches!(
            RunReport::from_json("{not json"),
            Err(ReportError::Json(_))
        ));
        assert!(matches!(
            RunReport::from_json("{\"schema\": \"p2plab.run-report.v1\"}"),
            Err(ReportError::Schema(_))
        ));
        // Trailing garbage after a valid document is drift, not noise.
        let json = sample_report().to_json() + "x";
        assert!(matches!(
            RunReport::from_json(&json),
            Err(ReportError::Json(_))
        ));
        // Negative or fractional u64 fields are rejected, not saturating-cast.
        let json = sample_report()
            .to_json()
            .replace("\"seed\": 2006", "\"seed\": -5");
        assert!(matches!(
            RunReport::from_json(&json),
            Err(ReportError::Schema(_))
        ));
        let json = sample_report()
            .to_json()
            .replace("\"machines\": 4", "\"machines\": 2.7");
        assert!(matches!(
            RunReport::from_json(&json),
            Err(ReportError::Schema(_))
        ));
        // A missing field is named, at whatever depth.
        let json = sample_report().to_json().replace("\"vnodes\": 16,", "");
        let Err(ReportError::Schema(e)) = RunReport::from_json(&json) else {
            panic!("a report without vnodes loaded");
        };
        assert_eq!(e, "missing field \"vnodes\"");
        let json = sample_report().to_json().replace("\"p90\"", "\"p9x\"");
        let Err(ReportError::Schema(e)) = RunReport::from_json(&json) else {
            panic!("a histogram without p90 loaded");
        };
        assert!(e.ends_with("missing field \"p90\""), "{e}");
        // `null` in a required float, an unknown kind and an unknown outcome are drift too.
        for (from, to) in [
            ("\"folding_ratio\": 4", "\"folding_ratio\": null"),
            ("\"kind\": \"gauge\"", "\"kind\": \"gouge\""),
            ("\"drained\"", "\"drowned\""),
        ] {
            let json = sample_report().to_json().replace(from, to);
            assert!(
                matches!(RunReport::from_json(&json), Err(ReportError::Schema(_))),
                "{to}"
            );
        }
    }

    #[test]
    fn run_report_outcome_labels_round_trip() {
        for outcome in [
            RunOutcome::Drained,
            RunOutcome::DeadlineReached,
            RunOutcome::EventBudgetExhausted,
        ] {
            let mut r = sample_report();
            r.outcome = outcome;
            assert_eq!(RunReport::from_json(&r.to_json()).unwrap().outcome, outcome);
        }
    }

    #[test]
    fn run_report_scalars_csv() {
        let report = sample_report();
        let scalars = report.scalars_csv();
        assert!(scalars.starts_with("metric,kind,value\n"));
        assert!(scalars.contains("rumors_sent,counter,42"));
        assert!(scalars.contains("peak_nic_utilization,gauge,0.625"));
        assert!(scalars.contains("rtt_secs.count,histogram,3"));
        assert!(scalars.contains("rtt_secs.p50,histogram,"));
    }

    #[test]
    fn table_is_aligned_and_complete() {
        let t = render_table(
            "Scheduler comparison",
            &["n", "ULE", "4BSD"],
            &[
                vec!["1".into(), "1.69".into(), "1.69".into()],
                vec!["1000".into(), "1.65".into(), "1.648".into()],
            ],
        );
        assert!(t.contains("# Scheduler comparison"));
        assert!(t.contains("ULE"));
        assert!(t.contains("1.648"));
        assert_eq!(t.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        render_table("x", &["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn csv_has_grid_and_all_series() {
        let a = series(&[(0, 0.0), (10, 100.0)]);
        let b = series(&[(0, 0.0), (10, 50.0)]);
        let csv = series_to_csv(
            &[("a", &a), ("b", &b)],
            SimDuration::from_secs(5),
            SimTime::from_secs(10),
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,a,b");
        assert_eq!(lines.len(), 4);
        assert!(lines[3].starts_with("10.000,100.000,50.000"));
    }

    #[test]
    fn csv_golden_regular_grid() {
        // Golden: exact output for a small regular grid, pinning the format byte-for-byte.
        let a = series(&[(0, 0.0), (2, 20.0), (4, 40.0)]);
        let csv = series_to_csv(
            &[("v", &a)],
            SimDuration::from_secs(2),
            SimTime::from_secs(4),
        );
        assert_eq!(csv, "time_s,v\n0.000,0.000\n2.000,20.000\n4.000,40.000\n");
    }

    #[test]
    fn csv_sub_second_grid_has_distinct_timestamps() {
        // Regression: a 50 ms grid used to print as 0.0,0.0,0.1,0.1,... under {:.1}; every
        // timestamp must now be distinct.
        let mut s = TimeSeries::new();
        for i in 0..8u64 {
            s.push(SimTime::from_millis(i * 50), i as f64);
        }
        let csv = series_to_csv(
            &[("v", &s)],
            SimDuration::from_millis(50),
            SimTime::from_millis(350),
        );
        let times: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap())
            .collect();
        let mut dedup = times.clone();
        dedup.dedup();
        assert_eq!(times, dedup, "duplicate time stamps in {csv}");
        assert_eq!(times[1], "0.050");
    }

    #[test]
    fn csv_empty_series_list_is_header_only() {
        let csv = series_to_csv(&[], SimDuration::from_secs(1), SimTime::from_secs(10));
        assert_eq!(csv, "time_s\n");
    }

    #[test]
    fn points_csv() {
        let csv = points_to_csv("rules", "rtt_ms", &[(0.0, 0.2), (50_000.0, 5.0)]);
        assert!(csv.starts_with("rules,rtt_ms\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn points_csv_golden_empty_and_flat() {
        assert_eq!(points_to_csv("x", "y", &[]), "x,y\n");
        let flat = points_to_csv("x", "y", &[(1.0, 5.0), (2.0, 5.0)]);
        assert_eq!(flat, "x,y\n1.000000,5.000000\n2.000000,5.000000\n");
    }

    #[test]
    fn ascii_plot_has_requested_dimensions() {
        let s = series(&[(0, 0.0), (50, 50.0), (100, 100.0)]);
        let plot = ascii_plot("ramp", &s, 40, 8);
        assert!(plot.contains("# ramp"));
        assert!(plot.lines().count() >= 9);
        assert!(plot.contains('*'));
        let empty = ascii_plot("empty", &TimeSeries::new(), 40, 8);
        assert!(empty.contains("(empty series)"));
    }

    #[test]
    fn ascii_plot_flat_series_draws_a_line() {
        // A constant series must plot a horizontal line of stars at the top row (its max),
        // not divide by zero or vanish.
        let s = series(&[(0, 5.0), (10, 5.0)]);
        let plot = ascii_plot("flat", &s, 20, 6);
        let star_rows: Vec<&str> = plot.lines().filter(|l| l.contains('*')).collect();
        assert_eq!(star_rows.len(), 1, "{plot}");
        assert_eq!(star_rows[0].matches('*').count(), 20, "{plot}");
    }
}
