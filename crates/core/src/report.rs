//! Rendering experiment output: the machine-readable [`RunReport`] artifact plus aligned text
//! tables, CSV series and quick ASCII plots.
//!
//! Every scenario run produces a [`RunReport`] — workload name, spec echo, seed, wall/sim
//! time and the full [`MetricSet`] the run recorded — which the bench binaries serialize to
//! JSON (and CSV) under `results/`. The vendored serde stub has no-op derives, so the JSON
//! writer and loader here are hand-rolled: [`RunReport::to_json`] emits the
//! [`RUN_REPORT_SCHEMA`] (`v2`) schema and [`RunReport::from_json`] parses it back (and still
//! reads `v1`), which is what the CI smoke step round-trips to catch schema drift.
//!
//! The table/CSV/ASCII helpers below are used by the figure-regeneration binaries to print,
//! for every figure of the paper, the same rows or series the figure plots, so a run of the
//! harness can be compared against the publication side by side.

use p2plab_sim::{
    HistogramSnapshot, Metric, MetricSet, MetricValue, RunOutcome, SimDuration, SimTime, TimeSeries,
};
use std::fmt;

/// Schema tag written into every report, bumped on incompatible format changes.
///
/// `v2` added the `events_per_sec` throughput field (the scale benchmarks' headline number).
/// `v1` reports are still read: the field is derived from `events_executed / wall_secs`.
pub const RUN_REPORT_SCHEMA: &str = "p2plab.run-report.v2";

/// The previous schema, still accepted by [`RunReport::from_json`].
pub const RUN_REPORT_SCHEMA_V1: &str = "p2plab.run-report.v1";

/// The workload-agnostic artifact of one scenario run.
///
/// This replaces the ad-hoc side of the result structs: whatever the workload is, the report
/// carries the same identification (workload kind, scenario name, seed, deployment shape), the
/// same timing facts (wall-clock and virtual time, event count, outcome) and the run's full
/// [`MetricSet`]. Workload-specific result types still exist for rich in-process analysis, but
/// everything that leaves the process goes through a `RunReport`.
#[derive(Debug, Clone, PartialEq)]
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
    /// Wall-clock event throughput (`events_executed / wall_secs`) — the simulator's headline
    /// performance number, compared across runs by the `scale_sweep` baseline.
    pub events_per_sec: f64,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Echo of the scenario spec as ordered key/value pairs (for provenance, not re-parsing).
    pub spec: Vec<(String, String)>,
    /// Everything the run recorded.
    pub metrics: MetricSet,
}

impl RunReport {
    /// Serializes the report as [`RUN_REPORT_SCHEMA`] (`v2`) JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str(RUN_REPORT_SCHEMA)));
        out.push_str(&format!("  \"workload\": {},\n", json_str(&self.workload)));
        out.push_str(&format!("  \"scenario\": {},\n", json_str(&self.scenario)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"machines\": {},\n", self.machines));
        out.push_str(&format!("  \"vnodes\": {},\n", self.vnodes));
        out.push_str(&format!("  \"participants\": {},\n", self.participants));
        out.push_str(&format!(
            "  \"folding_ratio\": {},\n",
            json_f64(self.folding_ratio)
        ));
        out.push_str(&format!("  \"wall_secs\": {},\n", json_f64(self.wall_secs)));
        out.push_str(&format!(
            "  \"stopped_at_ns\": {},\n",
            self.stopped_at.as_nanos()
        ));
        out.push_str(&format!(
            "  \"events_executed\": {},\n",
            self.events_executed
        ));
        out.push_str(&format!(
            "  \"events_per_sec\": {},\n",
            json_f64(self.events_per_sec)
        ));
        out.push_str(&format!(
            "  \"outcome\": {},\n",
            json_str(outcome_label(self.outcome))
        ));
        out.push_str("  \"spec\": {");
        for (i, (k, v)) in self.spec.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_str(k), json_str(v)));
        }
        out.push_str(if self.spec.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_metric_json(&mut out, m);
        }
        out.push_str(if self.metrics.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out.push('\n');
        out
    }

    /// Parses a JSON report produced by [`RunReport::to_json`], or an older
    /// [`RUN_REPORT_SCHEMA_V1`] report.
    pub fn from_json(text: &str) -> Result<RunReport, ReportError> {
        let root = Json::parse(text)?;
        let schema = root.str_field("schema")?;
        if schema != RUN_REPORT_SCHEMA && schema != RUN_REPORT_SCHEMA_V1 {
            return Err(ReportError::Schema(format!(
                "unsupported schema {schema:?} (expected {RUN_REPORT_SCHEMA:?} or {RUN_REPORT_SCHEMA_V1:?})"
            )));
        }
        let mut metrics = MetricSet::new();
        for entry in root.arr_field("metrics")? {
            metrics.push(parse_metric_json(entry)?);
        }
        let mut spec = Vec::new();
        for (k, v) in root.obj_field("spec")? {
            spec.push((
                k.clone(),
                v.as_str()
                    .ok_or_else(|| ReportError::Schema(format!("spec entry {k:?} not a string")))?
                    .to_string(),
            ));
        }
        let wall_secs = root.f64_field("wall_secs")?;
        let events_executed = root.u64_field("events_executed")?;
        // v1 reports predate the throughput field; derive it so old baselines stay comparable.
        let events_per_sec = if schema == RUN_REPORT_SCHEMA_V1 {
            if wall_secs > 0.0 {
                events_executed as f64 / wall_secs
            } else {
                0.0
            }
        } else {
            root.f64_field("events_per_sec")?
        };
        Ok(RunReport {
            workload: root.str_field("workload")?.to_string(),
            scenario: root.str_field("scenario")?.to_string(),
            seed: root.u64_field("seed")?,
            machines: root.u64_field("machines")? as usize,
            vnodes: root.u64_field("vnodes")? as usize,
            participants: root.u64_field("participants")? as usize,
            folding_ratio: root.f64_field("folding_ratio")?,
            wall_secs,
            stopped_at: SimTime::from_nanos(root.u64_field("stopped_at_ns")?),
            events_executed,
            events_per_sec,
            outcome: parse_outcome(root.str_field("outcome")?)?,
            spec,
            metrics,
        })
    }

    /// The scalar metrics (counters, gauges, histogram summaries) as a `metric,kind,value` CSV
    /// — the quick-look sibling of the JSON artifact.
    pub fn scalars_csv(&self) -> String {
        let mut out = String::from("metric,kind,value\n");
        for m in self.metrics.iter() {
            match &m.value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("{},counter,{c}\n", m.name));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("{},gauge,{}\n", m.name, json_f64(*g)));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("{}.count,histogram,{}\n", m.name, h.count));
                    for (label, v) in [
                        ("min", h.min),
                        ("max", h.max),
                        ("p50", h.p50),
                        ("p90", h.p90),
                        ("p99", h.p99),
                    ] {
                        if let Some(v) = v {
                            out.push_str(&format!(
                                "{}.{label},histogram,{}\n",
                                m.name,
                                json_f64(v)
                            ));
                        }
                    }
                }
                MetricValue::Series(_) => {} // series go through `series_to_csv`
            }
        }
        out
    }

    /// All series metrics rendered as one CSV on a shared grid (see [`series_to_csv`]);
    /// `None` when the report has no series.
    pub fn series_csv(&self, step: SimDuration) -> Option<String> {
        let series: Vec<(&str, &TimeSeries)> = self
            .metrics
            .iter()
            .filter_map(|m| match &m.value {
                MetricValue::Series(s) => Some((m.name.as_str(), s)),
                _ => None,
            })
            .collect();
        if series.is_empty() {
            return None;
        }
        Some(series_to_csv(&series, step, self.stopped_at))
    }
}

pub(crate) fn outcome_label(o: RunOutcome) -> &'static str {
    match o {
        RunOutcome::Drained => "drained",
        RunOutcome::DeadlineReached => "deadline-reached",
        RunOutcome::EventBudgetExhausted => "event-budget-exhausted",
    }
}

fn parse_outcome(s: &str) -> Result<RunOutcome, ReportError> {
    match s {
        "drained" => Ok(RunOutcome::Drained),
        "deadline-reached" => Ok(RunOutcome::DeadlineReached),
        "event-budget-exhausted" => Ok(RunOutcome::EventBudgetExhausted),
        other => Err(ReportError::Schema(format!("unknown outcome {other:?}"))),
    }
}

fn write_metric_json(out: &mut String, m: &Metric) {
    out.push_str(&format!("{{\"name\": {}, ", json_str(&m.name)));
    match &m.value {
        MetricValue::Counter(c) => {
            out.push_str(&format!("\"kind\": \"counter\", \"value\": {c}}}"));
        }
        MetricValue::Gauge(g) => {
            out.push_str(&format!(
                "\"kind\": \"gauge\", \"value\": {}}}",
                json_f64(*g)
            ));
        }
        MetricValue::Series(s) => {
            out.push_str("\"kind\": \"series\", \"points\": [");
            for (i, &(t, v)) in s.samples().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", t.as_nanos(), json_f64(v)));
            }
            out.push_str("]}");
        }
        MetricValue::Histogram(h) => {
            out.push_str(&format!(
                "\"kind\": \"histogram\", \"count\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                h.count,
                json_opt_f64(h.min),
                json_opt_f64(h.max),
                json_opt_f64(h.p50),
                json_opt_f64(h.p90),
                json_opt_f64(h.p99),
            ));
            for (i, &(edge, c)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{c}]", json_f64(edge)));
            }
            out.push_str("]}");
        }
    }
}

fn parse_metric_json(entry: &Json) -> Result<Metric, ReportError> {
    let name = entry.str_field("name")?.to_string();
    let value = match entry.str_field("kind")? {
        "counter" => MetricValue::Counter(entry.u64_field("value")?),
        "gauge" => MetricValue::Gauge(entry.f64_field("value")?),
        "series" => {
            let mut s = TimeSeries::new();
            for p in entry.arr_field("points")? {
                let pair = p
                    .as_array()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| ReportError::Schema("series point not a pair".into()))?;
                s.push(SimTime::from_nanos(pair[0].to_u64()?), pair[1].to_f64()?);
            }
            MetricValue::Series(s)
        }
        "histogram" => {
            let mut buckets = Vec::new();
            for b in entry.arr_field("buckets")? {
                let pair = b
                    .as_array()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| ReportError::Schema("histogram bucket not a pair".into()))?;
                buckets.push((pair[0].to_f64()?, pair[1].to_u64()?));
            }
            MetricValue::Histogram(HistogramSnapshot {
                count: entry.u64_field("count")?,
                min: entry.opt_f64_field("min")?,
                max: entry.opt_f64_field("max")?,
                p50: entry.opt_f64_field("p50")?,
                p90: entry.opt_f64_field("p90")?,
                p99: entry.opt_f64_field("p99")?,
                buckets,
            })
        }
        other => {
            return Err(ReportError::Schema(format!(
                "unknown metric kind {other:?}"
            )))
        }
    };
    Ok(Metric { name, value })
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

/// Formats a finite float so it round-trips exactly through parsing (Rust's shortest
/// round-trip `Display`); non-finite values become `null`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".into())
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

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn to_u64(&self) -> Result<u64, ReportError> {
        // Strict: the writer always emits u64 fields as plain decimal integers, so a negative
        // or fractional value here is drift and must be rejected, not saturating-cast.
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| ReportError::Schema(format!("{raw:?} is not a u64"))),
            _ => Err(ReportError::Schema(format!("{self:?} is not a number"))),
        }
    }

    fn to_f64(&self) -> Result<f64, ReportError> {
        // `null` (the writer's spelling of a non-finite float) is rejected in required float
        // positions: the metric pipeline is finite-only, so a null here is drift — surfacing
        // it as a schema error beats loading NaN and failing every later equality check.
        match self {
            Json::Num(raw) => raw
                .parse::<f64>()
                .map_err(|_| ReportError::Schema(format!("{raw:?} is not a number"))),
            _ => Err(ReportError::Schema(format!("{self:?} is not a number"))),
        }
    }

    fn field(&self, key: &str) -> Result<&Json, ReportError> {
        self.get(key)
            .ok_or_else(|| ReportError::Schema(format!("missing field {key:?}")))
    }

    fn str_field(&self, key: &str) -> Result<&str, ReportError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| ReportError::Schema(format!("field {key:?} is not a string")))
    }

    fn u64_field(&self, key: &str) -> Result<u64, ReportError> {
        self.field(key)?.to_u64()
    }

    fn f64_field(&self, key: &str) -> Result<f64, ReportError> {
        self.field(key)?.to_f64()
    }

    fn opt_f64_field(&self, key: &str) -> Result<Option<f64>, ReportError> {
        match self.field(key)? {
            Json::Null => Ok(None),
            v => v.to_f64().map(Some),
        }
    }

    fn arr_field(&self, key: &str) -> Result<&[Json], ReportError> {
        self.field(key)?
            .as_array()
            .ok_or_else(|| ReportError::Schema(format!("field {key:?} is not an array")))
    }

    fn obj_field(&self, key: &str) -> Result<&[(String, Json)], ReportError> {
        match self.field(key)? {
            Json::Obj(fields) => Ok(fields),
            _ => Err(ReportError::Schema(format!(
                "field {key:?} is not an object"
            ))),
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
    // lint:allow(bare-allow) — `col` indexes the second dimension of `grid`
    #[allow(clippy::needless_range_loop)]
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
    }

    #[test]
    fn v1_reports_parse_with_derived_throughput() {
        // A v1 report (no events_per_sec field) must still load, deriving the throughput.
        let mut r = sample_report();
        r.events_executed = 1_000;
        r.wall_secs = 0.5;
        let v1 = r
            .to_json()
            .replace(RUN_REPORT_SCHEMA, RUN_REPORT_SCHEMA_V1)
            .lines()
            .filter(|l| !l.contains("events_per_sec"))
            .collect::<Vec<_>>()
            .join("\n");
        let loaded = RunReport::from_json(&v1).expect("v1 parses");
        assert_eq!(loaded.events_per_sec, 2_000.0);
        // Unknown schemas are still rejected.
        let bad = r
            .to_json()
            .replace(RUN_REPORT_SCHEMA, "p2plab.run-report.v0");
        assert!(matches!(
            RunReport::from_json(&bad),
            Err(ReportError::Schema(_))
        ));
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
    fn run_report_csv_views() {
        let report = sample_report();
        let scalars = report.scalars_csv();
        assert!(scalars.starts_with("metric,kind,value\n"));
        assert!(scalars.contains("rumors_sent,counter,42"));
        assert!(scalars.contains("peak_nic_utilization,gauge,0.625"));
        assert!(scalars.contains("rtt_secs.count,histogram,3"));
        assert!(scalars.contains("rtt_secs.p50,histogram,"));
        let series = report.series_csv(SimDuration::from_millis(500)).unwrap();
        assert!(series.starts_with("time_s,progress\n"));
        // Millisecond precision: the 500 ms grid points must not collapse.
        assert!(series.contains("\n0.500,"));
        assert!(series.contains("\n1.500,"));
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
