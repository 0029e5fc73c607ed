//! What the benchmark reads out of a `p2plab.run-report.v2` file: identification, the
//! application-level operation counts its correctness checks compare, the counters the
//! per-layer metrics are derived from, and a digest for exact run-to-run comparison.

use crate::json::Json;

/// The two top-level fields that depend on the wall clock; everything else in a report is a
/// function of the scenario file alone.
const WALL_CLOCK_FIELDS: [&str; 2] = ["wall_secs", "events_per_sec"];

/// The schema the benchmark understands.
const REPORT_SCHEMA: &str = "p2plab.run-report.v2";

/// One metric of a report, reduced to what the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
enum Metric {
    /// Counter or gauge.
    Scalar(f64),
    /// Series: value of the last point, if any.
    Series(Option<f64>),
    /// Histogram: sample count and median estimate.
    Histogram { count: u64, p50: Option<f64> },
}

/// Application-level operations of one run: how many the scenario set out to do and how many
/// it completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Operations the scenario attempted.
    pub attempted: u64,
    /// Operations that completed.
    pub completed: u64,
}

impl Ops {
    /// Operations that did not complete.
    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.completed)
    }
}

/// The facts of one run report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFacts {
    /// Workload kind (`swarm`, `gossip`, `gossip-sharded`, `dht-lookup`, `ping-mesh`).
    pub kind: String,
    /// Scenario name.
    pub scenario: String,
    /// How the run ended (`drained`, `deadline-reached`, ...).
    pub outcome: String,
    /// Scenario seed.
    pub seed: u64,
    /// Virtual nodes.
    pub vnodes: u64,
    /// Participants driven by the arrival process.
    pub participants: u64,
    /// Simulation events executed.
    pub events_executed: u64,
    /// Virtual time at which the run stopped.
    pub stopped_at_ns: u64,
    /// Size of the report text.
    pub bytes: usize,
    /// FNV-1a digest of the text with the wall-clock fields blanked: equal digests mean the
    /// two runs produced the same simulated result, bit for bit.
    pub digest: u64,
    metrics: Vec<(String, Metric)>,
}

impl RunFacts {
    /// Reads the facts out of a report's JSON text.
    pub fn parse(text: &str) -> Result<RunFacts, String> {
        let root = Json::parse(text)?;
        let str_field = |key: &str| {
            root.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report has no string field {key:?}"))
        };
        let u64_field = |key: &str| {
            root.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("report has no count field {key:?}"))
        };
        let schema = str_field("schema")?;
        if schema != REPORT_SCHEMA {
            return Err(format!("unsupported report schema {schema:?}"));
        }
        let mut metrics = Vec::new();
        for m in root
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("report has no metrics array")?
        {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let metric = match m.get("kind").and_then(Json::as_str) {
                Some("counter" | "gauge") => Metric::Scalar(
                    m.get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric {name:?} has no value"))?,
                ),
                Some("series") => Metric::Series(
                    m.get("points")
                        .and_then(Json::as_arr)
                        .and_then(|points| points.last())
                        .and_then(Json::as_arr)
                        .and_then(|point| point.get(1))
                        .and_then(Json::as_f64),
                ),
                Some("histogram") => Metric::Histogram {
                    count: m
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("histogram {name:?} has no count"))?,
                    p50: m.get("p50").and_then(Json::as_f64),
                },
                other => return Err(format!("metric {name:?} has unknown kind {other:?}")),
            };
            metrics.push((name.to_string(), metric));
        }
        Ok(RunFacts {
            kind: str_field("workload")?,
            scenario: str_field("scenario")?,
            outcome: str_field("outcome")?,
            seed: u64_field("seed")?,
            vnodes: u64_field("vnodes")?,
            participants: u64_field("participants")?,
            events_executed: u64_field("events_executed")?,
            stopped_at_ns: u64_field("stopped_at_ns")?,
            bytes: text.len(),
            digest: digest(text),
            metrics,
        })
    }

    fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// A counter or gauge; `0` when the workload does not record it.
    pub fn scalar(&self, name: &str) -> f64 {
        match self.metric(name) {
            Some(Metric::Scalar(v)) => *v,
            _ => 0.0,
        }
    }

    /// Sample count of a histogram; `0` when absent.
    pub fn histogram_count(&self, name: &str) -> u64 {
        match self.metric(name) {
            Some(Metric::Histogram { count, .. }) => *count,
            _ => 0,
        }
    }

    /// Median estimate of a histogram; `0` when absent or empty.
    pub fn histogram_p50(&self, name: &str) -> f64 {
        match self.metric(name) {
            Some(Metric::Histogram { p50: Some(v), .. }) => *v,
            _ => 0.0,
        }
    }

    /// Last value of a series; `0` when absent or empty.
    pub fn series_last(&self, name: &str) -> f64 {
        match self.metric(name) {
            Some(Metric::Series(Some(v))) => *v,
            _ => 0.0,
        }
    }

    /// The run's application-level operations, by workload kind: downloads finished per
    /// downloader, nodes informed per gossip node, lookups that found the closest node per
    /// lookup, replies received per probe sent.
    pub fn ops(&self) -> Result<Ops, String> {
        let (attempted, completed) = match self.kind.as_str() {
            "swarm" => (
                self.participants,
                self.histogram_count("completion_time_secs"),
            ),
            "gossip" | "gossip-sharded" => (self.participants, self.series_last("progress") as u64),
            "dht-lookup" => (
                self.participants,
                self.scalar("lookups_found_closest") as u64,
            ),
            "ping-mesh" => (
                self.scalar("probes_scheduled") as u64,
                self.histogram_count("rtt_secs"),
            ),
            other => return Err(format!("no operation rule for workload kind {other:?}")),
        };
        if attempted == 0 {
            return Err(format!(
                "{}: the run attempted no operations",
                self.scenario
            ));
        }
        Ok(Ops {
            attempted,
            completed,
        })
    }
}

/// FNV-1a (64-bit) over `text` with the values of the wall-clock fields removed.
pub fn digest(text: &str) -> u64 {
    let mut blanked = text.to_string();
    for field in WALL_CLOCK_FIELDS {
        blanked = blank_field(&blanked, field);
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in blanked.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Removes the value of the first `"field": <number>` member from `text`.
fn blank_field(text: &str, field: &str) -> String {
    let needle = format!("\"{field}\":");
    let Some(at) = text.find(&needle) else {
        return text.to_string();
    };
    let value_start = at + needle.len();
    let value_len = text[value_start..]
        .find([',', '\n', '}'])
        .unwrap_or(text.len() - value_start);
    format!(
        "{}{}",
        &text[..value_start],
        &text[value_start + value_len..]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = include_str!("../testdata/sample.report.json");

    #[test]
    fn reads_the_sample_report() {
        let facts = RunFacts::parse(SAMPLE).unwrap();
        assert_eq!(facts.kind, "ping-mesh");
        assert_eq!(facts.outcome, "drained");
        assert_eq!((facts.vnodes, facts.participants), (16, 16));
        assert_eq!(facts.events_executed, 566);
        assert_eq!(facts.bytes, SAMPLE.len());
        assert_eq!(facts.scalar("probes_scheduled"), 80.0);
        assert_eq!(facts.scalar("no_such_counter"), 0.0);
        assert_eq!(facts.series_last("progress"), 80.0);
        assert!(facts.histogram_p50("rtt_secs") > 0.0);
        let ops = facts.ops().unwrap();
        assert_eq!((ops.attempted, ops.completed, ops.failed()), (80, 80, 0));
    }

    #[test]
    fn digest_ignores_exactly_the_two_wall_clock_fields() {
        let base = digest(SAMPLE);
        let wall_line = SAMPLE
            .lines()
            .find(|l| l.contains("\"wall_secs\""))
            .unwrap();
        let rate_line = SAMPLE
            .lines()
            .find(|l| l.contains("\"events_per_sec\""))
            .unwrap();
        let slower = SAMPLE
            .replace(wall_line, "  \"wall_secs\": 12.5,")
            .replace(rate_line, "  \"events_per_sec\": 45.28,");
        assert_ne!(slower, SAMPLE);
        assert_eq!(digest(&slower), base, "wall-clock fields must not count");

        for (from, to) in [
            ("\"events_executed\": 566", "\"events_executed\": 567"),
            ("\"stopped_at_ns\": 5", "\"stopped_at_ns\": 6"),
            ("\"seed\": 1", "\"seed\": 2"),
            (
                "\"outcome\": \"drained\"",
                "\"outcome\": \"deadline-reached\"",
            ),
            ("\"count\": 80", "\"count\": 79"),
        ] {
            assert!(SAMPLE.contains(from), "sample has {from}");
            let changed = SAMPLE.replacen(from, to, 1);
            assert_ne!(digest(&changed), base, "{from} must count");
        }
    }

    #[test]
    fn unknown_schema_and_kinds_are_errors() {
        assert!(RunFacts::parse(&SAMPLE.replace("run-report.v2", "run-report.v9")).is_err());
        let mut facts = RunFacts::parse(SAMPLE).unwrap();
        facts.kind = "streaming".to_string();
        assert!(facts.ops().is_err());
    }
}
