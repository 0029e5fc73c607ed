//! Campaigns: parameter-grid expansion over scenario files, parallel execution and cross-run
//! aggregation.
//!
//! The paper's scalability claim is not about one run but about *sweeps* — the same system
//! re-run under systematically varied conditions (folding ratios in Figure 9, swarm sizes in
//! Figure 10). A campaign file is a scenario file (see [`dsl`](crate::scenario::dsl)) plus two
//! extra sections:
//!
//! ```toml
//! [campaign]
//! name = "loss-arrival-grid"   # results land under results/campaign/<name>/
//!
//! [matrix]                     # dotted scenario paths -> value lists
//! workload.kind = ["gossip", "ping-mesh"]
//! topology.loss = [0.0, 0.05]
//! scenario.seed = [1, 2, 3]
//! ```
//!
//! [`CampaignSpec::expand`] takes the cartesian product of the matrix axes (file order, last
//! axis fastest), applies each combination to the base scenario table and re-parses it through
//! the DSL's strict path — so every grid cell is validated before anything runs.
//!
//! Combinations the product cannot express — a single hostile cell next to an honest grid, a
//! cell whose workload rejects one of the swept knobs — go in explicit `[cells.<label>]`
//! sections: each is a set of dotted overrides applied to the base scenario on its own,
//! appended after the matrix cells and validated the same way:
//!
//! ```toml
//! [cells.byzantine]
//! workload.kind = "gossip-sharded"
//! adversary.fraction = 0.25
//! adversary.behaviors = ["reply-delay"]
//! ```
//! [`run_campaign`] then executes the cells across OS threads. Each cell is an independent
//! simulation seeded from its own spec, and results are collected *by cell index*, so the
//! outcome is deterministic regardless of thread count or scheduling; [`CampaignSummary`]
//! additionally excludes wall-clock fields, making the aggregate artifact byte-identical
//! between a 1-thread and an N-thread run (pinned by a test).

use crate::analysis::relative_curve_deviation;
use crate::report::{json_f64, json_str, outcome_label, RunReport};
use crate::scenario::dsl::{
    flatten_overrides, parse_toml, read_section, table_of, DslError, Keys, ScenarioFile, Spanned,
    TomlTable, TomlValue,
};
use crate::scenario::ScenarioError;
use p2plab_sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Schema tag of the campaign summary JSON artifact.
pub const CAMPAIGN_SCHEMA: &str = "p2plab.campaign.v1";

/// The sections a campaign file adds to a scenario file.
const CAMPAIGN_SECTION: &str = "campaign";
const MATRIX_SECTION: &str = "matrix";
const CELLS_SECTION: &str = "cells";

/// `[campaign]`, described like every scenario section (see [`dsl`](crate::scenario::dsl)).
fn campaign_keys(k: &mut Keys, campaign: &mut CampaignSpec) -> Result<(), DslError> {
    k.req("name", &mut campaign.name)?;
    Ok(())
}

/// A parsed campaign file: the base scenario table plus the parameter matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (the `results/campaign/<name>/` directory).
    pub name: String,
    /// The scenario sections of the file (everything except `[campaign]` and `[matrix]`).
    pub base: TomlTable,
    /// The matrix axes: dotted scenario key path → the values it sweeps over, in file order.
    pub axes: Vec<(String, Vec<Spanned>)>,
    /// Explicit `[cells.<label>]` cells, in file order: label → dotted overrides. Appended
    /// after the matrix product when expanding.
    pub extra: Vec<(String, Vec<(String, Spanned)>)>,
}

/// One expanded grid cell: a concrete, validated scenario plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Cell index in expansion order (row-major over the axes, last axis fastest).
    pub index: usize,
    /// Stable label used for result paths (`cell-00`, `cell-01`, ...).
    pub label: String,
    /// The matrix overrides this cell applies, as `(path, rendered value)` pairs.
    pub overrides: Vec<(String, String)>,
    /// The concrete scenario.
    pub file: ScenarioFile,
}

impl CampaignSpec {
    /// Parses a campaign file from TOML source.
    pub fn parse(text: &str) -> Result<CampaignSpec, DslError> {
        let root = parse_toml(text)?;
        CampaignSpec::from_table(&root)
    }

    /// True when a parsed root table is a campaign file (has a `[campaign]` section) rather
    /// than a plain scenario file.
    pub fn is_campaign(root: &TomlTable) -> bool {
        root.get(CAMPAIGN_SECTION).is_some()
    }

    /// Builds a campaign from an already-parsed root table.
    pub fn from_table(root: &TomlTable) -> Result<CampaignSpec, DslError> {
        let Some(campaign) = root.get(CAMPAIGN_SECTION) else {
            return Err(DslError {
                line: 0,
                path: CAMPAIGN_SECTION.into(),
                message: "missing required section".into(),
            });
        };
        // The base scenario: everything except the three campaign-only sections.
        let mut base = TomlTable::default();
        for (key, value) in root.entries() {
            if ![CAMPAIGN_SECTION, MATRIX_SECTION, CELLS_SECTION].contains(&key.as_str()) {
                base.set_path(key, value.clone())?;
            }
        }
        let mut spec = CampaignSpec {
            name: String::new(),
            base,
            axes: Vec::new(),
            extra: Vec::new(),
        };
        let table = table_of(campaign, CAMPAIGN_SECTION)?;
        read_section(table, CAMPAIGN_SECTION, &mut spec, campaign_keys)?;

        if let Some(matrix) = root.get(MATRIX_SECTION) {
            let matrix = table_of(matrix, MATRIX_SECTION)?;
            flatten_axes(matrix, MATRIX_SECTION, "", &mut spec.axes)?;
        }
        if let Some(cells) = root.get(CELLS_SECTION) {
            for (label, entry) in table_of(cells, CELLS_SECTION)?.entries() {
                let path = format!("{CELLS_SECTION}.{label}");
                let mut overrides = Vec::new();
                flatten_overrides(table_of(entry, &path)?, "", &mut overrides);
                if overrides.is_empty() {
                    return Err(DslError {
                        line: entry.line,
                        path,
                        message: "an explicit cell must override at least one key".into(),
                    });
                }
                spec.extra.push((label.clone(), overrides));
            }
        }
        Ok(spec)
    }

    /// Number of cells the campaign expands to: the matrix product (1 when there is no
    /// matrix) plus the explicit `[cells.*]` cells.
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|(_, vs)| vs.len()).product::<usize>() + self.extra.len()
    }

    /// Expands the matrix into concrete, **validated** scenarios: for every combination the
    /// overrides are applied to the base table and the result re-parsed through the DSL's
    /// strict path, so a bad cell fails here — before anything runs — with its key path.
    pub fn expand(&self) -> Result<Vec<CampaignCell>, DslError> {
        let grid = self.axes.iter().map(|(_, vs)| vs.len()).product::<usize>();
        let width = grid.saturating_sub(1).to_string().len().max(2);
        let mut cells = Vec::with_capacity(self.cell_count());
        for index in 0..grid {
            // Decompose the cell index into per-axis choices, last axis fastest.
            let mut rem = index;
            let mut choice = vec![0usize; self.axes.len()];
            for (a, (_, values)) in self.axes.iter().enumerate().rev() {
                choice[a] = rem % values.len();
                rem /= values.len();
            }
            let label = format!("cell-{index:0width$}");
            let overrides: Vec<(String, Spanned)> = self
                .axes
                .iter()
                .enumerate()
                .map(|(a, (path, values))| (path.clone(), values[choice[a]].clone()))
                .collect();
            cells.push(self.build_cell(index, label, overrides)?);
        }
        // Explicit cells ride after the grid, in file order.
        for (label, overrides) in &self.extra {
            let index = cells.len();
            cells.push(self.build_cell(index, format!("cell-{label}"), overrides.clone())?);
        }
        Ok(cells)
    }

    /// Applies one cell's overrides to the base table and re-parses it through the DSL's
    /// strict path (the path of [`ScenarioFile::parse_with`]), so a bad cell fails with its
    /// label before anything runs.
    fn build_cell(
        &self,
        index: usize,
        label: String,
        overrides: Vec<(String, Spanned)>,
    ) -> Result<CampaignCell, DslError> {
        let file =
            ScenarioFile::with_overrides(self.base.clone(), &overrides).map_err(|mut e| {
                e.message = format!("{label}: {}", e.message);
                e
            })?;
        file.validate().map_err(|e| DslError {
            line: 0,
            path: label.clone(),
            message: format!("invalid scenario: {e}"),
        })?;
        let overrides = overrides
            .into_iter()
            .map(|(path, value)| (path, value.value.render()))
            .collect();
        Ok(CampaignCell {
            index,
            label,
            overrides,
            file,
        })
    }
}

/// Recursively flattens the `[matrix]` table into `(dotted path, values)` axes in file order.
fn flatten_axes(
    table: &TomlTable,
    err_prefix: &str,
    path_prefix: &str,
    out: &mut Vec<(String, Vec<Spanned>)>,
) -> Result<(), DslError> {
    for (key, spanned) in table.entries() {
        let path = if path_prefix.is_empty() {
            key.clone()
        } else {
            format!("{path_prefix}.{key}")
        };
        match &spanned.value {
            TomlValue::Table(t) => flatten_axes(t, err_prefix, &path, out)?,
            TomlValue::Array(values) => {
                if values.is_empty() {
                    return Err(DslError {
                        line: spanned.line,
                        path: format!("{err_prefix}.{path}"),
                        message: "matrix axis must not be empty".into(),
                    });
                }
                out.push((path, values.clone()));
            }
            other => {
                return Err(DslError {
                    line: spanned.line,
                    path: format!("{err_prefix}.{path}"),
                    message: format!(
                        "matrix axes must be arrays of values, found {}",
                        other.type_name()
                    ),
                })
            }
        }
    }
    Ok(())
}

/// Runs every cell across `threads` OS worker threads and returns one result per cell, in
/// **cell order**. Each run is an independent simulation seeded from its own spec, and the
/// result vector is indexed by cell — never by completion order — so the output is identical
/// whatever the thread count.
pub fn run_campaign(
    cells: &[CampaignCell],
    threads: usize,
) -> Vec<Result<RunReport, ScenarioError>> {
    let threads = threads.clamp(1, cells.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunReport, ScenarioError>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "the campaign pool runs whole cells, each a self-contained simulation"
    )]
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(index) else {
                    return;
                };
                let result = cell.file.run();
                *slots[index].lock().expect("campaign slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("campaign slot poisoned")
                .expect("every cell index was claimed by a worker")
        })
        .collect()
}

/// The number of worker threads to use when the command line does not pick one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Checks the campaign's `threads` × per-cell `shards` product against the machine's
/// parallelism and returns a human-readable warning when the combination oversubscribes it.
///
/// Campaign workers and a cell's event-loop shards multiply: `threads` cells run concurrently
/// and each shard-native cell spawns `shards` OS threads of its own. The run stays correct
/// either way (determinism never depends on scheduling), it just stops getting faster — so
/// this is a warning for the runner to print, not an error.
pub fn oversubscription_warning(cells: &[CampaignCell], threads: usize) -> Option<String> {
    let max_shards = cells
        .iter()
        .map(|c| c.file.spec.shards)
        .max()
        .unwrap_or(1)
        .max(1);
    let cores = default_threads();
    let demand = threads.saturating_mul(max_shards);
    (demand > cores).then(|| {
        format!(
            "{threads} worker thread(s) x up to {max_shards} shard(s) per cell = {demand} OS \
             threads exceeds the available parallelism ({cores}); results are unaffected, but \
             consider lowering --threads or the scenarios' shards"
        )
    })
}

/// One row of the cross-run comparison: the deterministic facts of a cell's run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Cell index.
    pub index: usize,
    /// Cell label (`cell-00`, ...).
    pub label: String,
    /// The cell's matrix overrides, rendered as `path=value` pairs.
    pub overrides: Vec<(String, String)>,
    /// Workload kind of the run.
    pub workload: String,
    /// Scenario name.
    pub scenario: String,
    /// RNG seed.
    pub seed: u64,
    /// Physical machines.
    pub machines: usize,
    /// Virtual nodes.
    pub vnodes: usize,
    /// Participants.
    pub participants: usize,
    /// How the run ended.
    pub outcome: String,
    /// Virtual stop time in nanoseconds.
    pub stopped_at_ns: u64,
    /// Events executed.
    pub events_executed: u64,
    /// Final value of the run's `progress` series.
    pub final_progress: f64,
    /// Relative deviation of this cell's progress curve from the first cell of the same
    /// workload kind (0 for that baseline cell itself) — the campaign-level counterpart of the
    /// folding-invariance comparison.
    pub progress_dev_vs_first: f64,
}

/// The cross-run aggregate of a campaign: one deterministic row per cell.
///
/// Wall-clock facts (`wall_secs`, `events_per_sec`) are deliberately excluded — the summary
/// must be byte-identical between a 1-thread and an N-thread run of the same campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Campaign name.
    pub campaign: String,
    /// One row per cell, in cell order.
    pub rows: Vec<CampaignRow>,
}

impl CampaignSummary {
    /// Builds the aggregate from the cells and their reports (parallel vectors, cell order).
    ///
    /// Per workload kind, the first cell of that kind is the comparison baseline: every other
    /// cell's `progress` curve is compared against it with
    /// [`relative_curve_deviation`] on a grid spanning the kind's longest run.
    pub fn new(campaign: &str, cells: &[CampaignCell], reports: &[RunReport]) -> CampaignSummary {
        assert_eq!(cells.len(), reports.len(), "one report per cell");
        let mut rows = Vec::with_capacity(cells.len());
        for (cell, report) in cells.iter().zip(reports) {
            let baseline = reports
                .iter()
                .find(|r| r.workload == report.workload)
                .expect("the report itself matches its own kind");
            let dev = match (
                baseline.metrics.series("progress"),
                report.metrics.series("progress"),
            ) {
                (Some(base), Some(this)) => {
                    let end = SimTime::from_nanos(
                        baseline
                            .stopped_at
                            .as_nanos()
                            .max(report.stopped_at.as_nanos()),
                    );
                    let step = SimDuration::from_nanos((end.as_nanos() / 200).max(1));
                    relative_curve_deviation(base, this, step, end)
                }
                _ => 0.0,
            };
            let final_progress = report
                .metrics
                .series("progress")
                .and_then(|s| s.last())
                .map(|(_, v)| v)
                .unwrap_or(0.0);
            rows.push(CampaignRow {
                index: cell.index,
                label: cell.label.clone(),
                overrides: cell.overrides.clone(),
                workload: report.workload.clone(),
                scenario: report.scenario.clone(),
                seed: report.seed,
                machines: report.machines,
                vnodes: report.vnodes,
                participants: report.participants,
                outcome: outcome_label(report.outcome).to_string(),
                stopped_at_ns: report.stopped_at.as_nanos(),
                events_executed: report.events_executed,
                final_progress,
                progress_dev_vs_first: dev,
            });
        }
        CampaignSummary {
            campaign: campaign.to_string(),
            rows,
        }
    }

    /// The aggregate as CSV (deterministic: exact integers, shortest round-trip floats): a
    /// header naming every column of `COLUMNS`, then one line per row.
    pub fn to_csv(&self) -> String {
        let line = |cells: Vec<String>| cells.join(",") + "\n";
        let header = line(COLUMNS.iter().map(|(name, _)| name.to_string()).collect());
        let row = |row| line(COLUMNS.iter().map(|(_, cell)| cell(row).csv()).collect());
        header + &self.rows.iter().map(row).collect::<String>()
    }

    /// The aggregate as schema-tagged JSON ([`CAMPAIGN_SCHEMA`]): one object per row, keyed by
    /// the names of `COLUMNS`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str(CAMPAIGN_SCHEMA)));
        out.push_str(&format!("  \"campaign\": {},\n", json_str(&self.campaign)));
        out.push_str("  \"cells\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let cells: Vec<String> = COLUMNS
                .iter()
                .map(|(name, cell)| format!("\"{name}\": {}", cell(row).json()))
                .collect();
            out.push_str(if i > 0 { ",\n    {" } else { "\n    {" });
            out.push_str(&cells.join(", "));
            out.push('}');
        }
        out.push_str(if self.rows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// The value of one column in one row, spelled by [`Cell::csv`] and [`Cell::json`].
enum Cell<'a> {
    Text(&'a str),
    Int(u64),
    Float(f64),
    /// The overrides: `path` → rendered value.
    Pairs(&'a [(String, String)]),
}

/// A column of the aggregate: its name and the cell a row has in it.
type Column = (&'static str, fn(&CampaignRow) -> Cell<'_>);

/// The columns of the aggregate: each [`CampaignRow`] fact is named once, here, and the CSV
/// header, the CSV rows and the JSON objects are all read off this list.
const COLUMNS: &[Column] = &[
    ("cell", |row| Cell::Text(&row.label)),
    ("overrides", |row| Cell::Pairs(&row.overrides)),
    ("workload", |row| Cell::Text(&row.workload)),
    ("scenario", |row| Cell::Text(&row.scenario)),
    ("seed", |row| Cell::Int(row.seed)),
    ("machines", |row| Cell::Int(row.machines as u64)),
    ("vnodes", |row| Cell::Int(row.vnodes as u64)),
    ("participants", |row| Cell::Int(row.participants as u64)),
    ("outcome", |row| Cell::Text(&row.outcome)),
    ("stopped_at_ns", |row| Cell::Int(row.stopped_at_ns)),
    ("events_executed", |row| Cell::Int(row.events_executed)),
    ("final_progress", |row| Cell::Float(row.final_progress)),
    ("progress_dev_vs_first", |row| {
        Cell::Float(row.progress_dev_vs_first)
    }),
];

impl Cell<'_> {
    /// A CSV cell. Text is quoted (RFC 4180) only when it holds a comma, a quote or a line
    /// break; the overrides are one always-quoted `path=value;...` cell whose inner double
    /// quotes are spelled `'`.
    fn csv(&self) -> String {
        match self {
            Cell::Text(text) if text.contains([',', '"', '\n', '\r']) => {
                format!("\"{}\"", text.replace('"', "\"\""))
            }
            Cell::Text(text) => text.to_string(),
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) => json_f64(*v),
            Cell::Pairs(pairs) => {
                let pairs: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{:?}", pairs.join(";").replace('"', "'"))
            }
        }
    }

    /// A JSON value: numbers as in the CSV, the overrides as an object of strings.
    fn json(&self) -> String {
        match self {
            Cell::Text(text) => json_str(text),
            Cell::Int(_) | Cell::Float(_) => self.csv(),
            Cell::Pairs(pairs) => {
                let pairs: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                    .collect();
                format!("{{{}}}", pairs.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SessionProcess;

    fn grid_campaign() -> String {
        "\
[campaign]
name = \"grid\"

[scenario]
name = \"base\"
seed = 1
deadline = \"60s\"
sample_interval = \"1s\"

[topology]
link = \"lan-10m\"

[workload]
kind = \"ping-mesh\"

[workload.ping-mesh]
nodes = 4
pattern = \"ring\"
pings_per_pair = 1

[workload.gossip]
nodes = 6

[matrix]
workload.kind = [\"ping-mesh\", \"gossip\"]
topology.loss = [0.0, 0.05]
scenario.seed = [1, 2, 3]
"
        .to_string()
    }

    #[test]
    fn matrix_expands_row_major_with_last_axis_fastest() {
        let campaign = CampaignSpec::parse(&grid_campaign()).unwrap();
        assert_eq!(campaign.name, "grid");
        assert_eq!(campaign.cell_count(), 12);
        let cells = campaign.expand().unwrap();
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].label, "cell-00");
        assert_eq!(cells[11].label, "cell-11");
        // Last axis (seed) varies fastest.
        assert_eq!(cells[0].file.spec.seed, 1);
        assert_eq!(cells[1].file.spec.seed, 2);
        assert_eq!(cells[2].file.spec.seed, 3);
        assert_eq!(cells[3].file.spec.seed, 1);
        // First axis (workload kind) varies slowest: first 6 cells ping-mesh, last 6 gossip.
        assert!(cells[..6]
            .iter()
            .all(|c| c.file.workload.kind() == "ping-mesh"));
        assert!(cells[6..]
            .iter()
            .all(|c| c.file.workload.kind() == "gossip"));
        // Loss override reaches the topology.
        let loss = |c: &CampaignCell| c.file.spec.topology.groups()[0].link.loss_rate;
        assert_eq!(loss(&cells[0]), 0.0);
        assert_eq!(loss(&cells[3]), 0.05);
        // Overrides are recorded for provenance.
        assert_eq!(
            cells[3].overrides,
            vec![
                ("workload.kind".to_string(), "\"ping-mesh\"".to_string()),
                ("topology.loss".to_string(), "0.05".to_string()),
                ("scenario.seed".to_string(), "1".to_string()),
            ]
        );
    }

    #[test]
    fn adversary_fraction_sweeps_as_a_matrix_axis() {
        let text = "\
[campaign]
name = \"byz\"

[scenario]
name = \"byz\"
deadline = \"60s\"
sample_interval = \"1s\"

[topology]
link = \"lan-10m\"

[workload]
kind = \"gossip\"

[workload.gossip]
nodes = 8

[adversary]
fraction = 0.0
behaviors = [\"silent-drop\"]

[matrix]
adversary.fraction = [0.0, 0.25]
";
        let campaign = CampaignSpec::parse(text).unwrap();
        let cells = campaign.expand().unwrap();
        assert_eq!(cells.len(), 2);
        let fraction = |c: &CampaignCell| c.file.spec.adversary.as_ref().unwrap().fraction;
        assert_eq!(fraction(&cells[0]), 0.0);
        assert_eq!(fraction(&cells[1]), 0.25);
        assert_eq!(
            cells[1].overrides,
            vec![("adversary.fraction".to_string(), "0.25".to_string())]
        );
        // A swept fraction must still pass plan validation cell by cell.
        let bad = text.replace("[0.0, 0.25]", "[0.0, 1.5]");
        let err = CampaignSpec::parse(&bad).unwrap().expand().unwrap_err();
        assert!(err.message.contains("fraction"), "{err}");
    }

    #[test]
    fn session_kind_sweeps_over_one_shared_section() {
        // Every tagged section follows the rule `workload.kind` and `arrivals.kind` do: all
        // variants' keys may sit in the one table a `kind` axis sweeps over.
        let text = "\
[campaign]
name = \"churn-kinds\"

[scenario]
name = \"churn-kinds\"
deadline = \"60s\"

[topology]
link = \"lan-10m\"

[workload]
kind = \"gossip\"

[workload.gossip]
nodes = 8

[sessions]
kind = \"exponential\"
mean_session = \"20s\"
mean_downtime = \"5s\"
scale_session = \"10s\"
shape = 2.5

[matrix]
sessions.kind = [\"exponential\", \"pareto\"]
";
        let cells = CampaignSpec::parse(text).unwrap().expand().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells[0].file.spec.sessions,
            Some(SessionProcess::Exponential {
                mean_session: SimDuration::from_secs(20),
                mean_downtime: SimDuration::from_secs(5),
            })
        );
        assert_eq!(
            cells[1].file.spec.sessions,
            Some(SessionProcess::Pareto {
                scale_session: SimDuration::from_secs(10),
                shape: 2.5,
                mean_downtime: SimDuration::from_secs(5),
            })
        );
        // A key no variant has is still a typo, reported with its line.
        let typo = text.replace("shape = 2.5", "shapes = 2.5");
        let err = CampaignSpec::parse(&typo).unwrap().expand().unwrap_err();
        assert_eq!((err.line, err.path.as_str()), (22, "sessions.shapes"));
        assert!(err.message.contains("unknown key"), "{err}");
    }

    #[test]
    fn explicit_cells_ride_after_the_grid() {
        let text = format!(
            "{}\n[cells.byzantine]\nworkload.kind = \"gossip\"\nscenario.seed = 9\n\
             adversary.fraction = 0.25\nadversary.behaviors = [\"silent-drop\"]\n",
            grid_campaign()
        );
        let campaign = CampaignSpec::parse(&text).unwrap();
        assert_eq!(campaign.cell_count(), 13);
        let cells = campaign.expand().unwrap();
        assert_eq!(cells.len(), 13);
        let byz = &cells[12];
        assert_eq!(byz.label, "cell-byzantine");
        assert_eq!(byz.index, 12);
        assert_eq!(byz.file.workload.kind(), "gossip");
        assert_eq!(byz.file.spec.seed, 9);
        let plan = byz.file.spec.adversary.as_ref().unwrap();
        assert_eq!(plan.fraction, 0.25);
        assert_eq!(plan.behaviors, vec!["silent-drop".to_string()]);
        // The grid itself is untouched: no earlier cell carries the adversary.
        assert!(cells[..12].iter().all(|c| c.file.spec.adversary.is_none()));
        // Provenance records the explicit overrides too.
        assert!(byz
            .overrides
            .iter()
            .any(|(k, v)| k == "adversary.fraction" && v == "0.25"));

        // An explicit cell must be a non-empty table of overrides.
        let empty = format!("{}\n[cells.noop]\n", grid_campaign());
        let err = CampaignSpec::parse(&empty).unwrap_err();
        assert_eq!(err.path, "cells.noop");
        // And a bad override fails expansion with the cell's label.
        let bad = format!(
            "{}\n[cells.broken]\nworkload.kind = \"no-such-workload\"\n",
            grid_campaign()
        );
        let err = CampaignSpec::parse(&bad).unwrap().expand().unwrap_err();
        assert!(err.message.contains("cell-broken"), "{err}");
    }

    #[test]
    fn campaigns_without_matrix_have_one_cell() {
        let text = grid_campaign();
        let no_matrix = &text[..text.find("[matrix]").unwrap()];
        let campaign = CampaignSpec::parse(no_matrix).unwrap();
        assert_eq!(campaign.cell_count(), 1);
        let cells = campaign.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].overrides.is_empty());
    }

    #[test]
    fn expansion_validates_every_cell() {
        // Sweep the topology down to a size too small for the workload: expansion must fail
        // with the cell label, before anything runs.
        let text =
            grid_campaign().replace("topology.loss = [0.0, 0.05]", "topology.nodes = [2, 64]");
        let campaign = CampaignSpec::parse(&text).unwrap();
        let err = campaign.expand().unwrap_err();
        assert!(err.path.starts_with("cell-"), "{err}");
        assert!(err.message.contains("invalid scenario"), "{err}");
    }

    #[test]
    fn matrix_axes_must_be_non_empty_arrays() {
        let text = grid_campaign().replace("scenario.seed = [1, 2, 3]", "scenario.seed = []");
        let err = CampaignSpec::parse(&text).unwrap_err();
        assert_eq!(err.path, "matrix.scenario.seed");
        let text = grid_campaign().replace("scenario.seed = [1, 2, 3]", "scenario.seed = 1");
        let err = CampaignSpec::parse(&text).unwrap_err();
        assert!(err.message.contains("arrays"), "{err}");
    }

    #[test]
    fn the_worker_count_is_not_a_file_key() {
        // `campaign run --threads` picks it; the file describes the grid, not the machine.
        let text = grid_campaign().replace("name = \"grid\"\n", "name = \"grid\"\nthreads = 4\n");
        let err = CampaignSpec::parse(&text).unwrap_err();
        assert_eq!((err.line, err.path.as_str()), (3, "campaign.threads"));
        assert!(err.message.contains("unknown key"), "{err}");
    }

    #[test]
    fn missing_campaign_section_is_an_error_and_detectable() {
        let text = grid_campaign();
        let scenario_only = text.split_once("[scenario]").unwrap().1;
        let scenario_only = format!("[scenario]{scenario_only}");
        let root = parse_toml(&scenario_only).unwrap();
        assert!(!CampaignSpec::is_campaign(&root));
        assert!(CampaignSpec::from_table(&root).is_err());
        let root = parse_toml(&grid_campaign()).unwrap();
        assert!(CampaignSpec::is_campaign(&root));
    }

    #[test]
    fn summary_is_deterministic_across_thread_counts() {
        // Tiny 4-cell grid (ring mesh, 1 ping per pair) so the pin stays fast.
        let text = "\
[campaign]
name = \"pin\"

[scenario]
name = \"pin\"
deadline = \"30s\"
sample_interval = \"1s\"

[topology]
link = \"lan-10m\"

[workload]
kind = \"ping-mesh\"

[workload.ping-mesh]
nodes = 4
pattern = \"ring\"
pings_per_pair = 1

[matrix]
scenario.seed = [1, 2]
topology.loss = [0.0, 0.1]
";
        let campaign = CampaignSpec::parse(text).unwrap();
        let cells = campaign.expand().unwrap();
        assert_eq!(cells.len(), 4);
        let single: Vec<RunReport> = run_campaign(&cells, 1)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        let parallel: Vec<RunReport> = run_campaign(&cells, 4)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        let a = CampaignSummary::new(&campaign.name, &cells, &single);
        let b = CampaignSummary::new(&campaign.name, &cells, &parallel);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_json(), b.to_json());
        // The baseline cell's self-deviation is zero; the schema tag is present.
        assert_eq!(a.rows[0].progress_dev_vs_first, 0.0);
        assert!(a.to_json().contains(CAMPAIGN_SCHEMA));
    }

    #[test]
    fn summary_csv_and_json_goldens() {
        // The bytes of both artefacts, pinned: a plain row, and a row whose override value
        // holds a double quote and whose scenario name holds a comma.
        let row = |index: usize, overrides: &[(&str, &str)], scenario: &str| CampaignRow {
            index,
            label: format!("cell-{index:02}"),
            overrides: overrides
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            workload: "gossip".into(),
            scenario: scenario.into(),
            seed: 7 + index as u64,
            machines: 2,
            vnodes: 16,
            participants: 12,
            outcome: "drained".into(),
            stopped_at_ns: 1_500_000_000,
            events_executed: u64::MAX - index as u64,
            final_progress: 12.0,
            progress_dev_vs_first: 0.125 * index as f64,
        };
        let summary = CampaignSummary {
            campaign: "golden".into(),
            rows: vec![
                row(
                    0,
                    &[("topology.loss", "0.05"), ("scenario.seed", "7")],
                    "plain",
                ),
                row(1, &[("workload.kind", "\"gossip\"")], "a,b"),
            ],
        };
        assert_eq!(
            summary.to_csv(),
            "cell,overrides,workload,scenario,seed,machines,vnodes,participants,outcome,\
             stopped_at_ns,events_executed,final_progress,progress_dev_vs_first\n\
             cell-00,\"topology.loss=0.05;scenario.seed=7\",gossip,plain,7,2,16,12,drained,\
             1500000000,18446744073709551615,12,0\n\
             cell-01,\"workload.kind='gossip'\",gossip,\"a,b\",8,2,16,12,drained,\
             1500000000,18446744073709551614,12,0.125\n"
        );
        assert_eq!(
            summary.to_json(),
            r#"{
  "schema": "p2plab.campaign.v1",
  "campaign": "golden",
  "cells": [
    {"cell": "cell-00", "overrides": {"topology.loss": "0.05", "scenario.seed": "7"}, "workload": "gossip", "scenario": "plain", "seed": 7, "machines": 2, "vnodes": 16, "participants": 12, "outcome": "drained", "stopped_at_ns": 1500000000, "events_executed": 18446744073709551615, "final_progress": 12, "progress_dev_vs_first": 0},
    {"cell": "cell-01", "overrides": {"workload.kind": "\"gossip\""}, "workload": "gossip", "scenario": "a,b", "seed": 8, "machines": 2, "vnodes": 16, "participants": 12, "outcome": "drained", "stopped_at_ns": 1500000000, "events_executed": 18446744073709551614, "final_progress": 12, "progress_dev_vs_first": 0.125}
  ]
}
"#
        );
    }

    #[test]
    fn oversubscription_warns_on_threads_times_shards() {
        // Only a shard-native workload takes `shards > 1`.
        let text = "[campaign]\nname = \"sharded\"\n[scenario]\nname = \"base\"\nshards = 4\n\
                    [topology]\nlink = \"lan-10m\"\n[workload]\nkind = \"gossip-sharded\"\n\
                    [workload.gossip-sharded]\nnodes = 8\n[matrix]\nscenario.seed = [1, 2]\n";
        let campaign = CampaignSpec::parse(text).unwrap();
        let cells = campaign.expand().unwrap();
        assert!(cells.iter().all(|c| c.file.spec.shards == 4));
        // Demanding far beyond any machine's parallelism must warn; a single worker running
        // single-shard cells never does.
        let warning = oversubscription_warning(&cells, 4096);
        assert!(warning.is_some());
        assert!(warning.unwrap().contains("4 shard(s)"));
        let single = CampaignSpec::parse(&grid_campaign())
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(oversubscription_warning(&single, 1), None);
    }
}
