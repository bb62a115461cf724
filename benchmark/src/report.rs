//! What a run reports and how: the metric list of `BENCHMARK.json`, the
//! `name value unit` lines, the result file with its provenance, the
//! driver's last-line JSON object, and `agree`, which compares two result
//! files metric by metric.

use crate::json::{self, Value};
use crate::stats::Summary;
use crate::sys;
use std::fs;
use std::path::Path;

pub const HARNESS_VERSION: &str = env!("CARGO_PKG_VERSION");
pub const OUT_DIR: &str = "benchmark/out";
const SPEC_FILE: &str = "BENCHMARK.json";

/// Facts of untraced result files that `agree` holds to a bound as it does
/// the end-to-end metrics. The driver's contract has every workload report
/// every end-to-end metric, never as 0, and two workloads commit nothing
/// and save no index: write latency and index size cannot be metrics of
/// `BENCHMARK.json`, and must not go unbounded for that.
const CHECKED_FACTS: [(&str, f64); 2] = [("update_p50_ms", 0.25), ("index_bytes_per_triple", 0.0)];

/// Letters, digits, `_`, `.` and `-`; starts with a letter or digit; at
/// most 64 characters: the rule `BENCHMARK.json` names must follow.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Regression bound as a share of the value; end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness needs. That file is the one
/// list of metric names, units and bounds; the harness keeps no copy.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let text = fs::read_to_string(SPEC_FILE)
            .map_err(|e| format!("{SPEC_FILE}: {e} (run from the repository root)"))?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            v.get(key)
                .ok_or(format!("{SPEC_FILE}: no \"{key}\""))?
                .as_arr()
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Value::as_str).unwrap_or_default();
                    if !valid_name(name) {
                        return Err(format!("{SPEC_FILE}: bad metric name {name:?}"));
                    }
                    Ok(MetricSpec {
                        name: name.to_string(),
                        unit: m
                            .get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: v
                .get("workloads")
                .map(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str))
                .map(str::to_string)
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    fn bound_of(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.bound)
    }
}

/// A check the run made. A failed `hard` check makes the run incorrect;
/// the others (ledger closure, workload premises) are findings a reader
/// must see but a noisy host may cause, so they do not fail the run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub hard: bool,
    pub detail: String,
}

/// Everything a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<(String, f64)>,
    /// Latency summaries in milliseconds, keyed by template (and state).
    pub timings: Vec<(String, Summary)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Facts worth a place in the result file: data-set sizes, thread
    /// counts, digests.
    pub facts: Vec<(String, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            !self.metrics.iter().any(|(n, _)| n == name),
            "metric {name} set twice"
        );
        self.metrics.push((name.to_string(), value));
    }

    pub fn check(&mut self, name: &str, ok: bool, hard: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            hard,
            detail: detail.into(),
        });
    }

    pub fn hard(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.check(name, ok, true, detail);
    }

    pub fn soft(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.check(name, ok, false, detail);
    }

    pub fn fact(&mut self, key: &str, value: impl Into<Value>) {
        self.facts.push((key.to_string(), value.into()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok || !c.hard)
    }
}

fn provenance() -> Value {
    let build = lbr::obs::build_info();
    Value::obj()
        .with("cpu_model", sys::cpu_model())
        .with("nproc", sys::nproc())
        // `run.sh` passes `git rev-parse HEAD`; a checkout without git
        // history has none to pass.
        .with(
            "commit",
            std::env::var("LBR_GIT_HASH").unwrap_or_else(|_| "unknown".to_string()),
        )
        .with("profile", build.profile)
        .with("lbr_version", build.version)
        .with("harness_version", HARNESS_VERSION)
}

/// Prints every metric of the run's mode as `name value unit`, writes the
/// result file, and prints the driver's JSON object as the last line.
/// Errors when the workload computed a metric `BENCHMARK.json` does not
/// name for this mode, or missed one it does: each is printed exactly once.
pub fn emit(spec: &Spec, info: &crate::Args, outcome: &Outcome) -> Result<(), String> {
    let wanted = if info.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some((extra, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !wanted.iter().any(|m| &m.name == n))
    {
        return Err(format!(
            "metric {extra} is not in {SPEC_FILE} for this mode"
        ));
    }
    let mut metrics = Value::obj();
    for m in wanted {
        let (_, value) = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == &m.name)
            .ok_or(format!("workload {} reported no {}", info.workload, m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", m.name));
        }
        println!("{} {} {}", m.name, value, m.unit);
        metrics.set(
            &m.name,
            Value::obj()
                .with("value", *value)
                .with("unit", m.unit.as_str()),
        );
    }
    for c in &outcome.checks {
        let verdict = match (c.ok, c.hard) {
            (true, _) => "ok",
            (false, true) => "FAILED",
            (false, false) => "premise-not-met",
        };
        println!("check {} {verdict} {}", c.name, c.detail);
    }

    let mut timings = Value::obj();
    for (name, s) in &outcome.timings {
        let mut t = Value::obj().with("n", s.n).with("median_ms", s.median);
        if let Some((p, v)) = s.tail {
            t = t.with("tail_percentile", p * 100.0).with("tail_ms", v);
        }
        timings.set(name, t);
    }
    let checks: Vec<Value> = outcome
        .checks
        .iter()
        .map(|c| {
            Value::obj()
                .with("name", c.name.as_str())
                .with("ok", c.ok)
                .with("hard", c.hard)
                .with("detail", c.detail.as_str())
        })
        .collect();
    let mut facts = Value::obj();
    for (k, v) in &outcome.facts {
        facts.set(k, v.clone());
    }
    let file = Value::obj()
        .with("workload", info.workload.as_str())
        .with("traced", info.traced)
        .with("smoke", info.smoke)
        .with("seed", info.seed)
        .with("seconds", info.seconds)
        .with("provenance", provenance())
        .with("correct", outcome.correct())
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics.clone())
        .with("timings", timings)
        .with("checks", checks)
        .with("facts", facts);
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let suffix = if info.traced { ".traced" } else { "" };
    let path = Path::new(OUT_DIR).join(format!("{}{suffix}.json", info.workload));
    fs::write(&path, file.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    let last = Value::obj()
        .with("correct", outcome.correct())
        .with("attempted", outcome.attempted.max(1))
        .with("failed", outcome.failed)
        .with("metrics", metrics);
    println!("{}", last.to_compact());
    Ok(())
}

/// The result files under `path`: itself if it is a file, else every
/// `*.json` in the directory, sorted.
fn result_files(path: &Path) -> Result<Vec<std::path::PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<_> = fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    Ok(files)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One row of `agree`.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `|a - b| / min(|a|, |b|)`, the same whichever file comes first; 0
    /// when the values are equal.
    pub rel: f64,
    pub bound: Option<f64>,
}

impl Row {
    pub fn disagrees(&self) -> bool {
        self.bound.is_some_and(|bound| self.rel > bound)
    }
}

/// Compares the metrics, and the checked facts, two result files share.
pub fn compare(spec: &Spec, a: &Value, b: &Value) -> Vec<Row> {
    let workload = a.get("workload").and_then(Value::as_str).unwrap_or("?");
    let row = |metric: &str, x: f64, y: f64, bound: Option<f64>| Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        a: x,
        b: y,
        rel: if x == y {
            0.0
        } else {
            (x - y).abs() / x.abs().min(y.abs())
        },
        bound,
    };
    let value = |m: &Value| m.get("value").and_then(Value::as_f64);
    let mut rows = Vec::new();
    for (name, ma) in a.get("metrics").map(Value::fields).unwrap_or_default() {
        let Some(mb) = b.get("metrics").and_then(|m| m.get(name)) else {
            continue;
        };
        if let (Some(x), Some(y)) = (value(ma), value(mb)) {
            rows.push(row(name, x, y, spec.bound_of(name)));
        }
    }
    for (name, bound) in CHECKED_FACTS {
        let fact = |file: &Value| file.get("facts")?.get(name)?.as_f64();
        if let (Some(x), Some(y)) = (fact(a), fact(b)) {
            rows.push(row(name, x, y, Some(bound)));
        }
    }
    rows
}

/// `benchmark agree A B`: prints one row per metric × workload and returns
/// whether every end-to-end metric and checked fact agrees within its bound. `A` and `B`
/// are result files, or directories holding the same file names.
pub fn agree(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = Spec::load()?;
    let (files_a, files_b) = (result_files(a)?, result_files(b)?);
    let mut all_agree = true;
    let mut compared = 0;
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "a", "b", "diff", "bound"
    );
    for fa in &files_a {
        let partner = if a.is_file() {
            files_b.first()
        } else {
            files_b.iter().find(|fb| fb.file_name() == fa.file_name())
        };
        let Some(fb) = partner else {
            println!("# {} has no partner", fa.display());
            continue;
        };
        let (va, vb) = (load(fa)?, load(fb)?);
        for key in ["workload", "traced", "smoke"] {
            if va.get(key) != vb.get(key) {
                return Err(format!(
                    "{} and {} differ in \"{key}\"; they are not runs of one benchmark",
                    fa.display(),
                    fb.display()
                ));
            }
        }
        for row in compare(&spec, &va, &vb) {
            compared += 1;
            let bound = row
                .bound
                .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", b * 100.0));
            let flag = if row.disagrees() { "  DISAGREE" } else { "" };
            println!(
                "{:<16} {:<28} {:>14.6} {:>14.6} {:>7.2}% {:>6}{flag}",
                row.workload,
                row.metric,
                row.a,
                row.b,
                row.rel * 100.0,
                bound
            );
            all_agree &= !row.disagrees();
        }
    }
    if compared == 0 {
        return Err("nothing to compare".to_string());
    }
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "core.rows", "unit": "count", "better": "lower"}]
    }"#;

    #[test]
    fn names_follow_the_contract() {
        for good in ["query_p95_ms", "core.init_ms", "a-b", "9lives", "x"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".lead", "_lead", "sp ace", "slash/", "pct%", "é", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
        let bad_spec = SPEC.replace("core.rows", "core rows");
        assert!(Spec::parse(&bad_spec).is_err());
    }

    fn result(lat: f64, setup: f64) -> Value {
        let metric = |v: f64, u: &str| Value::obj().with("value", v).with("unit", u);
        Value::obj()
            .with("workload", "w")
            .with(
                "metrics",
                Value::obj()
                    .with("lat_ms", metric(lat, "ms"))
                    .with("setup_s", metric(setup, "s")),
            )
            .with(
                "facts",
                Value::obj()
                    .with("update_p50_ms", lat / 4.0)
                    .with("index_bytes_per_triple", 11.5)
                    .with("threads", 2usize),
            )
    }

    #[test]
    fn agree_reads_what_the_writer_wrote_and_applies_bounds() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.workloads, ["w"]);
        // Through the writer and back through the reader, as files go.
        let a = json::parse(&result(10.0, 2.0).to_pretty()).unwrap();
        let b = json::parse(&result(10.9, 2.6).to_pretty()).unwrap();
        let rows = compare(&spec, &a, &b);
        let names: Vec<&str> = rows.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(
            names,
            [
                "lat_ms",
                "setup_s",
                "update_p50_ms",
                "index_bytes_per_triple"
            ]
        );
        assert!((rows[0].rel - 0.09).abs() < 1e-9);
        assert!(!rows[0].disagrees());
        assert!((rows[1].rel - 0.3).abs() < 1e-9);
        assert!(rows[1].disagrees());
        // Checked facts carry their own bounds: 25%, and exact.
        assert!(!rows[2].disagrees());
        assert_eq!((rows[3].rel, rows[3].disagrees()), (0.0, false));
        assert!(compare(&spec, &a, &a).iter().all(|r| r.rel == 0.0));
    }

    #[test]
    fn the_verdict_does_not_depend_on_which_file_comes_first() {
        let spec = Spec::parse(SPEC).unwrap();
        // 2.0 against 2.6 is 30% of the smaller and 23% of the larger: a
        // difference taken of the first file would pass one way round.
        let (a, b) = (result(10.0, 2.0), result(10.0, 2.6));
        let (ab, ba) = (compare(&spec, &a, &b), compare(&spec, &b, &a));
        for (x, y) in ab.iter().zip(&ba) {
            assert_eq!(
                (x.rel, x.disagrees()),
                (y.rel, y.disagrees()),
                "{}",
                x.metric
            );
        }
        assert!(ab[1].disagrees() && ba[1].disagrees());
    }

    #[test]
    fn a_failed_hard_check_or_op_makes_a_run_incorrect() {
        let mut o = Outcome::default();
        o.soft("premise", false, "init share 0.5");
        assert!(o.correct());
        o.hard("digest", false, "lubm.Q2 changed");
        assert!(!o.correct());
        let o = Outcome {
            failed: 1,
            ..Outcome::default()
        };
        assert!(!o.correct());
    }
}
