//! The four workloads and what they share: templates with seeded
//! parameters, the single-caller pass loop with its per-op verification,
//! the traced pass that reads the engine's own stage spans, and the
//! correctness gate against the reference engine.

pub mod disk;
pub mod inproc;
pub mod serve;

use crate::data::{self, DataSet, Family, FileFacts, Scale, Sizes};
use crate::digest::{self, Digest};
use crate::json::Value;
use crate::report::Outcome;
use crate::sample::Rng;
use crate::stats::{self, Slice};
use crate::sys;
use lbr::{Database, EngineKind};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups timed per untraced run; `setup_s` is their median, because one
/// set-up is a single shot and the reference host stalls. Each runs in a
/// process of its own, as an operator's does: in one process the second
/// and third set-up met the heap the first had left behind and took up to
/// twice as long (README.md, "Findings").
pub const SETUPS: usize = 3;

/// A single-caller measured phase runs at least this many passes of either
/// kind however short `--seconds` is, so every template has samples.
pub const MIN_PASSES: u64 = 4;

pub struct Ctx {
    pub workload: String,
    pub smoke: bool,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
    /// `expected/seed42.json`, when the run is at full size. Digests of
    /// the data files and of fixed texts hold for every `--seed`; those of
    /// drawn texts and seeded updates for the file's own seed only.
    pub expected: Option<Value>,
    /// A scratch directory of this run's own, under `benchmark/out/`.
    pub work_dir: PathBuf,
    pub started: Instant,
}

impl Ctx {
    /// Progress on stderr: the phase that just ended and the run's age.
    pub fn done(&self, phase: &str) {
        eprintln!("[{:6.2}s] {phase}", self.started.elapsed().as_secs_f64());
    }

    pub fn set(&self, family: Family) -> DataSet {
        DataSet::new(family, Scale::Factor(self.sizes.of(family)))
    }
}

/// Every data set a workload reads, gate sets included: what `gen` writes.
pub fn data_sets(workload: &str, sizes: Sizes) -> Result<Vec<DataSet>, String> {
    use Family::*;
    let families: &[Family] = match workload {
        "complex_lowsel" | "selective_point" => &[Lubm, Uniprot, Dbpedia],
        "serve_mixed" | "disk_overlay" => &[Lubm],
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut sets: Vec<DataSet> = families
        .iter()
        .map(|&f| DataSet::new(f, Scale::Gate))
        .collect();
    for &f in families {
        let scale = match workload {
            "disk_overlay" => sizes.lubm_disk,
            _ => sizes.of(f),
        };
        sets.push(DataSet::new(f, Scale::Factor(scale)));
    }
    Ok(sets)
}

/// One timed set-up of the context's workload, N-Triples files on disk →
/// ready for the first query; returns its seconds. What `benchmark setup`
/// runs.
pub fn setup(ctx: &Ctx) -> Result<f64, String> {
    match ctx.workload.as_str() {
        "complex_lowsel" | "selective_point" => inproc::setup(ctx),
        "serve_mixed" => serve::setup(ctx),
        "disk_overlay" => disk::setup(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// [`SETUPS`] set-ups, one after another, each in a child process that
/// prints its seconds.
pub fn timed_setups(ctx: &Ctx) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut secs = Vec::new();
    for _ in 0..SETUPS {
        let mut child = std::process::Command::new(&exe);
        child.args(["setup", "--workload", &ctx.workload]);
        child.args(["--seed", &ctx.seed.to_string()]);
        if ctx.smoke {
            child.arg("--smoke");
        }
        let output = child.output().map_err(|e| format!("set-up process: {e}"))?;
        let printed = String::from_utf8_lossy(&output.stdout);
        match printed.trim().parse::<f64>() {
            Ok(s) if output.status.success() => secs.push(s),
            _ => {
                return Err(format!(
                    "set-up process failed: {}",
                    String::from_utf8_lossy(&output.stderr).trim()
                ))
            }
        }
    }
    Ok(secs)
}

pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "complex_lowsel" => inproc::run(ctx, inproc::Class::ComplexLowsel),
        "selective_point" => inproc::run(ctx, inproc::Class::SelectivePoint),
        "serve_mixed" => serve::run(ctx),
        "disk_overlay" => disk::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// One query template of a workload. With `choices`, each op replaces
/// `needle` in `text` by a constant drawn from them.
pub struct Slot {
    /// "lubm.Q4": family and query id, the key in result files.
    pub name: String,
    /// Index into the workload's databases.
    pub db: usize,
    pub text: String,
    pub param: Option<Param>,
}

pub struct Param {
    pub needle: &'static str,
    pub choices: Vec<String>,
}

impl Slot {
    pub fn fixed(family: Family, db: usize, id: &str) -> Slot {
        Slot {
            name: format!("{}.{id}", family.name()),
            db,
            text: family.query(id),
            param: None,
        }
    }

    pub fn drawn(
        family: Family,
        db: usize,
        id: &str,
        needle: &'static str,
        choices: Vec<String>,
    ) -> Slot {
        let slot = Slot::fixed(family, db, id);
        assert!(slot.text.contains(needle), "{} lacks {needle}", slot.name);
        assert!(!choices.is_empty(), "{}: nothing to draw from", slot.name);
        Slot {
            param: Some(Param { needle, choices }),
            ..slot
        }
    }

    /// The text of this slot's op in `pass`: a function of the seed, the
    /// pass and the slot alone, so pass 7 is the same ops in every run.
    pub fn text_for(&self, seed: u64, pass: u64, index: usize) -> String {
        match &self.param {
            None => self.text.clone(),
            Some(p) => {
                let mut rng = Rng::for_stream(seed, pass * 64 + index as u64);
                let pick = &p.choices[rng.below(p.choices.len())];
                self.text.replace(p.needle, pick)
            }
        }
    }
}

/// The order of a pass's `n` ops: a seeded shuffle, so that `--seed` moves
/// the op sequence even of a workload whose texts are all fixed.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::for_stream(seed, pass * 64 + 63);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Constants for LUBM Q4–Q6: the departments somebody works for.
pub fn lubm_departments(text: &str) -> Vec<String> {
    data::objects_of(text, "<urn:ub:worksFor>")
}

pub const LUBM_DEPT_NEEDLE: &str = "ub:Department0.University0";
pub const LUBM_DEPT1_NEEDLE: &str = "ub:Department1.University0";

pub fn open_heap(set: &DataSet, threads: Option<usize>) -> Result<Database, String> {
    let mut b = Database::builder().ntriples_file(&set.path);
    if let Some(n) = threads {
        b = b.threads(n);
    }
    b.build()
        .map_err(|e| format!("{}: {e}", set.path.display()))
}

/// Reads the files, records their facts and checks them against the
/// expected digests.
pub fn load_texts(ctx: &Ctx, sets: &[DataSet], out: &mut Outcome) -> Result<Vec<String>, String> {
    let mut texts = Vec::new();
    let mut facts = Value::obj();
    for set in sets {
        let text = set.read().map_err(|e| e.to_string())?;
        let f: FileFacts = data::file_facts(set, &text);
        if let Some(expected) = &ctx.expected {
            let want = expected
                .get("data")
                .and_then(|d| d.get(&f.label))
                .and_then(Value::as_str);
            out.hard(
                &format!("data.{}", f.label),
                want == Some(f.digest.as_str()),
                format!("digest {} expected {}", f.digest, want.unwrap_or("nothing")),
            );
        }
        facts.set(
            &f.label,
            Value::obj()
                .with("triples", f.triples)
                .with("bytes", f.bytes)
                .with("digest", f.digest),
        );
        texts.push(text);
    }
    out.fact("data", facts);
    Ok(texts)
}

/// Records the term-level digests of a workload's first pass and checks
/// them against the expected file. An entry's flag says whether its result
/// depends on `--seed`; such an entry is checked only in a run of the seed
/// the file was frozen from.
pub fn record_digests(
    ctx: &Ctx,
    workload: &str,
    digests: &[(String, Digest, bool)],
    out: &mut Outcome,
) {
    let mut fact = Value::obj();
    for (key, d, seeded) in digests {
        fact.set(
            key,
            Value::obj().with("rows", d.rows).with("digest", d.hex()),
        );
        let frozen_seed =
            |e: &Value| e.get("seed").and_then(Value::as_f64) == Some(ctx.seed as f64);
        if let Some(expected) = ctx.expected.as_ref().filter(|e| !seeded || frozen_seed(e)) {
            let want = expected
                .get("results")
                .and_then(|r| r.get(workload))
                .and_then(|w| w.get(key));
            let rows = want.and_then(|w| w.get("rows")).and_then(Value::as_f64);
            let hex = want.and_then(|w| w.get("digest")).and_then(Value::as_str);
            out.hard(
                &format!("expected.{key}"),
                rows == Some(d.rows as f64) && hex == Some(d.hex().as_str()),
                format!(
                    "{} rows digest {}, expected {} rows digest {}",
                    d.rows,
                    d.hex(),
                    rows.map_or("no".to_string(), |r| r.to_string()),
                    hex.unwrap_or("nothing")
                ),
            );
        }
    }
    out.fact("digests", fact);
}

/// The correctness gate: every template, verbatim, on a tiny data set of
/// its family, must return the reference engine's rows as a multiset.
pub fn gate(templates: &[(Family, &str)], out: &mut Outcome) -> Result<(), String> {
    let mut dbs: HashMap<&'static str, Database> = HashMap::new();
    for &(family, id) in templates {
        if !dbs.contains_key(family.name()) {
            let db = open_heap(&DataSet::new(family, Scale::Gate), None)?;
            dbs.insert(family.name(), db);
        }
        let db = &dbs[family.name()];
        let text = family.query(id);
        let query = lbr::parse_query(&text).map_err(|e| format!("{id}: {e}"))?;
        let canonical = |o: lbr::QueryOutput| {
            // Columns sorted by name, rows sorted: a multiset of solutions.
            let mut order: Vec<usize> = (0..o.vars.len()).collect();
            order.sort_by(|&a, &b| o.vars[a].cmp(&o.vars[b]));
            let mut rows: Vec<Vec<String>> = o
                .decode(db.dict())
                .into_iter()
                .map(|row| {
                    order
                        .iter()
                        .map(|&c| row[c].as_ref().map_or_else(String::new, |t| t.to_string()))
                        .collect()
                })
                .collect();
            rows.sort_unstable();
            (
                order.iter().map(|&c| o.vars[c].clone()).collect::<Vec<_>>(),
                rows,
            )
        };
        let name = format!("gate.{}.{id}", family.name());
        let ours = db.execute(&text).map_err(|e| format!("{name}: {e}"))?;
        let oracle = db
            .engine_of(EngineKind::Reference)
            .execute(&query)
            .map_err(|e| format!("{name} (reference): {e}"))?;
        let (n_ours, n_oracle) = (ours.rows.len(), oracle.rows.len());
        out.hard(
            &name,
            canonical(ours) == canonical(oracle),
            format!("{n_ours} rows, reference {n_oracle}"),
        );
    }
    Ok(())
}

/// A sink that counts what `write_json` emits.
#[derive(Default)]
pub struct CountingSink {
    pub bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Term-level digest of `text` on `db`, through the same JSON writer the
/// server uses.
pub fn term_digest(db: &Database, text: &str) -> Result<Digest, String> {
    let query = lbr::parse_query(text).map_err(|e| e.to_string())?;
    let output = db.execute(text).map_err(|e| e.to_string())?;
    let mut body = Vec::new();
    lbr::format::write_json(&mut body, &query, &output, db.dict()).map_err(|e| e.to_string())?;
    digest::of_json_bindings(&body).ok_or_else(|| "result JSON has no bindings".to_string())
}

/// The engine's stage spans the ledger sums, in pipeline order.
pub const STAGES: [&str; 5] = ["init", "prune", "join", "best_match", "finalize"];

/// Samples of one single-caller sequence of passes (one database state).
pub struct Recorder {
    /// Latency samples per slot, milliseconds.
    pub lat_ms: Vec<Vec<f64>>,
    /// One slice per pass: what its successful calls cost.
    pub slices: Vec<Slice>,
    /// Every latency sample, whatever its slot, in the order the ops ran.
    pub in_order: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Id-level digest first seen for each text; every later execution of
    /// the text must reproduce it.
    seen: HashMap<String, Digest>,
}

/// What a traced op adds: outside spans around parse, prepare and execute,
/// and the engine's own stage spans, all in milliseconds.
#[derive(Clone, Copy)]
pub struct TracedOp {
    pub parse: f64,
    pub plan: f64,
    pub execute: f64,
    pub stages: [f64; 5],
    pub intersections: u64,
}

impl Recorder {
    pub fn new(slots: usize) -> Recorder {
        Recorder {
            lat_ms: vec![Vec::new(); slots],
            slices: Vec::new(),
            in_order: Vec::new(),
            attempted: 0,
            failed: 0,
            seen: HashMap::new(),
        }
    }

    /// Per slot, its median latency.
    pub fn median_ms(&self) -> Vec<f64> {
        self.lat_ms.iter().map(|lat| stats::median(lat)).collect()
    }

    pub fn state(&self) -> State<'_> {
        State {
            lat_ms: &self.lat_ms,
            slices: &self.slices,
            in_order: &self.in_order,
        }
    }

    fn verify(&mut self, text: String, got: Digest) -> bool {
        let first = *self.seen.entry(text).or_insert(got);
        if first != got {
            self.failed += 1;
        }
        first == got
    }

    /// One pass through `Database::execute(text)`, the call applications
    /// make. Verification runs outside the timed span.
    pub fn untraced_pass(&mut self, dbs: &[&Database], slots: &[Slot], seed: u64, pass: u64) {
        let mut slice = Slice::default();
        for i in pass_order(seed, pass, slots.len()) {
            let slot = &slots[i];
            let text = slot.text_for(seed, pass, i);
            self.attempted += 1;
            let cpu0 = sys::cpu_seconds();
            let t = Instant::now();
            let result = dbs[slot.db].execute(&text);
            let dt = t.elapsed().as_secs_f64();
            let cpu = sys::cpu_seconds() - cpu0;
            match result {
                Ok(output) => {
                    if self.verify(text, digest::of_rows(&output.rows)) {
                        slice.ops += 1;
                        slice.secs += dt;
                        slice.cpu_secs += cpu;
                        self.lat_ms[i].push(dt * 1e3);
                        self.in_order.push(dt * 1e3);
                    }
                }
                Err(e) => {
                    eprintln!("{}: {e}", slot.name);
                    self.failed += 1;
                }
            }
        }
        if slice.ops > 0 {
            self.slices.push(slice);
        }
    }

    /// The same ops through parse → prepare → execute, each under an
    /// outside span, with the engine's own stage spans collected around
    /// `PreparedQuery::execute` by `trace_begin` / `trace_drain`.
    pub fn traced_pass(
        &mut self,
        traced: &mut [Vec<TracedOp>],
        dbs: &[&Database],
        slots: &[Slot],
        seed: u64,
        pass: u64,
    ) {
        let mut slice = Slice::default();
        let (mut spans, mut label) = (Vec::new(), String::new());
        for i in pass_order(seed, pass, slots.len()) {
            let slot = &slots[i];
            let text = slot.text_for(seed, pass, i);
            self.attempted += 1;
            let cpu0 = sys::cpu_seconds();
            let t0 = Instant::now();
            let parsed = lbr::parse_query(&text);
            let t1 = Instant::now();
            let prepared = parsed
                .map_err(lbr::core::LbrError::from)
                .and_then(|q| dbs[slot.db].prepare_query(q));
            let t2 = Instant::now();
            lbr::obs::trace_begin(pass * 64 + i as u64);
            let result = prepared.and_then(|p| p.execute());
            let t3 = Instant::now();
            lbr::obs::trace_drain(&mut spans, &mut label);
            let cpu = sys::cpu_seconds() - cpu0;
            let output = match result {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("{}: {e}", slot.name);
                    self.failed += 1;
                    continue;
                }
            };
            if !self.verify(text, digest::of_rows(&output.rows)) {
                continue;
            }
            let dt = (t3 - t0).as_secs_f64();
            slice.ops += 1;
            slice.secs += dt;
            slice.cpu_secs += cpu;
            self.lat_ms[i].push(dt * 1e3);
            self.in_order.push(dt * 1e3);
            let span_ms = |stage: &str| -> f64 {
                spans
                    .iter()
                    .filter(|s| s.name == stage)
                    .map(|s| s.dur_us as f64 / 1e3)
                    .sum()
            };
            traced[i].push(TracedOp {
                parse: (t1 - t0).as_secs_f64() * 1e3,
                plan: (t2 - t1).as_secs_f64() * 1e3,
                execute: (t3 - t2).as_secs_f64() * 1e3,
                stages: STAGES.map(span_ms),
                intersections: output.stats.prune_intersections,
            });
        }
        if slice.ops > 0 {
            self.slices.push(slice);
        }
    }
}

/// Runs passes from pass 0 until `budget` has passed and `at_least` passes
/// are done: all untraced into `plain`, or, with `traced`, alternately
/// untraced into `plain` and traced into the pair's recorder, so that both
/// see the same host conditions. Returns the number of passes run.
pub fn run_passes(
    plain: &mut Recorder,
    mut traced: Option<(&mut Recorder, &mut [Vec<TracedOp>])>,
    dbs: &[&Database],
    slots: &[Slot],
    seed: u64,
    at_least: u64,
    budget: Duration,
) -> u64 {
    let start = Instant::now();
    let mut pass = 0;
    while pass < at_least || start.elapsed() < budget {
        match &mut traced {
            Some((rec, samples)) if pass % 2 == 1 => {
                rec.traced_pass(samples, dbs, slots, seed, pass);
            }
            _ => plain.untraced_pass(dbs, slots, seed, pass),
        }
        pass += 1;
    }
    pass
}

/// Per-slot latency summaries for the result file.
pub fn timings(prefix: &str, slots: &[Slot], rec: &Recorder, out: &mut Outcome) {
    for (slot, lat) in slots.iter().zip(&rec.lat_ms) {
        out.timings
            .push((format!("{prefix}{}", slot.name), stats::summarize(lat)));
    }
}

/// The first-pass counts a workload reports exactly: sums over its slots
/// of what `QueryOutput.stats` says.
#[derive(Default)]
pub struct Counts {
    pub initial_triples: u64,
    pub triples_after_prune: u64,
    pub prune_intersections: u64,
    pub join_seeds: u64,
    pub rows: u64,
    pub null_rows: u64,
}

impl Counts {
    pub fn add(&mut self, s: &lbr::QueryStats) {
        self.initial_triples += s.initial_triples;
        self.triples_after_prune += s.triples_after_pruning;
        self.prune_intersections += s.prune_intersections;
        self.join_seeds += s.join_seeds;
        self.rows += s.n_results as u64;
        self.null_rows += s.n_results_with_nulls as u64;
    }

    pub fn report(&self, out: &mut Outcome) {
        out.set("core.initial_triples", self.initial_triples as f64);
        out.set("core.triples_after_prune", self.triples_after_prune as f64);
        let ratio = if self.initial_triples == 0 {
            0.0
        } else {
            self.triples_after_prune as f64 / self.initial_triples as f64
        };
        out.set("core.prune_ratio", ratio);
        out.set("core.prune_intersections", self.prune_intersections as f64);
        out.set("core.join_seeds", self.join_seeds as f64);
        out.set("core.rows", self.rows as f64);
        out.set("core.null_rows", self.null_rows as f64);
    }
}

/// The `sparql.*` and `core.*` layer metrics the traced passes yield, with
/// the ledger check. Per template, each span is the median over the
/// template's traced ops; a metric is then the mean over templates, i.e.
/// the cost of an average template's op.
///
/// `phases` holds each database state's traced ops, per template. Returns
/// `core.init_share`, which the class premises are about.
pub fn report_traced(slots: &[Slot], phases: &[&[Vec<TracedOp>]], out: &mut Outcome) -> f64 {
    let ops: Vec<Vec<&TracedOp>> = (0..slots.len())
        .map(|t| phases.iter().flat_map(|traced| &traced[t]).collect())
        .collect();
    let per_template = |pick: &dyn Fn(&TracedOp) -> f64| -> Vec<f64> {
        ops.iter()
            .map(|ops| stats::median(&ops.iter().map(|o| pick(o)).collect::<Vec<_>>()))
            .collect()
    };
    let execute = per_template(&|o| o.execute);
    let stages: Vec<Vec<f64>> = (0..STAGES.len())
        .map(|k| per_template(&|o| o.stages[k]))
        .collect();
    out.set(
        "sparql.parse_us",
        stats::mean(&per_template(&|o| o.parse * 1e3)),
    );
    out.set(
        "core.plan_us",
        stats::mean(&per_template(&|o| o.plan * 1e3)),
    );
    out.set("core.execute_ms", stats::mean(&execute));
    let stage: Vec<f64> = stages.iter().map(|per| stats::mean(per)).collect();
    for (name, ms) in STAGES.iter().zip(&stage) {
        out.set(&format!("core.{name}_ms"), *ms);
    }
    let covered: f64 = stage.iter().sum();
    let init_share = if covered > 0.0 {
        stage[0] / covered
    } else {
        0.0
    };
    out.set("core.init_share", init_share);

    // Per template, for a reader who wants to know which one moved a
    // layer; and the ledger: the share of an op's outside execute span that
    // none of its stage spans accounts for, median over the template's ops.
    let gaps = per_template(&|o| (o.execute - o.stages.iter().sum::<f64>()) / o.execute);
    let mut ledger = Value::obj();
    for (t, slot) in slots.iter().enumerate() {
        let mut row = Value::obj()
            .with("ops", ops[t].len())
            .with("execute_ms", execute[t])
            .with("gap_pct", gaps[t] * 100.0);
        for (name, per) in STAGES.iter().zip(&stages) {
            row.set(&format!("{name}_ms"), per[t]);
        }
        ledger.set(&slot.name, row);
    }
    out.fact("ledger", ledger);
    let worst = gaps.iter().copied().fold(f64::MIN, f64::max);
    out.set("core.ledger_gap_pct", worst * 100.0);
    let open: Vec<String> = slots
        .iter()
        .zip(&gaps)
        .filter(|(_, g)| g.abs() > 0.10)
        .map(|(s, g)| format!("{} {:.1}%", s.name, g * 100.0))
        .collect();
    out.soft(
        "ledger.closes",
        open.is_empty(),
        if open.is_empty() {
            format!(
                "stage spans cover execute within 10% on all {} templates",
                slots.len()
            )
        } else {
            format!("share of execute no stage span covers: {}", open.join(", "))
        },
    );

    let all = ops.iter().flatten();
    let prune_ns: f64 = all.clone().map(|o| o.stages[1] * 1e6).sum();
    let intersections: u64 = all.map(|o| o.intersections).sum();
    out.set(
        "core.ns_per_intersection",
        if intersections == 0 {
            0.0
        } else {
            prune_ns / intersections as f64
        },
    );
    init_share
}

/// What one database state's measured phase yielded.
pub struct State<'a> {
    /// Latency samples per template, milliseconds.
    pub lat_ms: &'a [Vec<f64>],
    pub slices: &'a [Slice],
    /// Every query latency, whatever its template, in time order.
    pub in_order: &'a [f64],
}

/// Ops per second over several database states: each state's median slice
/// rate, combined so that every state carries the same number of ops
/// whatever its speed.
fn rate(states: &[State]) -> f64 {
    let secs_per_op: Vec<f64> = states
        .iter()
        .map(|s| 1.0 / stats::median_rate(s.slices))
        .collect();
    1.0 / stats::mean(&secs_per_op)
}

/// `obs.trace_overhead_pct` from the alternating passes, one entry per
/// database state on either side.
pub fn report_overhead(plain: &[State], traced: &[State], out: &mut Outcome) {
    out.set(
        "obs.trace_overhead_pct",
        (1.0 - rate(traced) / rate(plain)) * 100.0,
    );
}

/// The end-to-end metrics every untraced run reports (`states` has one
/// entry for most workloads).
pub fn report_end_to_end(states: &[State], setup_s: &[f64], out: &mut Outcome) {
    let medians: Vec<f64> = states
        .iter()
        .flat_map(|s| s.lat_ms.iter().map(|lat| stats::median(lat)))
        .collect();
    out.set("query_geomean_ms", stats::geomean(&medians));
    // The tail a caller sees: over all of a state's query ops, whatever
    // their template; geometric mean over states, as for the medians.
    let tails: Vec<(f64, bool)> = states
        .iter()
        .map(|s| stats::typical_p95(s.in_order))
        .collect();
    out.set(
        "query_p95_ms",
        stats::geomean(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
    );
    out.soft(
        "p95.supported",
        tails.iter().all(|t| t.1),
        "p95 needs 200 samples in every state",
    );
    out.set("throughput_qps", rate(states));
    let slices = || states.iter().flat_map(|s| s.slices);
    let cpu_secs: f64 = slices().map(|s| s.cpu_secs).sum();
    let ops: u64 = slices().map(|s| s.ops).sum();
    out.set("cpu_ms_per_op", cpu_secs / ops as f64 * 1e3);
    out.set("setup_s", stats::median(setup_s));
    out.fact(
        "setup_s_each",
        setup_s.iter().map(|&s| Value::Num(s)).collect::<Vec<_>>(),
    );
    out.fact(
        "slices",
        states
            .iter()
            .map(|s| Value::from(s.slices.len()))
            .collect::<Vec<_>>(),
    );
    out.set("peak_rss_mb", sys::peak_rss_mib());
}

/// Layer metrics a workload does not exercise are reported as 0, because
/// every run prints every metric `BENCHMARK.json` names.
pub fn zero(out: &mut Outcome, names: &[&str]) {
    for name in names {
        out.set(name, 0.0);
    }
}

pub const SERVER_ONLY: [&str; 15] = [
    "cache.result_hit_ratio",
    "cache.plan_hit_ratio",
    "cache.evictions",
    "cache.epoch_evictions",
    "net.read_us",
    "net.queue_wait_us",
    "net.write_us",
    "net.hit_roundtrip_us",
    "net.dropped",
    "net.timed_out",
    "server.cold_ms",
    "server.plan_hit_ms",
    "server.result_hit_ms",
    "server.overhead_us",
    "store.http_update_ms",
];

/// The program's `wal_append` span: both workloads that commit read it.
pub const WAL_SPAN: [&str; 1] = ["store.wal_append_us"];

pub const DISK_ONLY: [&str; 10] = [
    "bitmat.save_s",
    "bitmat.open_ms",
    "bitmat.segment_mb",
    "bitmat.bytes_per_triple",
    "store.commit_ms",
    "store.compact_s",
    "store.reopen_s",
    "store.wal_bytes_per_triple",
    "store.delta_triples",
    "store.overlay_slowdown",
];

/// Outside spans around the load path's public calls, summed over `texts`:
/// `rdf.*` and `bitmat.build_s`. Returns the built stores for a caller
/// that goes on to save them.
pub fn layered_load(texts: &[String], out: &mut Outcome) -> Result<Vec<lbr::BitMatStore>, String> {
    let (mut parse_s, mut encode_s, mut build_s) = (0.0, 0.0, 0.0);
    let (mut triples, mut terms) = (0u64, 0u64);
    let mut stores = Vec::new();
    for text in texts {
        let t = Instant::now();
        let parsed = lbr::rdf::parse_ntriples(text).map_err(|e| e.to_string())?;
        parse_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let graph = lbr::Graph::from_triples(parsed).encode();
        encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let store = lbr::BitMatStore::build(&graph);
        build_s += t.elapsed().as_secs_f64();
        triples += graph.triples.len() as u64;
        let d = &graph.dict;
        terms += u64::from(d.n_subjects()) + u64::from(d.n_objects()) - u64::from(d.n_shared())
            + u64::from(d.n_predicates());
        stores.push(store);
    }
    out.set("rdf.parse_s", parse_s);
    out.set("rdf.encode_s", encode_s);
    out.set("rdf.triples", triples as f64);
    out.set("rdf.terms", terms as f64);
    out.set("bitmat.build_s", build_s);
    Ok(stores)
}

/// `format.*`: each slot's first-pass result through `write_json` into a
/// counting sink, median of three.
pub fn report_format(
    dbs: &[&Database],
    slots: &[Slot],
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut ms, mut kb) = (Vec::new(), Vec::new());
    for (i, slot) in slots.iter().enumerate() {
        let text = slot.text_for(seed, 0, i);
        let db = dbs[slot.db];
        let query = lbr::parse_query(&text).map_err(|e| e.to_string())?;
        let output = db.execute(&text).map_err(|e| e.to_string())?;
        let mut reps = Vec::new();
        let mut sink = CountingSink::default();
        for _ in 0..3 {
            sink = CountingSink::default();
            let t = Instant::now();
            lbr::format::write_json(&mut sink, &query, &output, db.dict())
                .map_err(|e| e.to_string())?;
            reps.push(t.elapsed().as_secs_f64() * 1e3);
        }
        ms.push(stats::median(&reps));
        kb.push(sink.bytes as f64 / 1024.0);
    }
    out.set("format.json_ms", stats::mean(&ms));
    out.set("format.kb_per_op", stats::mean(&kb));
    Ok(())
}

/// `core.allocs_per_op` / `core.alloc_kb_per_op`: one pass of
/// `Database::execute` under the counting allocator.
pub fn report_allocs(dbs: &[&Database], slots: &[Slot], seed: u64, out: &mut Outcome) {
    let (mut allocs, mut bytes) = (0u64, 0u64);
    for (i, slot) in slots.iter().enumerate() {
        let text = slot.text_for(seed, 0, i);
        let (result, a, b) = crate::alloc::count(|| dbs[slot.db].execute(&text));
        drop(result);
        allocs += a;
        bytes += b;
    }
    out.set("core.allocs_per_op", allocs as f64 / slots.len() as f64);
    out.set(
        "core.alloc_kb_per_op",
        bytes as f64 / 1024.0 / slots.len() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drawn_texts_depend_on_seed_pass_and_slot_only() {
        let choices: Vec<String> = (0..40).map(|d| format!("<urn:ub:D{d}>")).collect();
        let slot = Slot::drawn(Family::Lubm, 0, "Q4", LUBM_DEPT_NEEDLE, choices);
        let seq = |seed| {
            (0..50)
                .map(|p| slot.text_for(seed, p, 3))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43));
        assert_ne!(slot.text_for(42, 1, 3), slot.text_for(42, 1, 4));
        assert!(seq(42).iter().all(|t| !t.contains(LUBM_DEPT_NEEDLE)));
        let distinct: std::collections::HashSet<_> = seq(42).into_iter().collect();
        assert!(
            distinct.len() > 20,
            "{} distinct of 50 draws",
            distinct.len()
        );
        let fixed = Slot::fixed(Family::Lubm, 0, "Q2");
        assert_eq!(fixed.text_for(1, 2, 3), fixed.text);
        // The order of a pass is seeded too, and always a permutation.
        assert_eq!(pass_order(42, 7, 8), pass_order(42, 7, 8));
        assert!((0..20).any(|p| pass_order(42, p, 8) != pass_order(43, p, 8)));
        let mut sorted = pass_order(42, 7, 8);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn every_workload_names_its_data() {
        for w in [
            "complex_lowsel",
            "selective_point",
            "serve_mixed",
            "disk_overlay",
        ] {
            assert!(!data_sets(w, data::FULL).unwrap().is_empty());
        }
        assert!(data_sets("nope", data::FULL).is_err());
    }
}
