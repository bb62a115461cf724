//! `disk_overlay`: the load and write paths beside the read path. One LUBM
//! file is parsed, encoded, built, saved as a segment file and opened
//! through `DiskCatalog` with a WAL; LUBM Q1–Q6 then run in three states:
//! clean mmap, with a resident delta overlay, and after compaction.

use super::*;
use std::collections::HashSet;
use std::fs;
use std::path::Path;

/// Commits that build the overlay. Each carries 0.1% of the data set's
/// triples, so the delta ends at 5% inserts and 1% tombstones, far below
/// the store's 100 000-entry auto-compaction threshold.
const INSERT_COMMITS: usize = 50;
const DELETE_COMMITS: usize = 10;

const QUERIES: [&str; 6] = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"];
const STATES: [&str; 3] = ["clean", "overlay", "compacted"];

/// The update requests that build the overlay, from the file alone.
struct Updates {
    texts: Vec<String>,
    inserts: u64,
    deletes: u64,
}

/// Inserts re-pair existing triples within a predicate — the subject of
/// one with the object of another — so that every term already has its
/// role in the frozen dictionary (the store's fast commit path; a new term
/// would rebuild the dictionary instead of growing the delta) and each
/// predicate grows by the same share. Deletes are existing triples.
fn plan_updates(text: &str, seed: u64) -> Updates {
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    let split = |line: &str| -> (String, String, String) {
        let body = line
            .strip_suffix(" .")
            .expect("generated line ends in ' .'");
        let mut parts = body.splitn(3, ' ');
        let mut next = || parts.next().expect("three terms").to_string();
        (next(), next(), next())
    };
    let present: HashSet<&str> = lines.iter().copied().collect();
    let mut by_predicate: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, line) in lines.iter().enumerate() {
        by_predicate.entry(split(line).1).or_default().push(i);
    }
    let per_commit = (lines.len() / 1000).max(1);
    let mut rng = Rng::for_stream(seed, 0xd15c);
    let mut chosen: HashSet<String> = HashSet::new();
    let mut texts = Vec::new();
    for _ in 0..INSERT_COMMITS {
        let mut body = String::from("INSERT DATA {\n");
        let mut n = 0;
        while n < per_commit {
            let (s, p, _) = split(lines[rng.below(lines.len())]);
            let group = &by_predicate[&p];
            let (_, _, o) = split(lines[group[rng.below(group.len())]]);
            let line = format!("{s} {p} {o} .");
            if present.contains(line.as_str()) || !chosen.insert(line.clone()) {
                continue;
            }
            body.push_str(&line);
            body.push('\n');
            n += 1;
        }
        body.push('}');
        texts.push(body);
    }
    for _ in 0..DELETE_COMMITS {
        let mut body = String::from("DELETE DATA {\n");
        let mut n = 0;
        while n < per_commit {
            let line = lines[rng.below(lines.len())];
            if !chosen.insert(line.to_string()) {
                continue;
            }
            body.push_str(line);
            body.push('\n');
            n += 1;
        }
        body.push('}');
        texts.push(body);
    }
    Updates {
        texts,
        inserts: (INSERT_COMMITS * per_commit) as u64,
        deletes: (DELETE_COMMITS * per_commit) as u64,
    }
}

fn open(set: &DataSet, segment: &Path, wal: &Path) -> Result<Database, String> {
    Database::builder()
        .ntriples_file(&set.path)
        .disk_index(segment)
        .wal_dir(wal)
        .build()
        .map_err(|e| format!("{}: {e}", segment.display()))
}

fn data_set(ctx: &Ctx) -> DataSet {
    DataSet::new(Family::Lubm, data::Scale::Factor(ctx.sizes.lubm_disk))
}

/// Set-up, timed: [`load`] into a directory of this process's own.
pub fn setup(ctx: &Ctx) -> Result<f64, String> {
    let t = Instant::now();
    let db = load(&data_set(ctx), &ctx.work_dir.join("db"))?;
    let secs = t.elapsed().as_secs_f64();
    drop(db);
    Ok(secs)
}

/// The whole load path an operator pays: parse → encode → build → save
/// the segment file → open it through `DiskCatalog` with a WAL.
fn load(set: &DataSet, dir: &Path) -> Result<Database, String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let text = set.read().map_err(|e| e.to_string())?;
    let triples = lbr::rdf::parse_ntriples(&text).map_err(|e| e.to_string())?;
    drop(text);
    let graph = lbr::Graph::from_triples(triples).encode();
    let store = lbr::BitMatStore::build(&graph);
    let segment = dir.join("index.seg");
    lbr::bitmat::disk::save_store(&store, &segment).map_err(|e| e.to_string())?;
    drop((store, graph));
    open(set, &segment, &dir.join("wal"))
}

/// Each state's measured phase, in state order.
fn states_of(recs: &[Recorder]) -> Vec<State<'_>> {
    recs.iter().map(Recorder::state).collect()
}

fn state_digests(db: &Database, slots: &[Slot], seed: u64) -> Result<Vec<Digest>, String> {
    slots
        .iter()
        .enumerate()
        .map(|(i, s)| term_digest(db, &s.text_for(seed, 0, i)))
        .collect()
}

/// What building the overlay cost.
struct Commits {
    /// `Database::update` latency per commit, acknowledged after the WAL
    /// fsync.
    commit_ms: Vec<f64>,
    /// The program's own `wal_append` spans (traced run only).
    wal_append_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Applies the planned updates one commit at a time, every commit timed,
/// and checks that each planned triple took effect: a no-op or a
/// dictionary rebuild would not leave the delta the workload is about.
fn commit_updates(ctx: &Ctx, db: &Database, updates: &Updates, out: &mut Outcome) -> Commits {
    let mut c = Commits {
        commit_ms: Vec::new(),
        wal_append_us: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let (mut inserted, mut deleted) = (0, 0);
    let (mut spans, mut label) = (Vec::new(), String::new());
    for (k, text) in updates.texts.iter().enumerate() {
        c.attempted += 1;
        if ctx.traced {
            lbr::obs::trace_begin(k as u64);
        }
        let t = Instant::now();
        let result = db.update(text);
        c.commit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if ctx.traced {
            lbr::obs::trace_drain(&mut spans, &mut label);
            c.wal_append_us.extend(
                spans
                    .iter()
                    .filter(|s| s.name == "wal_append")
                    .map(|s| s.dur_us as f64),
            );
        }
        match result {
            Ok(outcome) => {
                inserted += outcome.inserted;
                deleted += outcome.deleted;
            }
            Err(e) => {
                eprintln!("update {k}: {e}");
                c.failed += 1;
            }
        }
    }
    out.hard(
        "updates.effective",
        (inserted, deleted) == (updates.inserts, updates.deletes),
        format!(
            "{inserted} inserted, {deleted} deleted; planned {} and {}",
            updates.inserts, updates.deletes
        ),
    );
    c
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let set = data_set(ctx);
    let texts = load_texts(ctx, std::slice::from_ref(&set), &mut out)?;
    let templates: Vec<(Family, &str)> = QUERIES.iter().map(|&q| (Family::Lubm, q)).collect();
    gate(&templates, &mut out)?;
    ctx.done("data read, gate passed");
    let slots: Vec<Slot> = QUERIES
        .iter()
        .map(|q| Slot::fixed(Family::Lubm, 0, q))
        .collect();
    let updates = plan_updates(&texts[0], ctx.seed);
    let n_triples = texts[0].lines().filter(|l| !l.is_empty()).count() as f64;

    let mut setup_s = Vec::new();
    let dir = ctx.work_dir.join("db");
    let db = if ctx.traced {
        let stores = layered_load(&texts, &mut out)?;
        drop(texts);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let segment = dir.join("index.seg");
        let t = Instant::now();
        let bytes =
            lbr::bitmat::disk::save_store(&stores[0], &segment).map_err(|e| e.to_string())?;
        out.set("bitmat.save_s", t.elapsed().as_secs_f64());
        drop(stores);
        let t = Instant::now();
        let catalog = lbr::DiskCatalog::open(&segment).map_err(|e| e.to_string())?;
        out.set("bitmat.open_ms", t.elapsed().as_secs_f64() * 1e3);
        drop(catalog);
        out.set("bitmat.segment_mb", bytes as f64 / (1 << 20) as f64);
        out.set("bitmat.bytes_per_triple", bytes as f64 / n_triples);
        open(&set, &segment, &dir.join("wal"))?
    } else {
        drop(texts);
        setup_s = timed_setups(ctx)?;
        load(&set, &dir)?
    };
    out.fact("threads", db.threads());
    let segment_bytes = fs::metadata(dir.join("index.seg")).map_or(0, |m| m.len());
    ctx.done("set-up");

    let mut counts = Counts::default();
    for (i, slot) in slots.iter().enumerate() {
        let output = db
            .execute(&slot.text_for(ctx.seed, 0, i))
            .map_err(|e| e.to_string())?;
        counts.add(&output.stats);
    }

    // The clean state runs for a third of `--seconds` and at least the 34
    // passes that give p95 its 200 samples; the other two run as many
    // passes as it did, so that every state has the same samples (the
    // slower overlay state would otherwise have too few).
    let clean_budget = Duration::from_secs_f64(ctx.seconds / STATES.len() as f64);
    let mut passes = 200_u64.div_ceil(QUERIES.len() as u64) * if ctx.traced { 2 } else { 1 };
    let mut plain: Vec<Recorder> = STATES.iter().map(|_| Recorder::new(slots.len())).collect();
    let mut traced_rec: Vec<Recorder> = STATES.iter().map(|_| Recorder::new(slots.len())).collect();
    let mut traced: Vec<Vec<Vec<TracedOp>>> = STATES
        .iter()
        .map(|_| vec![Vec::new(); slots.len()])
        .collect();
    let mut digests: Vec<Vec<Digest>> = Vec::new();
    // One state's share of the measured phase: its reference digests, then
    // passes of Q1–Q6.
    let mut measure = |db: &Database, state: usize| -> Result<(), String> {
        digests.push(state_digests(db, &slots, ctx.seed)?);
        let pair = ctx
            .traced
            .then(|| (&mut traced_rec[state], &mut traced[state][..]));
        let budget = if state == 0 {
            clean_budget
        } else {
            Duration::ZERO
        };
        let rec = &mut plain[state];
        passes = run_passes(rec, pair, &[db], &slots, ctx.seed, passes, budget);
        ctx.done(STATES[state]);
        Ok(())
    };

    measure(&db, 0)?;
    let commits = commit_updates(ctx, &db, &updates, &mut out);
    let wal_bytes = fs::metadata(dir.join("wal").join("lbr.wal")).map_or(0, |m| m.len());
    measure(&db, 1)?;
    let t = Instant::now();
    db.compact().map_err(|e| e.to_string())?;
    let compact_s = t.elapsed().as_secs_f64();
    measure(&db, 2)?;
    let Commits {
        commit_ms,
        wal_append_us,
        attempted: update_attempted,
        failed: update_failed,
    } = commits;

    out.hard(
        "compacted.equals.overlay",
        digests[2] == digests[1],
        "compaction folds the delta without changing any result",
    );
    out.soft(
        "overlay.differs.from.clean",
        digests[1] != digests[0],
        "the overlay changes at least one template's rows, so the check above can fail",
    );
    if ctx.traced {
        let refs = [&db];
        report_format(&refs, &slots, ctx.seed, &mut out)?;
        report_allocs(&refs, &slots, ctx.seed, &mut out);
    }

    // Reopen from the checkpoint compaction wrote: the segment file it
    // shipped is mapped, the (now empty) WAL replayed.
    drop(db);
    let t = Instant::now();
    let db = open(&set, &dir.join("index.seg"), &dir.join("wal"))?;
    let reopen_s = t.elapsed().as_secs_f64();
    out.hard(
        "reopened.equals.overlay",
        state_digests(&db, &slots, ctx.seed)? == digests[1],
        "the reopened database returns the committed state",
    );
    drop(db);
    ctx.done("reopen");

    let mut keyed = Vec::new();
    for (state, name) in STATES.iter().enumerate().take(2) {
        for (slot, d) in slots.iter().zip(&digests[state]) {
            // The overlay is built from seeded updates.
            keyed.push((format!("{name}.{}", slot.name), *d, state == 1));
        }
    }
    record_digests(ctx, "disk_overlay", &keyed, &mut out);

    let state_geomean = |recs: &[Recorder], state: usize| stats::geomean(&recs[state].median_ms());
    out.timings
        .push(("update".to_string(), stats::summarize(&commit_ms)));
    for (state, name) in STATES.iter().enumerate() {
        let rec = if ctx.traced {
            &traced_rec[state]
        } else {
            &plain[state]
        };
        timings(&format!("{name}."), &slots, rec, &mut out);
    }
    if !ctx.traced {
        report_end_to_end(&states_of(&plain), &setup_s, &mut out);
        out.fact("update_p50_ms", stats::median(&commit_ms));
        out.fact("index_bytes_per_triple", segment_bytes as f64 / n_triples);
        out.fact("compact_s", compact_s);
        out.fact("reopen_s", reopen_s);
    } else {
        let phases: Vec<&[Vec<TracedOp>]> = traced.iter().map(|t| &t[..]).collect();
        report_traced(&slots, &phases, &mut out);
        report_overhead(&states_of(&plain), &states_of(&traced_rec), &mut out);
        counts.report(&mut out);
        out.set("store.commit_ms", stats::median(&commit_ms));
        out.set("store.wal_append_us", stats::median(&wal_append_us));
        out.set("store.compact_s", compact_s);
        out.set("store.reopen_s", reopen_s);
        let delta = updates.inserts + updates.deletes;
        out.set(
            "store.wal_bytes_per_triple",
            wal_bytes as f64 / delta as f64,
        );
        out.set("store.delta_triples", delta as f64);
        out.set(
            "store.overlay_slowdown",
            state_geomean(&plain, 1) / state_geomean(&plain, 0),
        );
        // `.threads(1)` would need a second database on the same WAL.
        out.set("core.mt_ratio", 0.0);
        zero(&mut out, &SERVER_ONLY);
    }
    let all_recs = plain.iter().chain(&traced_rec);
    out.attempted = update_attempted + all_recs.clone().map(|r| r.attempted).sum::<u64>();
    out.failed = update_failed + all_recs.map(|r| r.failed).sum::<u64>();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_updates_are_seeded_new_and_sized() {
        let text = lbr::rdf::write_ntriples(
            lbr::Graph::from_triples(lbr::datagen::lubm::generate(
                &lbr::datagen::lubm::LubmConfig::scaled(0.1, 42),
            ))
            .triples(),
        );
        let a = plan_updates(&text, 42);
        assert_eq!(a.texts.len(), INSERT_COMMITS + DELETE_COMMITS);
        assert_eq!(a.texts, plan_updates(&text, 42).texts);
        assert_ne!(a.texts, plan_updates(&text, 43).texts);
        let per_commit = text.lines().count() / 1000;
        assert_eq!(a.inserts, (INSERT_COMMITS * per_commit) as u64);
        let present: HashSet<&str> = text.lines().collect();
        for (k, update) in a.texts.iter().enumerate() {
            let body: Vec<&str> = update.lines().filter(|l| l.ends_with(" .")).collect();
            assert_eq!(body.len(), per_commit);
            let inserting = k < INSERT_COMMITS;
            assert_eq!(update.starts_with("INSERT DATA"), inserting);
            assert!(body.iter().all(|l| present.contains(l) != inserting));
            lbr::parse_update(update).unwrap();
        }
    }
}
