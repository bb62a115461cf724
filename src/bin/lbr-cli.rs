//! `lbr-cli` — run SPARQL BGP/OPTIONAL queries over an N-Triples file.
//!
//! ```sh
//! lbr-cli data.nt 'SELECT * WHERE { ?s <p> ?o . OPTIONAL { ?o <q> ?x . } }'
//! lbr-cli data.nt --file query.rq --engine pairwise
//! lbr-cli data.nt --explain 'SELECT * WHERE { … }'
//! lbr-cli data.nt --save-index data.lbr     # build + persist the BitMat index
//! lbr-cli data.nt --index data.lbr 'SELECT …'  # query the on-disk index lazily
//!
//! # SPARQL 1.1 Update against a write-ahead log (replayed on every run):
//! lbr-cli update data.nt --wal-dir wal/ 'INSERT DATA { <s> <p> <o> }'
//! lbr-cli update data.nt --wal-dir wal/ --update-file changes.ru
//! lbr-cli data.nt --wal-dir wal/ 'SELECT * WHERE { ?s ?p ?o }'  # sees the updates
//! ```
//!
//! Options: `--engine lbr|pairwise|query-order|reordered|reference`
//! (default lbr; the others are the §6 comparators), `--format
//! table|json|tsv` (default table; `json` is W3C SPARQL 1.1 Query
//! Results JSON, `tsv` the W3C TSV format — both consumable by standard
//! tooling), `--explain` (print the plan instead of executing; lbr
//! only), `--analyze` (EXPLAIN ANALYZE: execute the query and print the
//! plan annotated with actual per-stage timings and estimated-vs-actual
//! cardinalities; implies `--explain`), `--stats`, `--repeat N` (re-run
//! the query N times and report the average; on lbr the runs go through
//! the shared plan cache — planning runs once, repeats hit the cache —
//! and the cache's hit/miss/eviction counters are reported too),
//! `--file <query.rq>`, `--save-index <path>`, `--index <path>`.
//!
//! The `update` subcommand executes a SPARQL 1.1 Update request
//! (`INSERT DATA` / `DELETE DATA` / `DELETE WHERE`, `;`-sequences)
//! against the WAL named by `--wal-dir`: the base `.nt` file is loaded,
//! the log's committed updates are replayed over it, the new request is
//! applied and journalled (fsynced before the process exits), and the
//! outcome — triples inserted, deleted, and the resulting epoch — is
//! printed. A later run (query or update) with the same `--wal-dir`
//! reopens to exactly the committed state, even after a crash.
//!
//! The full query spec is supported: `SELECT [DISTINCT|REDUCED]` / `ASK`
//! with `ORDER BY` / `LIMIT` / `OFFSET` (`ASK` prints `true`/`false`).
//! A comparator runs through [`lbr::Database::engine_of`]; every engine
//! shares the same result rendering — there is no per-engine result
//! handling.

#![forbid(unsafe_code)]

use lbr::bitmat::disk::save_store;
use lbr::{Database, EngineKind, OutputFormat, PlanCache};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Options {
    update_mode: bool,
    data: Option<String>,
    index: Option<String>,
    save_index: Option<String>,
    wal_dir: Option<String>,
    query: Option<String>,
    query_file: Option<String>,
    update_file: Option<String>,
    engine: EngineKind,
    format: OutputFormat,
    explain: bool,
    analyze: bool,
    stats: bool,
    repeat: u32,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        update_mode: false,
        data: None,
        index: None,
        save_index: None,
        wal_dir: None,
        query: None,
        query_file: None,
        update_file: None,
        engine: EngineKind::Lbr,
        format: OutputFormat::Table,
        explain: false,
        analyze: false,
        stats: false,
        repeat: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--engine" => {
                let name = args.next().ok_or("--engine needs a value")?;
                o.engine = name.parse()?;
            }
            "--format" => {
                let name = args.next().ok_or("--format needs a value")?;
                o.format = OutputFormat::from_name(&name)
                    .ok_or_else(|| format!("unknown format '{name}' (table, json or tsv)"))?;
            }
            "--file" => o.query_file = Some(args.next().ok_or("--file needs a value")?),
            "--update-file" => {
                o.update_file = Some(args.next().ok_or("--update-file needs a value")?)
            }
            "--wal-dir" => o.wal_dir = Some(args.next().ok_or("--wal-dir needs a value")?),
            "--index" => o.index = Some(args.next().ok_or("--index needs a value")?),
            "--save-index" => o.save_index = Some(args.next().ok_or("--save-index needs a value")?),
            "--repeat" => {
                let n = args.next().ok_or("--repeat needs a value")?;
                o.repeat = n.parse().map_err(|_| format!("bad --repeat value '{n}'"))?;
                if o.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--explain" => o.explain = true,
            "--analyze" => {
                // EXPLAIN ANALYZE: implies --explain, executes the query.
                o.explain = true;
                o.analyze = true;
            }
            "--stats" => o.stats = true,
            "--help" | "-h" => return Err("help".into()),
            "update" if !o.update_mode && o.data.is_none() && o.query.is_none() => {
                o.update_mode = true
            }
            flag if flag.starts_with("--") => return Err(format!("unexpected argument '{flag}'")),
            _ if o.data.is_none() && a.ends_with(".nt") => o.data = Some(a),
            _ if o.query.is_none() => o.query = Some(a),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if o.explain && o.engine != EngineKind::Lbr {
        return Err(format!(
            "usage: --explain/--analyze need --engine lbr (the only engine with a plan), \
             not {}",
            o.engine
        ));
    }
    Ok(o)
}

fn usage() {
    let engines: Vec<&str> = EngineKind::all().iter().map(|k| k.name()).collect();
    eprintln!(
        "usage: lbr-cli <data.nt> [QUERY] [--file query.rq] [--engine {}] \
         [--format table|json|tsv] [--explain] [--analyze] [--stats] \
         [--repeat N] [--save-index path] [--index path.lbr] [--wal-dir dir]\n\
         \x20      lbr-cli update <data.nt> --wal-dir dir [UPDATE] [--update-file changes.ru]",
        engines.join("|")
    );
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            if e == "help" {
                usage();
                return ExitCode::from(2);
            }
            eprintln!("error: {e}");
            if e.contains("usage") || e.contains("unexpected") || e.contains("no ") {
                usage();
            }
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;

    // Assemble the database: N-Triples data, optionally backed by the
    // lazily-read on-disk index.
    let mut builder = Database::builder();
    match &opts.data {
        Some(path) => builder = builder.ntriples_file(path),
        None => {
            if opts.index.is_some() {
                return Err(
                    "--index needs the matching .nt file too (it provides the dictionary)".into(),
                );
            }
            return Err("no input data".into());
        }
    }
    if let Some(index_path) = &opts.index {
        if opts.save_index.is_some() {
            return Err(
                "--save-index builds the in-memory index and cannot be combined with --index \
                 (which reads one lazily from disk)"
                    .into(),
            );
        }
        builder = builder.disk_index(index_path);
    }
    if let Some(wal_dir) = &opts.wal_dir {
        // Query and update runs alike replay the log: the database opens
        // to base data + every committed update.
        builder = builder.wal_dir(wal_dir);
    }
    let db = builder.build().map_err(|e| e.to_string())?;

    if opts.update_mode {
        if opts.wal_dir.is_none() {
            return Err(
                "update needs --wal-dir: without a write-ahead log the change would die \
                 with this process"
                    .into(),
            );
        }
        let text = match (&opts.query, &opts.update_file) {
            (Some(u), None) => u.clone(),
            (None, Some(f)) => {
                std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?
            }
            (Some(_), Some(_)) => {
                return Err("give the update inline or via --update-file, not both".into())
            }
            (None, None) => return Err("no update given (inline or --update-file)".into()),
        };
        let before = db.epoch();
        let outcome = db.update(&text).map_err(|e| e.to_string())?;
        println!(
            "inserted {} triples, deleted {}, epoch {} -> {}",
            outcome.inserted, outcome.deleted, before, outcome.epoch
        );
        eprintln!("{} triples total", db.len());
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(out_path) = &opts.save_index {
        let bytes = save_store(db.store(), Path::new(out_path)).map_err(|e| e.to_string())?;
        eprintln!("index written: {out_path} ({bytes} bytes)");
        if opts.query.is_none() && opts.query_file.is_none() {
            return Ok(ExitCode::SUCCESS);
        }
    }

    // The query text.
    let text = match (&opts.query, &opts.query_file) {
        (Some(q), _) => q.clone(),
        (None, Some(f)) => {
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?
        }
        (None, None) => return Err("no query given".into()),
    };

    if opts.explain {
        let rendered = if opts.analyze {
            // EXPLAIN ANALYZE executes the query under a forced trace and
            // annotates the plan with actual timings and cardinalities.
            db.explain_analyze(&text)
        } else {
            db.explain(&text)
        };
        println!("{}", rendered.map_err(|e| e.to_string())?);
        return Ok(ExitCode::SUCCESS);
    }

    // LBR executions go through a plan cache — the same seam `lbr-server`
    // serves from. Planning runs once here, *outside* the timing, so the
    // reported average measures pure re-execution; every timed round
    // below is a cache hit. A comparator has no plan: it just executes.
    let cache = PlanCache::new(4);
    let comparator = (opts.engine != EngineKind::Lbr).then(|| db.engine_of(opts.engine));
    let query = match &comparator {
        None => cache.get_or_prepare(&db, &text).map(|c| c.query().clone()),
        Some(_) => lbr::parse_query(&text).map_err(Into::into),
    }
    .map_err(|e: lbr::core::LbrError| e.to_string())?;
    let run = || match &comparator {
        None => db.execute_cached(&cache, &text),
        Some(engine) => engine.execute(&query),
    };

    // Warm re-execution rounds first (timed, results dropped), then one
    // final round that streams the rows to stdout outside the timing.
    // With --stats the final round runs traced: its stage times are the
    // engine's spans (a comparator records none).
    let mut total = Duration::ZERO;
    for _ in 1..opts.repeat {
        let t = Instant::now();
        run().map_err(|e| e.to_string())?;
        total += t.elapsed();
    }
    let mut spans = Vec::new();
    let t = Instant::now();
    let out = if opts.stats {
        lbr::core::traced(&mut spans, run)
    } else {
        run()
    }
    .map_err(|e| e.to_string())?;
    let last = t.elapsed();
    total += last;

    let stats = out.stats.clone();
    if query.is_ask() {
        // Boolean result: identical across formats except JSON.
        print!("{}", opts.format.render(&query, &out, db.dict()));
        eprintln!("boolean result");
    } else {
        match opts.format {
            // JSON is one object; render it whole.
            OutputFormat::Json => print!("{}", opts.format.render(&query, &out, db.dict())),
            // Table and TSV stream row-by-row — a multi-million-row
            // result is never re-materialized as one string.
            OutputFormat::Table | OutputFormat::Tsv => {
                let tsv = opts.format == OutputFormat::Tsv;
                let solutions = out.into_solutions(db.dict());
                if tsv {
                    println!("{}", lbr::format::tsv_header(solutions.vars()));
                } else {
                    println!("{}", solutions.vars().join("\t"));
                }
                for row in solutions {
                    if tsv {
                        println!("{}", lbr::format::tsv_line(&row.decoded()));
                    } else {
                        println!("{}", row.render());
                    }
                }
            }
        }
        eprintln!(
            "{} rows ({} with NULLs)",
            stats.n_results, stats.n_results_with_nulls
        );
    }
    if opts.stats {
        let mut line = format!("engine {}", opts.engine);
        if spans.iter().any(|s| s.name == "init") {
            for stage in ["init", "prune", "join"] {
                let us = lbr::obs::stage_us(&spans, stage);
                line += &format!("  {stage} {:?}", Duration::from_micros(us));
            }
        }
        eprintln!("{line}  total {last:?}");
        if comparator.is_none() {
            eprintln!(
                "candidates {} → {}  best-match required: {}\n\
                 kernel: {} prune intersections",
                stats.initial_triples,
                stats.triples_after_pruning,
                stats.nb_required,
                stats.prune_intersections,
            );
        }
    }
    if opts.repeat > 1 {
        let avg = total / opts.repeat;
        if comparator.is_some() {
            eprintln!("{} executions, avg {avg:?}", opts.repeat);
        } else {
            let cs = cache.stats();
            eprintln!(
                "{} cached executions, avg {avg:?} (plan cache: {} hits / {} misses / {} evictions)",
                opts.repeat, cs.hits, cs.misses, cs.evictions,
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}
