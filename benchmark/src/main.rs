//! The repository's benchmark: four fixed workloads, end-to-end metrics
//! and a per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! benchmark gen   --workload W --seed N [--smoke]
//! benchmark run   --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! benchmark setup --workload W --seed N [--smoke]   (a child of `run`)
//! benchmark spin CPU                                (a child of `run`)
//! benchmark agree A B
//! benchmark freeze
//! ```

mod alloc;
mod data;
mod digest;
mod http;
mod json;
mod report;
mod sample;
mod stats;
mod sys;
mod workloads;

use json::Value;
use report::{Spec, OUT_DIR};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const EXPECTED_DIR: &str = "benchmark/expected";

/// `--flag value` pairs and bare `--smoke`, in any order.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v}: not a number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => parsed.traced = number(value()?)? != 0,
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn sizes(smoke: bool) -> data::Sizes {
    if smoke {
        data::SMOKE
    } else {
        data::FULL
    }
}

fn gen(args: &Args) -> Result<(), String> {
    for set in workloads::data_sets(&args.workload, sizes(args.smoke))? {
        set.generate()
            .map_err(|e| format!("{}: {e}", set.path.display()))?;
    }
    Ok(())
}

/// Expected digests are frozen from runs of `--seed` = the data seed.
fn expected_path() -> PathBuf {
    Path::new(EXPECTED_DIR).join(format!("seed{}.json", data::DATA_SEED))
}

/// The context of a run or of one set-up, with a scratch directory of this
/// process's own.
fn context(args: &Args) -> Result<workloads::Ctx, String> {
    // Expected digests are of the full-size data.
    let expected = match std::fs::read_to_string(expected_path()) {
        Ok(text) if !args.smoke => Some(json::parse(&text)?),
        _ => None,
    };
    Ok(workloads::Ctx {
        workload: args.workload.clone(),
        smoke: args.smoke,
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.traced,
        sizes: sizes(args.smoke),
        expected,
        work_dir: Path::new(OUT_DIR).join(format!("work-{}", std::process::id())),
        started: std::time::Instant::now(),
    })
}

/// `benchmark setup`: one timed set-up, its seconds on stdout.
fn setup(args: &Args) -> Result<(), String> {
    let ctx = context(args)?;
    let secs = workloads::setup(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    println!("{}", secs?);
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = Spec::load()?;
    if !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "BENCHMARK.json names no workload {:?}",
            args.workload
        ));
    }
    let ctx = context(args)?;
    let ticks = sys::machine_ticks();
    let shield = sys::IdleShield::start().map_err(|e| format!("idle shield: {e}"))?;
    let outcome = workloads::run(&args.workload, &ctx);
    drop(shield);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let mut outcome = outcome?;
    // What share of the machine's CPU time the host kept from this guest
    // meanwhile: a reader comparing two runs sees which one met a busy host.
    let (stolen, total) = sys::machine_ticks();
    outcome.fact(
        "host_steal_share",
        (stolen - ticks.0) / (total - ticks.1).max(1.0),
    );
    report::emit(&spec, args, &outcome)?;
    Ok(outcome.correct())
}

/// Writes `expected/seed<N>.json` from the untraced result files of the
/// four workloads in `benchmark/out/`, which must all be full-size runs of
/// one seed.
fn freeze() -> Result<(), String> {
    let spec = Spec::load()?;
    let (mut seed, mut data, mut results) = (None, Value::obj(), Value::obj());
    for workload in &spec.workloads {
        let path = Path::new(OUT_DIR).join(format!("{workload}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text)?;
        if v.get("smoke").and_then(Value::as_bool) != Some(false) {
            return Err(format!("{}: not a full-size run", path.display()));
        }
        let s = v.get("seed").and_then(Value::as_f64);
        if *seed.get_or_insert(s) != s {
            return Err(format!(
                "{}: another seed than the files before it",
                path.display()
            ));
        }
        let facts = v.get("facts").ok_or("result file without facts")?;
        for (label, d) in facts.get("data").map(Value::fields).unwrap_or_default() {
            data.set(label, d.get("digest").cloned().unwrap_or(Value::Null));
        }
        results.set(
            workload,
            facts.get("digests").cloned().unwrap_or_else(Value::obj),
        );
    }
    let seed = seed.flatten().ok_or("no result files")? as u64;
    if seed != data::DATA_SEED {
        return Err(format!("freeze from runs of --seed {}", data::DATA_SEED));
    }
    let file = Value::obj()
        .with("seed", seed)
        .with("harness_version", report::HARNESS_VERSION)
        .with("data", data)
        .with("results", results);
    let path = expected_path();
    std::fs::create_dir_all(EXPECTED_DIR).map_err(|e| e.to_string())?;
    std::fs::write(&path, file.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &argv[..]),
    };
    let result = match command {
        "gen" => parse_args(rest).and_then(|a| gen(&a)).map(|()| true),
        "run" => parse_args(rest).and_then(|a| run(&a)),
        "setup" => parse_args(rest).and_then(|a| setup(&a)).map(|()| true),
        "agree" => match rest {
            [a, b] => report::agree(Path::new(a), Path::new(b)),
            _ => Err("usage: benchmark agree A B".to_string()),
        },
        "freeze" => freeze().map(|()| true),
        "spin" => match rest.first().and_then(|cpu| cpu.parse().ok()) {
            Some(cpu) => sys::spin(cpu),
            None => Err("usage: benchmark spin CPU".to_string()),
        },
        _ => Err("usage: benchmark gen|run|agree|freeze (see benchmark/README.md)".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
