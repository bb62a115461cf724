//! `lbr-server` — serve SPARQL 1.1 Protocol queries over an N-Triples
//! file.
//!
//! ```sh
//! lbr-server data.nt                          # http://127.0.0.1:7878/sparql
//! lbr-server data.nt --addr 0.0.0.0:8080 --workers 8 --cache 512
//! lbr-server data.nt --index data.lbr         # lazy on-disk BitMat index
//! lbr-server data.nt --wal-dir wal/           # updatable: POST /update
//!
//! curl 'http://127.0.0.1:7878/sparql?query=SELECT%20*%20WHERE%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D'
//! curl -d 'query=ASK { ?s ?p ?o }' http://127.0.0.1:7878/sparql
//! curl -H 'Content-Type: application/sparql-query' \
//!      -H 'Accept: text/tab-separated-values' \
//!      --data-binary 'SELECT * WHERE { ?s ?p ?o }' http://127.0.0.1:7878/sparql
//! ```
//!
//! Options: `--addr HOST:PORT` (default `127.0.0.1:7878`; port `0` picks
//! an ephemeral port, printed on startup), `--workers N` (request
//! threads), `--cache N` (plan-cache entries), `--result-cache N`
//! (result-cache entries), `--queue N` (bounded admission queue; full →
//! `503` + `Retry-After`), `--request-timeout-ms MS` (per-request
//! execution budget; exceeded → `504`; `0` disables),
//! `--header-timeout-ms MS` (slow-loris cutoff → `408`), `--index
//! path.lbr`, `--wal-dir dir`
//! (accept SPARQL 1.1 Update on `POST /update`, journal committed
//! updates to a write-ahead log in `dir` and replay them on restart),
//! `--slow-query-ms MS` (requests at least this slow always publish an
//! execution trace to `/debug/traces` and the slow-query log; `0`
//! disables slow capture; default 250), `--trace-ring N` (finished-trace
//! ring capacity, ≥ 1), `--trace-sample PER1024` (publish a trace for
//! this many requests per 1024 even when fast; default 0, which keeps
//! the hot path allocation-free).
//!
//! On startup the server prints exactly one line to stdout —
//! `listening on http://ADDR` — so scripts (and CI) can discover an
//! ephemeral port; everything else goes to stderr.

#![forbid(unsafe_code)]

use lbr::Database;
use lbr_server::{Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    data: Option<String>,
    index: Option<String>,
    wal_dir: Option<String>,
    addr: String,
    config: ServerConfig,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        data: None,
        index: None,
        wal_dir: None,
        addr: "127.0.0.1:7878".into(),
        config: ServerConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => o.addr = args.next().ok_or("--addr needs a value")?,
            "--workers" => {
                let n = args.next().ok_or("--workers needs a value")?;
                o.config.workers = parse_nonzero(&n, "--workers")?;
            }
            "--cache" => {
                let n = args.next().ok_or("--cache needs a value")?;
                o.config.cache_capacity = parse_nonzero(&n, "--cache")?;
            }
            "--result-cache" => {
                let n = args.next().ok_or("--result-cache needs a value")?;
                o.config.result_cache_capacity = parse_nonzero(&n, "--result-cache")?;
            }
            "--queue" => {
                let n = args.next().ok_or("--queue needs a value")?;
                o.config.queue_capacity = parse_nonzero(&n, "--queue")?;
            }
            "--request-timeout-ms" => {
                let n = args.next().ok_or("--request-timeout-ms needs a value")?;
                let ms: u64 = n
                    .parse()
                    .map_err(|_| format!("bad --request-timeout-ms value '{n}'"))?;
                // 0 disables the per-request deadline entirely.
                o.config.request_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--header-timeout-ms" => {
                let n = args.next().ok_or("--header-timeout-ms needs a value")?;
                let ms = parse_nonzero(&n, "--header-timeout-ms")? as u64;
                o.config.header_timeout = std::time::Duration::from_millis(ms);
            }
            "--slow-query-ms" => {
                let n = args.next().ok_or("--slow-query-ms needs a value")?;
                let ms: u64 = n
                    .parse()
                    .map_err(|_| format!("bad --slow-query-ms value '{n}'"))?;
                // 0 disables slow capture (sampling may still publish).
                o.config.slow_query = std::time::Duration::from_millis(ms);
            }
            "--trace-ring" => {
                let n = args.next().ok_or("--trace-ring needs a value")?;
                // Capacity 0 is rejected again at bind with a clear
                // error; catching it here gives the flag-shaped message.
                o.config.trace_ring = parse_nonzero(&n, "--trace-ring")?;
            }
            "--trace-sample" => {
                let n = args.next().ok_or("--trace-sample needs a value")?;
                let per: u32 = n
                    .parse()
                    .map_err(|_| format!("bad --trace-sample value '{n}'"))?;
                if per > 1024 {
                    return Err("--trace-sample is per 1024 (0..=1024)".into());
                }
                o.config.trace_sample_per_1024 = per;
            }
            "--index" => o.index = Some(args.next().ok_or("--index needs a value")?),
            "--wal-dir" => o.wal_dir = Some(args.next().ok_or("--wal-dir needs a value")?),
            "--help" | "-h" => return Err("help".into()),
            flag if flag.starts_with("--") => return Err(format!("unexpected argument '{flag}'")),
            _ if o.data.is_none() => o.data = Some(a),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(o)
}

fn parse_nonzero(s: &str, flag: &str) -> Result<usize, String> {
    let n: usize = s.parse().map_err(|_| format!("bad {flag} value '{s}'"))?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

fn usage() {
    eprintln!(
        "usage: lbr-server <data.nt> [--addr HOST:PORT] [--workers N] [--cache N] \
         [--result-cache N] [--queue N] [--request-timeout-ms MS] [--header-timeout-ms MS] \
         [--index path.lbr] [--wal-dir dir] \
         [--slow-query-ms MS] [--trace-ring N] [--trace-sample PER1024]"
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
            if e.contains("unexpected") || e.contains("no ") {
                usage();
            }
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    let Some(data) = &opts.data else {
        return Err("no input data (an .nt file)".into());
    };

    let mut builder = Database::builder().ntriples_file(data);
    if let Some(index) = &opts.index {
        builder = builder.disk_index(index);
    }
    if let Some(dir) = &opts.wal_dir {
        builder = builder.wal_dir(dir);
    }
    let db = Arc::new(builder.build().map_err(|e| e.to_string())?);
    eprintln!("lbr-server: {} triples", db.len());
    if opts.wal_dir.is_some() {
        eprintln!(
            "lbr-server: updatable (WAL replayed to epoch {}); POST /update enabled",
            db.epoch()
        );
    }

    let workers = opts.config.workers;
    let cache = opts.config.cache_capacity;
    let results = opts.config.result_cache_capacity;
    let queue = opts.config.queue_capacity;
    let server = Server::bind(opts.addr.as_str(), db, opts.config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "lbr-server: {workers} workers, queue {queue}, plan cache {cache} entries, \
         result cache {results} entries"
    );
    // The one stdout line: lets scripts discover an ephemeral port.
    println!("listening on http://{addr}");
    server.run().map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}
