//! `serve_mixed`: the only workload through net → queue → cache →
//! serialize → write. `lbr-server` runs in-process on loopback over an
//! updatable LUBM database with a WAL (fsync per commit, the default);
//! `nproc` keep-alive callers each wait for a reply before sending the
//! next request (a closed loop: these are callers, not independent users).

use super::*;
use crate::http::Client;
use crate::sys;
use lbr_server::{Server, ServerConfig, ServerHandle};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The request stream: every 250th request is an update (0.4%); of the
/// others one in ten, by a seeded draw, is heavy (LUBM Q1–Q3 in turn, large
/// JSON bodies) and the rest are selective Q4 / Q6 lookups. Request `k` of
/// a seed is the same request in every run.
const UPDATE_EVERY: usize = 250;
const HEAVY_ONE_IN: usize = 10;
const UPDATE_TRIPLES: usize = 20;
const ZIPF_S: f64 = 1.1;

/// Throughput is the median rate of slices of this many successful
/// requests, cut by completion order when the phase is over; the callers
/// never wait for one another. The measured phase lasts at least
/// `MIN_SLICES` of them however short `--seconds` is.
const SLICE_OPS: usize = 50;
const MIN_SLICES: usize = 20;

/// Cache capacities, entries. The selective key space is 2400 texts (Q4
/// and Q6 × three professor classes × 400 departments), drawn Zipf(1.1).
/// The server's defaults are 256 and 256: caches of one size evict in
/// step, so a request would either hit both or miss both and the
/// plan-hit-only path would carry no traffic. Each update bumps the epoch
/// and empties both, so an epoch sees about 110 distinct keys: the
/// plan cache holds them all, and a result cache an eighth of it (results
/// are the large entries) leaves a third of the SELECTs on result hits, a
/// quarter on plan-only hits and under half cold. Sized once, on seed 42:
/// with 32 result entries plan-only hits carried 7%, below the 10% the
/// workload's premise asks of each path.
const PLAN_CACHE: usize = 128;
const RESULT_CACHE: usize = 16;

const CLASSES: [&str; 3] = [
    "ub:FullProfessor",
    "ub:AssociateProfessor",
    "ub:AssistantProfessor",
];

/// Latency templates: the two selective shapes, then the three heavy
/// queries verbatim.
const TEMPLATES: [&str; 5] = ["lubm.Q4", "lubm.Q6", "lubm.Q1", "lubm.Q2", "lubm.Q3"];

enum Op {
    /// `text` indexes the catalogue, `template` indexes [`TEMPLATES`].
    Select {
        text: usize,
        template: usize,
    },
    Update(String),
}

/// Texts whose digest is computed in-process before any request: the three
/// heavy queries and the selective keys of highest rank, most of the
/// traffic. Holding HTTP and in-process to one answer on all 2400 would
/// take longer than the measured phase; the remaining texts must instead
/// return on every request what they returned on their first.
const PRECOMPUTED_KEYS: usize = 128;

/// Every distinct SELECT text of the workload with the digest its
/// responses must carry, once known.
struct Catalogue {
    texts: Vec<String>,
    template: Vec<usize>,
    expected: Vec<Option<Digest>>,
    /// Selective texts come first; the heavy ones are the last three.
    selective: usize,
}

fn catalogue(departments: &[String], seed: u64) -> Catalogue {
    // Popularity rank: the two shapes and three classes take turns down the
    // ranking, so that the hot keys are the same mix of shapes under every
    // seed, and the departments follow in a seeded order, so that they are
    // not the same departments.
    let mut order: Vec<&String> = departments.iter().collect();
    let mut rng = Rng::for_stream(seed, 0x5e1ec7);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let shapes = [("Q4", LUBM_DEPT_NEEDLE), ("Q6", LUBM_DEPT1_NEEDLE)]
        .map(|(id, needle)| (Family::Lubm.query(id), needle));
    let (mut texts, mut template) = (Vec::new(), Vec::new());
    for dept in order {
        for class in CLASSES {
            for (t, (base, needle)) in shapes.iter().enumerate() {
                texts.push(base.replace(needle, dept).replace(CLASSES[0], class));
                template.push(t);
            }
        }
    }
    let selective = texts.len();
    for (k, id) in ["Q1", "Q2", "Q3"].into_iter().enumerate() {
        texts.push(Family::Lubm.query(id));
        template.push(2 + k);
    }
    Catalogue {
        texts,
        template,
        expected: vec![None; selective + 3],
        selective,
    }
}

/// The seeded request stream. Sequential by construction: every third
/// update deletes the oldest batch still live (the first such delete
/// removes the batch inserted two updates earlier), the others insert a
/// fresh batch, so the delta grows by one batch per three updates.
struct OpGen {
    rng: Rng,
    zipf: crate::sample::Zipf,
    selective: usize,
    issued: usize,
    updates: u64,
    heavies: usize,
    /// Bodies of inserted batches not yet deleted, oldest first.
    live: VecDeque<String>,
    /// Inserted triples give an undergraduate a second `ub:name`. No
    /// template reads an undergraduate's name, so every SELECT text keeps
    /// one answer for the whole run and each response can be checked
    /// against it, while the commit still bumps the epoch (invalidating
    /// both caches) and leaves a delta on a predicate Q6 loads.
    subjects: Vec<String>,
    names: Vec<String>,
}

impl OpGen {
    fn new(seed: u64, cat: &Catalogue, text: &str) -> OpGen {
        OpGen {
            rng: Rng::for_stream(seed, 0x0b5),
            zipf: crate::sample::Zipf::new(cat.selective, ZIPF_S),
            selective: cat.selective,
            issued: 0,
            updates: 0,
            heavies: 0,
            live: VecDeque::new(),
            subjects: data::subjects_of(
                text,
                "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>",
                Some("<urn:ub:UndergraduateStudent>"),
            ),
            names: data::objects_of(text, "<urn:ub:name>"),
        }
    }

    fn update(&mut self) -> Op {
        let ordinal = self.updates;
        self.updates += 1;
        if ordinal % 3 == 2 {
            if let Some(body) = self.live.pop_front() {
                return Op::Update(format!("DELETE DATA {{\n{body}}}"));
            }
        }
        let mut body = String::new();
        for _ in 0..UPDATE_TRIPLES {
            let s = &self.subjects[self.rng.below(self.subjects.len())];
            let o = &self.names[self.rng.below(self.names.len())];
            body.push_str(&format!("{s} <urn:ub:name> {o} .\n"));
        }
        self.live.push_back(body.clone());
        Op::Update(format!("INSERT DATA {{\n{body}}}"))
    }

    fn next(&mut self, cat: &Catalogue) -> Op {
        let ordinal = self.issued;
        self.issued += 1;
        if ordinal.is_multiple_of(UPDATE_EVERY) {
            return self.update();
        }
        let text = if self.rng.below(HEAVY_ONE_IN) == 0 {
            self.heavies += 1;
            self.selective + (self.heavies - 1) % 3
        } else {
            self.zipf.sample(&mut self.rng)
        };
        Op::Select {
            text,
            template: cat.template[text],
        }
    }
}

/// What a caller saw of one request.
struct Record {
    /// `Some(template)` for a SELECT, `None` for an update.
    template: Option<usize>,
    ms: f64,
    /// When the reply was complete: wall and process CPU seconds since its
    /// block began.
    done_s: f64,
    done_cpu_s: f64,
    ok: bool,
    trace_id: Option<u64>,
    /// A SELECT's catalogue index and the digest of its response body.
    answer: Option<(usize, Option<Digest>)>,
}

/// A stretch of the request stream sent to one server, in completion
/// order.
struct Block {
    records: Vec<Record>,
}

impl Block {
    /// Equal-count slices of the successful requests, of either kind. A
    /// slice's CPU time is the whole process's, callers and server
    /// together.
    fn slices(&self) -> Vec<Slice> {
        let done: Vec<(f64, f64)> = self
            .records
            .iter()
            .filter(|r| r.ok)
            .map(|r| (r.done_s, r.done_cpu_s))
            .collect();
        stats::completion_slices(&done, SLICE_OPS)
    }
}

/// Sends requests from `clients.len()` caller threads, each taking the next
/// request of the stream when its previous one has been answered, for as
/// long as `more(requests taken so far)` holds. Every response is then
/// checked against the digest its text must carry.
fn run_block(
    clients: &mut [Client],
    gen: &mut OpGen,
    cat: &mut Catalogue,
    more: &(dyn Fn(usize) -> bool + Sync),
) -> Block {
    let stream = Mutex::new((gen, 0usize));
    let shared: &Catalogue = cat;
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let callers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let stream = &stream;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let op = {
                            let mut s = stream.lock().expect("a caller thread panicked");
                            if !more(s.1) {
                                return mine;
                            }
                            s.1 += 1;
                            s.0.next(shared)
                        };
                        let t = Instant::now();
                        let response = match &op {
                            Op::Select { text, .. } => client.post(
                                "/sparql",
                                "application/sparql-query",
                                shared.texts[*text].as_bytes(),
                            ),
                            Op::Update(text) => {
                                client.post("/update", "application/sparql-update", text.as_bytes())
                            }
                        };
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let done_s = start.elapsed().as_secs_f64();
                        let done_cpu_s = sys::cpu_seconds() - cpu0;
                        let (ok, trace_id) = match &response {
                            Ok(r) => (r.status == 200, r.trace_id),
                            Err(e) => {
                                eprintln!("request: {e}");
                                (false, None)
                            }
                        };
                        if let (false, Ok(r)) = (ok, &response) {
                            eprintln!("request: status {}", r.status);
                        }
                        let (template, answer) = match (&op, &response) {
                            (Op::Select { text, template }, Ok(r)) => (
                                Some(*template),
                                Some((*text, digest::of_json_bindings(&r.body))),
                            ),
                            (Op::Select { template, .. }, Err(_)) => (Some(*template), None),
                            (Op::Update(_), _) => (None, None),
                        };
                        mine.push(Record {
                            template,
                            ms,
                            done_s,
                            done_cpu_s,
                            ok,
                            trace_id,
                            answer,
                        });
                    }
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|c| c.join().expect("a caller thread panicked"))
            .collect()
    });
    records.sort_by(|a, b| {
        a.done_s
            .partial_cmp(&b.done_s)
            .expect("times are never NaN")
    });
    for r in &mut records {
        if let Some((text, got)) = r.answer {
            let want = *cat.expected[text].get_or_insert(got.unwrap_or_default());
            if got != Some(want) {
                eprintln!("text {text}: wrong rows");
                r.ok = false;
            }
        }
    }
    Block { records }
}

fn config(traced: bool) -> ServerConfig {
    ServerConfig {
        workers: sys::nproc(),
        cache_capacity: PLAN_CACHE,
        result_cache_capacity: RESULT_CACHE,
        // Tracing fully off, or every request published: nothing between.
        slow_query: Duration::ZERO,
        trace_sample_per_1024: if traced { 1024 } else { 0 },
        trace_ring: 1 << 20,
        ..ServerConfig::default()
    }
}

fn serve(db: &Arc<Database>, traced: bool) -> Result<ServerHandle, String> {
    let handle = Server::bind("127.0.0.1:0", Arc::clone(db), config(traced))
        .and_then(Server::spawn)
        .map_err(|e| format!("server: {e}"))?;
    let ready = Client::connect(handle.addr())
        .and_then(|mut c| c.get("/healthz"))
        .map_err(|e| format!("/healthz: {e}"))?;
    if ready.status != 200 {
        return Err(format!("/healthz answered {}", ready.status));
    }
    Ok(handle)
}

fn open(set: &DataSet, wal: &Path) -> Result<Arc<Database>, String> {
    let _ = std::fs::remove_dir_all(wal);
    Database::builder()
        .ntriples_file(&set.path)
        .wal_dir(wal)
        .build()
        .map(Arc::new)
        .map_err(|e| format!("{}: {e}", set.path.display()))
}

fn connect(addr: SocketAddr, n: usize) -> Result<Vec<Client>, String> {
    (0..n)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
        .collect()
}

/// Values of the Prometheus exposition the harness reads, keyed by the
/// sample name with its labels as printed.
fn scrape(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let body = Client::connect(addr)
        .and_then(|mut c| c.get("/metrics"))
        .map_err(|e| format!("/metrics: {e}"))?
        .body;
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect())
}

/// Set-up: N-Triples file on disk → updatable database → bound server that
/// has answered `/healthz`.
pub fn setup(ctx: &Ctx) -> Result<f64, String> {
    let t = Instant::now();
    let db = open(&ctx.set(Family::Lubm), &ctx.work_dir.join("wal"))?;
    let server = serve(&db, false)?;
    let secs = t.elapsed().as_secs_f64();
    drop(server);
    Ok(secs)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let set = ctx.set(Family::Lubm);
    let texts = load_texts(ctx, std::slice::from_ref(&set), &mut out)?;
    let templates: Vec<(Family, &str)> = ["Q1", "Q2", "Q3", "Q4", "Q6"]
        .map(|q| (Family::Lubm, q))
        .to_vec();
    gate(&templates, &mut out)?;
    ctx.done("data read, gate passed");
    let mut cat = catalogue(&lubm_departments(&texts[0]), ctx.seed);
    let mut gen = OpGen::new(ctx.seed, &cat, &texts[0]);
    let callers = sys::nproc();
    out.fact("workers", callers);
    out.fact("clients", callers);
    out.fact("distinct_select_texts", cat.texts.len());

    let mut setup_s = Vec::new();
    if ctx.traced {
        drop(layered_load(&texts, &mut out)?);
    } else {
        setup_s = timed_setups(ctx)?;
    }
    drop(texts);
    let db = open(&set, &ctx.work_dir.join("wal"))?;
    let plain_server = serve(&db, false)?;
    ctx.done("set-up");
    // The traced server shares the database: both see every commit, each
    // has its own caches and its own trace ring.
    let traced_server = if ctx.traced {
        Some(serve(&db, true)?)
    } else {
        None
    };

    // The hot texts once in-process: the digest each HTTP response must
    // carry, which also holds the two paths to the same answer.
    let mut heavy = Vec::new();
    for i in (0..PRECOMPUTED_KEYS.min(cat.selective)).chain(cat.selective..cat.texts.len()) {
        let d = term_digest(&db, &cat.texts[i])?;
        cat.expected[i] = Some(d);
        if i >= cat.selective {
            heavy.push((TEMPLATES[cat.template[i]].to_string(), d, false));
        }
    }
    record_digests(ctx, "serve_mixed", &heavy, &mut out);

    let mut plain_clients = connect(plain_server.addr(), callers)?;
    let mut traced_clients = match &traced_server {
        Some(s) => connect(s.addr(), callers)?,
        None => Vec::new(),
    };

    // Warm-up, untimed: the stream up to its second update, on each server.
    let one_epoch = |taken: usize| taken < UPDATE_EVERY;
    let mut warm = run_block(&mut plain_clients, &mut gen, &mut cat, &one_epoch).records;
    if traced_server.is_some() {
        warm.extend(run_block(&mut traced_clients, &mut gen, &mut cat, &one_epoch).records);
    }
    out.hard(
        "warmup.correct",
        warm.iter().all(|r| r.ok),
        "every warm-up response carried the in-process digest",
    );

    ctx.done("in-process digests, warm-up");
    let before = match &traced_server {
        Some(s) => scrape(s.addr())?,
        None => HashMap::new(),
    };
    let (mut plain, mut traced): (Vec<Block>, Vec<Block>) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let in_time = || start.elapsed().as_secs_f64() < ctx.seconds;
    if traced_server.is_none() {
        // One stretch of the stream, the callers never waiting for one
        // another.
        let more = |taken: usize| taken < MIN_SLICES * SLICE_OPS || in_time();
        plain.push(run_block(&mut plain_clients, &mut gen, &mut cat, &more));
    } else {
        // Alternately one epoch of the stream to either server, so that
        // both see the same host conditions. An epoch begins with its
        // update, which empties both servers' caches anyway: each server's
        // cache states are those of a run on its own.
        let epochs = MIN_SLICES * SLICE_OPS / UPDATE_EVERY;
        while plain.len() < epochs || in_time() {
            plain.push(run_block(
                &mut plain_clients,
                &mut gen,
                &mut cat,
                &one_epoch,
            ));
            traced.push(run_block(
                &mut traced_clients,
                &mut gen,
                &mut cat,
                &one_epoch,
            ));
        }
    }
    ctx.done("measured phase");

    let measured = if ctx.traced { &traced } else { &plain };
    let records = || measured.iter().flat_map(|b| &b.records);
    let all = || plain.iter().chain(&traced).flat_map(|b| &b.records);
    out.attempted = all().count() as u64;
    out.failed = all().filter(|r| !r.ok).count() as u64;
    let lat_ms: Vec<Vec<f64>> = (0..TEMPLATES.len())
        .map(|t| {
            records()
                .filter(|r| r.ok && r.template == Some(t))
                .map(|r| r.ms)
                .collect()
        })
        .collect();
    for (name, lat) in TEMPLATES.iter().zip(&lat_ms) {
        out.timings.push((name.to_string(), stats::summarize(lat)));
    }
    let updates: Vec<f64> = records()
        .filter(|r| r.ok && r.template.is_none())
        .map(|r| r.ms)
        .collect();
    if !updates.is_empty() {
        out.timings
            .push(("update".to_string(), stats::summarize(&updates)));
    }
    let slices =
        |blocks: &[Block]| -> Vec<Slice> { blocks.iter().flat_map(Block::slices).collect() };

    if !ctx.traced {
        let slices = slices(&plain);
        let in_order: Vec<f64> = records()
            .filter(|r| r.ok && r.template.is_some())
            .map(|r| r.ms)
            .collect();
        let state = State {
            lat_ms: &lat_ms,
            slices: &slices,
            in_order: &in_order,
        };
        report_end_to_end(&[state], &setup_s, &mut out);
        out.fact("updates", updates.len());
    } else {
        let server = traced_server
            .as_ref()
            .expect("traced run has a traced server");
        let (plain_slices, traced_slices) = (slices(&plain), slices(&traced));
        let rates = |slices| State {
            lat_ms: &[],
            slices,
            in_order: &[],
        };
        report_overhead(&[rates(&plain_slices)], &[rates(&traced_slices)], &mut out);
        let traced_records: Vec<&Record> = records().collect();
        report_layers(server.addr(), &before, &traced_records, &updates, &mut out)?;
    }
    // Servers stop (and join their threads) before the database goes.
    drop((plain_clients, traced_clients));
    drop((plain_server, traced_server));
    Ok(out)
}

/// One request's trace, reduced to what the layer metrics need.
struct Trace {
    spans: Vec<(String, f64, Option<f64>)>,
}

impl Trace {
    fn us(&self, name: &str) -> Option<f64> {
        let hits: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.1)
            .collect();
        (!hits.is_empty()).then(|| hits.iter().sum())
    }
}

/// Spans that are stretches of one request's time, as opposed to the
/// zero-length markers (`tp`, `jvar`, `branch`) and `prune_pass`, which
/// subdivides `prune`.
const TIMED: [&str; 11] = [
    "read",
    "queue_wait",
    "parse",
    "plan",
    "init",
    "prune",
    "join",
    "best_match",
    "finalize",
    "serialize",
    "write",
];

fn report_layers(
    addr: SocketAddr,
    before: &HashMap<String, f64>,
    records: &[&Record],
    updates: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let after = scrape(addr)?;
    let delta = |key: &str| after.get(key).unwrap_or(&0.0) - before.get(key).unwrap_or(&0.0);
    let ratio = |cache: &str| {
        let hits = delta(&format!("lbr_cache_hits_total{{cache=\"{cache}\"}}"));
        let misses = delta(&format!("lbr_cache_misses_total{{cache=\"{cache}\"}}"));
        (
            hits,
            misses,
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        )
    };
    let (result_hits, _, result_ratio) = ratio("result");
    let (plan_hits, plan_misses, plan_ratio) = ratio("plan");
    out.set("cache.result_hit_ratio", result_ratio);
    out.set("cache.plan_hit_ratio", plan_ratio);
    out.set(
        "cache.evictions",
        delta("lbr_cache_evictions_total{cache=\"result\"}")
            + delta("lbr_cache_evictions_total{cache=\"plan\"}"),
    );
    out.set(
        "cache.epoch_evictions",
        delta("lbr_cache_epoch_evictions_total{cache=\"result\"}")
            + delta("lbr_cache_epoch_evictions_total{cache=\"plan\"}"),
    );
    out.set("net.dropped", delta("lbr_net_requests_dropped_total"));
    out.set("net.timed_out", delta("lbr_net_requests_timed_out_total"));
    let selects = result_hits + plan_hits + plan_misses;
    let shares = [result_hits, plan_hits, plan_misses].map(|n| n / selects.max(1.0));
    out.soft(
        "premise.cache_states",
        shares.iter().all(|s| (0.10..=0.80).contains(s)),
        format!(
            "result-hit {:.2}, plan-hit {:.2}, cold {:.2} of SELECTs; each should lie in 0.10..0.80",
            shares[0], shares[1], shares[2]
        ),
    );

    // The program's own spans, over the wire.
    let body = Client::connect(addr)
        .and_then(|mut c| c.get("/debug/traces"))
        .map_err(|e| format!("/debug/traces: {e}"))?
        .body;
    let doc = crate::json::parse(&String::from_utf8_lossy(&body))?;
    let mut traces: HashMap<u64, Trace> = HashMap::new();
    for t in doc.get("traces").map(Value::as_arr).unwrap_or_default() {
        let Some(id) = t.get("id").and_then(Value::as_f64) else {
            continue;
        };
        let spans = t
            .get("spans")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|s| {
                Some((
                    s.get("name")?.as_str()?.to_string(),
                    s.get("dur_us")?.as_f64()?,
                    s.get("attrs")
                        .and_then(|a| a.get("bytes"))
                        .and_then(Value::as_f64),
                ))
            })
            .collect();
        traces.insert(id as u64, Trace { spans });
    }

    // Client-observed round trips, split by what the trace says happened.
    let (mut cold, mut plan_hit, mut result_hit, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut span_us: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut execute_ms, mut serialize_kb) = (Vec::new(), Vec::new());
    let mut untraced = 0;
    for r in records.iter().filter(|r| r.ok) {
        let Some(trace) = r.trace_id.and_then(|id| traces.get(&id)) else {
            untraced += 1;
            continue;
        };
        for name in TIMED.iter().chain(&["wal_append"]) {
            if let Some(us) = trace.us(name) {
                span_us.entry(name).or_default().push(us);
            }
        }
        if r.template.is_none() {
            continue;
        }
        let engine: f64 = STAGES.iter().filter_map(|s| trace.us(s)).sum();
        if trace.us("parse").is_some() {
            cold.push(r.ms);
            let spans: f64 = TIMED.iter().filter_map(|s| trace.us(s)).sum();
            overhead.push(r.ms * 1e3 - spans);
        } else if engine > 0.0 || trace.us("serialize").is_some() {
            plan_hit.push(r.ms);
        } else {
            result_hit.push(r.ms);
        }
        if engine > 0.0 {
            execute_ms.push(engine / 1e3);
        }
        serialize_kb.extend(
            trace
                .spans
                .iter()
                .filter(|s| s.0 == "serialize")
                .filter_map(|s| s.2)
                .map(|b| b / 1024.0),
        );
    }
    out.soft(
        "traces.complete",
        untraced == 0,
        format!("{untraced} successful requests had no trace in /debug/traces"),
    );
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let span = |name: &str| span_us.get(name).map_or(0.0, |v| med(v));
    out.set("net.read_us", span("read"));
    out.set("net.queue_wait_us", span("queue_wait"));
    out.set("net.write_us", span("write"));
    out.set("net.hit_roundtrip_us", med(&result_hit) * 1e3);
    out.set("server.cold_ms", med(&cold));
    out.set("server.plan_hit_ms", med(&plan_hit));
    out.set("server.result_hit_ms", med(&result_hit));
    out.set("server.overhead_us", med(&overhead));
    out.set("store.http_update_ms", med(updates));
    out.set("store.wal_append_us", span("wal_append"));
    out.set("sparql.parse_us", span("parse"));
    out.set("core.plan_us", span("plan"));
    out.set("core.execute_ms", med(&execute_ms));
    let stage: Vec<f64> = STAGES.iter().map(|s| span(s) / 1e3).collect();
    for (name, ms) in STAGES.iter().zip(&stage) {
        out.set(&format!("core.{name}_ms"), *ms);
    }
    let covered: f64 = stage.iter().sum();
    out.set(
        "core.init_share",
        if covered > 0.0 {
            stage[0] / covered
        } else {
            0.0
        },
    );
    out.set("format.json_ms", span("serialize") / 1e3);
    out.set("format.kb_per_op", stats::mean(&serialize_kb));
    // No outside span brackets the engine over HTTP, no `QueryOutput.stats`
    // crosses the wire, and other threads share the allocator.
    zero(
        out,
        &[
            "core.ledger_gap_pct",
            "core.ns_per_intersection",
            "core.mt_ratio",
            "core.initial_triples",
            "core.triples_after_prune",
            "core.prune_ratio",
            "core.prune_intersections",
            "core.join_seeds",
            "core.rows",
            "core.null_rows",
            "core.allocs_per_op",
            "core.alloc_kb_per_op",
        ],
    );
    zero(out, &DISK_ONLY);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Catalogue, String) {
        let text = lbr::rdf::write_ntriples(
            lbr::Graph::from_triples(lbr::datagen::lubm::generate(
                &lbr::datagen::lubm::LubmConfig::scaled(0.1, 42),
            ))
            .triples(),
        );
        (catalogue(&lubm_departments(&text), 42), text)
    }

    fn describe(op: &Op) -> String {
        match op {
            Op::Select { text, template } => format!("select {text} {template}"),
            Op::Update(body) => body.clone(),
        }
    }

    #[test]
    fn the_request_stream_is_a_function_of_the_seed() {
        let (cat, text) = small();
        assert_eq!(cat.texts.len(), 2 * 3 * 10 + 3);
        let stream = |seed| {
            let mut gen = OpGen::new(seed, &cat, &text);
            (0..8 * UPDATE_EVERY)
                .map(|_| describe(&gen.next(&cat)))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(42), stream(42));
        assert_ne!(stream(42), stream(43));
    }

    #[test]
    fn the_stream_keeps_its_mix_and_deletes_follow_inserts() {
        let (cat, text) = small();
        let mut gen = OpGen::new(7, &cat, &text);
        let mut updates = Vec::new();
        let mut heavy = [0usize; 3];
        let epochs = 24;
        for k in 0..epochs * UPDATE_EVERY {
            match gen.next(&cat) {
                Op::Update(u) => {
                    assert_eq!(k % UPDATE_EVERY, 0, "an update out of turn");
                    updates.push(u);
                }
                Op::Select { text, template } => {
                    assert_ne!(k % UPDATE_EVERY, 0, "no update in its turn");
                    assert_eq!(text >= cat.selective, template >= 2);
                    if template >= 2 {
                        heavy[template - 2] += 1;
                    }
                }
            }
        }
        assert_eq!(updates.len(), epochs);
        // One request in ten is heavy, the three heavy queries in turn.
        let heavies: usize = heavy.iter().sum();
        let tenth = epochs * UPDATE_EVERY / HEAVY_ONE_IN;
        assert!(
            (tenth * 8 / 10..tenth * 12 / 10).contains(&heavies),
            "{heavies}"
        );
        assert!(heavy.iter().max().unwrap() - heavy.iter().min().unwrap() <= 1);
        // Update 2 deletes exactly what update 0 inserted, update 5 what
        // update 1 inserted.
        for (delete, insert) in [(2, 0), (5, 1)] {
            assert!(updates[insert].starts_with("INSERT DATA"));
            assert_eq!(
                updates[delete].strip_prefix("DELETE DATA"),
                updates[insert].strip_prefix("INSERT DATA")
            );
        }
        for u in &updates {
            lbr::parse_update(u).unwrap();
        }
        for t in &cat.texts {
            lbr::parse_query(t).unwrap();
        }
    }
}
