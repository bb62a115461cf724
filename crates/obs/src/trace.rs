//! Per-query execution tracing: a thread-local span recorder with an
//! allocation-free record fast path, and [`Tracing`] — the per-server
//! sampler + bounded ring of finished traces.
//!
//! The design resolves the "always-on for slow queries, probabilistic
//! otherwise" requirement without knowing a query's duration up front:
//! whenever a [`Tracing`] handle is attached, every request *collects*
//! spans into a reusable thread-local buffer (one thread-local flag check
//! per record; no heap allocation once the buffer reached its high-water
//! mark), and the publication decision happens at [`Tracing::finish`],
//! when the total wall time is known — a trace over the slow threshold is
//! always kept, anything else is kept with probability
//! `sample_per_1024 / 1024`. Unpublished traces are dropped without
//! touching a lock or the heap.
//!
//! Span timing is explicit (`start` + duration), so spans can be recorded
//! retroactively — the net layer stamps a request's enqueue time in the
//! event loop and records the `queue_wait` span on the worker that pops
//! it, and the response `write` span is appended to an already-published
//! trace by id ([`Tracing::append_span`]).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Attributes a span can carry (fixed-size so recording never allocates).
pub const MAX_ATTRS: usize = 5;

/// Spans retained per trace; recording beyond this drops the span (and
/// counts it) rather than growing the buffer on the hot path.
pub const MAX_SPANS: usize = 256;

/// One recorded stage of a trace. Stage names are stable, `'static`, and
/// documented in the README's span model table (`read`, `queue_wait`,
/// `parse`, `plan`, `init`, `prune`, `prune_pass`, `join`, `best_match`,
/// `finalize`, `serialize`, `write`, `wal_append`, `compact`,
/// `checkpoint`, plus the zero-duration markers `branch` (one per UNION
/// branch) and `tp` / `jvar` (per-TP / per-jvar cardinalities)).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Stable stage name.
    pub name: &'static str,
    /// Microseconds from the trace start to this span's start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    attrs: [(&'static str, u64); MAX_ATTRS],
    n_attrs: u8,
}

impl Span {
    /// The span's attributes, in recording order.
    pub fn attrs(&self) -> &[(&'static str, u64)] {
        &self.attrs[..self.n_attrs as usize]
    }

    /// The value of the attribute `name`, if recorded.
    pub fn attr(&self, name: &str) -> Option<u64> {
        self.attrs()
            .iter()
            .find(|&&(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// The reusable thread-local collection state of one in-flight trace.
struct Active {
    on: bool,
    id: u64,
    start: Instant,
    spans: Vec<Span>,
    label: String,
    dropped_spans: u64,
}

thread_local! {
    static CURRENT: RefCell<Active> = RefCell::new(Active {
        on: false,
        id: 0,
        start: Instant::now(),
        spans: Vec::new(),
        label: String::new(),
        dropped_spans: 0,
    });
}

/// Activates span collection on this thread under trace id `id`,
/// clearing (but keeping the capacity of) the reusable buffers. Usually
/// called through [`Tracing::begin`].
pub fn trace_begin(id: u64) {
    CURRENT.with(|c| {
        let mut t = c.borrow_mut();
        t.on = true;
        t.id = id;
        t.start = Instant::now();
        t.spans.clear();
        // One-time per-thread growth to the fixed high-water mark; the
        // record fast path never grows the buffer.
        t.spans.reserve(MAX_SPANS);
        t.label.clear();
        t.dropped_spans = 0;
    });
}

/// Whether a trace is collecting on this thread — the single check that
/// gates every optional capture (per-jvar cardinalities, TP actuals).
pub fn trace_active() -> bool {
    CURRENT.with(|c| c.borrow().on)
}

/// The active trace's id (what `X-Lbr-Trace-Id` advertises), if any.
pub fn trace_id() -> Option<u64> {
    CURRENT.with(|c| {
        let t = c.borrow();
        t.on.then_some(t.id)
    })
}

/// The active trace's start instant (for computing span offsets of work
/// that began before the trace did, e.g. request read time).
pub fn trace_start() -> Option<Instant> {
    CURRENT.with(|c| {
        let t = c.borrow();
        t.on.then_some(t.start)
    })
}

/// Writes the trace label (e.g. `GET /sparql?query=…`) via a closure over
/// the reusable thread-local `String` — callers append with `write!`, so
/// the steady state reuses the buffer's capacity. No-op when inactive.
pub fn set_label(f: impl FnOnce(&mut String)) {
    CURRENT.with(|c| {
        let mut t = c.borrow_mut();
        if t.on {
            t.label.clear();
            f(&mut t.label);
        }
    });
}

// lbr-lint: no_alloc — the span-record fast path: one thread-local flag
// check when tracing is inactive; when active, fixed-size attrs are copied
// into the pre-reserved buffer and a full buffer drops the span instead of
// growing.

/// Records a span with an explicit start and duration. Inactive traces
/// cost one thread-local flag load; attributes beyond [`MAX_ATTRS`] are
/// silently truncated.
pub fn span_at(name: &'static str, start: Instant, dur: Duration, attrs: &[(&'static str, u64)]) {
    CURRENT.with(|c| {
        let mut t = c.borrow_mut();
        if !t.on {
            return;
        }
        if t.spans.len() >= MAX_SPANS {
            t.dropped_spans += 1;
            return;
        }
        let start_us = start.saturating_duration_since(t.start).as_micros() as u64;
        let mut fixed = [("", 0u64); MAX_ATTRS];
        let n = attrs.len().min(MAX_ATTRS);
        fixed[..n].copy_from_slice(&attrs[..n]);
        t.spans.push(Span {
            name,
            start_us,
            dur_us: dur.as_micros() as u64,
            attrs: fixed,
            n_attrs: n as u8,
        });
    });
}

/// Records a span that started at `start` and ends now.
pub fn span_since(name: &'static str, start: Instant, attrs: &[(&'static str, u64)]) {
    span_at(name, start, start.elapsed(), attrs);
}
// lbr-lint: end

/// Deactivates the thread-local trace without publishing anything.
/// Returns whether a trace was active.
pub fn trace_abort() -> bool {
    CURRENT.with(|c| std::mem::replace(&mut c.borrow_mut().on, false))
}

/// Deactivates the thread-local trace and copies its spans into `out`
/// and its label into `label` (both cleared first). Returns the trace id
/// when one was active. Used by `EXPLAIN ANALYZE`, which consumes spans
/// directly instead of publishing to a ring.
pub fn trace_drain(out: &mut Vec<Span>, label: &mut String) -> Option<u64> {
    CURRENT.with(|c| {
        let mut t = c.borrow_mut();
        if !t.on {
            return None;
        }
        t.on = false;
        out.clear();
        out.extend_from_slice(&t.spans);
        label.clear();
        label.push_str(&t.label);
        Some(t.id)
    })
}

/// Σ `dur_us` of the spans called `stage` — the one reader of a stage's
/// time. A query with several UNION branches records one `init` /
/// `prune` / `join` group each, and the sum covers all of them.
pub fn stage_us(spans: &[Span], stage: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == stage)
        .map(|s| s.dur_us)
        .sum()
}

/// A published trace in the bounded ring.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// The id advertised in `X-Lbr-Trace-Id`.
    pub id: u64,
    /// Request label (`GET /sparql?query=…`).
    pub label: String,
    /// End-to-end wall time, microseconds.
    pub total_us: u64,
    /// Whether the slow-query threshold (not the probabilistic sampler)
    /// published it.
    pub slow: bool,
    /// Spans recorded while collecting was active on a thread whose
    /// record span went beyond [`MAX_SPANS`].
    pub dropped_spans: u64,
    /// The recorded spans, in record order.
    pub spans: Vec<Span>,
}

#[derive(Debug)]
struct Ring {
    traces: VecDeque<FinishedTrace>,
    capacity: usize,
}

/// The per-server tracing instance: sampling knobs, trace-id allocator,
/// and the bounded ring of published traces behind `GET /debug/traces`.
#[derive(Debug)]
pub struct Tracing {
    slow_us: AtomicU64,
    sample_per_1024: AtomicU32,
    next_id: AtomicU64,
    finished: AtomicU64,
    published: AtomicU64,
    log_slow: AtomicBool,
    ring: Mutex<Ring>,
}

/// SplitMix64: the deterministic per-trace-id hash behind probabilistic
/// sampling — no RNG state, no syscall, reproducible in tests.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Tracing {
    /// Creates a tracing instance with a ring of `capacity` traces, a
    /// slow-query threshold (`Duration::ZERO` disables the always-keep
    /// path) and a probabilistic publication rate out of 1024.
    ///
    /// A zero-capacity ring is rejected with a descriptive error — it
    /// could never retain a trace, so every published id would dangle.
    pub fn new(capacity: usize, slow: Duration, sample_per_1024: u32) -> Result<Tracing, String> {
        if capacity == 0 {
            return Err(
                "trace ring capacity must be at least 1 (a 0-capacity ring can never \
                 retain a trace)"
                    .to_string(),
            );
        }
        Ok(Tracing {
            slow_us: AtomicU64::new(slow.as_micros() as u64),
            sample_per_1024: AtomicU32::new(sample_per_1024.min(1024)),
            next_id: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            published: AtomicU64::new(0),
            log_slow: AtomicBool::new(false),
            ring: Mutex::new(Ring {
                traces: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
            }),
        })
    }

    /// Enables the slow-query log: published-as-slow traces also print
    /// one stderr line.
    pub fn with_slow_log(self, on: bool) -> Tracing {
        self.log_slow.store(on, Ordering::Relaxed);
        self
    }

    /// Allocates a trace id and activates collection on this thread.
    /// When both sampling knobs are off (slow threshold 0 and rate 0)
    /// nothing could ever publish, so collection is skipped entirely and
    /// `None` is returned — the fully-off configuration costs two atomic
    /// loads per request.
    pub fn begin(&self) -> Option<u64> {
        if self.slow_us.load(Ordering::Relaxed) == 0
            && self.sample_per_1024.load(Ordering::Relaxed) == 0
        {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        trace_begin(id);
        Some(id)
    }

    /// Finishes the thread-local trace with the request's end-to-end
    /// wall time and decides publication: total ≥ slow threshold always
    /// publishes (the slow-query guarantee); otherwise the id hash keeps
    /// `sample_per_1024` of 1024. Returns the id when published. The
    /// unpublished path drops the trace without locking or allocating.
    pub fn finish(&self, total: Duration) -> Option<u64> {
        let id = trace_id()?;
        self.finished.fetch_add(1, Ordering::Relaxed);
        let total_us = total.as_micros() as u64;
        let slow_us = self.slow_us.load(Ordering::Relaxed);
        let slow = slow_us > 0 && total_us >= slow_us;
        let rate = self.sample_per_1024.load(Ordering::Relaxed) as u64;
        let sampled = rate > 0 && (splitmix64(id) & 1023) < rate;
        if !slow && !sampled {
            trace_abort();
            return None;
        }
        let mut spans = Vec::new();
        let mut label = String::new();
        let id = trace_drain(&mut spans, &mut label)?;
        let dropped_spans = CURRENT.with(|c| c.borrow().dropped_spans);
        if slow && self.log_slow.load(Ordering::Relaxed) {
            eprintln!("[lbr-obs] slow query trace #{id}: {total_us}us {label}");
        }
        let trace = FinishedTrace {
            id,
            label,
            total_us,
            slow,
            dropped_spans,
            spans,
        };
        {
            let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
            if ring.traces.len() == ring.capacity {
                ring.traces.pop_front();
            }
            ring.traces.push_back(trace);
        }
        self.published.fetch_add(1, Ordering::Relaxed);
        Some(id)
    }

    /// Appends a post-completion span (e.g. the response `write`) to an
    /// already-published trace. The span's start offset is the trace's
    /// total time — it happened after the handler finished. A no-op when
    /// the id already rotated out of the ring.
    pub fn append_span(
        &self,
        id: u64,
        name: &'static str,
        dur: Duration,
        attrs: &[(&'static str, u64)],
    ) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = ring.traces.iter_mut().rev().find(|t| t.id == id) {
            let mut fixed = [("", 0u64); MAX_ATTRS];
            let n = attrs.len().min(MAX_ATTRS);
            fixed[..n].copy_from_slice(&attrs[..n]);
            t.spans.push(Span {
                name,
                start_us: t.total_us,
                dur_us: dur.as_micros() as u64,
                attrs: fixed,
                n_attrs: n as u8,
            });
        }
    }

    /// Clones the ring's current contents, oldest first.
    pub fn snapshot(&self) -> Vec<FinishedTrace> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.traces.iter().cloned().collect()
    }

    /// Traces finished (published or not) through this instance.
    pub fn finished(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Traces published into the ring.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).capacity
    }

    /// Traces currently retained.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .traces
            .len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slow-query threshold in microseconds (0 = disabled).
    pub fn slow_us(&self) -> u64 {
        self.slow_us.load(Ordering::Relaxed)
    }

    /// The probabilistic publication rate out of 1024.
    pub fn sample_per_1024(&self) -> u32 {
        self.sample_per_1024.load(Ordering::Relaxed)
    }
}

/// Renders traces as the `/debug/traces` JSON document.
pub fn render_traces_json(traces: &[FinishedTrace]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"traces\":[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":{},\"label\":", t.id);
        crate::expo::json_escape_into(&mut out, &t.label);
        let _ = write!(
            out,
            ",\"total_us\":{},\"slow\":{},\"dropped_spans\":{},\"spans\":[",
            t.total_us, t.slow, t.dropped_spans
        );
        for (j, s) in t.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}",
                s.name, s.start_us, s.dur_us
            );
            if !s.attrs().is_empty() {
                out.push_str(",\"attrs\":{");
                for (k, &(name, v)) in s.attrs().iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{name}\":{v}");
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Tracing>();
    check::<FinishedTrace>();
    check::<Span>();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(capacity: usize, slow: Duration, rate: u32) -> Tracing {
        Tracing::new(capacity, slow, rate).expect("valid tracing config")
    }

    #[test]
    fn zero_capacity_ring_is_rejected() {
        let err = Tracing::new(0, Duration::from_millis(250), 0).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn slow_trace_always_published_fast_trace_dropped() {
        let tr = t(8, Duration::from_micros(50), 0);
        // Fast trace: below the threshold, rate 0 → dropped.
        tr.begin().expect("collection active");
        span_at("plan", Instant::now(), Duration::from_micros(5), &[]);
        assert!(tr.finish(Duration::from_micros(10)).is_none());
        assert_eq!((tr.published(), tr.finished()), (0, 1));
        // Slow trace: always kept, spans intact.
        let id = tr.begin().expect("collection active");
        span_at(
            "join",
            Instant::now(),
            Duration::from_micros(80),
            &[("seeds", 7)],
        );
        set_label(|s| s.push_str("GET /sparql?query=slow"));
        assert_eq!(tr.finish(Duration::from_micros(120)), Some(id));
        let snap = tr.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].slow);
        assert_eq!(snap[0].total_us, 120);
        assert_eq!(snap[0].label, "GET /sparql?query=slow");
        assert_eq!(snap[0].spans.len(), 1);
        assert_eq!(snap[0].spans[0].name, "join");
        assert_eq!(snap[0].spans[0].attr("seeds"), Some(7));
        assert_eq!(snap[0].spans[0].attr("missing"), None);
    }

    #[test]
    fn ring_is_bounded_and_rotates_oldest_out() {
        let tr = t(2, Duration::from_micros(1), 0);
        for _ in 0..5 {
            tr.begin().expect("active");
            tr.finish(Duration::from_micros(10)).expect("published");
        }
        let snap = tr.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(tr.published(), 5);
        // Oldest first, newest last.
        assert!(snap[0].id < snap[1].id);
        assert_eq!(snap[1].id, 5);
    }

    #[test]
    fn probabilistic_sampling_respects_the_rate() {
        // Rate 1024/1024 keeps everything; rate 0 keeps nothing.
        let all = t(2048, Duration::ZERO, 1024);
        for _ in 0..100 {
            all.begin().expect("active");
            all.finish(Duration::from_micros(1)).expect("kept");
        }
        assert_eq!(all.published(), 100);
        // A middling rate keeps *some* but not all over many ids.
        let some = t(2048, Duration::ZERO, 512);
        for _ in 0..256 {
            some.begin().expect("active");
            some.finish(Duration::from_micros(1));
        }
        let k = some.published();
        assert!(k > 64 && k < 192, "rate 512/1024 kept {k}/256");
    }

    #[test]
    fn fully_off_config_skips_collection() {
        let tr = t(4, Duration::ZERO, 0);
        assert!(tr.begin().is_none());
        assert!(!trace_active());
        span_at("plan", Instant::now(), Duration::from_micros(5), &[]);
        assert!(tr.finish(Duration::from_micros(10)).is_none());
        assert_eq!(tr.finished(), 0);
    }

    #[test]
    fn span_buffer_is_bounded_and_counts_drops() {
        let tr = t(4, Duration::from_micros(1), 0);
        tr.begin().expect("active");
        for _ in 0..(MAX_SPANS + 10) {
            span_at("join", Instant::now(), Duration::from_micros(1), &[]);
        }
        tr.finish(Duration::from_micros(10)).expect("slow → kept");
        let snap = tr.snapshot();
        assert_eq!(snap[0].spans.len(), MAX_SPANS);
        assert_eq!(snap[0].dropped_spans, 10);
    }

    #[test]
    fn attrs_beyond_the_fixed_limit_truncate() {
        let tr = t(4, Duration::from_micros(1), 0);
        tr.begin().expect("active");
        let attrs: Vec<(&'static str, u64)> =
            vec![("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5), ("f", 6)];
        span_at("join", Instant::now(), Duration::from_micros(1), &attrs);
        tr.finish(Duration::from_micros(10)).expect("kept");
        let snap = tr.snapshot();
        assert_eq!(snap[0].spans[0].attrs().len(), MAX_ATTRS);
        assert_eq!(snap[0].spans[0].attr("f"), None);
    }

    #[test]
    fn append_span_attaches_to_a_published_trace() {
        let tr = t(4, Duration::from_micros(1), 0);
        let id = tr.begin().expect("active");
        tr.finish(Duration::from_micros(50)).expect("kept");
        tr.append_span(id, "write", Duration::from_micros(7), &[("bytes", 420)]);
        let snap = tr.snapshot();
        assert_eq!(snap[0].spans.len(), 1);
        assert_eq!(snap[0].spans[0].name, "write");
        assert_eq!(
            snap[0].spans[0].start_us, 50,
            "write starts after the handler"
        );
        assert_eq!(snap[0].spans[0].attr("bytes"), Some(420));
        // Unknown ids are a no-op, not a panic.
        tr.append_span(9999, "write", Duration::from_micros(1), &[]);
    }

    #[test]
    fn drain_supports_direct_consumers() {
        trace_begin(42);
        let t0 = Instant::now();
        span_at("prune_pass", t0, Duration::from_micros(30), &[("pass", 0)]);
        span_at("prune_pass", t0, Duration::from_micros(12), &[("pass", 1)]);
        set_label(|s| s.push_str("explain analyze"));
        let mut spans = Vec::new();
        let mut label = String::new();
        assert_eq!(trace_drain(&mut spans, &mut label), Some(42));
        assert_eq!(spans.len(), 2);
        assert_eq!(stage_us(&spans, "prune_pass"), 42);
        assert_eq!(stage_us(&spans, "join"), 0);
        assert_eq!(label, "explain analyze");
        assert!(!trace_active());
        assert_eq!(trace_drain(&mut spans, &mut label), None);
    }

    #[test]
    fn traces_render_as_json() {
        let tr = t(4, Duration::from_micros(1), 0);
        tr.begin().expect("active");
        span_at(
            "join",
            Instant::now(),
            Duration::from_micros(9),
            &[("seeds", 3), ("rows", 2)],
        );
        set_label(|s| s.push_str("GET /sparql?query=\"q\"\n"));
        tr.finish(Duration::from_micros(25)).expect("kept");
        let json = render_traces_json(&tr.snapshot());
        assert!(json.starts_with("{\"traces\":[{\"id\":1,"), "{json}");
        assert!(
            json.contains("\"label\":\"GET /sparql?query=\\\"q\\\"\\n\""),
            "{json}"
        );
        assert!(json.contains("\"name\":\"join\""), "{json}");
        assert!(
            json.contains("\"attrs\":{\"seeds\":3,\"rows\":2}"),
            "{json}"
        );
        assert!(json.ends_with("]}\n"), "{json}");
    }

    /// Scans JSON structure outside string literals: every close must
    /// match its open, and the document must end balanced. (A span
    /// object was once closed with `}}` — `contains` assertions cannot
    /// see that, a structural scan can.)
    fn assert_balanced_json(json: &str) {
        let mut stack = Vec::new();
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_str {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => stack.push(c),
                '}' => assert_eq!(stack.pop(), Some('{'), "unbalanced '}}' in {json}"),
                ']' => assert_eq!(stack.pop(), Some('['), "unbalanced ']' in {json}"),
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string in {json}");
        assert!(stack.is_empty(), "unclosed {stack:?} in {json}");
    }

    #[test]
    fn traces_json_is_structurally_valid() {
        let tr = t(4, Duration::from_micros(1), 0);
        tr.begin().expect("active");
        // One span with attrs, one without: both close correctly.
        span_at(
            "join",
            Instant::now(),
            Duration::from_micros(9),
            &[("seeds", 3)],
        );
        span_at("serialize", Instant::now(), Duration::from_micros(2), &[]);
        tr.finish(Duration::from_micros(25)).expect("kept");
        tr.begin().expect("active");
        tr.finish(Duration::from_micros(30)).expect("kept");
        assert_balanced_json(&render_traces_json(&tr.snapshot()));
        assert_balanced_json(&render_traces_json(&[]));
    }
}
