//! The unified exposition registry: one ordered list of metrics rendered
//! two ways — Prometheus text format (`GET /metrics`) and the nested JSON
//! document `/stats` has always served.
//!
//! Each `Metric` carries both a Prometheus identity (family name +
//! labels; empty name = JSON-only) and a JSON identity (a dotted path
//! like `cache.hits`; empty path = Prometheus-only). The JSON renderer
//! walks the dotted paths in insertion order, opening and closing nested
//! objects as the prefix changes — so the builder's insertion order *is*
//! the JSON shape, byte-for-byte compatible with the old hand-rolled
//! `/stats`. The Prometheus renderer instead groups samples by family
//! name in first-appearance order, because families that are adjacent in
//! Prometheus (`lbr_cache_hits_total{cache="plan"|"result"}`) live in
//! different JSON groups (`cache.*` vs `result_cache.*`).

use std::fmt::Write as _;

/// Prometheus metric type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A rendered histogram: explicit upper bounds with *cumulative* counts,
/// plus the total count and sum (same unit as the bounds).
#[derive(Debug, Clone)]
pub struct HistogramData {
    /// `(upper_bound, cumulative_count_le_bound)`, ascending. The
    /// implicit `+Inf` bucket is rendered from `count`.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// A metric's value.
#[derive(Debug, Clone)]
pub enum Value {
    U64(u64),
    /// Float with a fixed JSON precision (Prometheus renders full `{}`).
    F64 {
        v: f64,
        prec: usize,
    },
    Bool(bool),
    /// JSON-only string (Prometheus has no string samples; use
    /// [`Exposition::info`] for identity labels).
    Text(String),
    Histogram(HistogramData),
}

struct Metric {
    /// Prometheus family name; empty = JSON-only.
    name: &'static str,
    help: &'static str,
    kind: Kind,
    labels: Vec<(&'static str, String)>,
    /// Dotted JSON path; empty = Prometheus-only.
    json: &'static str,
    value: Value,
}

/// The ordered metric registry. Build it per scrape; order of calls
/// defines the JSON document shape.
#[derive(Default)]
pub struct Exposition {
    metrics: Vec<Metric>,
}

impl Exposition {
    pub fn new() -> Exposition {
        Exposition::default()
    }

    fn push(
        &mut self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        labels: Vec<(&'static str, String)>,
        json: &'static str,
        value: Value,
    ) {
        debug_assert!(
            !name.is_empty() || !json.is_empty(),
            "metric with no identity"
        );
        self.metrics.push(Metric {
            name,
            help,
            kind,
            labels,
            json,
            value,
        });
    }

    /// A monotonic counter visible on both surfaces.
    pub fn counter(&mut self, name: &'static str, json: &'static str, help: &'static str, v: u64) {
        self.push(name, help, Kind::Counter, Vec::new(), json, Value::U64(v));
    }

    /// A labeled counter (e.g. `{cache="plan"}`).
    pub fn counter_l(
        &mut self,
        name: &'static str,
        labels: Vec<(&'static str, String)>,
        json: &'static str,
        help: &'static str,
        v: u64,
    ) {
        self.push(name, help, Kind::Counter, labels, json, Value::U64(v));
    }

    /// A gauge visible on both surfaces.
    pub fn gauge(&mut self, name: &'static str, json: &'static str, help: &'static str, v: u64) {
        self.push(name, help, Kind::Gauge, Vec::new(), json, Value::U64(v));
    }

    /// A labeled gauge.
    pub fn gauge_l(
        &mut self,
        name: &'static str,
        labels: Vec<(&'static str, String)>,
        json: &'static str,
        help: &'static str,
        v: u64,
    ) {
        self.push(name, help, Kind::Gauge, labels, json, Value::U64(v));
    }

    /// A float gauge; `prec` fixes the JSON decimal places.
    pub fn gauge_f(
        &mut self,
        name: &'static str,
        json: &'static str,
        help: &'static str,
        v: f64,
        prec: usize,
    ) {
        self.push(
            name,
            help,
            Kind::Gauge,
            Vec::new(),
            json,
            Value::F64 { v, prec },
        );
    }

    /// A JSON-only integer field (no Prometheus family).
    pub fn json_u64(&mut self, json: &'static str, v: u64) {
        self.push("", "", Kind::Gauge, Vec::new(), json, Value::U64(v));
    }

    /// A JSON-only float field.
    pub fn json_f64(&mut self, json: &'static str, v: f64, prec: usize) {
        self.push(
            "",
            "",
            Kind::Gauge,
            Vec::new(),
            json,
            Value::F64 { v, prec },
        );
    }

    /// A JSON-only string field.
    pub fn json_text(&mut self, json: &'static str, v: String) {
        self.push("", "", Kind::Gauge, Vec::new(), json, Value::Text(v));
    }

    /// A boolean: JSON `true`/`false`, Prometheus `1`/`0` when named.
    pub fn bool_field(
        &mut self,
        name: &'static str,
        json: &'static str,
        help: &'static str,
        v: bool,
    ) {
        self.push(name, help, Kind::Gauge, Vec::new(), json, Value::Bool(v));
    }

    /// A Prometheus info-style gauge: constant `1` whose labels carry
    /// identity (`lbr_build_info{version=…,git_hash=…}`).
    pub fn info(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
    ) {
        self.push(name, help, Kind::Gauge, labels, "", Value::U64(1));
    }

    /// A Prometheus-only histogram family member.
    pub fn histogram(
        &mut self,
        name: &'static str,
        labels: Vec<(&'static str, String)>,
        help: &'static str,
        data: HistogramData,
    ) {
        self.push(
            name,
            help,
            Kind::Histogram,
            labels,
            "",
            Value::Histogram(data),
        );
    }

    /// Renders the Prometheus text exposition. Samples are grouped by
    /// family name in first-appearance order, each family preceded by
    /// exactly one `# HELP` / `# TYPE` pair.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut families: Vec<&'static str> = Vec::new();
        for m in &self.metrics {
            if !m.name.is_empty() && !families.contains(&m.name) {
                families.push(m.name);
            }
        }
        for family in families {
            let mut first = true;
            for m in self.metrics.iter().filter(|m| m.name == family) {
                if first {
                    out.push_str("# HELP ");
                    out.push_str(family);
                    out.push(' ');
                    escape_help_into(&mut out, m.help);
                    out.push('\n');
                    out.push_str("# TYPE ");
                    out.push_str(family);
                    out.push(' ');
                    out.push_str(m.kind.as_str());
                    out.push('\n');
                    first = false;
                }
                render_sample(&mut out, m);
            }
        }
        out
    }

    /// Renders the nested JSON document: dotted paths become nested
    /// objects, opened and closed as the path prefix changes across the
    /// insertion order.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push('{');
        let mut stack: Vec<&'static str> = Vec::new();
        let mut pending_comma = false;
        for m in &self.metrics {
            if m.json.is_empty() {
                continue;
            }
            let mut segs: Vec<&'static str> = m.json.split('.').collect();
            let key = segs.pop().expect("dotted path has a final segment");
            let mut common = 0;
            while common < stack.len() && common < segs.len() && stack[common] == segs[common] {
                common += 1;
            }
            while stack.len() > common {
                stack.pop();
                out.push('}');
                pending_comma = true;
            }
            for &seg in &segs[common..] {
                if pending_comma {
                    out.push(',');
                }
                out.push('"');
                out.push_str(seg);
                out.push_str("\":{");
                stack.push(seg);
                pending_comma = false;
            }
            if pending_comma {
                out.push(',');
            }
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            match &m.value {
                Value::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::F64 { v, prec } => {
                    let _ = write!(out, "{v:.prec$}");
                }
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Text(s) => json_escape_into(&mut out, s),
                Value::Histogram(_) => out.push_str("null"),
            }
            pending_comma = true;
        }
        while stack.pop().is_some() {
            out.push('}');
        }
        out.push('}');
        out
    }
}

fn render_labels(out: &mut String, labels: &[(&'static str, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_into(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_into(out, v);
        out.push('"');
    }
    out.push('}');
}

fn render_sample(out: &mut String, m: &Metric) {
    match &m.value {
        Value::Histogram(h) => {
            let mut le = String::new();
            for &(upper, cum) in &h.buckets {
                le.clear();
                let _ = write!(le, "{upper}");
                out.push_str(m.name);
                out.push_str("_bucket");
                render_labels(out, &m.labels, Some(("le", &le)));
                let _ = writeln!(out, " {cum}");
            }
            out.push_str(m.name);
            out.push_str("_bucket");
            render_labels(out, &m.labels, Some(("le", "+Inf")));
            let _ = writeln!(out, " {}", h.count);
            out.push_str(m.name);
            out.push_str("_sum");
            render_labels(out, &m.labels, None);
            let _ = writeln!(out, " {}", h.sum);
            out.push_str(m.name);
            out.push_str("_count");
            render_labels(out, &m.labels, None);
            let _ = writeln!(out, " {}", h.count);
        }
        v => {
            out.push_str(m.name);
            render_labels(out, &m.labels, None);
            out.push(' ');
            match v {
                Value::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::F64 { v, .. } => {
                    let _ = write!(out, "{v}");
                }
                Value::Bool(b) => out.push(if *b { '1' } else { '0' }),
                Value::Text(_) => out.push('1'),
                Value::Histogram(_) => unreachable!("matched above"),
            }
            out.push('\n');
        }
    }
}

/// Escapes a Prometheus label value (`\\`, `\"`, `\n`).
pub fn escape_label_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escapes Prometheus HELP text (`\\`, `\n`).
pub fn escape_help_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Appends `s` as a quoted JSON string.
pub fn json_escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_nesting_follows_insertion_order() {
        let mut e = Exposition::new();
        e.counter("lbr_cache_hits_total", "cache.hits", "Plan cache hits.", 3);
        e.counter(
            "lbr_cache_misses_total",
            "cache.misses",
            "Plan cache misses.",
            1,
        );
        e.json_u64("net.connections", 2);
        e.json_f64("queries.avg_ms", 1.5, 3);
        e.bool_field("", "database.updatable", "", true);
        e.json_text("database.engine", "lbr".to_string());
        assert_eq!(
            e.render_json(),
            "{\"cache\":{\"hits\":3,\"misses\":1},\"net\":{\"connections\":2},\
             \"queries\":{\"avg_ms\":1.500},\"database\":{\"updatable\":true,\"engine\":\"lbr\"}}"
        );
    }

    #[test]
    fn json_handles_deep_and_sibling_paths() {
        let mut e = Exposition::new();
        e.json_u64("latency.sparql.count", 3);
        e.json_u64("latency.sparql.p50_us", 10);
        e.json_u64("latency.update.count", 1);
        e.json_u64("top", 7);
        assert_eq!(
            e.render_json(),
            "{\"latency\":{\"sparql\":{\"count\":3,\"p50_us\":10},\"update\":{\"count\":1}},\"top\":7}"
        );
    }

    #[test]
    fn prometheus_groups_families_across_interleaved_inserts() {
        let mut e = Exposition::new();
        e.counter_l(
            "lbr_cache_hits_total",
            vec![("cache", "plan".to_string())],
            "cache.hits",
            "Cache hits.",
            3,
        );
        e.gauge("lbr_cache_entries", "cache.len", "Entries.", 5);
        e.counter_l(
            "lbr_cache_hits_total",
            vec![("cache", "result".to_string())],
            "result_cache.hits",
            "Cache hits.",
            9,
        );
        let prom = e.render_prometheus();
        // One HELP/TYPE pair per family, samples adjacent despite the
        // interleaved insertion order.
        assert_eq!(
            prom.matches("# TYPE lbr_cache_hits_total counter").count(),
            1
        );
        let expected = "# HELP lbr_cache_hits_total Cache hits.\n\
                        # TYPE lbr_cache_hits_total counter\n\
                        lbr_cache_hits_total{cache=\"plan\"} 3\n\
                        lbr_cache_hits_total{cache=\"result\"} 9\n\
                        # HELP lbr_cache_entries Entries.\n\
                        # TYPE lbr_cache_entries gauge\n\
                        lbr_cache_entries 5\n";
        assert_eq!(prom, expected);
    }

    #[test]
    fn histogram_renders_cumulative_buckets_and_inf() {
        let mut e = Exposition::new();
        e.histogram(
            "lbr_request_duration_us",
            vec![("endpoint", "sparql".to_string())],
            "Request latency in microseconds.",
            HistogramData {
                buckets: vec![(1, 0), (2, 1), (4, 3)],
                count: 4,
                sum: 11,
            },
        );
        let prom = e.render_prometheus();
        assert!(
            prom.contains("# TYPE lbr_request_duration_us histogram\n"),
            "{prom}"
        );
        assert!(prom.contains("lbr_request_duration_us_bucket{endpoint=\"sparql\",le=\"2\"} 1\n"));
        assert!(
            prom.contains("lbr_request_duration_us_bucket{endpoint=\"sparql\",le=\"+Inf\"} 4\n")
        );
        assert!(prom.contains("lbr_request_duration_us_sum{endpoint=\"sparql\"} 11\n"));
        assert!(prom.contains("lbr_request_duration_us_count{endpoint=\"sparql\"} 4\n"));
    }

    #[test]
    fn zero_observation_histogram_renders_count_zero() {
        let mut e = Exposition::new();
        e.histogram(
            "lbr_request_duration_us",
            vec![("endpoint", "update".to_string())],
            "Request latency in microseconds.",
            HistogramData {
                buckets: vec![(1, 0), (2, 0)],
                count: 0,
                sum: 0,
            },
        );
        let prom = e.render_prometheus();
        assert!(
            prom.contains("lbr_request_duration_us_count{endpoint=\"update\"} 0\n"),
            "zero-observation family must still render _count 0: {prom}"
        );
        assert!(prom.contains("le=\"+Inf\"} 0\n"), "{prom}");
    }

    #[test]
    fn label_values_escape_backslash_quote_newline() {
        let mut e = Exposition::new();
        e.info(
            "lbr_build_info",
            "Build identity.",
            vec![("version", "a\\b\"c\nd".to_string())],
        );
        let prom = e.render_prometheus();
        assert!(
            prom.contains("lbr_build_info{version=\"a\\\\b\\\"c\\nd\"} 1\n"),
            "{prom}"
        );
    }

    #[test]
    fn help_text_escapes_backslash_and_newline() {
        let mut e = Exposition::new();
        e.counter("lbr_x_total", "", "line one\nline \\two", 1);
        let prom = e.render_prometheus();
        assert!(
            prom.contains("# HELP lbr_x_total line one\\nline \\\\two\n"),
            "{prom}"
        );
    }

    #[test]
    fn json_only_and_prom_only_metrics_stay_on_their_surface() {
        let mut e = Exposition::new();
        e.json_u64("uptime_secs", 12);
        e.info(
            "lbr_build_info",
            "Build identity.",
            vec![("profile", "release".to_string())],
        );
        let prom = e.render_prometheus();
        let json = e.render_json();
        assert!(!prom.contains("uptime_secs"), "{prom}");
        assert!(json.contains("\"uptime_secs\":12"), "{json}");
        assert!(!json.contains("build_info{"), "{json}");
        assert!(
            prom.contains("lbr_build_info{profile=\"release\"} 1\n"),
            "{prom}"
        );
    }

    #[test]
    fn json_string_escaping_covers_control_chars() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }
}
