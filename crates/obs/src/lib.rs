//! lbr-obs — the observability layer of the LBR reproduction.
//!
//! Three pieces, all zero-dependency:
//!
//! * [`trace`]: a thread-local span recorder (allocation-free record fast
//!   path) plus [`Tracing`], the per-server sampler and bounded ring of
//!   finished traces behind `GET /debug/traces` and `X-Lbr-Trace-Id`.
//! * [`expo`]: the unified metric registry rendered as Prometheus text
//!   (`GET /metrics`) and as the `/stats` JSON document from one source.
//! * [`lint`]: a Prometheus text-exposition linter, exposed as the
//!   `lbr-obs --lint-exposition` binary for CI scrape validation.
//!
//! All durations on the exposition surfaces are integer **microseconds**
//! (`_us` suffix); see the README's Observability section for the span
//! model. Spans are the only record of engine stage times: read them with
//! [`stage_us`].

#![forbid(unsafe_code)]

pub mod expo;
pub mod lint;
pub mod trace;

pub use expo::{
    escape_help_into, escape_label_into, json_escape_into, Exposition, HistogramData, Kind, Value,
};
pub use lint::{lint_exposition, LintReport};
pub use trace::{
    render_traces_json, set_label, span_at, span_since, stage_us, trace_abort, trace_active,
    trace_begin, trace_drain, trace_id, trace_start, FinishedTrace, Span, Tracing, MAX_ATTRS,
    MAX_SPANS,
};

/// Build identity baked in at compile time.
#[derive(Debug, Clone, Copy)]
pub struct BuildInfo {
    /// Workspace crate version.
    pub version: &'static str,
    /// Git hash from the `LBR_GIT_HASH` build environment variable, or
    /// `"unknown"` when the build didn't provide one.
    pub git_hash: &'static str,
    /// `"debug"` or `"release"`.
    pub profile: &'static str,
}

/// The build identity of the running binary.
pub const fn build_info() -> BuildInfo {
    BuildInfo {
        version: env!("CARGO_PKG_VERSION"),
        git_hash: match option_env!("LBR_GIT_HASH") {
            Some(h) => h,
            None => "unknown",
        },
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_info_is_populated() {
        let b = build_info();
        assert!(!b.version.is_empty());
        assert!(!b.git_hash.is_empty());
        assert!(b.profile == "debug" || b.profile == "release");
    }
}
