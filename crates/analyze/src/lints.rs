//! The five lint families. Every lint works on a [`Scrub`]
//! of one file: code is matched against the scrubbed text (so strings and
//! comments can't fire lints), comments are consulted only for `SAFETY:`
//! justifications and `// lbr-lint:` markers, and `#[cfg(test)]` lines are
//! skipped wherever a lint is about production code.

use crate::lex::{matching_brace, Scrub};
use crate::Finding;

/// Lint identifiers as they appear in `[brackets]` in findings and in the
/// baseline file.
pub const NO_ALLOC: &str = "no-alloc";
pub const UNSAFE_COMMENT: &str = "unsafe-comment";
pub const FORBID_UNSAFE: &str = "forbid-unsafe";
pub const PANIC_PATH: &str = "panic-path";
pub const LOCK_ORDER: &str = "lock-order";
pub const WAL_DURABILITY: &str = "wal-durability";
pub const UNSAFE_CONFINEMENT: &str = "unsafe-confinement";

/// Method calls that allocate (matched as `.name(` or `.name::<`).
const ALLOC_METHODS: &[&str] = &[
    "collect",
    "to_vec",
    "clone",
    "to_owned",
    "to_string",
    "with_capacity",
];
/// Path calls that allocate (matched as `Path::name(`).
const ALLOC_PATHS: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "Box::new",
    "String::from",
    "String::new",
    "String::with_capacity",
];
/// Macros that allocate (matched as `name!`).
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Panicking method calls (`.name(`). `unwrap_or*` variants don't match —
/// the matcher requires the exact method name followed by `(`.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Panicking macros. `unreachable!` is deliberately not here: it marks
/// statically-impossible branches, which the serving-path policy accepts.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Is `text[pos..]` a call of `.method(` / `.method::<` with an exact
/// method-name boundary? `pos` points at the `.`.
fn method_call_at(text: &str, pos: usize, method: &str) -> bool {
    let b = text.as_bytes();
    let start = pos + 1;
    let end = start + method.len();
    if end > b.len() || &text[start..end] != method {
        return false;
    }
    match b.get(end) {
        Some(b'(') => true,
        Some(b':') => b.get(end + 1) == Some(&b':'), // turbofish
        _ => false,
    }
}

/// Is `text[pos..]` a call of `Path::name(` with word boundaries on both
/// sides? `pos` points at the first char of the path.
fn path_call_at(text: &str, pos: usize, path: &str) -> bool {
    let b = text.as_bytes();
    if pos > 0 {
        let prev = b[pos - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b':' {
            return false;
        }
    }
    let end = pos + path.len();
    if end > b.len() || &text[pos..end] != path {
        return false;
    }
    b.get(end) == Some(&b'(')
}

/// Is `text[pos..]` an invocation of `name!`? `pos` points at the first
/// char of the macro name.
fn macro_call_at(text: &str, pos: usize, name: &str) -> bool {
    let b = text.as_bytes();
    if pos > 0 {
        let prev = b[pos - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return false;
        }
    }
    let end = pos + name.len();
    end < b.len() && &text[pos..end] == name && b[end] == b'!'
}

/// Slices a display snippet from the **original** text: the matched token
/// plus, for `expect`, its string argument (so distinct rationales are
/// distinct baseline keys). Paren balancing runs on the scrubbed text so
/// parens inside string args don't confuse it.
fn snippet(original: &str, scrubbed: &str, start: usize, token_end: usize) -> String {
    let b = scrubbed.as_bytes();
    if b.get(token_end) == Some(&b'(') {
        let mut depth = 0i64;
        for (off, &c) in b[token_end..].iter().enumerate() {
            match c {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        let end = token_end + off + 1;
                        if end - start <= 90 {
                            return original[start..end].to_string();
                        }
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    original[start..token_end].to_string()
}

/// ---------------------------------------------------------------------
/// Lint 1: no-alloc hot paths.
///
/// Regions between `// lbr-lint: no_alloc` and `// lbr-lint: end` deny
/// the allocating idioms above. An unclosed region is itself a finding.
/// ---------------------------------------------------------------------
pub fn lint_no_alloc(path: &str, original: &str, sc: &Scrub, out: &mut Vec<Finding>) {
    // A marker is a comment whose content *starts with* `lbr-lint:` (after
    // the comment sigils) — prose that merely mentions the syntax, like
    // this lint's own documentation, is not a marker.
    fn marker(comment: &str) -> Option<&str> {
        let c = comment.trim_start_matches(['/', '!', '*', ' ']).trim();
        let directive = c.strip_prefix("lbr-lint:")?;
        // The directive is the first word; trailing prose is welcome.
        Some(directive.split_whitespace().next().unwrap_or(""))
    }
    let mut regions: Vec<(usize, usize)> = Vec::new();
    let mut open: Option<usize> = None;
    for line in 1..=sc.n_lines() {
        let c = &sc.comment_lines[line];
        if marker(c) == Some("no_alloc") {
            if let Some(prev) = open {
                out.push(Finding::new(
                    path,
                    line,
                    NO_ALLOC,
                    "lbr-lint: no_alloc",
                    format!("nested no_alloc marker; region from line {prev} not closed"),
                ));
            }
            open = Some(line);
        } else if marker(c) == Some("end") {
            if let Some(start) = open.take() {
                regions.push((start, line));
            }
        }
    }
    if let Some(start) = open {
        out.push(Finding::new(
            path,
            start,
            NO_ALLOC,
            "lbr-lint: no_alloc",
            "unclosed no_alloc region (missing `// lbr-lint: end`)".to_string(),
        ));
    }
    if regions.is_empty() {
        return;
    }
    let in_region = |line: usize| regions.iter().any(|&(s, e)| line > s && line < e);
    scan_denied(
        path,
        original,
        sc,
        NO_ALLOC,
        ALLOC_METHODS,
        ALLOC_PATHS,
        ALLOC_MACROS,
        |line| in_region(line) && !sc.test_lines[line],
        "allocation in no_alloc region",
        out,
    );
}

/// ---------------------------------------------------------------------
/// Lint 3: panic-free serving and commit paths.
/// ---------------------------------------------------------------------
pub fn lint_panic_path(path: &str, original: &str, sc: &Scrub, out: &mut Vec<Finding>) {
    if !panic_scope(path) {
        return;
    }
    scan_denied(
        path,
        original,
        sc,
        PANIC_PATH,
        PANIC_METHODS,
        &[],
        PANIC_MACROS,
        |line| !sc.test_lines[line],
        "panic in serving/commit path",
        out,
    );
}

/// Files whose non-test code must be panic-free: the connection layer,
/// the HTTP server, the query facade it serves, and the store
/// commit/recovery path. The delta overlay read path (`overlay.rs`,
/// `delta.rs`) is exercised only via the facade and is out of scope.
pub fn panic_scope(path: &str) -> bool {
    path.starts_with("crates/net/src/")
        || path.starts_with("crates/server/src/")
        || path.starts_with("src/")
        || path == "crates/store/src/store.rs"
        || path == "crates/store/src/wal.rs"
}

#[allow(clippy::too_many_arguments)]
fn scan_denied(
    path: &str,
    original: &str,
    sc: &Scrub,
    lint: &'static str,
    methods: &[&str],
    paths: &[&str],
    macros: &[&str],
    line_ok: impl Fn(usize) -> bool,
    what: &str,
    out: &mut Vec<Finding>,
) {
    let text = &sc.scrubbed;
    let bytes = text.as_bytes();
    for (pos, &byte) in bytes.iter().enumerate() {
        let line = sc.line_of(pos);
        if !line_ok(line) {
            continue;
        }
        if byte == b'.' {
            for m in methods {
                if method_call_at(text, pos, m) {
                    let token_end = pos + 1 + m.len();
                    // Skip turbofish to the open paren for the snippet.
                    let call_open = text[token_end..]
                        .find('(')
                        .map_or(token_end, |o| token_end + o);
                    let snip = snippet(original, text, pos, call_open);
                    out.push(Finding::new(
                        path,
                        line,
                        lint,
                        snip.clone(),
                        format!("{what}: `{snip}`"),
                    ));
                    break;
                }
            }
        } else {
            for p in paths {
                if path_call_at(text, pos, p) {
                    out.push(Finding::new(
                        path,
                        line,
                        lint,
                        (*p).to_string(),
                        format!("{what}: `{p}(..)`"),
                    ));
                    break;
                }
            }
            for m in macros {
                if macro_call_at(text, pos, m) {
                    let snip = format!("{m}!");
                    out.push(Finding::new(
                        path,
                        line,
                        lint,
                        snip.clone(),
                        format!("{what}: `{snip}`"),
                    ));
                    break;
                }
            }
        }
    }
}

/// ---------------------------------------------------------------------
/// Lint 2: unsafe audit.
///
/// Every occurrence of the `unsafe` keyword in non-test scrubbed code
/// must have a `SAFETY:` comment adjacent: on the same line, or walking
/// upward over contiguous comment/attribute/blank lines. An impl-level
/// comment does not justify the fns inside it — each site needs its own.
/// ---------------------------------------------------------------------
pub fn lint_unsafe(path: &str, sc: &Scrub, out: &mut Vec<Finding>) {
    for site in unsafe_sites(sc) {
        if !has_adjacent_safety(sc, site) {
            out.push(Finding::new(
                path,
                site,
                UNSAFE_COMMENT,
                "unsafe",
                "unsafe without an adjacent `// SAFETY:` comment".to_string(),
            ));
        }
    }
}

/// 1-indexed lines containing the `unsafe` keyword in non-test code.
pub fn unsafe_sites(sc: &Scrub) -> Vec<usize> {
    let mut sites = Vec::new();
    let text = &sc.scrubbed;
    let mut from = 0;
    while let Some(off) = text[from..].find("unsafe") {
        let pos = from + off;
        from = pos + "unsafe".len();
        let b = text.as_bytes();
        let before_ok = pos == 0
            || !{
                let p = b[pos - 1];
                p.is_ascii_alphanumeric() || p == b'_'
            };
        let after_ok = b
            .get(pos + 6)
            .is_none_or(|&a| !(a.is_ascii_alphanumeric() || a == b'_'));
        if !(before_ok && after_ok) {
            continue; // e.g. `unsafe_code` in an attribute
        }
        let line = sc.line_of(pos);
        if !sc.test_lines[line] {
            sites.push(line);
        }
    }
    sites.dedup();
    sites
}

fn has_adjacent_safety(sc: &Scrub, line: usize) -> bool {
    if sc.comment_lines[line].contains("SAFETY:") {
        return true;
    }
    // Walk up over comment-only, attribute-only, or blank lines.
    let mut l = line;
    while l > 1 {
        l -= 1;
        if sc.comment_lines[l].contains("SAFETY:") {
            return true;
        }
        let code = sc.scrubbed_line(l).trim();
        let passthrough = code.is_empty() || code.starts_with("#[") || code.starts_with("#!");
        let has_comment = !sc.comment_lines[l].is_empty();
        if !(passthrough || (has_comment && code.is_empty())) {
            return false;
        }
    }
    false
}

/// ---------------------------------------------------------------------
/// Lint 2b: unsafe confinement.
///
/// Crates that dropped `#![forbid(unsafe_code)]` did so for a single,
/// named module; unsafe anywhere else in the crate is a policy violation
/// even when SAFETY-commented. Today the only such crate is `lbr-bitmat`,
/// whose unsafe is confined to the mmap FFI boundary in `mmap.rs` —
/// everything above the `Mmap` handle must stay safe code over slices.
/// ---------------------------------------------------------------------
pub struct ConfinementPolicy {
    /// Crate source prefix this policy governs, e.g. `crates/bitmat/src/`.
    pub crate_prefix: &'static str,
    /// File suffixes (relative to the prefix) where unsafe is allowed.
    pub allowed: &'static [&'static str],
}

/// `lbr-bitmat`: unsafe only in the mmap module.
pub const BITMAT_CONFINEMENT: ConfinementPolicy = ConfinementPolicy {
    crate_prefix: "crates/bitmat/src/",
    allowed: &["mmap.rs"],
};

pub fn lint_unsafe_confinement(
    path: &str,
    sc: &Scrub,
    policy: &ConfinementPolicy,
    out: &mut Vec<Finding>,
) {
    let Some(rel) = path.strip_prefix(policy.crate_prefix) else {
        return;
    };
    if policy.allowed.contains(&rel) {
        return;
    }
    for site in unsafe_sites(sc) {
        out.push(Finding::new(
            path,
            site,
            UNSAFE_CONFINEMENT,
            "unsafe",
            format!(
                "unsafe outside the allowed module(s) {:?} of `{}`",
                policy.allowed, policy.crate_prefix
            ),
        ));
    }
}

/// True when the file's non-test code has no `unsafe` at all — input to
/// the crate-level `#![forbid(unsafe_code)]` check in lib.rs.
pub fn file_is_unsafe_free(sc: &Scrub) -> bool {
    unsafe_sites(sc).is_empty()
}

/// Does this crate-root file declare `#![forbid(unsafe_code)]`?
pub fn declares_forbid_unsafe(sc: &Scrub) -> bool {
    sc.scrubbed
        .lines()
        .any(|l| l.contains("#![forbid(unsafe_code)]"))
}

/// ---------------------------------------------------------------------
/// Lint 4: lock discipline.
///
/// Within each function of a file with a declared lock order, nested
/// acquisitions must respect the order and must not re-acquire a held
/// lock. Acquisition receivers are matched textually: `self.writer.lock()`
/// acquires `writer`. Helper methods that acquire-and-release internally
/// (e.g. `snapshot()`, `publish()`) are *transient*: they are checked for
/// order against currently held locks, but don't join the held set.
/// ---------------------------------------------------------------------
pub struct LockPolicy {
    /// File this policy governs.
    pub path: &'static str,
    /// Lock names in required acquisition order.
    pub order: &'static [&'static str],
    /// Method names that transiently acquire a lock: (method, lock-name).
    pub transient: &'static [(&'static str, &'static str)],
}

/// The declared order for `Store`: writer → current → retained.
pub const STORE_LOCK_POLICY: LockPolicy = LockPolicy {
    path: "crates/store/src/store.rs",
    order: &["writer", "current", "retained"],
    transient: &[("snapshot", "current"), ("publish", "current")],
};

pub fn lint_lock_order(path: &str, sc: &Scrub, policy: &LockPolicy, out: &mut Vec<Finding>) {
    if path != policy.path {
        return;
    }
    let text = &sc.scrubbed;
    let bytes = text.as_bytes();
    // Find function bodies: `fn name(..) .. {` in non-test code.
    let mut from = 0;
    while let Some(off) = text[from..].find("fn ") {
        let fn_pos = from + off;
        from = fn_pos + 3;
        if fn_pos > 0 {
            let p = bytes[fn_pos - 1];
            if p.is_ascii_alphanumeric() || p == b'_' {
                continue;
            }
        }
        let line = sc.line_of(fn_pos);
        if sc.test_lines[line] {
            continue;
        }
        // Body opens at the first `{` at paren-depth 0 after the signature.
        let mut j = fn_pos;
        let mut paren = 0i64;
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b'{' if paren == 0 => {
                    open = Some(j);
                    break;
                }
                b';' if paren == 0 => break, // trait method without body
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let close = matching_brace(bytes, open).unwrap_or(bytes.len() - 1);
        check_fn_locks(path, sc, policy, open, close, out);
        from = from.max(open + 1);
    }
}

/// Scans one function body for lock acquisitions, tracking brace depth so
/// a lock acquired in an inner block is released when the block ends.
fn check_fn_locks(
    path: &str,
    sc: &Scrub,
    policy: &LockPolicy,
    open: usize,
    close: usize,
    out: &mut Vec<Finding>,
) {
    let text = &sc.scrubbed;
    let bytes = text.as_bytes();
    // Held locks: (order-index, name, brace-depth at acquisition).
    let mut held: Vec<(usize, &str, i64)> = Vec::new();
    let mut depth = 0i64;
    let mut i = open;
    while i <= close {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                held.retain(|&(_, _, d)| d <= depth);
            }
            b'.' => {
                // `.lock()` / `.read()` / `.write()` with a known receiver,
                // or a transient helper call.
                if let Some((name, acquiring)) = lock_acquisition_at(text, i, policy) {
                    let idx = policy.order.iter().position(|&n| n == name);
                    if let Some(idx) = idx {
                        let line = sc.line_of(i);
                        if held.iter().any(|&(_, h, _)| h == name) {
                            out.push(Finding::new(
                                path,
                                line,
                                LOCK_ORDER,
                                format!(".{name}"),
                                format!("`{name}` acquired while already held"),
                            ));
                        } else if let Some(&(hidx, hname, _)) =
                            held.iter().find(|&&(hidx, _, _)| hidx > idx)
                        {
                            let _ = hidx;
                            out.push(Finding::new(
                                path,
                                line,
                                LOCK_ORDER,
                                format!(".{name}"),
                                format!(
                                    "`{name}` acquired after `{hname}` violates declared order {}",
                                    policy.order.join(" -> ")
                                ),
                            ));
                        } else if acquiring {
                            held.push((idx, name, depth));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// At a `.`: returns `(lock-name, joins-held-set)` when this is a lock
/// acquisition per the policy, else None.
fn lock_acquisition_at<'p>(
    text: &str,
    dot: usize,
    policy: &'p LockPolicy,
) -> Option<(&'p str, bool)> {
    for op in ["lock", "read", "write"] {
        if method_call_at(text, dot, op) {
            // Receiver: identifier chain immediately before the dot, e.g.
            // `self.writer` → last segment `writer`.
            let recv = ident_before(text, dot)?;
            return policy
                .order
                .iter()
                .find(|&&n| n == recv)
                .map(|&n| (n, true));
        }
    }
    for &(method, lock) in policy.transient {
        if method_call_at(text, dot, method) {
            return Some((lock, false));
        }
    }
    None
}

/// The identifier ending right before `text[dot]`.
fn ident_before(text: &str, dot: usize) -> Option<&str> {
    let b = text.as_bytes();
    let mut s = dot;
    while s > 0 && (b[s - 1].is_ascii_alphanumeric() || b[s - 1] == b'_') {
        s -= 1;
    }
    (s < dot).then(|| &text[s..dot])
}

/// ---------------------------------------------------------------------
/// Lint 5: WAL durability.
///
/// In `wal.rs` / `store.rs`, any function calling `rename(` must call
/// `sync_all(`/`sync_data(` before it (flush the source) and `sync_dir(`
/// or another `sync_all(` after it (persist the directory entry), all in
/// the same function body.
/// ---------------------------------------------------------------------
pub fn wal_scope(path: &str) -> bool {
    path.ends_with("/wal.rs") || path.ends_with("/store.rs")
}

pub fn lint_wal_durability(path: &str, sc: &Scrub, out: &mut Vec<Finding>) {
    if !wal_scope(path) {
        return;
    }
    let text = &sc.scrubbed;
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(off) = text[from..].find("fn ") {
        let fn_pos = from + off;
        from = fn_pos + 3;
        if fn_pos > 0 {
            let p = bytes[fn_pos - 1];
            if p.is_ascii_alphanumeric() || p == b'_' {
                continue;
            }
        }
        if sc.test_lines[sc.line_of(fn_pos)] {
            continue;
        }
        let Some(open) = text[fn_pos..].find('{').map(|o| fn_pos + o) else {
            continue;
        };
        let close = matching_brace(bytes, open).unwrap_or(bytes.len() - 1);
        let body = &text[open..=close.min(text.len() - 1)];
        let mut scan = 0;
        while let Some(r) = body[scan..].find("rename(") {
            let rpos = scan + r;
            scan = rpos + 7;
            // Word boundary (fs::rename, self.rename are fine; `prename(` not).
            let pb = body.as_bytes()[rpos.saturating_sub(1)];
            if pb.is_ascii_alphanumeric() || pb == b'_' {
                continue;
            }
            let line = sc.line_of(open + rpos);
            let before = &body[..rpos];
            let after = &body[rpos..];
            if !(before.contains("sync_all(") || before.contains("sync_data(")) {
                out.push(Finding::new(
                    path,
                    line,
                    WAL_DURABILITY,
                    "rename",
                    "rename without a preceding sync_all on the source file".to_string(),
                ));
            }
            if !(after.contains("sync_dir(") || after.contains("sync_all(")) {
                out.push(Finding::new(
                    path,
                    line,
                    WAL_DURABILITY,
                    "rename",
                    "rename without a following directory fsync".to_string(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::scrub;

    fn run<F: Fn(&str, &str, &Scrub, &mut Vec<Finding>)>(src: &str, f: F) -> Vec<Finding> {
        let sc = scrub(src);
        let mut out = Vec::new();
        f("crates/x/src/lib.rs", src, &sc, &mut out);
        out
    }

    #[test]
    fn alloc_denied_only_in_region() {
        let src = "fn a() { let v: Vec<u8> = Vec::new(); }\n// lbr-lint: no_alloc\nfn b(xs: &[u8]) -> Vec<u8> { xs.to_vec() }\n// lbr-lint: end\nfn c() { let v = vec![1]; }\n";
        let out = run(src, lint_no_alloc);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        let sc = scrub(src);
        let mut out = Vec::new();
        lint_panic_path("crates/server/src/lib.rs", src, &sc, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unsafe_confined_to_mmap_module() {
        let src = "pub fn g(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        let sc = scrub(src);
        // In mmap.rs: allowed.
        let mut out = Vec::new();
        lint_unsafe_confinement(
            "crates/bitmat/src/mmap.rs",
            &sc,
            &BITMAT_CONFINEMENT,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        // Anywhere else in the crate: flagged even with a SAFETY comment.
        let mut out = Vec::new();
        lint_unsafe_confinement(
            "crates/bitmat/src/disk.rs",
            &sc,
            &BITMAT_CONFINEMENT,
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, UNSAFE_CONFINEMENT);
        assert_eq!(out[0].line, 3);
        // Other crates: out of scope.
        let mut out = Vec::new();
        lint_unsafe_confinement(
            "crates/store/src/wal.rs",
            &sc,
            &BITMAT_CONFINEMENT,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_out_of_order_flagged() {
        let src = "impl Store { fn bad(&self) { let r = self.retained.lock(); let w = self.writer.lock(); } }\n";
        let sc = scrub(src);
        let mut out = Vec::new();
        lint_lock_order(STORE_LOCK_POLICY.path, &sc, &STORE_LOCK_POLICY, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("writer"));
    }

    #[test]
    fn lock_released_by_scope() {
        let src = "impl Store { fn ok(&self) { { let w = self.writer.lock(); } let w2 = self.writer.lock(); } }\n";
        let sc = scrub(src);
        let mut out = Vec::new();
        lint_lock_order(STORE_LOCK_POLICY.path, &sc, &STORE_LOCK_POLICY, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn rename_needs_syncs() {
        let src = "fn swap(p: &Path) { fs::rename(a, b); }\n";
        let sc = scrub(src);
        let mut out = Vec::new();
        lint_wal_durability("crates/store/src/wal.rs", &sc, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
    }
}
