//! The PLF rule set (L1–L8) over a [`Scanned`] source file.
//!
//! | ID | name             | scope                         | invariant |
//! |----|------------------|-------------------------------|-----------|
//! | L1 | safety-comment   | every file                    | every `unsafe` site carries an adjacent `// SAFETY:` justification |
//! | L2 | hot-path-panic   | PLF kernel hot-path modules   | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`; faults flow through `PlfError` |
//! | L3 | magic-number     | non-test code, all crates     | 128 / 16384 / 256·1024 only in `phylo::constants` |
//! | L4 | atomic-ordering  | `phylo::metrics`              | one declared `Ordering` (default `Relaxed`), no stray `SeqCst` |
//! | L5 | lock-order       | whole workspace (structural)  | no lock-acquisition-order cycles; no lock held across a blocking call |
//! | L6 | unsafe-dataflow  | whole workspace (structural)  | raw pointers do not escape their source region or cross threads without a disjointness argument |
//! | L7 | kernel-parity    | whole workspace (structural)  | every backend covers the full kernel trait surface and has bit-parity coverage in `tests/fused.rs` |
//! | L8 | service-reach    | call graph from `PlfService`  | no panic-capable construct reachable from a client request |
//!
//! L1–L4 are lexical (this module); L5–L8 are structural and live in
//! their own modules on top of [`crate::parse`] and [`crate::graph`].
//!
//! Suppression: a comment `plf-lint: allow(L3)` (or the rule name,
//! comma-separated lists accepted) on the offending line or the line
//! directly above silences that rule for that line. For the structural
//! rules an `allow` on the `fn` declaration line (or the line above it)
//! covers every finding anchored inside that function. `L4`'s declared
//! ordering can be changed with a file-level `plf-lint: ordering(X)`
//! comment.

use crate::scan::Scanned;

/// The PLF invariant rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// L1 — `unsafe` without an adjacent `// SAFETY:` comment.
    SafetyComment,
    /// L2 — panic-capable construct in a kernel hot-path module.
    HotPathPanic,
    /// L3 — alignment/DMA magic number outside `phylo::constants`.
    MagicNumber,
    /// L4 — atomic ordering other than the declared one in metrics.
    AtomicOrdering,
    /// L5 — lock-order cycle or lock held across a blocking call.
    LockOrder,
    /// L6 — raw pointer escaping its source region / unsafe dataflow.
    UnsafeFlow,
    /// L7 — kernel trait surface / backend / parity-test coverage hole.
    KernelParity,
    /// L8 — panic-capable construct reachable from a service request.
    ServiceReach,
}

impl Rule {
    /// Short stable ID (`L1`…`L8`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::SafetyComment => "L1",
            Rule::HotPathPanic => "L2",
            Rule::MagicNumber => "L3",
            Rule::AtomicOrdering => "L4",
            Rule::LockOrder => "L5",
            Rule::UnsafeFlow => "L6",
            Rule::KernelParity => "L7",
            Rule::ServiceReach => "L8",
        }
    }

    /// Human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::MagicNumber => "magic-number",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::LockOrder => "lock-order",
            Rule::UnsafeFlow => "unsafe-dataflow",
            Rule::KernelParity => "kernel-parity",
            Rule::ServiceReach => "service-reach",
        }
    }

    /// All rules.
    pub const ALL: [Rule; 8] = [
        Rule::SafetyComment,
        Rule::HotPathPanic,
        Rule::MagicNumber,
        Rule::AtomicOrdering,
        Rule::LockOrder,
        Rule::UnsafeFlow,
        Rule::KernelParity,
        Rule::ServiceReach,
    ];
}

/// One finding, pointing at a 1-based line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (1 when the rule has no precise span).
    pub col: usize,
    /// The violated rule.
    pub rule: Rule,
    /// What went wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}/{}] {}",
            self.path,
            self.line,
            self.col,
            self.rule.id(),
            self.rule.name(),
            self.message
        )
    }
}

impl Diagnostic {
    /// Render as a JSON object (hand-rolled; the crate is
    /// dependency-free by design).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":\"{}\",\"name\":\"{}\",\"message\":{}}}",
            json_string(&self.path),
            self.line,
            self.col,
            self.rule.id(),
            self.rule.name(),
            json_string(&self.message)
        )
    }
}

/// Escape a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Which rules apply to a file, derived from its workspace-relative
/// path (or forced for fixtures).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// L2 applies (kernel hot-path module).
    pub hot_path: bool,
    /// L4 applies (`phylo::metrics`).
    pub metrics: bool,
    /// L3 is exempt (the constants module itself).
    pub constants_module: bool,
    /// Whole file is test/demo code: L2 and L3 are relaxed.
    pub relaxed: bool,
}

impl FileScope {
    /// Derive the scope from a workspace-relative path (with `/`
    /// separators).
    pub fn for_path(rel: &str) -> FileScope {
        let hot_path = rel.starts_with("crates/phylo/src/kernels/")
            // The fused cross-job driver and the CLV reuse cache run
            // inside every fused batch evaluation — the same blast
            // radius as the kernels themselves.
            || rel == "crates/phylo/src/fused.rs"
            || rel == "crates/phylo/src/clv_cache.rs"
            // The multicore kernel dispatch: every rayon-N and
            // persistent-N call runs through it.
            || rel == "crates/multicore/src/backend.rs"
            || rel == "crates/cellbe/src/dma.rs"
            || rel == "crates/gpu/src/kernels.rs"
            // The plfd service data path: every queued job flows
            // through these three files, so a panic there can strand
            // whole batches, not just one evaluation.
            || rel == "crates/plfd/src/queue.rs"
            || rel == "crates/plfd/src/scheduler.rs"
            || rel == "crates/plfd/src/dispatch.rs"
            // The self-healing layer is on the same data path: the
            // watchdog/breaker/admission code runs under the locks the
            // dispatcher holds, and the chaos driver resolves real
            // tickets — a panic in either strands admitted jobs.
            || rel == "crates/plfd/src/health.rs"
            || rel == "crates/plfd/src/chaos.rs"
            // The durability layer runs inside every terminal publish
            // (journal append from worker threads) and on the restart
            // path (recovery scan): a panic there turns a recoverable
            // crash into lost acknowledged jobs.
            || rel == "crates/plfd/src/journal.rs"
            || rel == "crates/plfd/src/recovery.rs";
        let metrics = rel == "crates/phylo/src/metrics.rs";
        let constants_module = rel == "crates/phylo/src/constants.rs";
        // Integration tests, benches, and examples are demo/test
        // surfaces: panics and literal values are idiomatic there.
        let relaxed = rel.starts_with("tests/")
            || rel.starts_with("examples/")
            || rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/");
        FileScope {
            hot_path,
            metrics,
            constants_module,
            relaxed,
        }
    }

    /// Force every rule on (used by fixture tests).
    pub fn all_rules() -> FileScope {
        FileScope {
            hot_path: true,
            metrics: true,
            constants_module: false,
            relaxed: false,
        }
    }
}

/// Banned literal values and the constant that replaces each. This is
/// the rule's own definition site — the one legitimate home for these
/// literals besides `phylo::constants` itself.
const BANNED: [(u64, &str); 3] = [
    (128, "plf_phylo::constants::CLV_ALIGN"), // plf-lint: allow(L3) — rule definition
    (16384, "plf_phylo::constants::DMA_MAX_BYTES"), // plf-lint: allow(L3) — rule definition
    (262144, "plf_phylo::constants::LS_BYTES"), // plf-lint: allow(L3) — rule definition
];

/// Run every applicable rule over one scanned file.
pub fn lint_scanned(path: &str, s: &Scanned, scope: FileScope) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rule_safety_comment(path, s, &mut out);
    if scope.hot_path && !scope.relaxed {
        rule_hot_path_panic(path, s, &mut out);
    }
    if !scope.constants_module && !scope.relaxed {
        rule_magic_number(path, s, &mut out);
    }
    if scope.metrics {
        rule_atomic_ordering(path, s, &mut out);
    }
    out.retain(|d| !suppressed(s, d.line - 1, d.rule));
    out
}

/// Does line `l` (0-based) carry or sit under a `plf-lint: allow(…)`
/// for `rule`? Used by the lexical rules here and by the structural
/// rules (which additionally honor fn-level allows).
pub(crate) fn suppressed(s: &Scanned, l: usize, rule: Rule) -> bool {
    let check = |idx: usize| -> bool {
        allow_list(&s.comments[idx])
            .iter()
            .any(|r| r == rule.id() || r == rule.name())
    };
    if check(l) {
        return true;
    }
    l > 0 && check(l - 1)
}

/// Parse the rule list out of a `plf-lint: allow(a, b)` comment.
fn allow_list(comment: &str) -> Vec<String> {
    let mut rules = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("plf-lint:") {
        rest = &rest[pos + "plf-lint:".len()..];
        let trimmed = rest.trim_start();
        if let Some(args) = trimmed.strip_prefix("allow(") {
            if let Some(end) = args.find(')') {
                for r in args[..end].split(',') {
                    rules.push(r.trim().to_string());
                }
            }
        }
    }
    rules
}

/// File-level declared atomic ordering (`plf-lint: ordering(X)`),
/// default `Relaxed`.
fn declared_ordering(s: &Scanned) -> String {
    for c in &s.comments {
        if let Some(pos) = c.find("plf-lint:") {
            let rest = c[pos + "plf-lint:".len()..].trim_start();
            if let Some(args) = rest.strip_prefix("ordering(") {
                if let Some(end) = args.find(')') {
                    return args[..end].trim().to_string();
                }
            }
        }
    }
    "Relaxed".to_string()
}

/// Word-boundary occurrences of `needle` in `hay`.
fn word_positions(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        let start = from + p;
        let end = start + needle.len();
        let left_ok = start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let right_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if left_ok && right_ok {
            out.push(start);
        }
        from = end;
    }
    out
}

// ---------------------------------------------------------------- L1

/// L1: walk upward from each `unsafe` site looking for a `SAFETY:`
/// comment. The walk skips over comment-only lines, attribute lines,
/// sibling `unsafe` lines (grouped `unsafe impl`s share one argument),
/// and mid-statement continuations; it stops at statement boundaries
/// (`;`, `{`, `}`), blank lines, or after [`L1_WALK_LIMIT`] lines.
/// The limit is generous because a *thorough* aliasing argument (the
/// point of the rule) can easily run 15+ comment lines.
const L1_WALK_LIMIT: usize = 25;

fn rule_safety_comment(path: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    for (l, line) in s.code.iter().enumerate() {
        if word_positions(line, "unsafe").is_empty() {
            continue;
        }
        if has_adjacent_safety(s, l) {
            continue;
        }
        out.push(Diagnostic {
            path: path.to_string(),
            line: l + 1,
            col: word_positions(line, "unsafe").first().map_or(1, |p| p + 1),
            rule: Rule::SafetyComment,
            message: "`unsafe` without an adjacent `// SAFETY:` comment justifying \
                      the aliasing/lifetime argument"
                .to_string(),
        });
    }
}

fn has_adjacent_safety(s: &Scanned, l: usize) -> bool {
    if s.comments[l].contains("SAFETY:") {
        return true;
    }
    let mut i = l;
    for _ in 0..L1_WALK_LIMIT {
        if i == 0 {
            return false;
        }
        i -= 1;
        if s.comments[i].contains("SAFETY:") {
            return true;
        }
        let code = s.code[i].trim();
        let comment_only = code.is_empty() && !s.comments[i].trim().is_empty();
        let attr_only = code.starts_with("#[") || code.starts_with("#![");
        let sibling_unsafe = !word_positions(code, "unsafe").is_empty();
        let mid_statement =
            !code.is_empty() && !code.ends_with(';') && !code.ends_with('{') && !code.ends_with('}');
        if comment_only || attr_only || sibling_unsafe || mid_statement {
            continue;
        }
        return false;
    }
    false
}

// ---------------------------------------------------------------- L2

fn rule_hot_path_panic(path: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    for (l, line) in s.code.iter().enumerate() {
        if s.is_test[l] {
            continue;
        }
        for (h, p) in panic_sites(line) {
            out.push(Diagnostic {
                path: path.to_string(),
                line: l + 1,
                col: p + 1,
                rule: Rule::HotPathPanic,
                message: format!(
                    "`{h}` in a PLF hot-path module; surface the fault through the \
                     `PlfError` taxonomy instead of aborting"
                ),
            });
        }
    }
}

/// Panic-capable constructs on a cleaned code line: `(construct, byte
/// column)` pairs. Shared by L2 (path scope) and L8 (reachability
/// scope).
pub(crate) fn panic_sites(line: &str) -> Vec<(&'static str, usize)> {
    let mut hits: Vec<(&'static str, usize)> = Vec::new();
    for method in ["unwrap", "expect"] {
        for p in word_positions(line, method) {
            // `.unwrap()` / `.expect(` — method calls only; this
            // deliberately does NOT match `unwrap_or_else` (word
            // boundary) or bindings named `expect`.
            let before_dot = line[..p].trim_end().ends_with('.');
            let after = line[p + method.len()..].trim_start();
            if before_dot && after.starts_with('(') {
                hits.push((method, p));
            }
        }
    }
    for mac in ["panic", "todo", "unimplemented"] {
        for p in word_positions(line, mac) {
            if line[p + mac.len()..].starts_with('!') {
                hits.push((mac, p));
            }
        }
    }
    hits
}

// ---------------------------------------------------------------- L3

/// An integer literal token: value plus byte span on its line.
#[derive(Debug, Clone, Copy)]
struct IntTok {
    value: u64,
    start: usize,
    end: usize,
}

/// Tokenize the integer literals on a cleaned code line; float literals
/// (decimal point or exponent) are skipped.
fn int_tokens(line: &str) -> Vec<IntTok> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if !c.is_ascii_digit() {
            i += 1;
            continue;
        }
        // Literal start: previous char must not be ident-ish or a dot
        // (that would make this an identifier tail — `u128` — or a
        // float fraction — `0.128`).
        if i > 0 {
            let p = b[i - 1];
            if p.is_ascii_alphanumeric() || p == b'_' || p == b'.' {
                i += 1;
                continue;
            }
        }
        let start = i;
        let (radix, digits_from) = if c == b'0' && i + 1 < b.len() {
            match b[i + 1] {
                b'x' | b'X' => (16, i + 2),
                b'o' | b'O' => (8, i + 2),
                b'b' | b'B' => (2, i + 2),
                _ => (10, i),
            }
        } else {
            (10, i)
        };
        let mut j = digits_from;
        let mut value: Option<u64> = Some(0);
        let mut is_float = false;
        while j < b.len() {
            let d = b[j];
            if d == b'_' {
                j += 1;
                continue;
            }
            let digit = match d {
                b'0'..=b'9' => (d - b'0') as u64,
                b'a'..=b'f' if radix == 16 => (d - b'a' + 10) as u64,
                b'A'..=b'F' if radix == 16 => (d - b'A' + 10) as u64,
                b'.' if radix == 10 => {
                    // `1.` or `1.5` → float; `1..2` (range) is not.
                    if b.get(j + 1).map(|n| n.is_ascii_digit()).unwrap_or(false) {
                        is_float = true;
                        j += 1;
                        continue;
                    }
                    break;
                }
                b'e' | b'E' if radix == 10 => {
                    // Exponent only if followed by digit or sign+digit.
                    let sig = b.get(j + 1).copied();
                    let sig2 = b.get(j + 2).copied();
                    if sig.map(|n| n.is_ascii_digit()).unwrap_or(false)
                        || (matches!(sig, Some(b'+') | Some(b'-'))
                            && sig2.map(|n| n.is_ascii_digit()).unwrap_or(false))
                    {
                        is_float = true;
                        j += 1;
                        continue;
                    }
                    break;
                }
                _ => break,
            };
            if !is_float {
                value = value
                    .and_then(|v| v.checked_mul(radix))
                    .and_then(|v| v.checked_add(digit));
            }
            j += 1;
        }
        // Swallow a type suffix (`usize`, `u64`, `f32`, …).
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            is_float |= b[j] == b'f';
            j += 1;
        }
        if !is_float {
            if let Some(v) = value {
                out.push(IntTok {
                    value: v,
                    start,
                    end: j,
                });
            }
        }
        i = j.max(i + 1);
    }
    out
}

fn rule_magic_number(path: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    for (l, line) in s.code.iter().enumerate() {
        if s.is_test[l] {
            continue;
        }
        let toks = int_tokens(line);
        let mut flagged: Vec<(u64, &str, usize)> = Vec::new();
        for t in &toks {
            if let Some((_, name)) = BANNED.iter().find(|(v, _)| *v == t.value) {
                flagged.push((t.value, name, t.start));
            }
        }
        // Products written as `a * b` (e.g. `16 * 1024`, `256 * 1024`).
        for w in toks.windows(2) {
            let between = &line[w[0].end..w[1].start];
            if between.trim() == "*" {
                if let Some(product) = w[0].value.checked_mul(w[1].value) {
                    if let Some((_, name)) = BANNED.iter().find(|(v, _)| *v == product) {
                        flagged.push((product, name, w[0].start));
                    }
                }
            }
        }
        for (v, name, start) in flagged {
            out.push(Diagnostic {
                path: path.to_string(),
                line: l + 1,
                col: start + 1,
                rule: Rule::MagicNumber,
                message: format!("magic number {v}; use {name} instead of an inline literal"),
            });
        }
    }
}

// ---------------------------------------------------------------- L4

fn rule_atomic_ordering(path: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    let declared = declared_ordering(s);
    for (l, line) in s.code.iter().enumerate() {
        if s.is_test[l] {
            continue;
        }
        let mut from = 0;
        while let Some(p) = line[from..].find("Ordering::") {
            let start = from + p + "Ordering::".len();
            let ident: String = line[start..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            from = start + ident.len().max(1);
            if ident.is_empty() || ident == declared {
                continue;
            }
            out.push(Diagnostic {
                path: path.to_string(),
                line: l + 1,
                col: from - ident.len().max(1) - "Ordering::".len() + 1,
                rule: Rule::AtomicOrdering,
                message: format!(
                    "stray `Ordering::{ident}`; this module declares `Ordering::{declared}` \
                     for all counters (see `plf-lint: ordering(…)`)"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn lint_all(src: &str) -> Vec<Diagnostic> {
        lint_scanned("test.rs", &scan(src), FileScope::all_rules())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn l1_flags_bare_unsafe_and_accepts_safety() {
        let bad = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(rules_of(&lint_all(bad)), ["L1"]);
        let good = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(lint_all(good).is_empty());
    }

    #[test]
    fn l1_one_safety_comment_covers_grouped_impls() {
        let src = "struct P(*mut u8);\n// SAFETY: P is uniquely owned.\nunsafe impl Send for P {}\nunsafe impl Sync for P {}\n";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn l1_safety_covers_multiline_statement() {
        let src = "// SAFETY: disjoint chunks.\nlet out =\n    unsafe { std::slice::from_raw_parts_mut(p, n) };\n";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn l1_blank_line_breaks_adjacency() {
        let src = "// SAFETY: stale.\nlet x = 1;\n\nlet y = unsafe { f() };\n";
        assert_eq!(rules_of(&lint_all(src)), ["L1"]);
    }

    #[test]
    fn l2_flags_unwrap_expect_and_macros() {
        let src = "fn hot() {\n    let a = x.unwrap();\n    let b = y.expect(\"msg\");\n    panic!(\"boom\");\n    todo!();\n}\n";
        assert_eq!(rules_of(&lint_all(src)), ["L2", "L2", "L2", "L2"]);
    }

    #[test]
    fn l2_ignores_unwrap_or_else_and_tests() {
        let src = "fn hot() {\n    let a = m.lock().unwrap_or_else(|p| p.into_inner());\n}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); panic!(); }\n}\n";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn l3_flags_all_banned_forms() {
        let src = "const A: usize = 128;\nconst B: usize = 16384;\nconst C: usize = 16 * 1024;\nconst D: usize = 256 * 1024;\nconst E: u64 = 16_384u64;\n";
        assert_eq!(rules_of(&lint_all(src)), ["L3", "L3", "L3", "L3", "L3"]);
    }

    #[test]
    fn l3_ignores_floats_idents_and_benign_values() {
        let src = "let a = 0.128;\nlet b: u128 = 1;\nlet c = 127 + 1024;\nlet d = 1e128;\nlet e = 12.8e1;\n";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn l3_allow_suppresses() {
        let same_line = "const R: usize = 16384; // plf-lint: allow(L3) — register file, not DMA\n";
        assert!(lint_all(same_line).is_empty());
        let line_above = "// plf-lint: allow(magic-number)\nconst R: usize = 16384;\n";
        assert!(lint_all(line_above).is_empty());
    }

    #[test]
    fn l4_flags_stray_ordering_and_honors_declaration() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::SeqCst); }\n";
        assert_eq!(rules_of(&lint_all(src)), ["L4"]);
        let declared = "// plf-lint: ordering(SeqCst)\nfn f(c: &AtomicU64) { c.fetch_add(1, Ordering::SeqCst); }\n";
        assert!(lint_all(declared).is_empty());
    }

    #[test]
    fn scope_gating_matches_paths() {
        let hot = FileScope::for_path("crates/phylo/src/kernels/simd4.rs");
        assert!(hot.hot_path && !hot.metrics);
        let metrics = FileScope::for_path("crates/phylo/src/metrics.rs");
        assert!(metrics.metrics && !metrics.hot_path);
        let consts = FileScope::for_path("crates/phylo/src/constants.rs");
        assert!(consts.constants_module);
        let test = FileScope::for_path("tests/invariants.rs");
        assert!(test.relaxed);
        let plain = FileScope::for_path("crates/mcmc/src/chain.rs");
        assert!(!plain.hot_path && !plain.metrics && !plain.relaxed);
        // The plfd service data path is L2 scope; the rest of the
        // crate (facade, job types, loadgen) is not.
        for hot in [
            "crates/plfd/src/queue.rs",
            "crates/plfd/src/scheduler.rs",
            "crates/plfd/src/dispatch.rs",
            "crates/plfd/src/health.rs",
            "crates/plfd/src/chaos.rs",
            "crates/plfd/src/journal.rs",
            "crates/plfd/src/recovery.rs",
            // The fused driver and CLV cache run inside every fused
            // batch evaluation.
            "crates/phylo/src/fused.rs",
            "crates/phylo/src/clv_cache.rs",
        ] {
            assert!(FileScope::for_path(hot).hot_path, "{hot} must be L2 scope");
        }
        let facade = FileScope::for_path("crates/plfd/src/service.rs");
        assert!(!facade.hot_path);
        let gen = FileScope::for_path("crates/plfd/src/loadgen.rs");
        assert!(!gen.hot_path);
    }
}
