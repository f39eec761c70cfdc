//! # simlint — static enforcement of the workspace determinism & safety contracts
//!
//! Every headline property of this reproduction — bit-identical reports at
//! 1/2/4/8 shards × both execution modes, byte-stable chaos verdicts,
//! ~0.0005 allocs/event, saturating Q32.32 cost math — is a *source-level*
//! discipline: no unordered iteration, no ambient clocks or RNGs, no bare
//! float→integer cost casts, justified `unsafe`, no panics on the kernel
//! steady state. The dynamic gates (golden snapshots, proptests, alloc
//! counters) fire only after a violation is already written; this pass
//! fails the build instead.
//!
//! The linter is deliberately *lexical*, in the style of rustc's `tidy`:
//! a small comment/string-stripping line lexer over the workspace `.rs`
//! files, zero external dependencies (the build environment is offline —
//! no `syn`, no `dylint`). That makes it fast, auditable, and honest about
//! what it can see: it matches tokens, not types, so every rule is scoped
//! per-path by the config tables below and every legitimate use is
//! annotated in place with a *reasoned* allow marker:
//!
//! ```text
//! // simlint: allow(<rule>) — <reason>
//! ```
//!
//! The reason string is mandatory (an empty one is itself a violation), a
//! marker that no longer suppresses anything is reported as stale, and a
//! marker naming an unknown rule is rejected — so the annotation layer
//! cannot rot silently. Markers bind to the line they trail, or — when
//! written on their own comment line — to the next line that contains code.
//!
//! `#[cfg(test)]` modules are skipped entirely: tests may use `HashMap` to
//! cross-check determinism claims, time things, and `unwrap` freely.
//! Files under `tests/`, `benches/` and `examples/` remain linted for the
//! rules whose scope includes them (ambient time/RNG and safety comments),
//! because integration tests feed the same deterministic goldens.
//!
//! See the crate `tests/` directory for the per-rule fixture proofs (each
//! rule demonstrably fires and honors its allow marker) and the
//! workspace-is-clean integration test that makes any new violation fail
//! `cargo test`, not just CI.

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and CI checks that each one does.
#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Rules

/// The seven enforced contracts. `name` is what allow markers reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// `HashMap`/`HashSet` banned in the deterministic simulation crates:
    /// iteration order is seeded per-process (`RandomState`), so any
    /// iterated map silently breaks run-to-run reproducibility. Convert
    /// iterated maps to `IdTable`/`Slab`/`BTreeMap`; annotate lookup-only
    /// ones.
    UnorderedIteration,
    /// `Instant::now`/`SystemTime` banned outside `crates/bench`: virtual
    /// time comes from the event queue, and an ambient clock read anywhere
    /// in the simulation makes results machine-dependent. The one
    /// annotated site in `shard.rs` (a run's host wall time, reported next
    /// to the results and never fed back into virtual time) is the only
    /// exemption.
    AmbientTime,
    /// `thread_rng`/`rand::random`/`RandomState` banned everywhere: all
    /// randomness flows through seeded `SimRng::stream` draws so fault
    /// verdicts and workloads replay bit-identically.
    AmbientRng,
    /// Bare `as u64`/`as i64` (and narrowing integer) casts banned in the
    /// cost-model funnel modules: a careless float→int cast truncates
    /// instead of saturating (the PR 4 `ByteCost` bug charged ~0 ns for a
    /// 2⁶³-byte transfer). Cost conversions go through
    /// `Nanos::from_f64_saturating` / saturating ops.
    CostCast,
    /// Every `unsafe` block, impl, or fn carries a `// SAFETY:` comment on
    /// the same line or in the contiguous comment block directly above.
    SafetyComment,
    /// `.unwrap()`/`.expect()` and the panicking macros (`unreachable!`,
    /// `panic!`, `todo!`, `unimplemented!`) banned in the kernel
    /// steady-state modules (`queue.rs`, `shard.rs`): a panic
    /// mid-window poisons the shard barrier and kills the run.
    /// Invariant-backed expects must say *why* the invariant holds.
    /// (`assert!` is not matched: config validation is its own item.)
    PanicHotPath,
    /// A `pub fn|struct|enum|trait|const|type|static` in a library crate
    /// that only its own unit tests name: its name occurs, as a whole word,
    /// in no other workspace `.rs` file (`pub use` re-exports in a `lib.rs`
    /// are not a use) and nowhere in its own file's non-test code besides
    /// the declaration. Such code is API nothing reaches — delete it with
    /// the assertions that call it, gate it `#[cfg(test)]` when a test needs
    /// it to observe private state, or annotate a reference implementation.
    /// Unlike the other rules this one is decided over the whole file set
    /// ([`lint_files`]), not per line. Word-matching *under-reports*: a
    /// common name (`revoke`, `new`) counts as reached by any namesake in
    /// another file. That is the safe direction — the rule never asks for
    /// the deletion of something that is called.
    UnreachedPub,
}

/// All rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule::UnorderedIteration,
    Rule::AmbientTime,
    Rule::AmbientRng,
    Rule::CostCast,
    Rule::SafetyComment,
    Rule::PanicHotPath,
    Rule::UnreachedPub,
];

impl Rule {
    /// The name allow markers use.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedIteration => "no-unordered-iteration",
            Rule::AmbientTime => "no-ambient-time",
            Rule::AmbientRng => "no-ambient-rng",
            Rule::CostCast => "saturating-cost-casts",
            Rule::SafetyComment => "safety-comments",
            Rule::PanicHotPath => "no-panic-hot-path",
            Rule::UnreachedPub => "unreached-pub",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        RULES.iter().copied().find(|r| r.name() == name)
    }

    /// What a firing site should do about it.
    fn advice(self) -> &'static str {
        match self {
            Rule::UnorderedIteration => {
                "iteration order is per-process random; use IdTable/Slab/BTreeMap, \
                 or annotate a lookup-only map"
            }
            Rule::AmbientTime => {
                "simulated code must read virtual time from the event queue, \
                 never the host clock"
            }
            Rule::AmbientRng => "all randomness must come from seeded SimRng streams",
            Rule::CostCast => {
                "cost conversions must saturate: use Nanos::from_f64_saturating \
                 or checked/saturating integer ops"
            }
            Rule::SafetyComment => {
                "add a `// SAFETY:` comment stating the invariant that makes \
                 this sound, directly above or on the same line"
            }
            Rule::PanicHotPath => {
                "kernel steady-state code must not panic; handle the case or \
                 annotate with the invariant that rules it out"
            }
            Rule::UnreachedPub => {
                "only its own unit tests name this: delete it with the assertions \
                 that call it, or make it `#[cfg(test)]`"
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scope configuration
//
// All paths are workspace-root-relative with '/' separators. An entry is a
// prefix: directories end in '/', single files are spelled out in full.

/// Crates whose `src/` must stay free of unordered containers — exactly the
/// crates on the deterministic simulation path (the report-producing side
/// of the golden-trace contract). `tcpstack` cost tables, `baselines`,
/// `workloads` and `bench` construct scenarios but any map they iterate
/// flows into these crates as ordered event streams.
const DETERMINISTIC_SRC: &[&str] = &[
    "crates/core/src/",
    "crates/rdma/src/",
    "crates/simnet/src/",
    "crates/ipc/src/",
    "crates/dpu/src/",
    "crates/membuf/src/",
];

/// The cost-model funnel modules: where external parameters (slopes,
/// rates, cycle counts, figure time scales) become integer nanoseconds.
/// This is deliberately the *funnel* — the id/index `as` casts that pepper
/// the drivers are int↔int and out of scope; the modules below are where a
/// bare cast corrupts virtual time itself.
const COST_MODULES: &[&str] = &[
    "crates/simnet/src/time.rs",
    "crates/ipc/src/costs.rs",
    "crates/rdma/src/config.rs",
    "crates/core/src/config.rs",
    "crates/tcpstack/src/stack.rs",
    "crates/core/src/driver/ingress_sweep.rs",
    "crates/core/src/driver/fairness.rs",
];

/// Kernel steady-state modules where a panic kills a shard mid-window.
const HOT_PATH_MODULES: &[&str] = &[
    "crates/simnet/src/queue.rs",
    "crates/simnet/src/shard.rs",
];

/// What `no-panic-hot-path` matches, and how it reports each.
const PANIC_TOKENS: &[(&str, &str)] = &[
    (".unwrap(", ".unwrap()"),
    (".expect(", ".expect()"),
    ("unreachable!(", "unreachable!"),
    ("panic!(", "panic!"),
    ("todo!(", "todo!"),
    ("unimplemented!(", "unimplemented!"),
];

/// The first panicking token on this line, as reported.
fn panic_token(code: &str) -> Option<&'static str> {
    PANIC_TOKENS
        .iter()
        .find(|(pattern, _)| code.contains(pattern))
        .map(|&(_, label)| label)
}

/// The only tree allowed to read host clocks: wall-clock measurement is
/// the bench crate's whole job.
const AMBIENT_TIME_EXEMPT: &[&str] = &["crates/bench/"];

/// `unreached-pub` looks for declarations in the library crates' `src/`
/// trees (`crates/<name>/src/`), minus these: binaries declare nothing
/// another file could name, and the linter is not a library of the
/// simulation.
const UNREACHED_PUB_EXEMPT: &[&str] = &[
    "crates/simlint/",
    "crates/bench/src/bin/",
    // The per-tenant grant-check islands `tests/tenant_isolation.rs`
    // reaches: ROADMAP item 3d decides "wire or delete" for them together
    // with tenants on the engine, not this gate.
    "crates/membuf/src/tenant.rs",
    "crates/membuf/src/mmap.rs",
    "crates/dpu/src/mmap_import.rs",
];

fn in_any(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// Does `rule` apply to the file at workspace-relative path `rel`?
pub fn rule_applies(rule: Rule, rel: &str) -> bool {
    match rule {
        Rule::UnorderedIteration => in_any(rel, DETERMINISTIC_SRC),
        Rule::AmbientTime => !in_any(rel, AMBIENT_TIME_EXEMPT),
        Rule::AmbientRng => true,
        Rule::CostCast => in_any(rel, COST_MODULES),
        Rule::SafetyComment => true,
        Rule::PanicHotPath => in_any(rel, HOT_PATH_MODULES),
        Rule::UnreachedPub => {
            let mut dirs = rel.split('/');
            (dirs.next(), dirs.nth(1)) == (Some("crates"), Some("src"))
                && !in_any(rel, UNREACHED_PUB_EXEMPT)
        }
    }
}

// ---------------------------------------------------------------------------
// Lexer

/// One source line, split into executable code and comment text. String
/// and char literal *contents* are stripped from `code` (the delimiters
/// remain), so `"HashMap"` in a log message can never fire a rule; comment
/// text is preserved separately because two rules read it (`SAFETY:` and
/// the allow markers).
#[derive(Default, Debug)]
pub struct Line {
    /// Code with comments and literal contents removed.
    pub code: String,
    /// Concatenated comment text on this line (line, block, or doc).
    pub comment: String,
}

enum LexState {
    Normal,
    LineComment,
    /// Nesting depth (Rust block comments nest).
    BlockComment(u32),
    Str,
    /// Number of `#`s that close the raw string.
    RawStr(usize),
}

/// Split `src` into [`Line`]s. Handles line/block/doc comments (nested
/// block comments included), plain and raw (`r#"…"#`) string literals,
/// byte strings, char literals, and lifetimes (`'a` is code, `'a'` is a
/// literal).
pub fn lex(src: &str) -> Vec<Line> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut st = LexState::Normal;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(st, LexState::LineComment) {
                st = LexState::Normal;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            LexState::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    st = LexState::LineComment;
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = LexState::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = LexState::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    // r"…", r#"…"#, b"…", br#"…"#
                    if let Some((hashes, consumed)) = raw_or_byte_string_start(&chars, i) {
                        cur.code.push('"');
                        i += consumed;
                        st = match hashes {
                            None => LexState::Str,
                            Some(h) => LexState::RawStr(h),
                        };
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    if chars.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: scan to the closing quote.
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                        cur.code.push_str("''");
                        i = j + 1;
                    } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                        cur.code.push_str("''");
                        i += 3;
                    } else {
                        // Lifetime (or stray quote): keep as code.
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            LexState::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            LexState::BlockComment(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = LexState::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    st = if depth == 1 {
                        LexState::Normal
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            LexState::Str => {
                if c == '\\' {
                    // Skip the escaped char (incl. \" and \\) — but a
                    // line-continuation escape must leave the newline for
                    // the top of the loop, or line numbers drift.
                    if chars.get(i + 1) == Some(&'\n') {
                        i += 1;
                    } else {
                        i += 2;
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    st = LexState::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            LexState::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    cur.code.push('"');
                    st = LexState::Normal;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_' || chars[i - 1] == '"')
}

/// If `chars[i..]` starts a raw/byte string (`r"`, `r#"`, `b"`, `br#"`…),
/// return `(hash_count_for_raw, chars_consumed_through_opening_quote)`.
fn raw_or_byte_string_start(chars: &[char], i: usize) -> Option<(Option<usize>, usize)> {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    let raw = chars.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0;
    while chars.get(j + hashes) == Some(&'#') {
        hashes += 1;
    }
    if chars.get(j + hashes) == Some(&'"') {
        if raw {
            Some((Some(hashes), j + hashes + 1 - i))
        } else if hashes == 0 && j > i {
            // b"…" — a plain (escaped) string with a byte prefix.
            Some((None, j + 1 - i))
        } else {
            None
        }
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// #[cfg(test)] skipping

/// Mark every line belonging to a `#[cfg(test)]` item (attribute line
/// through the matching closing brace). Tests legitimately use ambient
/// maps, clocks, and `unwrap` — the contracts bind the simulation, not its
/// cross-checks.
pub fn test_mod_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Skip from the attribute through the end of the item it gates:
        // the first `{`-opened block (tracked to balance), or a `;` before
        // any brace (out-of-line `mod tests;`).
        let mut depth: i64 = 0;
        let mut started = false;
        let mut j = i;
        'scan: while j < lines.len() {
            for ch in lines[j].code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => {
                        depth -= 1;
                        if started && depth <= 0 {
                            break 'scan;
                        }
                    }
                    ';' if !started && !lines[j].code.contains("#[") => break 'scan,
                    _ => {}
                }
            }
            j += 1;
        }
        let end = j.min(lines.len() - 1);
        for m in &mut mask[i..=end] {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// Allow markers

/// A parsed `// simlint: allow(<rule>) — <reason>` marker.
#[derive(Debug)]
struct Marker {
    /// Line the marker comment sits on (0-based).
    line: usize,
    /// Line the marker suppresses (0-based): its own line if it trails
    /// code, otherwise the next line containing code.
    target: Option<usize>,
    rule: Option<Rule>,
    /// Problem with the marker itself, reported as a violation.
    error: Option<String>,
    consumed: bool,
}

const MARKER_TAG: &str = "simlint:";

fn parse_markers(lines: &[Line], skip: &[bool]) -> Vec<Marker> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        // A marker must be the *whole* comment: `// simlint: allow(…) — …`.
        // Prose that merely quotes the syntax (doc comments, this file)
        // stays inert because the doc markers (`!`, `/`) survive in the
        // comment text.
        let trimmed = line.comment.trim_start();
        if skip[idx] || !trimmed.starts_with(MARKER_TAG) {
            continue;
        }
        let rest = trimmed[MARKER_TAG.len()..].trim();
        let mut marker = Marker {
            line: idx,
            target: None,
            rule: None,
            error: None,
            consumed: false,
        };
        if let Some(args) = rest.strip_prefix("allow(") {
            if let Some(close) = args.find(')') {
                let name = args[..close].trim();
                match Rule::from_name(name) {
                    Some(rule) => {
                        marker.rule = Some(rule);
                        // The reason: everything after the ')', minus a
                        // leading separator (— or - or :).
                        let reason = args[close + 1..]
                            .trim_start_matches(|c: char| {
                                c.is_whitespace() || c == '—' || c == '-' || c == ':'
                            })
                            .trim();
                        if reason.len() < 3 {
                            marker.error = Some(format!(
                                "allow({name}) needs a reason: \
                                 `// simlint: allow({name}) — <why this is sound>`"
                            ));
                        }
                    }
                    None => {
                        marker.error = Some(format!(
                            "unknown rule `{name}` (rules: {})",
                            RULES
                                .iter()
                                .map(|r| r.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                    }
                }
            } else {
                marker.error = Some("malformed marker: missing `)`".into());
            }
        } else {
            marker.error = Some(
                "malformed marker: expected `simlint: allow(<rule>) — <reason>`".into(),
            );
        }
        // Bind to a line of code: this one if it has any, else the next
        // non-skipped line that does.
        if !lines[idx].code.trim().is_empty() {
            marker.target = Some(idx);
        } else {
            marker.target = lines
                .iter()
                .enumerate()
                .skip(idx + 1)
                .find(|(j, l)| !skip[*j] && !l.code.trim().is_empty())
                .map(|(j, _)| j);
        }
        out.push(marker);
    }
    out
}

// ---------------------------------------------------------------------------
// Token matching

/// Is `code[pos..pos+word.len()]` a standalone word (not an identifier
/// fragment)?
fn word_at(code: &str, pos: usize, word: &str) -> bool {
    let before_ok = pos == 0
        || !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let end = pos + word.len();
    let after_ok = end >= code.len()
        || !code[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

fn has_word(code: &str, word: &str) -> bool {
    code.match_indices(word).any(|(pos, _)| word_at(code, pos, word))
}

/// Integer targets a bare `as` cast may not produce in cost modules —
/// `u64`/`i64` (the float→int hazard) plus every narrowing width. `usize`,
/// `u128` and the float targets stay legal: widening an id for indexing
/// and int→float for reporting are not cost hazards.
const BANNED_CAST_TARGETS: &[&str] = &["u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8"];

fn has_banned_cast(code: &str) -> bool {
    for (pos, _) in code.match_indices("as") {
        if !word_at(code, pos, "as") {
            continue;
        }
        let rest = code[pos + 2..].trim_start();
        let target_hit = BANNED_CAST_TARGETS.iter().any(|t| {
            rest.starts_with(t)
                && !rest[t.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
        });
        if target_hit {
            return true;
        }
    }
    false
}

/// Does this line's code fire `rule`? Purely lexical, one verdict per
/// line.
fn line_fires(rule: Rule, code: &str) -> bool {
    match rule {
        Rule::UnorderedIteration => has_word(code, "HashMap") || has_word(code, "HashSet"),
        Rule::AmbientTime => {
            (code.contains("Instant::now") && has_word(code, "Instant"))
                || has_word(code, "SystemTime")
        }
        Rule::AmbientRng => {
            has_word(code, "thread_rng")
                || (code.contains("rand::random") && has_word(code, "random"))
                || has_word(code, "RandomState")
        }
        Rule::CostCast => has_banned_cast(code),
        Rule::SafetyComment => is_unsafe_site(code),
        Rule::PanicHotPath => panic_token(code).is_some(),
        // Decided over the whole file set, see `unreached_pub`.
        Rule::UnreachedPub => false,
    }
}

/// An `unsafe` keyword that opens a block, impl, fn, or trait — i.e. a
/// site that owes the reader a `SAFETY:` justification.
fn is_unsafe_site(code: &str) -> bool {
    has_word(code, "unsafe")
}

// ---------------------------------------------------------------------------
// Violations & the per-file pass

/// One finding. `line` is 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    /// Rule name, or `"allow-marker"` for problems with markers
    /// themselves (missing reason, unknown rule, stale marker).
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// One lexed file mid-lint: the findings so far plus the markers a later
/// finding may still consume.
struct FileLint {
    rel: String,
    lines: Vec<Line>,
    skip: Vec<bool>,
    markers: Vec<Marker>,
    out: Vec<Violation>,
}

impl FileLint {
    /// Lex `src` and run the per-line rules.
    fn new(rel: &str, src: &str) -> FileLint {
        let lines = lex(src);
        let skip = test_mod_mask(&lines);
        let markers = parse_markers(&lines, &skip);
        let mut file = FileLint { rel: rel.to_string(), lines, skip, markers, out: Vec::new() };
        for idx in 0..file.lines.len() {
            if file.skip[idx] {
                continue;
            }
            for &rule in RULES {
                let code = &file.lines[idx].code;
                if !rule_applies(rule, rel) || !line_fires(rule, code) {
                    continue;
                }
                if rule == Rule::SafetyComment && safety_comment_covers(&file.lines, idx) {
                    continue;
                }
                file.report(idx, rule);
            }
        }
        file
    }

    /// `rule` fired on line `idx` (0-based): a marker targeting this line
    /// for this rule suppresses the finding (and is thereby consumed —
    /// markers must stay live), otherwise it is a violation.
    fn report(&mut self, idx: usize, rule: Rule) {
        if let Some(m) = self.markers.iter_mut().find(|m| {
            m.error.is_none() && m.rule == Some(rule) && m.target == Some(idx)
        }) {
            m.consumed = true;
            return;
        }
        self.out.push(Violation {
            path: self.rel.clone(),
            line: idx + 1,
            rule: rule.name(),
            msg: format!("{} — {}", firing_token_msg(rule, &self.lines[idx].code), rule.advice()),
        });
    }

    /// Add the marker-hygiene findings and return everything, by line.
    fn finish(mut self) -> Vec<Violation> {
        for m in &self.markers {
            if let Some(err) = &m.error {
                self.out.push(Violation {
                    path: self.rel.clone(),
                    line: m.line + 1,
                    rule: "allow-marker",
                    msg: err.clone(),
                });
            } else if !m.consumed {
                self.out.push(Violation {
                    path: self.rel.clone(),
                    line: m.line + 1,
                    rule: "allow-marker",
                    msg: format!(
                        "stale marker: allow({}) suppresses nothing here — delete it \
                         (or move it onto the offending line)",
                        m.rule.map(|r| r.name()).unwrap_or("?")
                    ),
                });
            }
        }
        self.out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        self.out
    }
}

/// Lint one file's source with the per-line rules. `rel` is its
/// workspace-root-relative path with `/` separators — scoping is driven
/// entirely by it, which is also what lets the fixture tests impersonate
/// in-scope paths. (`unreached-pub` needs the other files: [`lint_files`].)
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    FileLint::new(rel, src).finish()
}

/// Lint a file set — `(rel, source)` pairs — with every rule, the
/// cross-file `unreached-pub` included.
pub fn lint_files(files: &[(String, String)]) -> Vec<Violation> {
    let mut lints: Vec<FileLint> = files.iter().map(|(rel, src)| FileLint::new(rel, src)).collect();
    unreached_pub(&mut lints);
    lints.into_iter().flat_map(FileLint::finish).collect()
}

// ---------------------------------------------------------------------------
// unreached-pub: the cross-file pass

/// Item keywords `unreached-pub` recognises after `pub`.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];
/// Words that may stand between `pub` and the item's name without being it.
const ITEM_MODIFIERS: &[&str] = &["unsafe", "async", "extern", "mut"];

/// The identifier tokens of one line of lexed code.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The name a `pub fn|struct|enum|trait|const|type|static` on this line
/// declares. `pub(crate)`, `pub use`, `pub mod` and `pub` struct fields
/// declare nothing this rule tracks.
fn declared_pub_item(code: &str) -> Option<&str> {
    let pos = code.match_indices("pub").find(|&(pos, _)| word_at(code, pos, "pub"))?.0;
    let rest = &code[pos + 3..];
    if !rest.starts_with(char::is_whitespace) {
        return None;
    }
    let mut words = idents(rest).skip_while(|w| ITEM_MODIFIERS.contains(w));
    if !ITEM_KEYWORDS.contains(&words.next()?) {
        return None;
    }
    // `pub const fn f`, `pub const unsafe fn f`, `pub static mut X`.
    words.find(|w| !ITEM_MODIFIERS.contains(w) && *w != "fn")
}

/// Blank the `pub use …;` statements of a `lib.rs`: a re-export is not a
/// use.
fn without_reexports<'a>(rel: &str, lines: &'a [Line]) -> Vec<&'a str> {
    let mut in_reexport = false;
    lines
        .iter()
        .map(|l| {
            let code = l.code.as_str();
            if rel.ends_with("/lib.rs") && code.trim_start().starts_with("pub use ") {
                in_reexport = true;
            }
            let kept = if in_reexport { "" } else { code };
            in_reexport &= !code.contains(';');
            kept
        })
        .collect()
}

/// The `unreached-pub` pass: report every in-scope `pub` declaration whose
/// name no other file mentions and no non-test line of its own file
/// mentions besides the declaration.
fn unreached_pub(files: &mut [FileLint]) {
    use std::collections::BTreeMap;
    // name → the files whose code (tests included) mentions it.
    let mut mentions: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    // Per file: name → mentions in non-test code.
    let mut own: Vec<BTreeMap<&str, usize>> = Vec::with_capacity(files.len());
    for (f, file) in files.iter().enumerate() {
        let mut non_test = BTreeMap::new();
        for (idx, code) in without_reexports(&file.rel, &file.lines).into_iter().enumerate() {
            for word in idents(code) {
                let seen = mentions.entry(word).or_default();
                if seen.last() != Some(&f) {
                    seen.push(f);
                }
                if !file.skip[idx] {
                    *non_test.entry(word).or_insert(0) += 1;
                }
            }
        }
        own.push(non_test);
    }
    let mut findings = Vec::new();
    for (f, file) in files.iter().enumerate() {
        if !rule_applies(Rule::UnreachedPub, &file.rel) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            let Some(name) = declared_pub_item(&line.code).filter(|_| !file.skip[idx]) else {
                continue;
            };
            let on_this_line = idents(&line.code).filter(|w| *w == name).count();
            let elsewhere = mentions[name].iter().any(|&g| g != f);
            if !elsewhere && own[f][name] == on_this_line {
                findings.push((f, idx));
            }
        }
    }
    for (f, idx) in findings {
        files[f].report(idx, Rule::UnreachedPub);
    }
}

/// For `SafetyComment`: accept a `SAFETY:` on the same line or anywhere in
/// the contiguous run of code-free (comment/blank) lines directly above.
/// Each `unsafe` site needs its own coverage — a comment does not leak
/// through an intervening line of code (so `unsafe impl Send`/`Sync` on
/// adjacent lines each carry one).
fn safety_comment_covers(lines: &[Line], idx: usize) -> bool {
    if lines[idx].comment.contains("SAFETY:") {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        if !lines[j].code.trim().is_empty() {
            return false;
        }
        if lines[j].comment.contains("SAFETY:") {
            return true;
        }
    }
    false
}

fn firing_token_msg(rule: Rule, code: &str) -> String {
    let token = match rule {
        Rule::UnorderedIteration => {
            if has_word(code, "HashMap") {
                "HashMap"
            } else {
                "HashSet"
            }
        }
        Rule::AmbientTime => {
            if code.contains("Instant::now") {
                "Instant::now"
            } else {
                "SystemTime"
            }
        }
        Rule::AmbientRng => {
            if has_word(code, "thread_rng") {
                "thread_rng"
            } else if code.contains("rand::random") {
                "rand::random"
            } else {
                "RandomState"
            }
        }
        Rule::CostCast => "bare `as` cast to a 64-bit/narrowing integer",
        Rule::SafetyComment => "`unsafe` without a SAFETY: comment",
        Rule::PanicHotPath => panic_token(code).unwrap_or("panic"),
        Rule::UnreachedPub => declared_pub_item(code).unwrap_or("pub item"),
    };
    format!("`{token}`")
}

// ---------------------------------------------------------------------------
// Workspace walk

/// Directories never descended into.
const EXCLUDE_DIRS: &[&str] = &["vendor", "target", ".git"];

/// Path fragments excluded from the walk: the fixture corpus *must*
/// violate the rules (that is its job), and is proven against them by the
/// crate's own tests instead.
const EXCLUDE_PATHS: &[&str] = &["crates/simlint/tests/fixtures"];

/// All workspace `.rs` files, root-relative with `/` separators, sorted
/// (deterministic output order — of course).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !EXCLUDE_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                if !EXCLUDE_PATHS.iter().any(|p| rel.starts_with(p)) {
                    out.push(path);
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint every workspace file. Returns `(files_scanned, violations)`.
pub fn lint_workspace(root: &Path) -> std::io::Result<(usize, Vec<Violation>)> {
    let mut files = Vec::new();
    for path in workspace_files(root)? {
        files.push((rel_path(root, &path), fs::read_to_string(&path)?));
    }
    Ok((files.len(), lint_files(&files)))
}

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
