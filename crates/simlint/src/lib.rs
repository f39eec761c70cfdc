//! # simlint — the one workspace contract rustc and clippy cannot express
//!
//! The invariants contract (README "Static analysis & invariants") is
//! enforced by the compiler: `clippy.toml`, module lint headers and the
//! root manifest's `[workspace.lints]`. What is left here is a cross-file
//! rule no per-crate lint can see, `unreached-pub`: a
//! `pub fn|struct|enum|trait|const|type|static` in a library crate's
//! `src/` tree (every one but simlint's own and `crates/bench/src/bin/`)
//! that only tests name. Its name occurs, as a whole word, on no non-test
//! line of any workspace `.rs` file besides its declaration. Test lines are
//! every file under a `tests/` directory and every `#[cfg(test)]` item;
//! `pub use` re-exports in a `lib.rs` are not a use either. Such code is
//! API no binary reaches — delete it with the assertions that call it,
//! gate it `#[cfg(test)]` when its own crate's tests need it to observe
//! private state, or annotate why a test elsewhere needs it.
//! Word-matching *under-reports*: a common name (`len`, `new`) counts
//! as reached by any namesake in another file. That is the safe direction
//! — the rule never asks for the deletion of something that is called.
//!
//! The pass is deliberately *lexical*, in the style of rustc's `tidy`: a
//! small comment/string-stripping line lexer over the workspace `.rs`
//! files, zero external dependencies (the build environment is offline —
//! no `syn`, no `dylint`). A legitimate exemption is annotated in place
//! with a *reasoned* allow marker:
//!
//! ```text
//! // simlint: allow(unreached-pub) — <reason>
//! ```
//!
//! The reason string is mandatory (an empty one is itself a violation), a
//! marker that no longer suppresses anything is reported as stale, and a
//! marker naming any other rule is rejected — so the annotation layer
//! cannot rot silently. Markers bind to the line they trail, or — when
//! written on their own comment line — to the next line that contains code.
//!
//! See the crate `tests/` directory for the fixture proofs and the
//! workspace-is-clean integration test that makes any new violation fail
//! `cargo test`, not just CI.

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and `cargo test` checks that each one does.
#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

/// The rule's name, as allow markers and reports spell it.
const RULE: &str = "unreached-pub";

/// `unreached-pub` looks for declarations in the library crates' `src/`
/// trees (`crates/<name>/src/`), minus these: binaries declare nothing
/// another file could name, and the linter is not a library of the
/// simulation.
const EXEMPT: &[&str] = &["crates/simlint/", "crates/bench/src/bin/"];

/// Does the rule look for declarations in the file at workspace-relative
/// path `rel`?
fn in_scope(rel: &str) -> bool {
    let mut dirs = rel.split('/');
    (dirs.next(), dirs.nth(1)) == (Some("crates"), Some("src"))
        && !EXEMPT.iter().any(|p| rel.starts_with(p))
}

// ---------------------------------------------------------------------------
// Lexer

/// One source line, split into executable code and comment text. String
/// and char literal *contents* are stripped from `code` (the delimiters
/// remain), so a name in a log message is never a mention; comment text
/// is preserved separately because the allow markers live there.
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
/// through the matching closing brace): a name only these lines mention
/// is not reached.
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

/// A parsed `// simlint: allow(unreached-pub) — <reason>` marker.
#[derive(Debug)]
struct Marker {
    /// Line the marker comment sits on (0-based).
    line: usize,
    /// Line the marker suppresses (0-based): its own line if it trails
    /// code, otherwise the next line containing code.
    target: Option<usize>,
    /// Problem with the marker itself, reported as a violation.
    error: Option<String>,
    consumed: bool,
}

const MARKER_TAG: &str = "simlint:";

/// What is wrong with the text after `simlint:`, if anything.
fn marker_error(rest: &str) -> Option<String> {
    let Some(args) = rest.strip_prefix("allow(") else {
        return Some("malformed marker: expected `simlint: allow(<rule>) — <reason>`".into());
    };
    let Some(close) = args.find(')') else {
        return Some("malformed marker: missing `)`".into());
    };
    let name = args[..close].trim();
    if name != RULE {
        return Some(format!("unknown rule `{name}` (the one rule is {RULE})"));
    }
    // The reason: everything after the ')', minus a leading separator
    // (— or - or :).
    let reason = args[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':')
        .trim();
    (reason.len() < 3).then(|| {
        format!("allow({name}) needs a reason: `// simlint: allow({name}) — <why this is sound>`")
    })
}

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
        // Bind to a line of code: this one if it has any, else the next
        // non-skipped line that does.
        let target = if line.code.trim().is_empty() {
            (idx + 1..lines.len()).find(|&j| !skip[j] && !lines[j].code.trim().is_empty())
        } else {
            Some(idx)
        };
        out.push(Marker {
            line: idx,
            target,
            error: marker_error(trimmed[MARKER_TAG.len()..].trim()),
            consumed: false,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Violations & the cross-file pass

/// One finding. `line` is 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    /// `"unreached-pub"`, or `"allow-marker"` for problems with markers
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
    fn new(rel: &str, src: &str) -> FileLint {
        let lines = lex(src);
        let skip = test_mod_mask(&lines);
        let markers =
            if rel.starts_with(MENTIONS_ONLY) { Vec::new() } else { parse_markers(&lines, &skip) };
        FileLint { rel: rel.to_string(), lines, skip, markers, out: Vec::new() }
    }

    /// The `pub` item `name` on line `idx` (0-based) is unreached: a marker
    /// targeting this line suppresses the finding (and is thereby consumed
    /// — markers must stay live), otherwise it is a violation.
    fn report(&mut self, idx: usize, name: &str) {
        let live = |m: &&mut Marker| m.error.is_none() && m.target == Some(idx);
        if let Some(m) = self.markers.iter_mut().find(live) {
            m.consumed = true;
            return;
        }
        self.out.push(Violation {
            path: self.rel.clone(),
            line: idx + 1,
            rule: RULE,
            msg: format!(
                "`{name}` — only tests name this: delete it with the \
                 assertions that call it, or make it `#[cfg(test)]`"
            ),
        });
    }

    /// Add the marker-hygiene findings and return everything, by line.
    fn finish(mut self) -> Vec<Violation> {
        for m in &self.markers {
            let msg = match &m.error {
                Some(err) => err.clone(),
                None if !m.consumed => format!(
                    "stale marker: allow({RULE}) suppresses nothing here — delete it \
                     (or move it onto the offending line)"
                ),
                None => continue,
            };
            let (path, line) = (self.rel.clone(), m.line + 1);
            self.out.push(Violation { path, line, rule: "allow-marker", msg });
        }
        self.out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        self.out
    }
}

/// Is `code[pos..pos+word.len()]` a standalone word (not an identifier
/// fragment)?
fn word_at(code: &str, pos: usize, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let end = pos + word.len();
    !code[..pos].chars().next_back().is_some_and(ident)
        && !code[end..].chars().next().is_some_and(ident)
}

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

/// Is the file at `rel` test code as a whole: an integration test, test
/// helper or fixture under some `tests/` directory?
fn is_test_file(rel: &str) -> bool {
    rel.split('/').any(|dir| dir == "tests")
}

/// The `unreached-pub` pass: report every in-scope `pub` declaration whose
/// name no non-test line mentions besides the declaration. Test lines are
/// files under a `tests/` directory and `#[cfg(test)]` items.
fn unreached_pub(files: &mut [FileLint]) {
    use std::collections::BTreeMap;
    // name → its mentions on non-test lines, workspace-wide.
    let mut mentions: BTreeMap<&str, usize> = BTreeMap::new();
    for file in files.iter().filter(|file| !is_test_file(&file.rel)) {
        for (idx, code) in without_reexports(&file.rel, &file.lines).into_iter().enumerate() {
            if !file.skip[idx] {
                for word in idents(code) {
                    *mentions.entry(word).or_insert(0) += 1;
                }
            }
        }
    }
    let mut findings = Vec::new();
    for (f, file) in files.iter().enumerate() {
        if !in_scope(&file.rel) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            let Some(name) = declared_pub_item(&line.code).filter(|_| !file.skip[idx]) else {
                continue;
            };
            // Only the declaration itself names it.
            if mentions[name] == idents(&line.code).filter(|w| *w == name).count() {
                findings.push((f, idx, name.to_string()));
            }
        }
    }
    for (f, idx, name) in findings {
        files[f].report(idx, &name);
    }
}

/// Lint a file set — `(rel, source)` pairs, `rel` workspace-root-relative
/// with `/` separators (scoping is driven entirely by it, which is also
/// what lets the fixture tests impersonate in-scope paths).
pub fn lint_files(files: &[(String, String)]) -> Vec<Violation> {
    let mut lints: Vec<FileLint> = files.iter().map(|(rel, src)| FileLint::new(rel, src)).collect();
    unreached_pub(&mut lints);
    lints.into_iter().flat_map(FileLint::finish).collect()
}

// ---------------------------------------------------------------------------
// Workspace walk

/// Directories never descended into.
const EXCLUDE_DIRS: &[&str] = &["vendor", "target", ".git"];

/// The benchmark package is not a workspace member and keeps its own
/// conventions: its files are read for mentions only (the API it calls
/// stays reached), never for markers.
const MENTIONS_ONLY: &str = "benchmark/";

/// Path fragments excluded from the walk: the fixture corpus *must*
/// violate the rule (that is its job), and is proven against it by the
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
