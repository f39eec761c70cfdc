//! Fixture proofs for `unreached-pub`: the cross-file rule fires on a
//! two-file fixture directory and honors a reasoned
//! `// simlint: allow(unreached-pub)` marker — plus the marker-hygiene
//! semantics (mandatory reason, unknown rules rejected, stale markers
//! reported) and the lexer/scope properties the pass relies on. The
//! fixture files live under `tests/fixtures/` (excluded from the workspace
//! walk — violating is their job) and are linted here under impersonated
//! in-scope paths, which is exactly how the engine scopes the rule: by
//! relative path alone.

use simlint::{lint_files, Violation};

/// Lint a file set, returning `(path, rule, line)` triples.
fn fire_files(files: &[(&str, &str)]) -> Vec<(String, &'static str, usize)> {
    lint(files).into_iter().map(|v| (v.path, v.rule, v.line)).collect()
}

fn lint(files: &[(&str, &str)]) -> Vec<Violation> {
    let files: Vec<(String, String)> =
        files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
    lint_files(&files)
}

/// Lint `src` alone as though it lived at `crates/core/src/fixture.rs`,
/// returning `(rule, line)` pairs.
fn fire(src: &str) -> Vec<(&'static str, usize)> {
    lint(&[(FIXTURE, src)]).into_iter().map(|v| (v.rule, v.line)).collect()
}

const FIXTURE: &str = "crates/core/src/fixture.rs";

// --- unreached-pub (cross-file) ---------------------------------------------

const ISLAND: &str = include_str!("fixtures/unreached/island.rs");
const CALLER: &str = include_str!("fixtures/unreached/caller.rs");

#[test]
fn unreached_pub_fires_on_items_only_their_own_tests_name() {
    let island = "crates/core/src/island.rs";
    let got = fire_files(&[(island, ISLAND), ("examples/caller.rs", CALLER)]);
    // `only_tested` (named by the unit test alone) and `DEAD` (named by
    // nothing) fire. `Island` is named by its own `impl`, `reached` by the
    // other file; the marker covers `reference`; `probe` is test-gated and
    // `internal` is not `pub`.
    assert_eq!(
        got,
        vec![(island.to_string(), "unreached-pub", 9), (island.to_string(), "unreached-pub", 28)]
    );
}

#[test]
fn unreached_pub_does_not_count_a_mention_in_test_code() {
    // The same caller as an integration test, or inside another file's
    // `#[cfg(test)]` module, reaches nothing: `reached` fires too.
    let island = "crates/core/src/island.rs";
    let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{CALLER}}}\n");
    for (rel, caller) in [("tests/caller.rs", CALLER), ("crates/core/src/other.rs", &in_test_mod)] {
        let got = fire_files(&[(island, ISLAND), (rel, caller)]);
        let lines: Vec<usize> = got.iter().map(|(_, _, line)| *line).collect();
        assert_eq!(lines, vec![5, 9, 28], "caller at {rel}: {got:?}");
    }
}

#[test]
fn unreached_pub_needs_the_other_file_and_ignores_reexports() {
    // Without the caller `reached` is an island too — and a `lib.rs`
    // re-export of it is not a use.
    let lib =
        "pub mod island;\npub use island::{\n    Island, DEAD,\n};\npub use island::reached;\n";
    let got = fire_files(&[("crates/core/src/island.rs", ISLAND), ("crates/core/src/lib.rs", lib)]);
    let lines: Vec<usize> = got.iter().map(|(_, _, line)| *line).collect();
    assert_eq!(lines, vec![5, 9, 28], "{got:?}");
}

#[test]
fn unreached_pub_is_scoped_to_library_crates() {
    // Binaries, the linter itself and integration tests declare nothing
    // this rule tracks; the marker in the fixture then suppresses nothing
    // and is reported stale.
    for rel in [
        "crates/bench/src/bin/island.rs",
        "crates/simlint/src/island.rs",
        "tests/island.rs",
    ] {
        let got = fire_files(&[(rel, ISLAND)]);
        assert_eq!(got, vec![(rel.to_string(), "allow-marker", 13)], "at {rel}");
    }
    // Every other library `src/` file is in scope, the mmap export module
    // included: with no caller, all three unmarked items fire.
    let rel = "crates/membuf/src/mmap.rs";
    let lines: Vec<usize> = fire_files(&[(rel, ISLAND)])
        .iter()
        .map(|(_, _, line)| *line)
        .collect();
    assert_eq!(lines, vec![5, 9, 28], "at {rel}");
}

#[test]
fn unreached_pub_marker_goes_stale_once_the_item_is_reached() {
    let caller = "pub fn compare(island: &Island) -> u32 {\n    island.reference()\n}\n";
    let island = "crates/core/src/island.rs";
    let got = fire_files(&[
        (island, ISLAND),
        ("examples/caller.rs", CALLER),
        ("examples/compare.rs", caller),
    ]);
    assert!(got.contains(&(island.to_string(), "allow-marker", 13)), "{got:?}");
}

// --- marker hygiene ---------------------------------------------------------

#[test]
fn marker_requires_a_reason() {
    let got = lint(&[(FIXTURE, "// simlint: allow(unreached-pub)\npub fn island() {}\n")]);
    assert_eq!(got.len(), 2, "{got:?}");
    assert_eq!(got[0].rule, "allow-marker");
    assert!(got[0].msg.contains("needs a reason"), "{}", got[0].msg);
    // And the violation it failed to suppress still stands.
    assert_eq!(got[1].rule, "unreached-pub");
}

#[test]
fn marker_rejects_unknown_rules() {
    // The rules that moved to clippy are unknown here now.
    let got = lint(&[(FIXTURE, "// simlint: allow(no-ambient-time) — because\nfn f() {}\n")]);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].rule, "allow-marker");
    assert!(got[0].msg.contains("unknown rule"), "{}", got[0].msg);
}

#[test]
fn stale_markers_are_reported() {
    // The marker names the rule with a real reason, but the next code line
    // declares nothing it fires on: the annotation layer must not rot.
    let src = "// simlint: allow(unreached-pub) — left behind after a refactor\nfn f() {}\n";
    let got = lint(&[(FIXTURE, src)]);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].rule, "allow-marker");
    assert!(got[0].msg.contains("stale"), "{}", got[0].msg);
}

#[test]
fn marker_must_be_the_whole_comment() {
    // Prose *quoting* the syntax (docs, this repo's README examples) is
    // inert — only a comment that IS a marker parses as one.
    let got =
        fire("//! write `// simlint: allow(unreached-pub) — why` to exempt an item\nfn f() {}\n");
    assert_eq!(got, vec![]);
}

#[test]
fn accepted_separators_for_the_reason() {
    for sep in ["—", "-", ":", "--"] {
        let src = format!(
            "// simlint: allow(unreached-pub) {sep} reference implementation\npub fn island() {{}}\n"
        );
        assert_eq!(fire(&src), vec![], "separator {sep:?}");
    }
}

// --- lexer properties -------------------------------------------------------

#[test]
fn string_continuations_do_not_shift_line_numbers() {
    // A backslash-newline inside a string literal once swallowed the
    // newline and shifted every subsequent violation's line by one.
    let got = fire("const S: &str = \"a \\\n b\";\npub fn island() {}\n");
    assert_eq!(got, vec![("unreached-pub", 3)]);
}

#[test]
fn raw_strings_and_char_literals_are_inert() {
    // Neither declarations nor mentions inside literals count: `island`
    // stays unreached, and `hidden` is never declared.
    let other = r##"let a = r#"pub fn hidden() island"#;
let b = 'x';
let c = '\n';
let d: &'static str = "island";
"##;
    let got = fire_files(&[(FIXTURE, "pub fn island() {}\n"), ("crates/core/src/other.rs", other)]);
    assert_eq!(got, vec![(FIXTURE.to_string(), "unreached-pub", 1)]);
}

#[test]
fn block_comments_are_inert_but_unsafe_code_is_not() {
    let got = fire("/* pub fn in_prose() {} */\npub unsafe fn island() {}\n");
    assert_eq!(got, vec![("unreached-pub", 2)]);
}
