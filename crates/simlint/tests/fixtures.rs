//! Per-rule fixture proofs: every rule (1) fires on a violating fixture
//! and (2) honors a reasoned `// simlint: allow(<rule>)` marker (the
//! cross-file `unreached-pub` on a two-file fixture directory) — plus the
//! marker-hygiene semantics (mandatory reason, unknown rules rejected,
//! stale markers reported) and the lexer/scope properties the pass relies
//! on. The fixture files live under `tests/fixtures/` (excluded from the
//! workspace walk — violating is their job) and are linted here under
//! impersonated in-scope paths, which is exactly how the engine scopes
//! rules: by relative path alone.

use simlint::{lint_files, lint_source, Violation};

/// Lint `src` as though it lived at `rel`, returning `(rule, line)` pairs.
fn fire(rel: &str, src: &str) -> Vec<(&'static str, usize)> {
    lint_source(rel, src)
        .into_iter()
        .map(|v: Violation| (v.rule, v.line))
        .collect()
}

// --- rule 1: no-unordered-iteration ---------------------------------------

#[test]
fn unordered_iteration_fires_in_deterministic_crates() {
    let got = fire(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/unordered_fire.rs"),
    );
    // The pass is lexical: the `use` and the field type fire (that is
    // where the type is named); the iteration site on line 11 mentions no
    // banned token and is reached through the flagged field anyway.
    assert_eq!(
        got,
        vec![
            ("no-unordered-iteration", 2),
            ("no-unordered-iteration", 5),
        ]
    );
}

#[test]
fn unordered_iteration_honors_marker_strings_and_test_mods() {
    let got = fire(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/unordered_allow.rs"),
    );
    assert_eq!(got, vec![], "markers, string literals and cfg(test) must all be inert");
}

#[test]
fn unordered_iteration_is_scoped_to_sim_crates() {
    // The same violating source is clean outside the deterministic set.
    let got = fire(
        "crates/workloads/src/fixture.rs",
        include_str!("fixtures/unordered_fire.rs"),
    );
    assert_eq!(got, vec![]);
}

// --- rule 2: no-ambient-time ----------------------------------------------

#[test]
fn ambient_time_fires() {
    let got = fire(
        "crates/simnet/src/fixture.rs",
        include_str!("fixtures/time_fire.rs"),
    );
    assert_eq!(got, vec![("no-ambient-time", 5)]);
}

#[test]
fn ambient_time_honors_marker() {
    let got = fire(
        "crates/simnet/src/fixture.rs",
        include_str!("fixtures/time_allow.rs"),
    );
    assert_eq!(got, vec![]);
}

#[test]
fn ambient_time_exempts_bench() {
    let got = fire(
        "crates/bench/src/bin/fixture.rs",
        include_str!("fixtures/time_fire.rs"),
    );
    assert_eq!(got, vec![], "the bench crate's whole job is wall-clock time");
}

// --- rule 3: no-ambient-rng -----------------------------------------------

#[test]
fn ambient_rng_fires_everywhere() {
    for rel in [
        "crates/core/src/fixture.rs",
        "crates/bench/src/fixture.rs",
        "tests/fixture.rs",
        "examples/fixture.rs",
    ] {
        let got = fire(rel, include_str!("fixtures/rng_fire.rs"));
        assert_eq!(got, vec![("no-ambient-rng", 3)], "at {rel}");
    }
}

#[test]
fn ambient_rng_honors_marker() {
    let got = fire(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/rng_allow.rs"),
    );
    assert_eq!(got, vec![]);
}

// --- rule 4: saturating-cost-casts ----------------------------------------

#[test]
fn cost_cast_fires_in_cost_modules() {
    let got = fire(
        "crates/simnet/src/time.rs",
        include_str!("fixtures/cast_fire.rs"),
    );
    assert_eq!(got, vec![("saturating-cost-casts", 3)]);
}

#[test]
fn cost_cast_honors_marker_and_ignores_widening() {
    let got = fire(
        "crates/simnet/src/time.rs",
        include_str!("fixtures/cast_allow.rs"),
    );
    assert_eq!(got, vec![], "guarded+marked, u128 and f64 targets must all pass");
}

#[test]
fn cost_cast_is_scoped_to_the_funnel() {
    // Drivers full of id↔index casts are deliberately out of scope.
    let got = fire(
        "crates/core/src/driver/cluster_sharded.rs",
        include_str!("fixtures/cast_fire.rs"),
    );
    assert_eq!(got, vec![]);
}

// --- rule 5: safety-comments ----------------------------------------------

#[test]
fn safety_comment_fires_and_does_not_leak_across_code() {
    let got = fire(
        "crates/simnet/src/fixture.rs",
        include_str!("fixtures/safety_fire.rs"),
    );
    // The SAFETY comment covers the `unsafe fn` on line 4 (directly
    // below it) only. The unsafe *block* on line 5 sits behind a line of
    // code and needs its own justification, as does line 9 — exactly the
    // per-site discipline shard.rs follows.
    assert_eq!(
        got,
        vec![("safety-comments", 5), ("safety-comments", 9)]
    );
}

#[test]
fn safety_comment_accepts_adjacent_comment_inline_or_marker() {
    let got = fire(
        "crates/simnet/src/fixture.rs",
        include_str!("fixtures/safety_allow.rs"),
    );
    assert_eq!(got, vec![]);
}

// --- rule 6: no-panic-hot-path --------------------------------------------

#[test]
fn panic_hot_path_fires_in_kernel_modules() {
    let got = fire(
        "crates/simnet/src/queue.rs",
        include_str!("fixtures/panic_fire.rs"),
    );
    assert_eq!(
        got,
        vec![
            ("no-panic-hot-path", 3),
            ("no-panic-hot-path", 7),
            ("no-panic-hot-path", 13)
        ]
    );
}

#[test]
fn panic_hot_path_honors_marker_and_test_mods() {
    let got = fire(
        "crates/simnet/src/queue.rs",
        include_str!("fixtures/panic_allow.rs"),
    );
    assert_eq!(got, vec![]);
}

#[test]
fn panic_hot_path_is_scoped() {
    let got = fire(
        "crates/core/src/dne.rs",
        include_str!("fixtures/panic_fire.rs"),
    );
    assert_eq!(got, vec![], "unwrap outside the kernel modules is clippy's problem");
}

// --- rule 7: unreached-pub (cross-file) -------------------------------------

const ISLAND: &str = include_str!("fixtures/unreached/island.rs");
const CALLER: &str = include_str!("fixtures/unreached/caller.rs");

/// Lint a file set, returning `(path, rule, line)` triples.
fn fire_files(files: &[(&str, &str)]) -> Vec<(String, &'static str, usize)> {
    let files: Vec<(String, String)> =
        files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
    lint_files(&files).into_iter().map(|v| (v.path, v.rule, v.line)).collect()
}

#[test]
fn unreached_pub_fires_on_items_only_their_own_tests_name() {
    let island = "crates/core/src/island.rs";
    let got = fire_files(&[(island, ISLAND), ("tests/caller.rs", CALLER)]);
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
fn unreached_pub_needs_the_other_file_and_ignores_reexports() {
    // Without the caller `reached` is an island too — and a `lib.rs`
    // re-export of it is not a use.
    let lib = "pub mod island;\npub use island::{\n    Island, DEAD,\n};\npub use island::reached;\n";
    let got = fire_files(&[("crates/core/src/island.rs", ISLAND), ("crates/core/src/lib.rs", lib)]);
    let lines: Vec<usize> = got.iter().map(|(_, _, line)| *line).collect();
    assert_eq!(lines, vec![5, 9, 28], "{got:?}");
}

#[test]
fn unreached_pub_is_scoped_to_library_crates() {
    // Binaries, the linter itself, integration tests and the ROADMAP-3d
    // islands declare nothing this rule tracks; the marker in the fixture
    // then suppresses nothing and is reported stale.
    for rel in [
        "crates/bench/src/bin/island.rs",
        "crates/simlint/src/island.rs",
        "crates/membuf/src/tenant.rs",
        "tests/island.rs",
    ] {
        let got = fire_files(&[(rel, ISLAND)]);
        assert_eq!(got, vec![(rel.to_string(), "allow-marker", 13)], "at {rel}");
    }
}

#[test]
fn unreached_pub_marker_goes_stale_once_the_item_is_reached() {
    let caller = "pub fn compare(island: &Island) -> u32 {\n    island.reference()\n}\n";
    let island = "crates/core/src/island.rs";
    let got = fire_files(&[(island, ISLAND), ("tests/caller.rs", CALLER), ("tests/compare.rs", caller)]);
    assert!(got.contains(&(island.to_string(), "allow-marker", 13)), "{got:?}");
}

// --- marker hygiene ---------------------------------------------------------

#[test]
fn marker_requires_a_reason() {
    let src = "// simlint: allow(no-ambient-time)\nlet t = Instant::now();\n";
    let got = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(got.len(), 2, "{got:?}");
    assert_eq!(got[0].rule, "allow-marker");
    assert!(got[0].msg.contains("needs a reason"), "{}", got[0].msg);
    // And the violation it failed to suppress still stands.
    assert_eq!(got[1].rule, "no-ambient-time");
}

#[test]
fn marker_rejects_unknown_rules() {
    let src = "// simlint: allow(no-such-rule) — because\nfn f() {}\n";
    let got = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].rule, "allow-marker");
    assert!(got[0].msg.contains("unknown rule"), "{}", got[0].msg);
}

#[test]
fn stale_markers_are_reported() {
    // The marker names a real rule with a real reason, but nothing on the
    // next code line fires it: the annotation layer must not rot.
    let src = "// simlint: allow(no-ambient-time) — left behind after a refactor\nfn f() {}\n";
    let got = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].rule, "allow-marker");
    assert!(got[0].msg.contains("stale"), "{}", got[0].msg);
}

#[test]
fn marker_must_be_the_whole_comment() {
    // Prose *quoting* the syntax (docs, this repo's README examples) is
    // inert — only a comment that IS a marker parses as one.
    let src = "//! write `// simlint: allow(no-ambient-time) — why` to exempt a line\nfn f() {}\n";
    let got = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(got, vec![]);
}

#[test]
fn accepted_separators_for_the_reason() {
    for sep in ["—", "-", ":", "--"] {
        let src = format!(
            "// simlint: allow(no-ambient-time) {sep} busy accounting only\nlet t = Instant::now();\n"
        );
        let got = lint_source("crates/core/src/fixture.rs", &src);
        assert_eq!(got, vec![], "separator {sep:?}");
    }
}

// --- lexer properties -------------------------------------------------------

#[test]
fn string_continuations_do_not_shift_line_numbers() {
    // A backslash-newline inside a string literal once swallowed the
    // newline and shifted every subsequent violation's line by one.
    let src = "let s = \"a \\\n b\";\nlet t = Instant::now();\n";
    let got = fire("crates/core/src/fixture.rs", src);
    assert_eq!(got, vec![("no-ambient-time", 3)]);
}

#[test]
fn raw_strings_and_char_literals_are_inert() {
    let src = r##"let a = r#"HashMap thread_rng unsafe"#;
let b = 'x';
let c = '\n';
let d: &'static str = "SystemTime";
"##;
    let got = fire("crates/core/src/fixture.rs", src);
    assert_eq!(got, vec![]);
}

#[test]
fn block_comments_are_inert_but_unsafe_code_is_not() {
    let src = "/* HashMap in prose */\nfn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let got = fire("crates/core/src/fixture.rs", src);
    assert_eq!(got, vec![("safety-comments", 3)]);
}
