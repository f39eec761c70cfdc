//! The workspace-is-clean gate: any new `unreached-pub` violation anywhere
//! in the workspace fails `cargo test`, not just the CI `cargo run -p
//! simlint` step. This is also what makes every in-tree allow marker
//! load-bearing — markers that stop suppressing something are reported as
//! stale, so deleting any one annotation (or the violation it covers) flips
//! this test.
//!
//! The rest of the invariants contract is rustc's and clippy's, configured
//! in `clippy.toml`, in module lint headers and in the root manifest's
//! `[workspace.lints]`. The contract tests below read that configuration
//! back, so deleting any piece of it fails `cargo test` too.

use std::fs;
use std::path::PathBuf;

fn root() -> PathBuf {
    // crates/simlint/ → workspace root is two levels up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert!(root.join("Cargo.toml").exists(), "workspace root discovery broke: {}", root.display());
    root
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The workspace file at `rel`, with all whitespace removed so that the
/// checks below do not depend on how an attribute or a table is wrapped.
fn compact(rel: &str) -> String {
    read(rel).chars().filter(|c| !c.is_whitespace()).collect()
}

#[test]
fn workspace_is_lint_clean() {
    let (files, violations) =
        simlint::lint_workspace(&root()).expect("workspace walk must succeed");
    // Sanity: the walk actually saw the workspace (96+ files at the time
    // of writing; a collapse here means the exclude rules ate the tree).
    assert!(
        files >= 90,
        "only {files} files scanned — workspace walk is broken"
    );
    assert!(
        violations.is_empty(),
        "simlint violations ({}):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The cost-model funnel modules: where external parameters (slopes, rates,
/// cycle counts, figure time scales) become integer nanoseconds, so a bare
/// truncating cast corrupts virtual time itself. The id/index casts that
/// pepper the drivers are out of scope.
const COST_MODULES: &[&str] = &[
    "crates/simnet/src/time.rs",
    "crates/ipc/src/costs.rs",
    "crates/rdma/src/config.rs",
    "crates/core/src/config.rs",
    "crates/core/src/price.rs",
    "crates/tcpstack/src/stack.rs",
    "crates/core/src/driver/ingress_sweep.rs",
    "crates/core/src/driver/fairness.rs",
];

const COST_HEADER: &str = "#![cfg_attr(not(test),deny(clippy::cast_possible_truncation,\
                           clippy::cast_sign_loss,clippy::cast_possible_wrap))]";

/// Kernel steady-state modules, where a panic kills a shard mid-window.
const HOT_PATH_MODULES: &[&str] = &["crates/simnet/src/queue.rs", "crates/simnet/src/shard.rs"];

const HOT_PATH_HEADER: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
                               clippy::panic,clippy::unreachable,clippy::todo,\
                               clippy::unimplemented))]";

#[test]
fn cost_and_hot_path_modules_carry_their_lint_headers() {
    for (modules, header) in [(COST_MODULES, COST_HEADER), (HOT_PATH_MODULES, HOT_PATH_HEADER)] {
        for rel in modules {
            assert!(compact(rel).contains(header), "{rel} lacks {header}");
        }
    }
}

#[test]
fn clippy_toml_bans_unordered_maps_and_ambient_clocks_and_rngs() {
    let config = compact("clippy.toml");
    for key in ["disallowed-types=[", "disallowed-methods=["] {
        assert!(config.contains(key), "clippy.toml lacks {key}");
    }
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
        "std::time::SystemTime",
        "std::time::Instant::now",
    ] {
        assert!(config.contains(&format!("path=\"{path}\"")), "clippy.toml does not ban {path}");
    }
}

#[test]
fn every_member_opts_into_the_workspace_lints() {
    let manifest = compact("Cargo.toml");
    for lint in [
        "[workspace.lints.rust]unsafe_op_in_unsafe_fn=\"deny\"",
        "undocumented_unsafe_blocks=\"deny\"",
        "allow_attributes_without_reason=\"deny\"",
    ] {
        assert!(manifest.contains(lint), "Cargo.toml [workspace.lints] lacks {lint}");
    }
    let members = manifest
        .split_once("members=[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("Cargo.toml lists its members")
        .0;
    // The facade package at the root, and every member but the vendored
    // third-party subsets.
    let manifests: Vec<String> = std::iter::once("Cargo.toml".to_string())
        .chain(
            members
                .split(',')
                .map(|m| m.trim_matches('"'))
                .filter(|m| !m.is_empty() && !m.starts_with("vendor/"))
                .map(|m| format!("{m}/Cargo.toml")),
        )
        .collect();
    assert!(manifests.len() >= 11, "only {} manifests found", manifests.len());
    for rel in &manifests {
        assert!(
            compact(rel).contains("[lints]workspace=true"),
            "{rel} lacks `[lints] workspace = true`"
        );
    }
}

#[test]
fn every_library_crate_root_forbids_unsafe_code() {
    // The one `unsafe` left in the workspace is the counting allocator of
    // the alloc_smoke binary (crates/bench/src/bin/alloc_smoke.rs), which
    // bench's lib.rs attribute does not cover.
    let mut roots = vec!["src/lib.rs".to_string()];
    for entry in fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        let rel =
            format!("crates/{}/src/lib.rs", entry.expect("crates/ entry").file_name().display());
        if root().join(&rel).exists() {
            roots.push(rel);
        }
    }
    assert!(roots.len() >= 11, "only {} crate roots found", roots.len());
    for rel in &roots {
        assert!(
            read(rel).lines().any(|l| l == "#![forbid(unsafe_code)]"),
            "{rel} lacks #![forbid(unsafe_code)]"
        );
    }
}
