//! `cargo run -p simlint` — lint the workspace for `unreached-pub` (the
//! rest of the invariants contract is clippy's). Exit 0 when clean, 1 with one line per violation
//! otherwise. `--root <dir>` overrides workspace-root discovery (the
//! nearest ancestor whose `Cargo.toml` has a `[workspace]` table).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                eprintln!("usage: simlint [--root <workspace-dir>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simlint: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| simlint::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("simlint: no workspace root found (pass --root)");
            return ExitCode::FAILURE;
        }
    };

    match simlint::lint_workspace(&root) {
        Ok((files, violations)) if violations.is_empty() => {
            println!("simlint: {files} files clean");
            ExitCode::SUCCESS
        }
        Ok((files, violations)) => {
            for v in &violations {
                println!("{v}");
            }
            println!(
                "simlint: {} violation(s) in {files} files — fix, or annotate with \
                 `// simlint: allow(unreached-pub) — <reason>`",
                violations.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("simlint: io error: {e}");
            ExitCode::FAILURE
        }
    }
}
