//! CLI for the workspace tidy pass.
//!
//! ```text
//! cargo run -p tidy                 # lint the workspace, exit 1 on findings
//! cargo run -p tidy -- --root DIR   # lint a different tree (fixtures, subsets)
//! ```
//!
//! The report is one `path:line: [rule] message` line per finding, each
//! followed by its suggested rewrite, then a count; a clean tree prints
//! `tidy: clean`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("tidy: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: tidy [--root DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("tidy: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    // Default to the workspace root this binary was built from.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });

    let findings = match tidy::run_tidy(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tidy: error walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if findings.is_empty() {
        println!("tidy: clean ({} ok)", root.display());
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        if f.line > 0 {
            println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        } else {
            println!("{}: [{}] {}", f.path, f.rule, f.message);
        }
        println!("    -> {}", f.suggestion);
    }
    println!("tidy: {} finding(s)", findings.len());
    ExitCode::FAILURE
}
