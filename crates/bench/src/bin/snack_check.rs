//! `snack-check` — the CI gates over one emitted report file.
//!
//! ```text
//! snack-check chaos|service|perf|perf-capture|trace <file>
//! ```
//!
//! Runs the gates of `snacknoc_bench::check` for the file's kind. Prints
//! a one-line summary and exits 0 when every gate holds; prints the first
//! failed gate (or why the file cannot be read) and exits 1 otherwise. A
//! bad command line exits 2 with usage.

use snacknoc_bench::check::{gate, GATES};

fn usage() -> String {
    let kinds: Vec<&str> = GATES.iter().map(|&(kind, _)| kind).collect();
    format!("usage: snack-check {} <file>", kinds.join("|"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [kind, path] = args.as_slice() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let Some(gate) = gate(kind) else {
        eprintln!("error: unknown report kind '{kind}'\n{}", usage());
        std::process::exit(2);
    };
    let result = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| gate(&text));
    match result {
        Ok(summary) => println!("snack-check {kind} {path}: ok, {summary}"),
        Err(e) => {
            eprintln!("error: snack-check {kind} {path}: {e}");
            std::process::exit(1);
        }
    }
}
