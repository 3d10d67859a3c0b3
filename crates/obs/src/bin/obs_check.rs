//! `obs-check`: validate a JSONL trace file against the stoke-obs schema.
//!
//! Usage: `obs-check <trace.jsonl>`
//!
//! Exits 0 and prints summary counts when the file is a well-formed trace
//! (every line parses, the first record is a supported `meta` header,
//! timestamps never go backwards, and every span that starts also ends);
//! exits 1 with a diagnostic otherwise.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let path = match (args.next(), args.next()) {
        (Some(path), None) => path,
        _ => {
            eprintln!("usage: obs-check <trace.jsonl>");
            return ExitCode::FAILURE;
        }
    };
    let contents = match std::fs::read_to_string(&path) {
        Ok(contents) => contents,
        Err(err) => {
            eprintln!("obs-check: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    match stoke_obs::validate_trace(contents.lines()) {
        Ok(summary) => {
            println!(
                "{path}: OK — {} records ({} span starts, {} span ends, {} events)",
                summary.records, summary.spans_started, summary.spans_ended, summary.events
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("obs-check: {path}: {err}");
            ExitCode::FAILURE
        }
    }
}
