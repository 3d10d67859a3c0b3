//! Markdown rendering of one run: a row per workload × metric, then a row
//! per kernel for the per-kernel metrics.

use crate::{Args, Report};
use std::fmt::Write as _;
use std::path::Path;

/// Write `rows` (name, value, unit) of one run to `path` as markdown.
pub fn write_markdown(
    path: &Path,
    args: &Args,
    report: &Report,
    rows: &[(String, f64, &str)],
) -> std::io::Result<()> {
    let mut md = String::new();
    let kind = if args.trace {
        "per-layer (traced)"
    } else {
        "end-to-end (untraced)"
    };
    let _ = writeln!(
        md,
        "# perfbench `{}`, {kind}\n\nseed {}, {} s measured, {} operations, {} failed\n",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        report.attempted,
        report.failures.len()
    );
    let _ = writeln!(
        md,
        "| workload | metric | value | unit |\n|---|---|---:|---|"
    );
    for (name, value, unit) in rows.iter().filter(|(n, _, _)| !n.starts_with("kernel.")) {
        let _ = writeln!(md, "| {} | {name} | {value:.6} | {unit} |", args.workload);
    }
    let kernel_rows: Vec<_> = rows
        .iter()
        .filter(|(n, _, _)| n.starts_with("kernel."))
        .collect();
    if !kernel_rows.is_empty() {
        let _ = writeln!(
            md,
            "\n| kernel | search_s | ns_per_proposal |\n|---|---:|---:|"
        );
        for kernel in crate::SEARCH_KERNELS {
            let get = |metric: &str| {
                kernel_rows
                    .iter()
                    .find(|(n, _, _)| *n == format!("kernel.{kernel}.{metric}"))
                    .map_or(0.0, |(_, v, _)| *v)
            };
            let _ = writeln!(
                md,
                "| {kernel} | {:.4} | {:.0} |",
                get("search_s"),
                get("ns_per_proposal")
            );
        }
    }
    if !report.failures.is_empty() {
        let _ = writeln!(md, "\n## Failures\n");
        for failure in &report.failures {
            let _ = writeln!(md, "- {failure}");
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, md)
}
