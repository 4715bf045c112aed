//! `all`: every workload in a child process of its own (so `peak_rss_mb`
//! is that workload's), untraced runs first, then one traced run, gathered
//! into one result file with the host and the sizes used written beside
//! the numbers.

use crate::json::{self, obj, Json};
use crate::spec;
use crate::stats::{median, spread};
use crate::workload::WORKLOADS;
use crate::Options;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs this executable's `run` subcommand and parses the JSON file it
/// writes (the last line of its output, plus sizes and sample counts).
fn child_run(
    workload: &str,
    seed: u64,
    traced: bool,
    passthrough: &[String],
    out: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mode = u8::from(traced);
    eprintln!("== {workload} --seed {seed} --trace {mode}");
    let status = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", &mode.to_string()])
        .arg("--out")
        .arg(out)
        .args(passthrough)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    let file = out.join(format!("{workload}.trace{mode}.json"));
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let result = json::parse(&text)?;
    if !status.success() {
        eprintln!("   {workload}: run failed ({status})");
    }
    Ok(result)
}

pub fn all_command(opts: &Options) -> Result<ExitCode, String> {
    let seed: u64 = opts.number("--seed", spec::DEFAULT_SEED)?;
    let runs: u64 = opts.number("--runs", 1)?.max(1);
    let out = PathBuf::from(opts.value("--out").unwrap_or("benchmark/results"));
    let mut passthrough = Vec::new();
    if let Some(s) = opts.value("--seconds") {
        passthrough.extend(["--seconds".to_string(), s.to_string()]);
    }
    if opts.flag("--smoke") {
        passthrough.push("--smoke".to_string());
    }
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    let bounds: BTreeMap<String, f64> = spec::end_to_end()
        .into_iter()
        .filter_map(|m| m.bound.map(|b| (m.name, b)))
        .collect();
    let mut workloads = BTreeMap::new();
    let mut failed_total = 0.0;
    for w in WORKLOADS {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut detail = Json::Null;
        let mut tally = |r: &Json| {
            attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            // A run that printed no count did not finish: one failure.
            failed += r.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
        };
        for k in 0..runs {
            let r = child_run(w.name, seed + k, false, &passthrough, &out)?;
            tally(&r);
            for (name, m) in r
                .get("metrics")
                .and_then(Json::as_obj)
                .into_iter()
                .flatten()
            {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let slot = values
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_string(), Vec::new()));
                slot.1.extend(m.get("value").and_then(Json::as_f64));
            }
            detail = r.get("detail").cloned().unwrap_or(Json::Null);
        }
        let traced = child_run(w.name, seed, true, &passthrough, &out)?;
        tally(&traced);

        println!("\n## {}", w.name);
        println!(
            "{:<44} {:>16} {:<6} {:>8} {:>6}",
            "end to end", "median", "unit", "spread", "bound"
        );
        let mut end_to_end = BTreeMap::new();
        for m in spec::end_to_end() {
            let Some((unit, v)) = values.get(&m.name).filter(|(_, v)| !v.is_empty()) else {
                continue;
            };
            let (med, spr) = (median(v), spread(v));
            let bound = bounds[&m.name];
            let note = if runs > 1 && spr > bound / 3.0 {
                "  spread above a third of the bound"
            } else {
                ""
            };
            println!(
                "{:<44} {med:>16.6} {unit:<6} {:>7.1}% {:>5.0}%{note}",
                m.name,
                spr * 100.0,
                bound * 100.0
            );
            end_to_end.insert(
                m.name,
                obj([
                    ("unit", Json::Str(unit.clone())),
                    (
                        "values",
                        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                    ("median", Json::Num(med)),
                    ("spread", Json::Num(spr)),
                ]),
            );
        }
        println!("{:<44} {:>16} unit", "per layer (traced run)", "value");
        let per_layer = traced.get("metrics").cloned().unwrap_or(Json::Null);
        for m in spec::per_layer() {
            if let Some(v) = per_layer
                .get(&m.name)
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64)
            {
                println!("{:<44} {v:>16.6} {}", m.name, m.unit);
            }
        }
        println!("ops_attempted {attempted}  ops_failed {failed}");
        failed_total += failed;
        workloads.insert(
            w.name.to_string(),
            obj([
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", per_layer),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("detail", detail),
            ]),
        );
    }

    let header = obj([
        (
            "host_cores",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Num(runs as f64)),
        ("options", Json::Str(passthrough.join(" "))),
    ]);
    let result = obj([("header", header), ("workloads", Json::Obj(workloads))]);
    let file = out.join("result.json");
    std::fs::write(&file, result.to_line() + "\n")
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("\nwrote {}", file.display());
    Ok(if failed_total == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
