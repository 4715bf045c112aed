//! The repository's wall-clock benchmark. See `benchmark/README.md`.
//!
//! ```text
//! icecube-benchmark run --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--smoke]
//! icecube-benchmark all [--seed N] [--seconds S] [--runs K] [--out DIR] [--smoke]
//! icecube-benchmark compare A/result.json B/result.json
//! icecube-benchmark spec
//! ```

use icecube_benchmark::{alloc, compare, json, run, span, spec, suite, workload, Options};
use run::{result_json, RunArgs};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: icecube-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n\
         \x20      icecube-benchmark all [--seed N] [--seconds S] [--runs K] [--out DIR] [--smoke]\n\
         \x20      icecube-benchmark compare A/result.json B/result.json\n\
         \x20      icecube-benchmark spec\n\
         workloads: {}",
        workload::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn run_command(opts: &Options) -> Result<ExitCode, String> {
    let name = opts.value("--workload").ok_or("--workload is required")?;
    let mut workload =
        Workload::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    if opts.flag("--smoke") {
        workload = workload.smoke();
    }
    let traced = match opts.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
    };
    let seconds: f64 = opts.number("--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let args = RunArgs {
        workload,
        seed: opts.number("--seed", spec::DEFAULT_SEED)?,
        seconds,
        traced,
        corrupt_oracle: opts.flag("--corrupt-oracle"),
        out: opts.value("--out").map(PathBuf::from),
    };
    let result = run::run(&args);
    let json = result_json(&args, &result);
    let units = spec::units();
    for (name, value) in &result.metrics {
        println!("{name:<44} {value:>16.6} {}", units[name]);
    }
    if args.traced {
        println!("\n{}", run::layer_table_text(&span::snapshot()));
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        result.tally.attempted, result.tally.failed
    );
    // The last line is the result: correct, attempted, failed, metrics.
    let last = json::obj(["correct", "attempted", "failed", "metrics"].map(|key| {
        (
            key,
            json.get(key).cloned().expect("result_json has every key"),
        )
    }));
    println!("{}", last.to_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        return usage();
    };
    let opts = Options(argv.collect());
    let outcome = match command.as_str() {
        "run" => run_command(&opts),
        "all" => suite::all_command(&opts),
        "compare" => compare::compare_command(&opts.0),
        "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => return usage(),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
