//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <id>... [--scale f] [--max-dims d] [--out dir]
//! experiments all [--scale f] [--max-dims d] [--out dir]
//! experiments list
//! ```
//!
//! Each experiment prints an aligned table plus shape notes comparing the
//! measurement against the paper's reported behaviour, and writes
//! `<id>.csv` into the output directory (default `results/`); a CSV that
//! cannot be written is a non-zero exit.
//!
//! Argument parsing is typed: every malformed invocation maps to a
//! [`CliError`] variant, printed with the usage string on a non-zero
//! exit — the binary never panics on bad input.

use icecube_bench::experiments::{all_ids, run_by_id};
use icecube_bench::Ctx;
use std::fmt;
use std::process::ExitCode;

const USAGE: &str = "usage: experiments <id>...|all|list [--scale f] [--max-dims d] [--out dir]";

/// Every way an invocation can be malformed.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// A flag that isn't in the grammar.
    UnknownFlag(String),
    /// A flag that takes a value appeared last.
    MissingValue(&'static str),
    /// A flag value that doesn't parse or is out of range.
    InvalidValue {
        /// The flag.
        flag: &'static str,
        /// What was given.
        given: String,
        /// What would have been accepted.
        want: &'static str,
    },
    /// An experiment id `list` doesn't print.
    UnknownExperiment(String),
    /// No experiment ids at all.
    NoExperiments,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::InvalidValue { flag, given, want } => {
                write!(f, "{flag} got {given:?}; expected {want}")
            }
            CliError::UnknownExperiment(id) => {
                write!(f, "unknown experiment id: {id} (try `experiments list`)")
            }
            CliError::NoExperiments => write!(f, "no experiment ids given"),
        }
    }
}

/// A parsed invocation: which experiments to run, with what context.
#[derive(Debug)]
struct Cli {
    ids: Vec<String>,
    ctx: Ctx,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let mut ids: Vec<String> = Vec::new();
    let mut ctx = Ctx::default();
    let mut list = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let given = args.get(i).ok_or(CliError::MissingValue("--scale"))?;
                let v = given.parse::<f64>().ok().filter(|v| *v > 0.0 && *v <= 1.0);
                ctx.scale = v.ok_or_else(|| CliError::InvalidValue {
                    flag: "--scale",
                    given: given.clone(),
                    want: "a number in (0, 1]",
                })?;
            }
            "--max-dims" => {
                i += 1;
                let given = args.get(i).ok_or(CliError::MissingValue("--max-dims"))?;
                let v = given.parse::<usize>().ok().filter(|v| (5..=13).contains(v));
                ctx.max_dims = v.ok_or_else(|| CliError::InvalidValue {
                    flag: "--max-dims",
                    given: given.clone(),
                    want: "an integer in 5..=13",
                })?;
            }
            "--out" => {
                i += 1;
                let given = args.get(i).ok_or(CliError::MissingValue("--out"))?;
                ctx.out_dir = given.into();
            }
            "list" => list = true,
            "all" => ids.extend(all_ids().into_iter().map(String::from)),
            other if other.starts_with('-') => {
                return Err(CliError::UnknownFlag(other.to_string()));
            }
            other => {
                if !all_ids().contains(&other) {
                    return Err(CliError::UnknownExperiment(other.to_string()));
                }
                ids.push(other.to_string());
            }
        }
        i += 1;
    }
    if ids.is_empty() && !list {
        return Err(CliError::NoExperiments);
    }
    Ok(Cli { ids, ctx, list })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("experiments: {e}");
            eprintln!("{USAGE}");
            eprintln!("ids: {}", all_ids().join(" "));
            return ExitCode::FAILURE;
        }
    };
    if cli.list {
        for id in all_ids() {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if (cli.ctx.scale - 1.0).abs() > 1e-9 {
        println!(
            "(running at scale {} of the paper's dataset sizes)\n",
            cli.ctx.scale
        );
    }
    for id in cli.ids {
        let started = std::time::Instant::now();
        let Some(report) = run_by_id(&id, &cli.ctx) else {
            // Unreachable after parse-time validation, but stay graceful.
            eprintln!("unknown experiment id: {id}");
            return ExitCode::FAILURE;
        };
        println!("{}", report.render());
        match report.save_csv(&cli.ctx.out_dir) {
            Ok(path) => println!(
                "  (csv: {}; took {:.1?})\n",
                path.display(),
                started.elapsed()
            ),
            Err(e) => {
                eprintln!("experiments: {id}: csv write failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn valid_invocations_parse() {
        let cli = parse_args(&argv("fig4_4 --scale 0.5 --max-dims 9 --out figs")).unwrap();
        assert_eq!(cli.ids, ["fig4_4"]);
        assert_eq!(cli.ctx.scale, 0.5);
        assert_eq!(cli.ctx.max_dims, 9);
        assert_eq!(cli.ctx.out_dir, std::path::PathBuf::from("figs"));
        let cli = parse_args(&argv("all")).unwrap();
        assert_eq!(cli.ids, all_ids());
        let cli = parse_args(&argv("list")).unwrap();
        assert!(cli.list);
    }

    #[test]
    fn malformed_invocations_are_typed_errors() {
        assert_eq!(parse_args(&argv("")).unwrap_err(), CliError::NoExperiments);
        assert_eq!(
            parse_args(&argv("--frobnicate")).unwrap_err(),
            CliError::UnknownFlag("--frobnicate".to_string())
        );
        assert_eq!(
            parse_args(&argv("fig4_2 --scale")).unwrap_err(),
            CliError::MissingValue("--scale")
        );
        assert_eq!(
            parse_args(&argv("fig4_2 --scale 2.0")).unwrap_err(),
            CliError::InvalidValue {
                flag: "--scale",
                given: "2.0".to_string(),
                want: "a number in (0, 1]",
            }
        );
        for dims in ["4", "40"] {
            assert_eq!(
                parse_args(&argv(&format!("fig4_4 --max-dims {dims}"))).unwrap_err(),
                CliError::InvalidValue {
                    flag: "--max-dims",
                    given: dims.to_string(),
                    want: "an integer in 5..=13",
                }
            );
        }
        assert_eq!(
            parse_args(&argv("fig9_99")).unwrap_err(),
            CliError::UnknownExperiment("fig9_99".to_string())
        );
        // Errors render without panicking.
        for e in [
            CliError::UnknownFlag("--x".into()),
            CliError::MissingValue("--out"),
            CliError::NoExperiments,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
