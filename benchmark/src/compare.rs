//! `compare A B`: holds every (end-to-end metric, workload) pair of B to
//! A within the metric's bound, and every count to exact equality.

use crate::json::{self, Json};
use crate::spec;
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `ok`, `improved` or `regressed` by the bound — or `unresolved` when the
/// runs of either side spread wider than the bound, so that neither
/// "unchanged" nor "changed" can be read off the medians.
pub fn verdict(
    base: f64,
    new: f64,
    higher_is_better: bool,
    bound: f64,
    spread: f64,
) -> &'static str {
    let change = (new - base) / base.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher_is_better { -change } else { change };
    if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else if worse_by < -bound {
        "improved"
    } else {
        "ok"
    }
}

pub fn compare_command(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".to_string());
    };
    let (a, b) = (load(a)?, load(b)?);
    let field = |r: &Json, w: &str, section: &str, metric: &str, key: &str| {
        r.get("workloads")?
            .get(w)?
            .get(section)?
            .get(metric)?
            .get(key)?
            .as_f64()
    };
    let workloads: Vec<&String> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .map(|m| m.keys().collect())
        .unwrap_or_default();
    let (mut regressed, mut unresolved, mut missing) = (0, 0, 0);
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    for w in &workloads {
        for m in spec::end_to_end() {
            let bound = m.bound.unwrap_or(0.0);
            let pair = (
                field(&a, w, "end_to_end", &m.name, "median"),
                field(&b, w, "end_to_end", &m.name, "median"),
            );
            let (Some(base), Some(new)) = pair else {
                println!("{w:<16} {:<26} missing on one side", m.name);
                missing += 1;
                continue;
            };
            let spread = field(&a, w, "end_to_end", &m.name, "spread")
                .unwrap_or(0.0)
                .max(field(&b, w, "end_to_end", &m.name, "spread").unwrap_or(0.0));
            let v = verdict(base, new, m.higher_is_better, bound, spread);
            regressed += usize::from(v == "regressed");
            unresolved += usize::from(v == "unresolved");
            println!(
                "{w:<16} {:<26} {base:>14.6} {new:>14.6} {:>8.4} {:>6.1}% {:>5.0}%  {v}",
                m.name,
                new / base,
                spread * 100.0,
                bound * 100.0
            );
        }
    }

    // Counts compare two runs of one program on one seed: they must repeat.
    let seed = |r: &Json| r.get("header")?.get("seed")?.as_f64();
    let mut differing = 0;
    if seed(&a) == seed(&b) {
        for w in &workloads {
            for m in spec::per_layer().iter().filter(|m| m.unit == "count") {
                let (x, y) = (
                    field(&a, w, "per_layer", &m.name, "value"),
                    field(&b, w, "per_layer", &m.name, "value"),
                );
                if x != y {
                    println!("{w:<16} {:<26} count differs: {x:?} vs {y:?}", m.name);
                    differing += 1;
                }
            }
        }
        println!(
            "counts: {}",
            if differing == 0 {
                "identical"
            } else {
                "differ"
            }
        );
    } else {
        println!("counts: not compared (different seeds)");
    }
    println!("regressed {regressed}  unresolved {unresolved}  missing {missing}");
    Ok(if regressed + missing + differing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(verdict(1.0, 1.05, false, 0.1, 0.0), "ok");
        assert_eq!(verdict(1.0, 1.2, false, 0.1, 0.0), "regressed");
        assert_eq!(verdict(1.0, 0.8, false, 0.1, 0.0), "improved");
        assert_eq!(verdict(100.0, 80.0, true, 0.1, 0.0), "regressed");
        assert_eq!(verdict(100.0, 120.0, true, 0.1, 0.0), "improved");
        assert_eq!(verdict(1.0, 1.2, false, 0.1, 0.15), "unresolved");
    }
}
