//! Ablations of the design decisions `DESIGN.md` §5 calls out.

use super::measure_opts;
use crate::report::{f2, secs, Report, Table};
use crate::Ctx;
use icecube_cluster::ClusterConfig;
use icecube_core::aht::AhtHash;
use icecube_core::{run_sequential, Algorithm, IcebergQuery, RunOptions, SeqAlgorithm};
use icecube_data::presets;
use icecube_lattice::CuboidMask;
use icecube_online::{run_pol, PolQuery};

/// PT's task-granularity parameter: binary division stops at
/// `ratio × processors` tasks. The paper settles on 32 as the balance
/// point between load balancing (fine tasks) and pruning (coarse tasks).
pub fn granularity(ctx: &Ctx) -> Report {
    let mut spec = presets::baseline();
    spec.tuples = ctx.tuples(presets::BASELINE_TUPLES);
    let rel = spec.generate().expect("baseline preset is valid");
    let mut t = Table::new(["ratio", "tasks", "wall_s", "imbalance"]);
    let mut walls = Vec::new();
    for ratio in [1usize, 2, 4, 8, 16, 32, 64] {
        let opts = RunOptions {
            pt_task_ratio: ratio,
            ..RunOptions::counting()
        };
        let out = measure_opts(Algorithm::Pt, &rel, presets::BASELINE_MINSUP, 8, &opts);
        walls.push(out.report.wall_ns);
        t.row([
            ratio.to_string(),
            (ratio * 8).to_string(),
            secs(out.report.wall_ns),
            f2(out.report.stats.imbalance()),
        ]);
    }
    let mut r = Report::new(
        "ablation_granularity",
        "PT task granularity: ratio of tasks to processors (Section 3.4)",
        t,
    );
    r.note(format!(
        "The paper: higher ratio improves balance but limits per-task pruning; it uses 32n. \
         Measured wall at ratio 1: {}s, at 32: {}s.",
        secs(walls[0]),
        secs(walls[5]),
    ));
    r
}

/// Affinity scheduling on/off for ASL and PT: what sort-sharing buys.
pub fn affinity(ctx: &Ctx) -> Report {
    let mut spec = presets::baseline();
    spec.tuples = ctx.tuples(presets::BASELINE_TUPLES);
    let rel = spec.generate().expect("baseline preset is valid");
    let mut t = Table::new(["algorithm", "affinity", "wall_s", "cpu_total_s"]);
    let mut saved = Vec::new();
    for alg in [Algorithm::Asl, Algorithm::Pt] {
        let mut pair = Vec::new();
        for on in [true, false] {
            let opts = RunOptions {
                affinity: on,
                ..RunOptions::counting()
            };
            let out = measure_opts(alg, &rel, presets::BASELINE_MINSUP, 8, &opts);
            let cpu: u64 = out.report.stats.nodes().iter().map(|s| s.cpu_ns).sum();
            pair.push(out.report.wall_ns);
            t.row([
                alg.to_string(),
                if on { "on".into() } else { "off".to_string() },
                secs(out.report.wall_ns),
                secs(cpu),
            ]);
        }
        saved.push(pair[1] as f64 / pair[0].max(1) as f64);
    }
    let mut r = Report::new(
        "ablation_affinity",
        "Affinity scheduling on/off (Sections 3.3.2, 3.4)",
        t,
    );
    r.note(format!(
        "Disabling affinity slows ASL by {:.2}x and PT by {:.2}x on the baseline.",
        saved[0], saved[1]
    ));
    r
}

/// Writing-strategy ablation at fixed algorithm: the same BUC computation
/// with depth-first vs breadth-first cell emission (the single change BPP
/// makes to RP's engine, isolated from data decomposition).
pub fn writing(ctx: &Ctx) -> Report {
    use icecube_core::buc::{bpp_buc, buc_depth_first};
    use icecube_core::cell::CellBuf;
    use icecube_lattice::TreeTask;

    let mut spec = presets::baseline();
    spec.tuples = ctx.tuples(presets::BASELINE_TUPLES);
    let rel = spec.generate().expect("baseline preset is valid");
    let task = TreeTask::whole_lattice(rel.arity());
    let mut t = Table::new(["engine", "io_s", "file_switches", "cells"]);
    let mut ios = Vec::new();
    for depth_first in [true, false] {
        let mut node = ClusterConfig::fast_ethernet(1)
            .node(0)
            .expect("a one-node roster has node 0");
        let mut sink = CellBuf::counting();
        if depth_first {
            buc_depth_first(&rel, presets::BASELINE_MINSUP, task, &mut node, &mut sink);
        } else {
            bpp_buc(&rel, presets::BASELINE_MINSUP, task, &mut node, &mut sink);
        }
        let s = &node.stats;
        ios.push(s.io_ns());
        t.row([
            if depth_first {
                "depth-first (BUC)"
            } else {
                "breadth-first (BPP-BUC)"
            }
            .to_string(),
            secs(s.io_ns()),
            s.file_switches.to_string(),
            s.cells_written.to_string(),
        ]);
    }
    let mut r = Report::new(
        "ablation_writing",
        "Writing strategy isolated: same BUC, different emission order (Section 3.2.2)",
        t,
    );
    r.note(format!(
        "Identical cells; depth-first pays {:.1}x the I/O purely from scattered writes.",
        ios[0] as f64 / ios[1].max(1) as f64
    ));
    r
}

/// POL's work stealing on/off over a deliberately key-skewed dataset,
/// where the boundary-based skip-list partitions are uneven.
pub fn pol_stealing(ctx: &Ctx) -> Report {
    // Skew the first (query) dimension hard so one skip-list partition
    // receives a disproportionate share of the cells.
    let mut spec = presets::online();
    spec.tuples = ctx.tuples(200_000);
    spec.skews[0] = 2.0;
    let rel = spec.generate().expect("online preset is valid");
    let dims = CuboidMask::from_dims(&[0, 1, 2, 3]);
    let mut t = Table::new(["work_stealing", "wall_s", "stolen_tasks", "imbalance"]);
    let mut walls = Vec::new();
    for stealing in [true, false] {
        let mut q = PolQuery::new(dims, 2);
        q.buffer_tuples = (8000.0 * ctx.scale).max(64.0) as usize;
        q.snapshot_every = 32;
        q.work_stealing = stealing;
        let out =
            run_pol(&rel, &q, &ClusterConfig::fast_ethernet(8)).expect("valid POL configuration");
        walls.push(out.stats.makespan_ns());
        t.row([
            stealing.to_string(),
            secs(out.stats.makespan_ns()),
            out.stolen_tasks.to_string(),
            f2(out.stats.imbalance()),
        ]);
    }
    let mut r = Report::new(
        "ablation_pol",
        "POL work stealing on/off under key skew (Section 5.3.2)",
        t,
    );
    r.note(format!(
        "Stealing {} the makespan on a skewed key space ({} vs {}).",
        if walls[0] <= walls[1] {
            "improves (or matches)"
        } else {
            "did not improve"
        },
        secs(walls[0]),
        secs(walls[1])
    ));
    r
}

/// The sequential baselines of Chapter 2 head to head: the bottom-up
/// family (BUC) prunes on the threshold; the top-down family (TopDown,
/// PipeSort, PipeHash) cannot; PipeHash is competitive only when dense.
pub fn sequential(ctx: &Ctx) -> Report {
    let workloads: [(&str, icecube_data::SyntheticSpec); 2] = [
        ("sparse", {
            let mut s = presets::baseline();
            s.tuples = ctx.tuples(40_000);
            s
        }),
        ("dense", {
            icecube_data::SyntheticSpec::uniform(
                ctx.tuples(40_000),
                vec![6, 5, 4, 4, 3, 3, 2, 2, 2],
                0x5e9,
            )
        }),
    ];
    let mut t = Table::new(["workload", "minsup", "algorithm", "wall_s", "io_s"]);
    let mut summary: Vec<String> = Vec::new();
    for (name, spec) in workloads {
        let rel = spec.generate().expect("spec is valid");
        for minsup in [1u64, 8] {
            let q = IcebergQuery::count_cube(rel.arity(), minsup);
            let mut row_times = Vec::new();
            for alg in SeqAlgorithm::all() {
                let out = run_sequential(alg, &rel, &q, &ClusterConfig::fast_ethernet(1))
                    .expect("valid sequential configuration");
                row_times.push((alg, out.report.wall_ns));
                t.row([
                    name.to_string(),
                    minsup.to_string(),
                    alg.to_string(),
                    secs(out.report.wall_ns),
                    secs(out.report.stats.total_io_ns()),
                ]);
            }
            if minsup == 8 && name == "sparse" {
                let buc = row_times
                    .iter()
                    .find(|(a, _)| *a == SeqAlgorithm::BppBuc)
                    .expect("present")
                    .1;
                let best_topdown = row_times
                    .iter()
                    .filter(|(a, _)| !a.prunes() && *a != SeqAlgorithm::Naive)
                    .map(|&(_, ns)| ns)
                    .min()
                    .expect("present");
                summary.push(format!(
                    "Sparse cube at minsup 8: BPP-BUC {} vs best top-down {} — BUC wins: {}.",
                    secs(buc),
                    secs(best_topdown),
                    buc < best_topdown
                ));
            }
        }
    }
    let mut r = Report::new(
        "ablation_sequential",
        "Sequential baselines head to head (Chapter 2)",
        t,
    );
    r.note(
        "Paper (§2.4): BUC outperforms the top-down family on iceberg thresholds thanks \
         to pruning; hash-based top-down wins only on dense data."
            .to_string(),
    );
    for line in summary {
        r.note(line);
    }
    r
}

/// The Section 4.9.2 improvements: AHT with a better hash function, ASL
/// with longest-prefix scheduling.
pub fn improvements(ctx: &Ctx) -> Report {
    // A sparse, higher-dimensional workload — where §4.9.2 expects the
    // naive MOD hash to struggle.
    let mut spec = presets::with_dims(11.min(ctx.max_dims.max(5)));
    spec.tuples = ctx.tuples(presets::BASELINE_TUPLES);
    let rel = spec.generate().expect("dims preset is valid");
    let mut t = Table::new(["variant", "wall_s", "cpu_total_s"]);
    let mut walls = Vec::new();
    let cases: [(&str, RunOptions, Algorithm); 4] = [
        ("AHT naive-mod hash", RunOptions::counting(), Algorithm::Aht),
        (
            "AHT fibonacci hash",
            RunOptions {
                aht_hash: AhtHash::Fibonacci,
                ..RunOptions::counting()
            },
            Algorithm::Aht,
        ),
        (
            "ASL first-match subsets",
            RunOptions::counting(),
            Algorithm::Asl,
        ),
        (
            "ASL longest-prefix subsets",
            RunOptions {
                asl_longest_prefix: true,
                ..RunOptions::counting()
            },
            Algorithm::Asl,
        ),
    ];
    for (label, opts, alg) in cases {
        let out = measure_opts(alg, &rel, presets::BASELINE_MINSUP, 8, &opts);
        let cpu: u64 = out.report.stats.nodes().iter().map(|s| s.cpu_ns).sum();
        walls.push(out.report.wall_ns);
        t.row([label.to_string(), secs(out.report.wall_ns), secs(cpu)]);
    }
    let mut r = Report::new(
        "ablation_improvements",
        "The further improvements of Section 4.9.2",
        t,
    );
    r.note(format!(
        "AHT: fibonacci hash {} the naive MOD ({} vs {}); ASL: longest-prefix {} \
         first-match ({} vs {}).",
        if walls[1] <= walls[0] {
            "beats"
        } else {
            "does not beat"
        },
        secs(walls[1]),
        secs(walls[0]),
        if walls[3] <= walls[2] {
            "beats (or matches)"
        } else {
            "does not beat"
        },
        secs(walls[3]),
        secs(walls[2]),
    ));
    r
}
