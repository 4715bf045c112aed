//! Chapter 4: the five-algorithm evaluation (Figures 4.1–4.7).

use super::measure;
use crate::report::{f2, kb, mb, secs, Report, Table};
use crate::Ctx;
use icecube_core::recipe::{self, CubeProfile};
use icecube_core::Algorithm;
use icecube_data::presets;
use icecube_data::Relation;

fn baseline_rel(ctx: &Ctx) -> Relation {
    let mut spec = presets::baseline();
    spec.tuples = ctx.tuples(presets::BASELINE_TUPLES);
    spec.generate().expect("baseline preset is valid")
}

/// Figure 4.1 — load on each of 8 parallel computing nodes.
pub fn fig4_1(ctx: &Ctx) -> Report {
    let eval = Algorithm::evaluated();
    let rel = baseline_rel(ctx);
    let mut headers = vec!["node".to_string()];
    headers.extend(eval.iter().map(|a| format!("{a}_load_s")));
    let mut t = Table::new(headers);
    let stats: Vec<_> = eval
        .iter()
        .map(|&a| measure(a, &rel, presets::BASELINE_MINSUP, 8).report.stats)
        .collect();
    for node in 0..8 {
        let mut row = vec![node.to_string()];
        row.extend(stats.iter().map(|s| secs(s.nodes()[node].busy_ns())));
        t.row(row);
    }
    let mut imb = vec!["imbalance".to_string()];
    imb.extend(stats.iter().map(|s| f2(s.imbalance())));
    t.row(imb);
    let mut r = Report::new("fig4_1", "Load balancing on 8 processors (Figure 4.1)", t);
    let get =
        |a: Algorithm| stats[eval.iter().position(|&x| x == a).expect("evaluated")].imbalance();
    let strong = get(Algorithm::Asl)
        .max(get(Algorithm::Aht))
        .max(get(Algorithm::Pt));
    let weak = get(Algorithm::Rp).max(get(Algorithm::Bpp));
    r.note(format!(
        "Paper: ASL, AHT and PT have even load; RP and BPP vary greatly. \
         Measured max imbalance — affinity algorithms {:.2}, static algorithms {:.2}: shape {}.",
        strong,
        weak,
        if weak > strong {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    ));
    r
}

/// Figure 4.2 — speedup when varying the number of processors.
pub fn fig4_2(ctx: &Ctx) -> Report {
    let eval = Algorithm::evaluated();
    let rel = baseline_rel(ctx);
    let procs = [1usize, 2, 4, 8, 16];
    let mut headers = vec!["procs".to_string()];
    for a in eval {
        headers.push(format!("{a}_s"));
        headers.push(format!("{a}_speedup"));
    }
    let mut t = Table::new(headers);
    let mut base: Vec<f64> = Vec::new();
    let mut at8: Vec<f64> = vec![0.0; eval.len()];
    for &p in &procs {
        let mut row = vec![p.to_string()];
        for (i, &a) in eval.iter().enumerate() {
            let out = measure(a, &rel, presets::BASELINE_MINSUP, p);
            let w = out.report.wall_ns as f64 / 1e9;
            if p == 1 {
                base.push(w);
            }
            if p == 8 {
                at8[i] = w;
            }
            row.push(f2(w));
            row.push(f2(base[i] / w));
        }
        t.row(row);
    }
    let mut r = Report::new(
        "fig4_2",
        "Speedup with the number of processors (Figure 4.2)",
        t,
    );
    let pt = at8[3];
    let rp = at8[0];
    r.note(format!(
        "Paper: PT best overall, RP worst; ASL/AHT scale well past 4 procs. \
         Measured at 8 procs: PT {pt:.2}s vs RP {rp:.2}s — shape {}.",
        if pt < rp {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    ));
    r
}

/// Figure 4.3 — varying the dataset size (up to ~1M tuples).
pub fn fig4_3(ctx: &Ctx) -> Report {
    let eval = Algorithm::evaluated();
    let sizes = [176_631usize, 353_262, 706_524, 1_059_786];
    let mut headers = vec!["tuples".to_string()];
    headers.extend(eval.iter().map(|a| format!("{a}_s")));
    let mut t = Table::new(headers);
    let mut firsts = Vec::new();
    let mut lasts = Vec::new();
    for (si, &size) in sizes.iter().enumerate() {
        let mut spec = presets::sized(ctx.tuples(size));
        spec.seed ^= si as u64; // independent draws per size
        let rel = spec.generate().expect("sized preset is valid");
        let mut row = vec![rel.len().to_string()];
        for a in eval {
            let out = measure(a, &rel, presets::BASELINE_MINSUP, 8);
            let w = out.report.wall_ns as f64 / 1e9;
            if si == 0 {
                firsts.push(w);
            }
            if si + 1 == sizes.len() {
                lasts.push(w);
            }
            row.push(f2(w));
        }
        t.row(row);
    }
    let mut r = Report::new("fig4_3", "Varying the dataset size (Figure 4.3)", t);
    let growth = |i: usize| lasts[i] / firsts[i];
    r.note(format!(
        "Paper: PT and ASL grow sublinearly with tuples and dominate. Measured 6x-size \
         growth factors — PT {:.1}x, ASL {:.1}x, RP {:.1}x (shape {}).",
        growth(3),
        growth(2),
        growth(0),
        if growth(3) < 7.0 {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    ));
    r
}

/// Figure 4.4 — varying the number of cube dimensions (5..13).
pub fn fig4_4(ctx: &Ctx) -> Report {
    let eval = Algorithm::evaluated();
    let dims: Vec<usize> = [5usize, 7, 9, 11, 13]
        .into_iter()
        .filter(|&d| d <= ctx.max_dims)
        .collect();
    let mut headers = vec!["dims".to_string()];
    headers.extend(eval.iter().map(|a| format!("{a}_s")));
    headers.extend(eval.iter().map(|a| format!("{a}_comm_kb")));
    let mut t = Table::new(headers);
    let top = *dims.last().expect("non-empty sweep");
    let mut at13: Vec<f64> = vec![0.0; eval.len()];
    let mut at5: Vec<f64> = vec![0.0; eval.len()];
    for &d in &dims {
        let mut spec = presets::with_dims(d);
        spec.tuples = ctx.tuples(presets::BASELINE_TUPLES);
        let rel = spec.generate().expect("dims preset is valid");
        let mut row = vec![d.to_string()];
        let mut comm = Vec::with_capacity(eval.len());
        for (i, &a) in eval.iter().enumerate() {
            // Traced run: the trace charges nothing, so the makespan is
            // the untraced one, and the communication volume falls out of
            // the recorded message events.
            let out = super::measure_traced(a, &rel, presets::BASELINE_MINSUP, 8);
            let w = out.report.wall_ns as f64 / 1e9;
            if d == top {
                at13[i] = w;
            }
            if d == 5 {
                at5[i] = w;
            }
            row.push(f2(w));
            comm.push(kb(out
                .report
                .trace
                .as_ref()
                .map_or(0, icecube_trace::TraceLog::comm_volume_bytes)));
        }
        row.extend(comm);
        t.row(row);
    }
    let mut r = Report::new(
        "fig4_4",
        "Varying the number of cube dimensions (Figure 4.4)",
        t,
    );
    r.note(format!(
        "Paper: cost explodes with dimensionality; AHT scales worst, ASL falls behind the \
         BUC family, PT stays best. Measured at {top} dims: PT {:.1}s, ASL {:.1}s, AHT {:.1}s \
         (PT best: {}).",
        at13[3],
        at13[2],
        at13[4],
        if at13[3] <= at13[2] && at13[3] <= at13[4] {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    ));
    r.note(format!(
        "Paper: at small dimensionality all algorithms are close. Measured spread at 5 dims: \
         {:.2}s–{:.2}s.",
        at5.iter().cloned().fold(f64::INFINITY, f64::min),
        at5.iter().cloned().fold(0.0, f64::max)
    ));
    r
}

/// Figure 4.5 — varying the minimum support (1..32), including the output
/// sizes the paper quotes (469/86/27/11 MB for supports 1/2/4/8).
pub fn fig4_5(ctx: &Ctx) -> Report {
    let eval = Algorithm::evaluated();
    let rel = baseline_rel(ctx);
    let supports = [1u64, 2, 4, 8, 16, 32];
    let mut headers = vec!["minsup".to_string()];
    headers.extend(eval.iter().map(|a| format!("{a}_s")));
    headers.push("output_mb".to_string());
    let mut t = Table::new(headers);
    let mut out_sizes = Vec::new();
    let mut pt_times = Vec::new();
    for &minsup in &supports {
        let mut row = vec![minsup.to_string()];
        let mut bytes = 0u64;
        for a in eval {
            let out = measure(a, &rel, minsup, 8);
            row.push(f2(out.report.wall_ns as f64 / 1e9));
            if a == Algorithm::Pt {
                bytes = out.report.stats.total_bytes_written();
                pt_times.push(out.report.wall_ns as f64 / 1e9);
            }
        }
        out_sizes.push(bytes);
        row.push(mb(bytes));
        t.row(row);
    }
    let mut r = Report::new("fig4_5", "Varying the minimum support (Figure 4.5)", t);
    r.note(format!(
        "Paper: output shrinks 469→86→27→11 MB for supports 1→2→4→8, with little further \
         pruning after 8. Measured: {}→{}→{}→{} MB (drop factor 1→2: {:.1}x vs paper's 5.5x).",
        mb(out_sizes[0]),
        mb(out_sizes[1]),
        mb(out_sizes[2]),
        mb(out_sizes[3]),
        out_sizes[0] as f64 / out_sizes[1].max(1) as f64
    ));
    r.note(format!(
        "Paper: the big wall-clock drop is between supports 1 and 2, flat after 8. \
         Measured PT: {:.2}s → {:.2}s → … → {:.2}s.",
        pt_times[0],
        pt_times[1],
        pt_times[pt_times.len() - 1]
    ));
    r
}

/// Figure 4.6 — varying the sparseness (cardinality-product exponent).
pub fn fig4_6(ctx: &Ctx) -> Report {
    let eval = Algorithm::evaluated();
    let exponents = [6.0f64, 10.0, 14.0, 18.0, 22.0];
    let mut headers = vec!["card_exp".to_string()];
    headers.extend(eval.iter().map(|a| format!("{a}_s")));
    let mut t = Table::new(headers);
    let mut dense: Vec<f64> = vec![0.0; eval.len()];
    let mut sparse: Vec<f64> = vec![0.0; eval.len()];
    for (ei, &e) in exponents.iter().enumerate() {
        let mut spec = presets::with_sparseness(e);
        spec.tuples = ctx.tuples(presets::BASELINE_TUPLES);
        let rel = spec.generate().expect("sparseness preset is valid");
        let mut row = vec![format!("{e:.0}")];
        for (i, &a) in eval.iter().enumerate() {
            let out = measure(a, &rel, presets::BASELINE_MINSUP, 8);
            let w = out.report.wall_ns as f64 / 1e9;
            if ei == 0 {
                dense[i] = w;
            }
            if ei + 1 == exponents.len() {
                sparse[i] = w;
            }
            row.push(f2(w));
        }
        t.row(row);
    }
    let mut r = Report::new(
        "fig4_6",
        "Varying the sparseness of the dataset (Figure 4.6)",
        t,
    );
    let aht_ok_dense = dense[4] <= dense[3] * 1.5;
    let pt_ok_sparse = sparse[3] <= sparse[2] && sparse[3] <= sparse[4];
    r.note(format!(
        "Paper: AHT/ASL shine on dense cubes (BUC-based algorithms cannot prune there); \
         the BUC family wins as the cube gets sparse. Measured dense: AHT {:.2}s vs PT \
         {:.2}s; sparse: PT {:.2}s vs ASL {:.2}s / AHT {:.2}s — shape {}.",
        dense[4],
        dense[3],
        sparse[3],
        sparse[2],
        sparse[4],
        if aht_ok_dense && pt_ok_sparse {
            "reproduced"
        } else {
            "partially reproduced"
        }
    ));
    r
}

/// Figure 4.7 — the recipe for selecting the best algorithm.
pub fn fig4_7() -> Report {
    let mut t = Table::new(["situation", "recommendation"]);
    let fmt = |choices: &[recipe::Choice]| -> String {
        choices
            .iter()
            .map(|c| match c {
                recipe::Choice::Algo(a) => a.to_string(),
                recipe::Choice::OnlinePol => "POL".to_string(),
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows: [(&str, CubeProfile); 5] = [
        (
            "dense cube (< 1e8 cells)",
            CubeProfile {
                dims: 8,
                expected_total_cells: 1e6,
                memory_constrained: false,
                online: false,
            },
        ),
        (
            "small dimensionality (< 5)",
            CubeProfile {
                dims: 4,
                expected_total_cells: 1e6,
                memory_constrained: false,
                online: false,
            },
        ),
        (
            "high dimensionality",
            CubeProfile {
                dims: 13,
                expected_total_cells: 1e12,
                memory_constrained: false,
                online: false,
            },
        ),
        (
            "less memory occupation",
            CubeProfile {
                dims: 9,
                expected_total_cells: 1e12,
                memory_constrained: true,
                online: false,
            },
        ),
        (
            "online support",
            CubeProfile {
                dims: 12,
                expected_total_cells: 1e12,
                memory_constrained: false,
                online: true,
            },
        ),
    ];
    for (label, profile) in rows {
        t.row([label.to_string(), fmt(&recipe::recommend(&profile))]);
    }
    let otherwise = CubeProfile {
        dims: 9,
        expected_total_cells: 1e10,
        memory_constrained: false,
        online: false,
    };
    t.row([
        "otherwise (default)".to_string(),
        fmt(&recipe::recommend(&otherwise)),
    ]);
    let mut r = Report::new(
        "fig4_7",
        "Recipe for selecting the best algorithm (Figure 4.7)",
        t,
    );
    r.note("Encodes the paper's Figure 4.7 decision table; PT is the default.".to_string());
    r
}
