//! Chapter 5: online aggregation (selective materialization, POL).

use crate::report::{f2, secs, Report, Table};
use crate::Ctx;
use icecube_cluster::ClusterConfig;
use icecube_core::cell::CellBuf;
use icecube_core::{run_parallel_with, Algorithm, IcebergQuery, RunOptions};
use icecube_data::presets;
use icecube_lattice::CuboidMask;
use icecube_online::{run_pol, wrap_order, PolQuery, SelectiveMaterialization};

/// Section 5.1 — selective materialization: recomputing the whole iceberg
/// cube vs precomputing only the leaf cuboid (at support 1) and answering
/// online by roll-up.
pub fn sec5_1(ctx: &Ctx) -> Report {
    let mut spec = presets::baseline();
    spec.tuples = ctx.tuples(presets::BASELINE_TUPLES);
    let rel = spec.generate().expect("baseline preset is valid");

    // Plan 1: recompute the entire cube with ASL at the query's support.
    let q = IcebergQuery::count_cube(rel.arity(), presets::BASELINE_MINSUP);
    let full = run_parallel_with(
        Algorithm::Asl,
        &rel,
        &q,
        &ClusterConfig::fast_ethernet(8),
        &RunOptions::counting(),
    )
    .expect("baseline configuration is valid");
    let recompute_s = full.report.wall_ns;

    // Plan 2: precompute the leaves at support 1; answer online by roll-up.
    let mut node = ClusterConfig::fast_ethernet(1)
        .node(0)
        .expect("a one-node roster has node 0");
    let m = SelectiveMaterialization::precompute(&rel, &mut node, 7).expect("non-empty input");
    let precompute_s = node.clock_ns();
    let t0 = node.clock_ns();
    let mut sink = CellBuf::counting();
    // An online drill-down over the first five dimensions.
    m.query(
        CuboidMask::from_dims(&[0, 1, 2, 3, 4]),
        presets::BASELINE_MINSUP,
        &mut node,
        &mut sink,
    )
    .expect("in-range group-by");
    let online_s = node.clock_ns() - t0;

    let mut t = Table::new(["plan", "stage", "seconds"]);
    t.row(["recompute (ASL, full cube)", "query", &secs(recompute_s)]);
    t.row([
        "materialize leaves (minsup 1)",
        "precompute",
        &secs(precompute_s),
    ]);
    t.row([
        "materialize leaves (minsup 1)",
        "online query",
        &secs(online_s),
    ]);
    let mut r = Report::new(
        "sec5_1",
        "Selective materialization vs recompute (Section 5.1)",
        t,
    );
    r.note(format!(
        "Paper: full ASL recompute ~60s; leaves-only precompute ~50s; online stage returns \
         almost immediately. Measured: recompute {}s, precompute {}s, online {}s — online \
         ≪ recompute: {}.",
        secs(recompute_s),
        secs(precompute_s),
        secs(online_s),
        if online_s * 10 < recompute_s {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    ));
    r
}

/// Table 5.1 — the n×n task array for 4 processors.
pub fn table5_1() -> Report {
    let mut t = Table::new(["owner", "processing order (source nodes)"]);
    for j in 0..4 {
        let order: Vec<String> = wrap_order(j, 4)
            .map(|i| format!("Chunk_{}{}", j + 1, i + 1))
            .collect();
        t.row([format!("P{}", j + 1), order.join(" → ")]);
    }
    let mut r = Report::new("table5_1", "Task array for 4 processors (Table 5.1)", t);
    r.note(
        "Each processor starts with its local chunk and wraps, staggering remote fetches \
         (Section 5.3.2)."
            .to_string(),
    );
    r
}

fn online_query(rel_arity: usize) -> PolQuery {
    // The 12-dimensional group-by of the paper's POL experiments (minsup 2,
    // 8000-tuple buffers); the dimensions are chosen so the skip list ends
    // up near the paper's 924,585 nodes.
    let dims: Vec<usize> = presets::pol_query_dims()
        .into_iter()
        .filter(|&d| d < rel_arity)
        .collect();
    let mut q = PolQuery::new(CuboidMask::from_dims(&dims), 2);
    q.snapshot_every = 32;
    q
}

/// Figure 5.3 — POL's scalability with the number of processors on the
/// three clusters (fast/Ethernet, slow/Ethernet, slow/Myrinet).
pub fn fig5_3(ctx: &Ctx) -> Report {
    let mut spec = presets::online();
    spec.tuples = ctx.tuples(presets::ONLINE_TUPLES);
    let rel = spec.generate().expect("online preset is valid");
    let query = online_query(rel.arity());
    let procs = [1usize, 2, 4, 8];
    let mut t = Table::new([
        "procs",
        "cluster1_fast_eth_s",
        "cluster2_slow_eth_s",
        "cluster3_slow_myrinet_s",
    ]);
    let mut last: Vec<f64> = Vec::new();
    let mut first: Vec<f64> = Vec::new();
    let mut nodes_reported = 0u64;
    for &p in &procs {
        let configs = [
            ClusterConfig::fast_ethernet(p),
            ClusterConfig::slow_ethernet(p),
            ClusterConfig::slow_myrinet(p),
        ];
        let mut row = vec![p.to_string()];
        let mut walls = Vec::new();
        for cfg in &configs {
            let out = run_pol(&rel, &query, cfg).expect("valid POL configuration");
            walls.push(out.stats.makespan_ns() as f64 / 1e9);
            row.push(f2(out.stats.makespan_ns() as f64 / 1e9));
            nodes_reported = out.total_list_nodes;
        }
        if p == 1 {
            first = walls.clone();
        }
        last = walls;
        t.row(row);
    }
    let mut r = Report::new(
        "fig5_3",
        "POL's scalability with the number of processors (Figure 5.3)",
        t,
    );
    r.note(format!(
        "Skip list built with {nodes_reported} nodes (paper: 924,585 for the full-size run)."
    ));
    let sp = |i: usize| first[i] / last[i];
    r.note(format!(
        "Paper: speedup is better on the slow clusters (computation dominates \
         communication) and Myrinet beats Ethernet at the same CPUs. Measured 8-proc \
         speedups — fast-eth {:.2}x, slow-eth {:.2}x, slow-myrinet {:.2}x; Myrinet ≤ \
         Ethernet wall time: {}.",
        sp(0),
        sp(1),
        sp(2),
        if last[2] <= last[1] {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    ));
    r
}

/// Figure 5.4 — POL's scalability with the buffer size.
pub fn fig5_4(ctx: &Ctx) -> Report {
    let mut spec = presets::online();
    spec.tuples = ctx.tuples(presets::ONLINE_TUPLES);
    let rel = spec.generate().expect("online preset is valid");
    let buffers = [1000usize, 2000, 4000, 8000, 16000, 32000];
    let mut t = Table::new(["buffer_tuples", "wall_s", "steps", "barriers"]);
    let mut walls = Vec::new();
    for &b in &buffers {
        let mut query = online_query(rel.arity());
        query.buffer_tuples = (b as f64 * ctx.scale).max(64.0) as usize;
        let out = run_pol(&rel, &query, &ClusterConfig::slow_myrinet(8))
            .expect("valid POL configuration");
        let steps = out.snapshots.last().map(|s| s.step).unwrap_or(0);
        walls.push(out.stats.makespan_ns() as f64 / 1e9);
        t.row([
            query.buffer_tuples.to_string(),
            f2(out.stats.makespan_ns() as f64 / 1e9),
            steps.to_string(),
            out.stats.nodes()[0].barriers.to_string(),
        ]);
    }
    let mut r = Report::new(
        "fig5_4",
        "POL's scalability with buffer size (Figure 5.4)",
        t,
    );
    r.note(format!(
        "Paper: larger buffers mean fewer steps, fewer synchronizations, better times. \
         Measured: {:.2}s at the smallest buffer vs {:.2}s at the largest — monotone \
         improvement {}.",
        walls[0],
        walls[walls.len() - 1],
        if walls[0] >= walls[walls.len() - 1] {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    ));
    r
}
