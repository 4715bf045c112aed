//! The benchmark's contract: every workload and every metric by name,
//! with unit, direction and (end to end) regression bound. `BENCHMARK.json`
//! at the repository root is this table printed by the `spec` subcommand;
//! the self-test fails when the two differ.

use crate::json::{obj, Json};
use crate::workload::WORKLOADS;

/// The five algorithms of the paper's evaluation, in its order, as they
/// appear in metric names.
pub const ALGS: [&str; 5] = ["rp", "bpp", "asl", "pt", "aht"];

/// Request kinds of the navigation mix, as they appear in metric names.
pub const KINDS: [&str; 6] = ["point", "slice", "rollup", "drilldown", "cuboid", "batch"];

/// Layers of the `cube_ready` chain (span names).
pub const READY_LAYERS: [&str; 5] = [
    "core.build.pt",
    "core.store.from_cells",
    "serve.shard.split",
    "serve.server.start",
    "serve.server.first_answer",
];

/// Layers of the `refresh` chain (span names).
pub const REFRESH_LAYERS: [&str; 6] = [
    "data.delta.encode",
    "data.delta.to_relation",
    "core.delta.buc",
    "core.store.merge_cells",
    "core.store.thresholded",
    "serve.server.publish",
];

/// Layers of the `progressive` chain (span names).
pub const PROGRESSIVE_LAYERS: [&str; 4] = [
    "online.progressive.plan",
    "online.progressive.step",
    "serve.server.publish_progressive",
    "serve.server.estimate",
];

/// Seconds one run measures; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 45;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 11;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn m(name: impl Into<String>, unit: &'static str, higher: bool, bound: Option<f64>) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The 16 end-to-end metrics. Every workload reports every one of them.
pub fn end_to_end() -> Vec<MetricSpec> {
    // On the hosts this runs on, thirty seconds of any of these move by
    // 10-15 % from run to run (README, "Host noise"); a bound under the
    // spread would only turn every comparison into `unresolved`.
    let noisy = Some(0.25);
    let mut v = vec![m("setup_s", "s", false, noisy)];
    for alg in ALGS {
        v.push(m(format!("build_s.{alg}"), "s", false, noisy));
    }
    v.extend([
        m("cube_ready_s", "s", false, noisy),
        m("point_rps", "req/s", true, noisy),
        m("point_p50_us", "us", false, noisy),
        m("point_p95_us", "us", false, noisy),
        m("navigate_rps", "req/s", true, noisy),
        m("scan_p50_us", "us", false, noisy),
        m("refresh_s", "s", false, noisy),
        m("progressive_eps_s", "s", false, noisy),
        m("progressive_converge_s", "s", false, noisy),
        m("peak_rss_mb", "MB", false, Some(0.15)),
    ]);
    v
}

/// The per-layer metrics of the traced run (layer = crate.module).
pub fn per_layer() -> Vec<MetricSpec> {
    let lower = |name: String, unit| m(name, unit, false, None);
    let mut v = vec![
        lower("data.generator.generate_s".into(), "s"),
        lower("data.delta.encode_s".into(), "s"),
        lower("data.delta.to_relation_s".into(), "s"),
    ];
    for alg in ALGS {
        v.push(lower(format!("core.kernel_s.{alg}"), "s"));
    }
    v.push(lower("core.sequential.buc_s".into(), "s"));
    for alg in ALGS {
        v.push(lower(format!("core.collect_s.{alg}"), "s"));
    }
    v.push(lower("core.cells".into(), "count"));
    v.push(lower("core.cell.resort_s".into(), "s"));
    for alg in ALGS {
        v.push(lower(format!("exec.native.wall_s.{alg}"), "s"));
    }
    for alg in ALGS {
        // Not a `count`: steals depend on thread timing and do not repeat.
        v.push(m(
            format!("exec.native.steals.{alg}"),
            "steals",
            false,
            None,
        ));
    }
    for alg in ALGS {
        v.push(m(
            format!("exec.native.busy_share.{alg}"),
            "ratio",
            true,
            None,
        ));
    }
    v.push(m("exec.native.speedup.pt", "x", true, None));
    v.extend([
        lower("core.store.from_cells_s".into(), "s"),
        lower("serve.shard.split_s".into(), "s"),
        lower("serve.server.start_s".into(), "s"),
        lower("core.store.get_ns".into(), "ns"),
        lower("serve.shard.get_ns".into(), "ns"),
        lower("serve.server.hop_ns".into(), "ns"),
        m("serve.server.point_rps_w1", "req/s", true, None),
    ]);
    for kind in KINDS {
        v.push(lower(format!("serve.latency_us.{kind}.p50"), "us"));
        v.push(lower(format!("serve.latency_us.{kind}.p99"), "us"));
        v.push(m(format!("serve.latency_n.{kind}"), "count", true, None));
    }
    v.extend([
        lower("serve.shard.scan_us".into(), "us"),
        m("serve.metrics.rollup_stored", "count", true, None),
        lower("serve.metrics.rollup_aggregated".into(), "count"),
        lower("serve.metrics.cells_returned".into(), "count"),
        lower("serve.metrics.errors".into(), "count"),
        lower("core.delta.buc_s".into(), "s"),
        lower("core.store.merge_cells_s".into(), "s"),
        lower("core.store.thresholded_s".into(), "s"),
        lower("serve.server.publish_s".into(), "s"),
        lower("core.delta.floor_cells".into(), "count"),
        lower("online.progressive.plan_s".into(), "s"),
        lower("online.progressive.step_s".into(), "s"),
        lower("serve.server.publish_progressive_s".into(), "s"),
        lower("serve.server.estimate_s".into(), "s"),
        lower("online.progressive.first_estimate_s".into(), "s"),
        lower("online.progressive.folds".into(), "count"),
        lower("online.progressive.eps_fold".into(), "count"),
    ]);
    for alg in ALGS {
        v.push(lower(format!("mem.peak_alloc_mb.{alg}"), "MB"));
    }
    v.push(lower("mem.peak_alloc_mb.store".into(), "MB"));
    v.push(lower("mem.peak_alloc_mb.shards".into(), "MB"));
    for (chain, layers) in [
        ("cube_ready", &READY_LAYERS[..]),
        ("refresh", &REFRESH_LAYERS[..]),
        ("progressive", &PROGRESSIVE_LAYERS[..]),
    ] {
        for layer in layers {
            v.push(lower(format!("layer_share.{chain}.{layer}"), "ratio"));
        }
        v.push(lower(format!("layer_share.{chain}.unattributed"), "ratio"));
    }
    v.push(lower("trace.overhead_pct".into(), "%"));
    v
}

/// Unit by metric name, over both lists.
pub fn units() -> std::collections::BTreeMap<String, &'static str> {
    end_to_end()
        .into_iter()
        .chain(per_layer())
        .map(|m| (m.name, m.unit))
        .collect()
}

fn metric_json(spec: &MetricSpec) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(spec.name.clone())),
        ("unit", Json::Str(spec.unit.to_string())),
        (
            "better",
            Json::Str(
                if spec.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
                .to_string(),
            ),
        ),
    ];
    if let Some(b) = spec.bound {
        pairs.push(("bound", Json::Num(b)));
    }
    obj(pairs)
}

/// `BENCHMARK.json`, one entry per line so diffs stay readable.
pub fn benchmark_json() -> String {
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.to_line()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let command = Json::Arr(
        [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
            "run",
        ]
        .iter()
        .map(|s| Json::Str((*s).to_string()))
        .collect(),
    );
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            obj([
                ("name", Json::Str(w.name.to_string())),
                ("why", Json::Str(w.why.to_string())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.to_line(),
        RUN_SECONDS,
        list(workloads),
        list(end_to_end().iter().map(metric_json).collect()),
        list(per_layer().iter().map(metric_json).collect()),
    )
}
