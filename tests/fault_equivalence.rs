//! Seeded chaos suite: fault injection must never change the cube.
//!
//! Every algorithm runs under a battery of seeded fault plans — crashes,
//! transient slowdowns, dropped and delayed messages — and the surviving
//! cube is compared bit-for-bit against the fault-free naive reference.
//! A companion regression pins determinism: the same fault seed must
//! reproduce the same schedule, counters and CSV bytes every time.

use icecube::cluster::{ClusterConfig, FaultPlan};
use icecube::core::naive::naive_iceberg_cube;
use icecube::core::verify::assert_same_cells;
use icecube::core::{run_parallel, AlgoError, Algorithm, IcebergQuery, MaintainedCube, RunOptions};
use icecube::data::presets;
use icecube_bench::experiments::fault_free_baseline;

const ALGS: [Algorithm; 6] = [
    Algorithm::Rp,
    Algorithm::Bpp,
    Algorithm::Asl,
    Algorithm::Pt,
    Algorithm::Aht,
    Algorithm::HashTree,
];

/// Eight chaos seeds; each yields a different pattern of crashes,
/// slowdowns and message faults.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

const NODES: usize = 4;

#[test]
fn chaos_cubes_equal_the_fault_free_reference() {
    let rel = presets::tiny(3).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let want = naive_iceberg_cube(&rel, &q);
    let mut crashes = 0u64;
    let mut lost = 0u64;
    let mut recovered = 0u64;
    let mut net_faults = 0u64;
    let mut slowdown_ns = 0u64;
    for alg in ALGS {
        // The same quiet reference the `fault` experiment measures
        // against (shared helper in icecube-bench).
        let quiet = fault_free_baseline(alg, &rel, &q, NODES, &RunOptions::default());
        let horizon = quiet.report.wall_ns;
        for seed in SEEDS {
            let plan = FaultPlan::seeded_severity(seed, NODES, horizon, 200);
            let cfg = ClusterConfig::fast_ethernet(NODES).with_faults(plan);
            let out = run_parallel(alg, &rel, &q, &cfg)
                .unwrap_or_else(|e| panic!("{alg} seed {seed}: {e}"));
            assert_same_cells(
                want.clone(),
                out.cells,
                &format!("{alg} under fault seed {seed}"),
            );
            let stats = &out.report.stats;
            crashes += stats.total_crashes();
            lost += stats.total_tasks_lost();
            recovered += stats.total_tasks_recovered();
            net_faults += stats.total_retransmits() + stats.total_rpc_retries();
            slowdown_ns += stats.nodes().iter().map(|s| s.slowdown_ns).sum::<u64>();
        }
    }
    // Non-vacuity: the battery actually exercised every fault class.
    assert!(
        crashes > 0,
        "no crashes fired across {} runs",
        ALGS.len() * 8
    );
    assert!(lost > 0, "no task was ever lost mid-run");
    assert!(recovered > 0, "no task was ever recovered");
    assert!(net_faults > 0, "no message was ever dropped");
    assert!(slowdown_ns > 0, "no slowdown window ever applied");
}

#[test]
fn same_fault_seed_reproduces_the_run_exactly() {
    let rel = presets::tiny(7).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    for alg in ALGS {
        let run = || {
            let plan = FaultPlan::seeded_severity(0xc4a05, NODES, 4_000_000, 200);
            let cfg = ClusterConfig::fast_ethernet(NODES).with_faults(plan);
            run_parallel(alg, &rel, &q, &cfg).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cells, b.cells, "{alg} cells");
        let (a, b) = (a.report.stats, b.report.stats);
        assert_eq!(a, b, "{alg} stats and recovery counters");
        assert_eq!(a.makespan_ns(), b.makespan_ns(), "{alg} time");
        assert_eq!(
            (
                a.total_crashes(),
                a.total_tasks_lost(),
                a.total_tasks_recovered(),
            ),
            (
                b.total_crashes(),
                b.total_tasks_lost(),
                b.total_tasks_recovered(),
            ),
            "{alg} recovery counters"
        );
    }
}

/// The hash-tree attempt is one task on node 0: a crash of node 0 in the
/// middle of it loses the task, and a survivor re-runs it from the load
/// to the same cells.
#[test]
fn hash_tree_survives_a_crash_of_node_zero() {
    let rel = presets::tiny(3).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let opts = RunOptions::default();
    let quiet = fault_free_baseline(Algorithm::HashTree, &rel, &q, NODES, &opts);
    let crash = FaultPlan::none().crash(0, quiet.report.wall_ns / 2);
    let cfg = ClusterConfig::fast_ethernet(NODES).with_faults(crash);
    let out = run_parallel(Algorithm::HashTree, &rel, &q, &cfg).unwrap();
    assert_eq!(out.cells, quiet.cells);
    assert!(out.report.stats.total_tasks_lost() >= 1);
    assert_eq!(out.report.stats.total_tasks_recovered(), 1);
    assert!(out.report.wall_ns > quiet.report.wall_ns);
}

/// Serialized bytes of a store — the refresh contract is *byte* identity,
/// not just equal cell sets.
fn store_bytes(store: &icecube::core::CubeStore) -> Vec<u8> {
    let mut buf = Vec::new();
    store.write_to(&mut buf).expect("in-memory write");
    buf
}

#[test]
fn crash_mid_refresh_lands_bit_identical_to_a_fault_free_refresh() {
    // The incremental-maintenance dimension of the chaos suite: the delta
    // pass of a refresh runs on the cluster under every seeded fault plan,
    // and the floor it merges must be byte-identical to the one a quiet
    // refresh produces — a lost task's output is dropped with its slot and
    // re-run on a survivor, which makes the collected delta cells
    // deterministic, and merge-on-Ok makes the refresh atomic.
    let whole = presets::tiny(3).generate().unwrap();
    let base = whole.slice(0, whole.len() / 2);
    let batch = whole.slice(whole.len() / 2, whole.len());
    let q = IcebergQuery::count_cube(whole.arity(), 1);
    let mut crashes = 0u64;
    let mut recovered = 0u64;
    for alg in ALGS {
        let mut quiet = MaintainedCube::from_relation(&base, 2).unwrap();
        quiet
            .ingest_on_cluster(alg, &batch, &ClusterConfig::fast_ethernet(NODES))
            .unwrap_or_else(|e| panic!("{alg} fault-free refresh: {e}"));
        let want_floor = store_bytes(quiet.floor());
        let want_visible = store_bytes(&quiet.visible());
        let horizon = fault_free_baseline(alg, &batch, &q, NODES, &RunOptions::default())
            .report
            .stats
            .makespan_ns();
        for seed in SEEDS {
            let plan = FaultPlan::seeded_severity(seed, NODES, horizon, 200);
            let cfg = ClusterConfig::fast_ethernet(NODES).with_faults(plan);
            let mut chaotic = MaintainedCube::from_relation(&base, 2).unwrap();
            chaotic
                .ingest_on_cluster(alg, &batch, &cfg)
                .unwrap_or_else(|e| panic!("{alg} seed {seed} refresh: {e}"));
            assert_eq!(
                store_bytes(chaotic.floor()),
                want_floor,
                "{alg} seed {seed}: floor diverged after crash-mid-refresh"
            );
            assert_eq!(
                store_bytes(&chaotic.visible()),
                want_visible,
                "{alg} seed {seed}: visible snapshot diverged"
            );
            assert_eq!(chaotic.epoch(), quiet.epoch(), "{alg} seed {seed}: epoch");
            // The simulator is deterministic, so replaying the identical
            // run surfaces its recovery counters for non-vacuity.
            let replay = run_parallel(alg, &batch, &q, &cfg)
                .unwrap_or_else(|e| panic!("{alg} seed {seed} replay: {e}"));
            crashes += replay.report.stats.total_crashes();
            recovered += replay.report.stats.total_tasks_recovered();
        }
    }
    assert!(crashes > 0, "no refresh ever saw a crash — vacuous battery");
    assert!(recovered > 0, "no refresh ever recovered a task");
}

#[test]
fn a_totally_lost_refresh_leaves_the_previous_epoch_intact() {
    // When every node dies the refresh fails typed — and merges nothing:
    // the maintained cube still serves the pre-refresh epoch, and simply
    // retrying on a healthy cluster lands the batch exactly.
    let whole = presets::tiny(5).generate().unwrap();
    let base = whole.slice(0, whole.len() / 2);
    let batch = whole.slice(whole.len() / 2, whole.len());
    let mut maintained = MaintainedCube::from_relation(&base, 2).unwrap();
    let epoch = maintained.epoch();
    let before = store_bytes(maintained.floor());

    let mut total_loss = FaultPlan::none();
    for node in 0..NODES {
        total_loss = total_loss.crash(node, 0);
    }
    let dead = ClusterConfig::fast_ethernet(NODES).with_faults(total_loss);
    match maintained.ingest_on_cluster(Algorithm::Bpp, &batch, &dead) {
        Err(AlgoError::ClusterExhausted { nodes: NODES }) => {}
        other => panic!("expected ClusterExhausted, got {other:?}"),
    }
    assert_eq!(
        maintained.epoch(),
        epoch,
        "a failed refresh publishes nothing"
    );
    assert_eq!(store_bytes(maintained.floor()), before, "floor untouched");

    // The retry converges to the fault-free result.
    maintained
        .ingest_on_cluster(Algorithm::Bpp, &batch, &ClusterConfig::fast_ethernet(NODES))
        .expect("healthy retry succeeds");
    let mut quiet = MaintainedCube::from_relation(&base, 2).unwrap();
    quiet
        .ingest_on_cluster(Algorithm::Bpp, &batch, &ClusterConfig::fast_ethernet(NODES))
        .expect("fault-free refresh succeeds");
    assert_eq!(store_bytes(maintained.floor()), store_bytes(quiet.floor()));
}

#[test]
fn fault_experiment_csv_bytes_are_identical_across_runs() {
    let ctx = |dir: &str| icecube_bench::Ctx {
        scale: 0.01,
        max_dims: 7,
        out_dir: std::env::temp_dir().join(dir),
    };
    let save = |dir: &str| {
        let ctx = ctx(dir);
        let report = icecube_bench::experiments::run_by_id("fault", &ctx).expect("fault is known");
        std::fs::create_dir_all(&ctx.out_dir).unwrap();
        let path = report.save_csv(&ctx.out_dir).unwrap();
        std::fs::read(path).unwrap()
    };
    let a = save("icecube-fault-csv-a");
    let b = save("icecube-fault-csv-b");
    assert!(!a.is_empty());
    assert_eq!(a, b, "results/fault.csv must be byte-identical per seed");
}
