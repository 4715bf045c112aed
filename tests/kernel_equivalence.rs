//! Cross-kernel equivalence: the zero-clone arena kernel must be
//! observationally indistinguishable from a freshly specified BUC — same
//! cells as the brute-force reference, and bit-identical simulated cost
//! statistics run to run. The cells check catches wrong answers; the
//! stats check catches any drift in the charge sequence (the arena
//! rewrite must not add, drop, merge, or reorder a single `charge_*`
//! call, because fault injection keys off exact virtual times).

use icecube::cluster::{ClusterConfig, FaultPlan, SimCluster};
use icecube::core::aht::AhtHash;
use icecube::core::buc::{bpp_buc, bpp_buc_with, BucScratch};
use icecube::core::cell::CellBuf;
use icecube::core::naive::naive_iceberg_cube;
use icecube::core::sequential::{run_sequential, SeqAlgorithm};
use icecube::core::verify::assert_same_cells;
use icecube::core::{
    run_parallel, run_parallel_exec, run_parallel_with, Algorithm, IcebergQuery, RunOptions,
};
use icecube::data::{Relation, SyntheticSpec};
use icecube::exec::{Backend, ExecError, ExecReport, Executor, TaskSpec, Workload};
use icecube::lattice::{CuboidMask, TreeTask};
use icecube::online::pol::exact_answer;
use icecube::online::{run_pol, PolQuery};
use icecube::trace::{chrome_trace_json, phase_cost_csv};

const SEEDS: [u64; 8] = [3, 11, 29, 47, 101, 211, 499, 997];

fn workload(seed: u64) -> Relation {
    // Vary the shape with the seed so the sweep covers skew, width, and
    // density rather than eight draws of one distribution.
    let (cards, skews) = match seed % 4 {
        0 => (vec![8u32, 6, 4], vec![0.0, 0.0, 0.0]),
        1 => (vec![20, 10, 5, 3], vec![1.2, 0.0, 0.5, 0.0]),
        2 => (vec![4, 4, 4, 4, 4], vec![0.0, 1.5, 0.0, 1.5, 0.0]),
        _ => (vec![30, 2, 12], vec![0.8, 0.0, 1.0]),
    };
    SyntheticSpec::uniform(300, cards, seed)
        .with_skews(skews)
        .generate()
        .unwrap()
}

#[test]
fn every_algorithm_matches_naive_with_deterministic_stats() {
    for seed in SEEDS {
        let rel = workload(seed);
        for minsup in [1u64, 3] {
            let q = IcebergQuery::count_cube(rel.arity(), minsup);
            let want = naive_iceberg_cube(&rel, &q);
            for alg in Algorithm::all() {
                let cfg = ClusterConfig::fast_ethernet(4);
                let ctx = format!("{alg}, seed {seed}, minsup {minsup}");
                let a = run_parallel(alg, &rel, &q, &cfg).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let b = run_parallel(alg, &rel, &q, &cfg).unwrap();
                assert_same_cells(want.clone(), a.cells.clone(), &ctx);
                // Two identical runs must agree on every counter and every
                // final virtual clock, bit for bit.
                assert_eq!(a.report.stats, b.report.stats, "stats drift: {ctx}");
                assert_eq!(a.cells, b.cells, "cell drift: {ctx}");
            }
        }
    }
}

#[test]
fn sequential_kernels_match_naive_with_deterministic_stats() {
    for seed in SEEDS {
        let rel = workload(seed);
        let q = IcebergQuery::count_cube(rel.arity(), 2);
        let want = naive_iceberg_cube(&rel, &q);
        let cfg = ClusterConfig::fast_ethernet(1);
        for alg in [SeqAlgorithm::Buc, SeqAlgorithm::BppBuc] {
            let ctx = format!("{alg:?}, seed {seed}");
            let a = run_sequential(alg, &rel, &q, &cfg).unwrap();
            let b = run_sequential(alg, &rel, &q, &cfg).unwrap();
            assert_same_cells(want.clone(), a.cells.clone(), &ctx);
            assert_eq!(a.report.stats, b.report.stats, "stats drift: {ctx}");
            assert_eq!(a.report.wall_ns, b.report.wall_ns, "clock drift: {ctx}");
        }
    }
}

#[test]
fn scratch_reuse_is_invisible_to_cells_and_charges() {
    // Running many kernels through one reused scratch must be
    // indistinguishable from giving each its own fresh scratch: the arena
    // is host-side memory, invisible to the simulated cost model.
    let mut scratch = BucScratch::new();
    for seed in SEEDS {
        let rel = workload(seed);
        let task = TreeTask::whole_lattice(rel.arity());

        let mut fresh_cluster = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut fresh_sink = CellBuf::collecting();
        bpp_buc(&rel, 2, task, &mut fresh_cluster.nodes[0], &mut fresh_sink);

        let mut reused_cluster = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut reused_sink = CellBuf::collecting();
        bpp_buc_with(
            &mut scratch,
            &rel,
            2,
            task,
            &mut reused_cluster.nodes[0],
            &mut reused_sink,
        );

        assert_eq!(
            fresh_sink.into_cells(),
            reused_sink.into_cells(),
            "seed {seed}: reused scratch changed the cells"
        );
        assert_eq!(
            fresh_cluster.nodes[0].stats, reused_cluster.nodes[0].stats,
            "seed {seed}: reused scratch changed the charges"
        );
        assert_eq!(
            fresh_cluster.nodes[0].clock_ns(),
            reused_cluster.nodes[0].clock_ns(),
            "seed {seed}: reused scratch changed the clock"
        );
    }
}

/// FNV-1a over the debug rendering of a run's cells and statistics — the
/// repo's canonical bit-identity fingerprint for a full simulated run.
fn fingerprint(cells: &[icecube::core::Cell], stats: &impl std::fmt::Debug) -> u64 {
    fnv(&format!("{cells:?}|{stats:?}"))
}

fn fnv(rendered: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in rendered.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Golden fingerprints of every (algorithm, seed, minsup) configuration
/// on four Fast-Ethernet nodes. The ASL/AHT rows were recorded from the
/// pre-arena kernels (boxed skiplist nodes, per-cell `Box` hash keys);
/// the RP/BPP/PT rows from the hand-written `run_*` schedulers, before
/// the simulated cluster was driven from the executor plans. The
/// HashTree rows were re-recorded when the hash-tree attempt became a
/// one-task plan on `SimExecutor`: its task now pays `task_overhead_ns`
/// (one more task and 200 µs more CPU on node 0, every clock 200 µs
/// later) like every other task, and nothing else moved. Any rewrite
/// must reproduce each run bit for bit: same cells in the same order,
/// same charge counters, same virtual clocks, same skiplist RNG draws.
const GOLDEN_FPS: [(Algorithm, u64, u64, u64); 96] = [
    (Algorithm::Asl, 3, 1, 0xf8dd6d97d19f81bd),
    (Algorithm::Asl, 3, 3, 0x665f1980c5a43f3e),
    (Algorithm::Asl, 11, 1, 0x4673d81728fb9c26),
    (Algorithm::Asl, 11, 3, 0xd615866b1ddb6c70),
    (Algorithm::Asl, 29, 1, 0x482f2632461a055c),
    (Algorithm::Asl, 29, 3, 0x554443fd656b488c),
    (Algorithm::Asl, 47, 1, 0x649f3cb4f82be3cc),
    (Algorithm::Asl, 47, 3, 0x0733b6f2eba60ab4),
    (Algorithm::Asl, 101, 1, 0x325fed83b20f48e3),
    (Algorithm::Asl, 101, 3, 0xef8f7d014233d765),
    (Algorithm::Asl, 211, 1, 0x0ef616f175aacd71),
    (Algorithm::Asl, 211, 3, 0xb97d857458d61aba),
    (Algorithm::Asl, 499, 1, 0xb3bec201bf26ba4c),
    (Algorithm::Asl, 499, 3, 0x4c59979b1bb44e98),
    (Algorithm::Asl, 997, 1, 0x19ec7ce37049561d),
    (Algorithm::Asl, 997, 3, 0x2beb7fb263544568),
    (Algorithm::Aht, 3, 1, 0x33997f43485088db),
    (Algorithm::Aht, 3, 3, 0xd645d65d25cb14d1),
    (Algorithm::Aht, 11, 1, 0xfe596569c163435e),
    (Algorithm::Aht, 11, 3, 0x1faa902cf96377f2),
    (Algorithm::Aht, 29, 1, 0x28aede27dafdd3f6),
    (Algorithm::Aht, 29, 3, 0xc4da188bc615f99b),
    (Algorithm::Aht, 47, 1, 0xb776ac29e6f11367),
    (Algorithm::Aht, 47, 3, 0x7d313947b84e0986),
    (Algorithm::Aht, 101, 1, 0x12e8e4cfe8605cbd),
    (Algorithm::Aht, 101, 3, 0xb412ebefadce7218),
    (Algorithm::Aht, 211, 1, 0xa6e033db22c32166),
    (Algorithm::Aht, 211, 3, 0x91ca02cf091005e7),
    (Algorithm::Aht, 499, 1, 0x6672027e9f18b574),
    (Algorithm::Aht, 499, 3, 0xff822ecb30e407e6),
    (Algorithm::Aht, 997, 1, 0x4b267da3fbb67d82),
    (Algorithm::Aht, 997, 3, 0x80a97d688d46ab2e),
    (Algorithm::Rp, 3, 1, 0xc31c1564ea05fa72),
    (Algorithm::Rp, 3, 3, 0x40de290519a1e826),
    (Algorithm::Rp, 11, 1, 0x4571061294456cc4),
    (Algorithm::Rp, 11, 3, 0x19318703a827d446),
    (Algorithm::Rp, 29, 1, 0x04b0c76b60c3db7c),
    (Algorithm::Rp, 29, 3, 0x7fd60a684046504a),
    (Algorithm::Rp, 47, 1, 0x4dc3064d6dbda748),
    (Algorithm::Rp, 47, 3, 0x3478f6e910daf47b),
    (Algorithm::Rp, 101, 1, 0x42e6f40e7c85a92d),
    (Algorithm::Rp, 101, 3, 0xc1049d18f8f47544),
    (Algorithm::Rp, 211, 1, 0x91378044ed374b14),
    (Algorithm::Rp, 211, 3, 0x165fc00c8754024b),
    (Algorithm::Rp, 499, 1, 0x23c9c2816f3ea38f),
    (Algorithm::Rp, 499, 3, 0xf79d96eb85bfb274),
    (Algorithm::Rp, 997, 1, 0x412705c3faee0ccc),
    (Algorithm::Rp, 997, 3, 0x4556db6560a6b90d),
    (Algorithm::Bpp, 3, 1, 0xce57c5da78983f1d),
    (Algorithm::Bpp, 3, 3, 0x28d82f85f86dc904),
    (Algorithm::Bpp, 11, 1, 0x07faeb7ead115a53),
    (Algorithm::Bpp, 11, 3, 0x54e32836301714c8),
    (Algorithm::Bpp, 29, 1, 0xbb1fe3f15d2e6c2e),
    (Algorithm::Bpp, 29, 3, 0x3f138a6ac436f116),
    (Algorithm::Bpp, 47, 1, 0x474ee673fefccf16),
    (Algorithm::Bpp, 47, 3, 0x5a35b913fe5cb803),
    (Algorithm::Bpp, 101, 1, 0x0433f0baa6a5a131),
    (Algorithm::Bpp, 101, 3, 0x89c31dbd8907f7ed),
    (Algorithm::Bpp, 211, 1, 0x11776f7dd9fe3fc9),
    (Algorithm::Bpp, 211, 3, 0xbe1aa3cceed3cb56),
    (Algorithm::Bpp, 499, 1, 0x0b37894d411bd9b4),
    (Algorithm::Bpp, 499, 3, 0x4ccbe36025fe3533),
    (Algorithm::Bpp, 997, 1, 0x030132d048ca33c9),
    (Algorithm::Bpp, 997, 3, 0xd5e539da76580d7a),
    (Algorithm::Pt, 3, 1, 0x8ae460e0dd40e9ae),
    (Algorithm::Pt, 3, 3, 0x8ba5aa13695b0f78),
    (Algorithm::Pt, 11, 1, 0xaa2f3fca59e0ded2),
    (Algorithm::Pt, 11, 3, 0x261f066de8f9fbbe),
    (Algorithm::Pt, 29, 1, 0x79028867385b6a9d),
    (Algorithm::Pt, 29, 3, 0x0d03a1bce7360c65),
    (Algorithm::Pt, 47, 1, 0xb5c9421ad56cfeda),
    (Algorithm::Pt, 47, 3, 0x7486ded9bd6046f2),
    (Algorithm::Pt, 101, 1, 0xc253058a79abd04a),
    (Algorithm::Pt, 101, 3, 0x1dfcdee118b907ee),
    (Algorithm::Pt, 211, 1, 0x702b72d7ebe56b95),
    (Algorithm::Pt, 211, 3, 0x82e99b7f31eafa6d),
    (Algorithm::Pt, 499, 1, 0x6d8d7b074880ec5d),
    (Algorithm::Pt, 499, 3, 0xa262eeee9339c766),
    (Algorithm::Pt, 997, 1, 0x564694aea0416d56),
    (Algorithm::Pt, 997, 3, 0xdcc609ef767d6dab),
    (Algorithm::HashTree, 3, 1, 0x7722b60f31209869),
    (Algorithm::HashTree, 3, 3, 0x593a86bf2d315e19),
    (Algorithm::HashTree, 11, 1, 0xdbc06693395d7594),
    (Algorithm::HashTree, 11, 3, 0x9203740b9207d638),
    (Algorithm::HashTree, 29, 1, 0x3c892866863dd6a5),
    (Algorithm::HashTree, 29, 3, 0x376b0e02310e5593),
    (Algorithm::HashTree, 47, 1, 0xb8bd7955c5987859),
    (Algorithm::HashTree, 47, 3, 0x6fdaee263e05979a),
    (Algorithm::HashTree, 101, 1, 0xa6b74a1a189728d7),
    (Algorithm::HashTree, 101, 3, 0xaf18a7b62b1eeb85),
    (Algorithm::HashTree, 211, 1, 0xd87270c038ddd5d1),
    (Algorithm::HashTree, 211, 3, 0x082b2797050eb423),
    (Algorithm::HashTree, 499, 1, 0x28ebba7de8b5a136),
    (Algorithm::HashTree, 499, 3, 0xd7c96c05fb6ed3a2),
    (Algorithm::HashTree, 997, 1, 0x2d8c992bd2cb25a1),
    (Algorithm::HashTree, 997, 3, 0x54bbb2ad802b7b28),
];

/// Every golden row through the one public entry point, all drifted rows
/// reported at once.
#[test]
fn simulated_runs_match_their_golden_fingerprints() {
    let mut drifted = Vec::new();
    for (alg, seed, minsup, golden) in GOLDEN_FPS {
        let rel = workload(seed);
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        let ctx = format!("{alg}, seed {seed}, minsup {minsup}");
        let out = run_parallel(alg, &rel, &q, &ClusterConfig::fast_ethernet(4))
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_same_cells(naive_iceberg_cube(&rel, &q), out.cells.clone(), &ctx);
        let fp = fingerprint(&out.cells, &out.report.stats);
        if fp != golden {
            drifted.push(format!("{ctx}: 0x{fp:016x} != golden 0x{golden:016x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "fingerprint drift:\n{}",
        drifted.join("\n")
    );
}

/// Golden fingerprints of every sequential algorithm on one Fast-Ethernet
/// node: each of `workload`'s four shapes (seeds 0–3) at minimum support
/// 1 and 2. The rows marked `true` run PipeHash again on a node with no
/// memory (`mem_mb = 0`), which forces its share-partitioned mode. Each
/// fingerprint covers the cells, the node's statistics and its final
/// virtual clock, so a rewrite of the top-down comparators must keep every
/// sort, scan, re-hash and write charge where it was.
const GOLDEN_SEQ_FPS: [(SeqAlgorithm, u64, u64, bool, u64); 64] = [
    (SeqAlgorithm::Naive, 0, 1, false, 0x308c1160052d3e01),
    (SeqAlgorithm::Naive, 0, 2, false, 0xf032c98658f8344d),
    (SeqAlgorithm::Naive, 1, 1, false, 0xfb8c6a9c485c1b26),
    (SeqAlgorithm::Naive, 1, 2, false, 0x75eb969bc65fb6d4),
    (SeqAlgorithm::Naive, 2, 1, false, 0x83395e1f594f3eb4),
    (SeqAlgorithm::Naive, 2, 2, false, 0xdea9036608bcc9c6),
    (SeqAlgorithm::Naive, 3, 1, false, 0xe6584688645cd54c),
    (SeqAlgorithm::Naive, 3, 2, false, 0x996278cf1643a380),
    (SeqAlgorithm::Buc, 0, 1, false, 0x9cfb0aea806fa874),
    (SeqAlgorithm::Buc, 0, 2, false, 0x2bc4f5e0a3fa917b),
    (SeqAlgorithm::Buc, 1, 1, false, 0x5e76cad5cc70452c),
    (SeqAlgorithm::Buc, 1, 2, false, 0x247fa8191210d329),
    (SeqAlgorithm::Buc, 2, 1, false, 0xe33ac56612cb765a),
    (SeqAlgorithm::Buc, 2, 2, false, 0x823f9d2c6558a0d9),
    (SeqAlgorithm::Buc, 3, 1, false, 0xbd8b7c2118aca15c),
    (SeqAlgorithm::Buc, 3, 2, false, 0x7ff1e2551aa37b2d),
    (SeqAlgorithm::BppBuc, 0, 1, false, 0x8f7b99253068c6d8),
    (SeqAlgorithm::BppBuc, 0, 2, false, 0x12ec3624aec7a893),
    (SeqAlgorithm::BppBuc, 1, 1, false, 0xadc87815ce914689),
    (SeqAlgorithm::BppBuc, 1, 2, false, 0x063cc57d3cfb2dce),
    (SeqAlgorithm::BppBuc, 2, 1, false, 0x2fc02ae58601b3d6),
    (SeqAlgorithm::BppBuc, 2, 2, false, 0x614b6d8cbd552ac0),
    (SeqAlgorithm::BppBuc, 3, 1, false, 0x65aa408fd2c0ba4c),
    (SeqAlgorithm::BppBuc, 3, 2, false, 0xf0d7c26c700a37fc),
    (SeqAlgorithm::TopDownShared, 0, 1, false, 0xb3445623d947cb38),
    (SeqAlgorithm::TopDownShared, 0, 2, false, 0x2a70fc8f92d9d49a),
    (SeqAlgorithm::TopDownShared, 1, 1, false, 0x5201c957225f6414),
    (SeqAlgorithm::TopDownShared, 1, 2, false, 0x4aab8a802b054ec7),
    (SeqAlgorithm::TopDownShared, 2, 1, false, 0xdf9ce265393b1f99),
    (SeqAlgorithm::TopDownShared, 2, 2, false, 0xb9eac920a4187802),
    (SeqAlgorithm::TopDownShared, 3, 1, false, 0x160ae5a29e8d6a08),
    (SeqAlgorithm::TopDownShared, 3, 2, false, 0xf0f0c10ad60cbb5a),
    (SeqAlgorithm::Overlap, 0, 1, false, 0xd45df9deeaa50755),
    (SeqAlgorithm::Overlap, 0, 2, false, 0xe633ac3c24842200),
    (SeqAlgorithm::Overlap, 1, 1, false, 0x6795ff86dc4c829d),
    (SeqAlgorithm::Overlap, 1, 2, false, 0x8532de96ead6a17f),
    (SeqAlgorithm::Overlap, 2, 1, false, 0x0c754d618cbb21c8),
    (SeqAlgorithm::Overlap, 2, 2, false, 0x125ced1891d4e827),
    (SeqAlgorithm::Overlap, 3, 1, false, 0xe095215cbd1ff231),
    (SeqAlgorithm::Overlap, 3, 2, false, 0x84e9ea01f7bd0361),
    (SeqAlgorithm::PipeSort, 0, 1, false, 0x0621cb50dda72e27),
    (SeqAlgorithm::PipeSort, 0, 2, false, 0xfd5593ae84c8458d),
    (SeqAlgorithm::PipeSort, 1, 1, false, 0x89e83475d81dc8c4),
    (SeqAlgorithm::PipeSort, 1, 2, false, 0x8eee311059b53276),
    (SeqAlgorithm::PipeSort, 2, 1, false, 0xe929e3e695ae8e53),
    (SeqAlgorithm::PipeSort, 2, 2, false, 0x270b82369b70b3a1),
    (SeqAlgorithm::PipeSort, 3, 1, false, 0x8642430c5c16e734),
    (SeqAlgorithm::PipeSort, 3, 2, false, 0x1a43d4f69cb61f28),
    (SeqAlgorithm::PipeHash, 0, 1, false, 0xd6f01efe96dd39ac),
    (SeqAlgorithm::PipeHash, 0, 2, false, 0xb48edb0160fc7a59),
    (SeqAlgorithm::PipeHash, 1, 1, false, 0xe59af6ab3c236336),
    (SeqAlgorithm::PipeHash, 1, 2, false, 0x6d55cd28fe1c46b8),
    (SeqAlgorithm::PipeHash, 2, 1, false, 0xac1533609620dabb),
    (SeqAlgorithm::PipeHash, 2, 2, false, 0x10eeeb117bcc7656),
    (SeqAlgorithm::PipeHash, 3, 1, false, 0x285099c5c0fc410a),
    (SeqAlgorithm::PipeHash, 3, 2, false, 0x396f2ae6ff6c9b38),
    (SeqAlgorithm::PipeHash, 0, 1, true, 0x71d703baa528d91a),
    (SeqAlgorithm::PipeHash, 0, 2, true, 0x273825acf4d492b8),
    (SeqAlgorithm::PipeHash, 1, 1, true, 0xe6ac8a566339b57f),
    (SeqAlgorithm::PipeHash, 1, 2, true, 0x781dd2f213bb675f),
    (SeqAlgorithm::PipeHash, 2, 1, true, 0xba6c7a2af2abaeec),
    (SeqAlgorithm::PipeHash, 2, 2, true, 0xec94bdfe50ebe221),
    (SeqAlgorithm::PipeHash, 3, 1, true, 0xc729690bbbb1414d),
    (SeqAlgorithm::PipeHash, 3, 2, true, 0xb50a03415688b81b),
];

#[test]
fn sequential_runs_match_their_golden_fingerprints() {
    let mut drifted = Vec::new();
    for (alg, seed, minsup, no_memory, golden) in GOLDEN_SEQ_FPS {
        let rel = workload(seed);
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        let mut cfg = ClusterConfig::fast_ethernet(1);
        if no_memory {
            cfg.nodes[0].mem_mb = 0;
        }
        let ctx = format!("{alg}, seed {seed}, minsup {minsup}, no memory {no_memory}");
        let out = run_sequential(alg, &rel, &q, &cfg).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_same_cells(naive_iceberg_cube(&rel, &q), out.cells.clone(), &ctx);
        let node = (&out.report.stats.nodes()[0], out.report.wall_ns);
        let fp = fingerprint(&out.cells, &node);
        if fp != golden {
            drifted.push(format!("{ctx}: 0x{fp:016x} != golden 0x{golden:016x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "fingerprint drift:\n{}",
        drifted.join("\n")
    );
}

/// One golden per (algorithm, variant): the cluster shapes, fault plans,
/// option switches and trace exports that the seed × minsup sweep above
/// never reaches. Recorded from the hand-written `run_*` schedulers.
const GOLDEN_VARIANT_FPS: [(Algorithm, &str, u64); 24] = [
    (Algorithm::Rp, "crash", 0xad60efa489474137),
    (Algorithm::Rp, "heterogeneous_16", 0x69fd2a008a39a8db),
    (Algorithm::Rp, "no_affinity", 0x32bc9a15323839d3),
    (Algorithm::Rp, "traced_chaos", 0x39911ef2053aa6b7),
    (Algorithm::Bpp, "crash", 0x3413f9df001f1631),
    (Algorithm::Bpp, "heterogeneous_16", 0xbeeba4969186811f),
    (Algorithm::Bpp, "no_affinity", 0xd5a4d9b8cbbe5368),
    (Algorithm::Bpp, "bpp_partitioning", 0x0658e0d836d5904a),
    (Algorithm::Bpp, "traced_chaos", 0xf21f7e1cb436ea1b),
    (Algorithm::Asl, "crash", 0x679c23825849d719),
    (Algorithm::Asl, "heterogeneous_16", 0x1b1667dd4f4275c1),
    (Algorithm::Asl, "no_affinity", 0x16bfc1e64b88ee85),
    (Algorithm::Asl, "asl_longest_prefix", 0x310afd6e0d799106),
    (Algorithm::Asl, "traced_chaos", 0x1a8b8034a16a785b),
    (Algorithm::Pt, "crash", 0xeccf7862658adb4f),
    (Algorithm::Pt, "heterogeneous_16", 0xc12a7ed30fe150f3),
    (Algorithm::Pt, "no_affinity", 0x89a684d7f0e35312),
    (Algorithm::Pt, "pt_task_ratio_4", 0x1c57269a3c8d99a5),
    (Algorithm::Pt, "traced_chaos", 0xd55fa104c9b24c6d),
    (Algorithm::Aht, "crash", 0x8b01dc7fc6b81259),
    (Algorithm::Aht, "heterogeneous_16", 0x380b34d0c8ae94e2),
    (Algorithm::Aht, "no_affinity", 0x0fd4cc4ac4b6b491),
    (Algorithm::Aht, "aht_fibonacci", 0x1531e52f851a6131),
    (Algorithm::Aht, "traced_chaos", 0x2e63cb0f5fe5e227),
];

#[test]
fn variant_runs_match_their_golden_fingerprints() {
    let rel = workload(101); // four dimensions, skewed
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let want = naive_iceberg_cube(&rel, &q);
    let four = ClusterConfig::fast_ethernet(4);
    let defaults = RunOptions::default();
    let mut drifted = Vec::new();
    for (alg, variant, golden) in GOLDEN_VARIANT_FPS {
        let ctx = format!("{alg}, {variant}");
        let (cfg, opts) = match variant {
            "crash" => {
                // Node 0 dies a quarter of the way through the quiet run's
                // makespan, with a task in flight.
                let quiet = run_parallel(alg, &rel, &q, &four).unwrap();
                let plan = FaultPlan::none().crash(0, quiet.report.wall_ns / 4);
                (four.clone().with_faults(plan), defaults)
            }
            "heterogeneous_16" => (ClusterConfig::heterogeneous_16(), defaults),
            "no_affinity" => (
                four.clone(),
                RunOptions {
                    affinity: false,
                    ..defaults
                },
            ),
            "bpp_partitioning" => (
                four.clone(),
                RunOptions {
                    include_bpp_partitioning: true,
                    ..defaults
                },
            ),
            "asl_longest_prefix" => (
                four.clone(),
                RunOptions {
                    asl_longest_prefix: true,
                    ..defaults
                },
            ),
            "aht_fibonacci" => (
                four.clone(),
                RunOptions {
                    aht_hash: AhtHash::Fibonacci,
                    ..defaults
                },
            ),
            "pt_task_ratio_4" => (
                four.clone(),
                RunOptions {
                    pt_task_ratio: 4,
                    ..defaults
                },
            ),
            "traced_chaos" => {
                let plan = FaultPlan::seeded_severity(0x7ace, 4, 4_000_000, 200);
                (four.clone().with_trace().with_faults(plan), defaults)
            }
            other => panic!("unknown variant {other}"),
        };
        let out =
            run_parallel_with(alg, &rel, &q, &cfg, &opts).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_same_cells(want.clone(), out.cells.clone(), &ctx);
        if variant == "crash" {
            let lost = out.report.stats.total_tasks_lost();
            assert!(lost >= 1, "{ctx}: vacuous crash");
        }
        let fp = match &out.report.trace {
            // The exports render every event and every phase-cost delta.
            Some(log) => fnv(&(chrome_trace_json(log) + &phase_cost_csv(log))),
            None => fingerprint(&out.cells, &out.report.stats),
        };
        if fp != golden {
            drifted.push(format!("{ctx}: 0x{fp:016x} != golden 0x{golden:016x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "fingerprint drift:\n{}",
        drifted.join("\n")
    );
}

/// An executor that records the plan it is handed and runs nothing.
struct PlanRecorder(Vec<(u64, u64)>);

impl Executor for PlanRecorder {
    fn backend(&self) -> Backend {
        Backend::Native
    }

    fn workers(&self) -> usize {
        1
    }

    fn run<W: Workload>(
        &mut self,
        tasks: &[TaskSpec],
        _workload: &W,
    ) -> Result<(Vec<W::Out>, ExecReport), ExecError> {
        self.0 = tasks.iter().map(|t| (t.affinity, t.weight)).collect();
        Err(ExecError::BadPlan { id: usize::MAX })
    }
}

/// Fingerprints of the `(affinity, weight)` sequences, in slice order —
/// the order `NativeExecutor` injects contiguous blocks in — that
/// `run_parallel_exec` hands an executor, for d = 3, 6, 9. Task ids are
/// free to be renumbered; what the native pool runs, and in which order
/// it starts, is not.
const GOLDEN_NATIVE_PLANS: [(Algorithm, usize, u64); 15] = [
    (Algorithm::Rp, 3, 0xfd1a8859f740e686),
    (Algorithm::Rp, 6, 0x6448fd949ed3e32b),
    (Algorithm::Rp, 9, 0x8a169c6597a7f7ce),
    (Algorithm::Bpp, 3, 0xca13496327f83d57),
    (Algorithm::Bpp, 6, 0x7a1fa0e35993ae5d),
    (Algorithm::Bpp, 9, 0x913c599d7448cace),
    (Algorithm::Asl, 3, 0xb8e1b945d5da1f96),
    (Algorithm::Asl, 6, 0x3858bef816168065),
    (Algorithm::Asl, 9, 0x9264e3c2c6cf0a35),
    (Algorithm::Pt, 3, 0xbfe3609de15dad3b),
    (Algorithm::Pt, 6, 0xd4a6bfde2cbd56a2),
    (Algorithm::Pt, 9, 0x0c5cb185066cebec),
    (Algorithm::Aht, 3, 0xb8e1b945d5da1f96),
    (Algorithm::Aht, 6, 0xb615be9de3da8797),
    (Algorithm::Aht, 9, 0xe8021126ee5cd74b),
];

#[test]
fn native_plans_match_their_golden_fingerprints() {
    let mut drifted = Vec::new();
    for (alg, d, golden) in GOLDEN_NATIVE_PLANS {
        let rel = SyntheticSpec::uniform(300, vec![4; d], 17)
            .generate()
            .unwrap();
        let q = IcebergQuery::count_cube(d, 2);
        let mut recorder = PlanRecorder(Vec::new());
        let refused = run_parallel_exec(&mut recorder, alg, &rel, &q, &RunOptions::default());
        assert!(refused.is_err(), "the recorder runs nothing");
        assert!(!recorder.0.is_empty(), "{alg}, d={d}: no plan recorded");
        let fp = fnv(&format!("{:?}", recorder.0));
        if fp != golden {
            drifted.push(format!(
                "{alg}, d={d}: 0x{fp:016x} != golden 0x{golden:016x}"
            ));
        }
    }
    assert!(drifted.is_empty(), "plan drift:\n{}", drifted.join("\n"));
}

/// Golden fingerprints of POL (Sections 5.3–5.4) on four traced
/// Fast-Ethernet nodes: every seed's workload grouped by its first and
/// last dimension at minimum support 2, with work stealing on and off,
/// at an 8-tuple buffer (ten steps per node) and a 64-tuple buffer (two
/// steps). Each fingerprint covers the answer, the snapshots, the run
/// statistics, the stolen-task and skip-list-node counts, and both trace
/// exports, so a rewrite of POL's schedule must keep every sample, fetch,
/// fold, steal and barrier where it was.
const GOLDEN_POL_FPS: [(u64, bool, usize, u64); 32] = [
    (3, true, 8, 0x4c5e1805e6a15d82),
    (3, true, 64, 0xd93859717aa2ba35),
    (3, false, 8, 0xe4cebfcd20592745),
    (3, false, 64, 0xd93859717aa2ba35),
    (11, true, 8, 0xf0dca4f16d887588),
    (11, true, 64, 0x5ab5fd3af5b6e590),
    (11, false, 8, 0xbf1827995160f467),
    (11, false, 64, 0x5ab5fd3af5b6e590),
    (29, true, 8, 0xcea944e3948b0ead),
    (29, true, 64, 0x0262a42401a2c0d3),
    (29, false, 8, 0x48d86559306e9ba7),
    (29, false, 64, 0xeb268516039fa348),
    (47, true, 8, 0x9ee4cd0fb2fd7bb6),
    (47, true, 64, 0x56c2c831c18cd2c5),
    (47, false, 8, 0x57e944a4ff39b4d2),
    (47, false, 64, 0x56c2c831c18cd2c5),
    (101, true, 8, 0xbbd3da02a14de5ce),
    (101, true, 64, 0xc394b6f0e58d6f4c),
    (101, false, 8, 0x6658b22c1ee9acf6),
    (101, false, 64, 0xc394b6f0e58d6f4c),
    (211, true, 8, 0x180a23e8a624523e),
    (211, true, 64, 0xefba386ee0d60fdd),
    (211, false, 8, 0x68389b6c1b061fb7),
    (211, false, 64, 0xefba386ee0d60fdd),
    (499, true, 8, 0x5556e81920bf8b37),
    (499, true, 64, 0x7f250aa1d99b73a2),
    (499, false, 8, 0x3de36e3c5c7c3336),
    (499, false, 64, 0x7f250aa1d99b73a2),
    (997, true, 8, 0x1dcd5967cae48f8a),
    (997, true, 64, 0x9bc2c3bf9fa3cacd),
    (997, false, 8, 0x482b2a2758de231c),
    (997, false, 64, 0x809e076be5b80506),
];

#[test]
fn pol_runs_match_their_golden_fingerprints() {
    let cfg = ClusterConfig::fast_ethernet(4).with_trace();
    let mut drifted = Vec::new();
    let mut stolen = 0u64;
    for (seed, work_stealing, buffer_tuples, golden) in GOLDEN_POL_FPS {
        let rel = workload(seed);
        let query = PolQuery {
            buffer_tuples,
            work_stealing,
            ..PolQuery::new(CuboidMask::from_dims(&[0, rel.arity() - 1]), 2)
        };
        let ctx = format!("seed {seed}, stealing {work_stealing}, buffer {buffer_tuples}");
        let out = run_pol(&rel, &query, &cfg).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(out.cells, exact_answer(&rel, &query), "{ctx}: wrong answer");
        stolen += out.stolen_tasks;
        let log = out.trace.as_ref().expect("tracing was enabled");
        let exports = chrome_trace_json(log) + &phase_cost_csv(log);
        let fp = fingerprint(
            &out.cells,
            &(
                &out.snapshots,
                &out.stats,
                out.stolen_tasks,
                out.total_list_nodes,
                exports,
            ),
        );
        if fp != golden {
            drifted.push(format!("{ctx}: 0x{fp:016x} != golden 0x{golden:016x}"));
        }
    }
    assert!(stolen > 0, "no golden configuration steals a task");
    assert!(
        drifted.is_empty(),
        "fingerprint drift:\n{}",
        drifted.join("\n")
    );
}
