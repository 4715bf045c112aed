//! Sequential BUC engines: depth-first (the original BUC of Beyer &
//! Ramakrishnan, Figure 2.9) and breadth-first writing (BPP-BUC,
//! Figure 3.5).
//!
//! Both engines compute the group-bys of one [`TreeTask`] — a full or
//! chopped subtree of the BUC processing tree — bottom-up with minimum
//! support pruning: a partition below the threshold can contribute no cell
//! to any descendant group-by, so it is dropped before recursing.
//!
//! The difference is **when cells are written**:
//!
//! * [`buc_depth_first`] writes each cell the moment its partition is
//!   aggregated, interleaving output across cuboids exactly as BUC's
//!   recursion visits them — the scattered writes RP inherits;
//! * [`bpp_buc`] completes a whole cuboid (all value combinations of the
//!   current prefix) and writes it contiguously before recursing — BPP's
//!   breadth-first writing, one file switch per cuboid.
//!
//! On the simulated disk the two orders differ only through the per-switch
//! penalty, which is precisely the paper's Figure 3.6 comparison.
//!
//! # Memory discipline (DESIGN §10)
//!
//! Both engines run **zero-clone**: every recursion frame works on a
//! `(start, end)` range of one reusable `u32` index arena owned by
//! [`BucScratch`]. The depth-first engine partitions its range in place,
//! exactly like the original BUC; the breadth-first engine gives each child
//! frame its copy of the parent's tuples by counting-sorting the parent
//! range directly into the region above the arena watermark
//! ([`Partitioner::scatter_refine`]) and compacting it in place — one move
//! per tuple, no owned `Vec` clones anywhere on the hot path. Group vectors
//! come from a small pool so steady-state recursion allocates nothing.
//! The simulated cost model is unchanged: the charge sequence is
//! call-for-call identical to the historical cloning kernel, which the
//! `tests/kernel_equivalence.rs` suite locks down.

// check:allow-file(panic-path): slice indexing and asserts in this
// module guard simulation-internal invariants over indices the module
// itself constructs; a violation is a bug, not runtime input. Tracked
// by the panic-path triage note in DESIGN section 12.

use crate::agg::Aggregate;
use crate::cell::{Cell, CellSink};
use crate::partition::{Group, Partitioner};
use icecube_cluster::{EventKind, SimNode};
use icecube_data::Relation;
use icecube_lattice::{CuboidMask, TreeTask};

/// Reusable scratch state for the BUC-family engines: the index arena the
/// recursion ranges over, a pool of group vectors (one grabbed per frame,
/// returned on unwind), the counting-sort partitioner, and the key buffer.
///
/// A scratch can be reused across tasks, relations, and engines — each
/// entry point re-seeds the arena prefix it needs. Buffers only ever grow,
/// so a driver that runs many tasks (RP's subtree loop, PT's demand
/// scheduler, the recovery sweeps) touches the allocator a bounded number
/// of times regardless of task count.
#[derive(Debug, Default)]
pub struct BucScratch {
    arena: Vec<u32>,
    pool: Vec<Vec<Group>>,
    part: Partitioner,
    key: Vec<u32>,
}

impl BucScratch {
    /// Creates an empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        BucScratch::default()
    }

    /// Re-seeds `arena[..n]` with the identity index `0..n`.
    fn seed_identity(&mut self, n: usize) {
        self.arena.clear();
        self.arena.extend(0..n as u32);
    }

    /// Re-seeds the arena prefix with a copy of `idx`.
    fn seed_from(&mut self, idx: &[u32]) {
        self.arena.clear();
        self.arena.extend_from_slice(idx);
    }
}

/// Computes `task`'s group-bys with the original depth-first-writing BUC.
pub fn buc_depth_first<S: CellSink>(
    rel: &Relation,
    minsup: u64,
    task: TreeTask,
    node: &mut SimNode,
    sink: &mut S,
) {
    buc_depth_first_with(&mut BucScratch::new(), rel, minsup, task, node, sink);
}

/// [`buc_depth_first`] with caller-provided scratch, for drivers that run
/// many tasks back to back (RP's subtree loop and recovery sweep).
pub fn buc_depth_first_with<S: CellSink>(
    scratch: &mut BucScratch,
    rel: &Relation,
    minsup: u64,
    task: TreeTask,
    node: &mut SimNode,
    sink: &mut S,
) {
    if rel.is_empty() {
        return;
    }
    debug_assert_eq!(task.d, rel.arity());
    let n = rel.len();
    scratch.seed_identity(n);
    let mut eng = Engine {
        rel,
        minsup,
        d: task.d,
        node,
        sink,
        scratch,
        top: n,
    };
    let rdims = task.root.dims();
    eng.df_descend((0, n as u32), &rdims, 0, task);
}

/// Computes `task`'s group-bys with BPP-BUC (breadth-first writing).
pub fn bpp_buc<S: CellSink>(
    rel: &Relation,
    minsup: u64,
    task: TreeTask,
    node: &mut SimNode,
    sink: &mut S,
) {
    bpp_buc_with(&mut BucScratch::new(), rel, minsup, task, node, sink);
}

/// [`bpp_buc`] with caller-provided scratch, for drivers that run many
/// tasks back to back (BPP's chunk loop and recovery sweep).
pub fn bpp_buc_with<S: CellSink>(
    scratch: &mut BucScratch,
    rel: &Relation,
    minsup: u64,
    task: TreeTask,
    node: &mut SimNode,
    sink: &mut S,
) {
    if rel.is_empty() {
        return;
    }
    debug_assert_eq!(task.d, rel.arity());
    let n = rel.len();
    scratch.seed_identity(n);
    let mut eng = Engine {
        rel,
        minsup,
        d: task.d,
        node,
        sink,
        scratch,
        top: n,
    };
    let mut groups = eng.grab_groups();
    groups.push((0u32, n as u32));
    eng.bpp_from_root(groups, task);
}

/// Computes `task`'s group-bys with BPP-BUC, over `scratch`, from an index
/// that is already sorted (grouped) by the task root's dimensions — PT's
/// entry point, which lets a worker reuse the sort it made for a previous
/// task with a shared root prefix (Section 3.4: "sort R on the root of T,
/// exploiting prefix affinity if possible").
///
/// `groups` must be the runs of equal root-dimension values over `idx`,
/// *unpruned* (this function applies the support filter itself). For a
/// task rooted at "all", pass the single group covering the whole index.
#[allow(clippy::too_many_arguments)]
pub fn bpp_buc_presorted_with<S: CellSink>(
    scratch: &mut BucScratch,
    rel: &Relation,
    minsup: u64,
    task: TreeTask,
    idx: &[u32],
    groups: &[Group],
    node: &mut SimNode,
    sink: &mut S,
) {
    if rel.is_empty() || idx.is_empty() {
        return;
    }
    debug_assert_eq!(task.d, rel.arity());
    scratch.seed_from(idx);
    let mut eng = Engine {
        rel,
        minsup,
        d: task.d,
        node,
        sink,
        scratch,
        top: idx.len(),
    };
    let mut root_groups = eng.grab_groups();
    root_groups.extend_from_slice(groups);
    if task.root.is_all() {
        // The root region [0, n) is only ever read by the children (each
        // scatter-refines it into the region above the watermark), so one
        // seeding serves every k — where the cloning kernel copied the
        // whole index per child dimension.
        for k in task.from_dim..task.d {
            eng.bpp_recurse(&root_groups, CuboidMask::ALL, k);
        }
    } else {
        let plen = eng.emit_cuboid_and_prune(0, &mut root_groups, task.root);
        if plen > 0 {
            eng.top = plen as usize;
            for k in task.from_dim..task.d {
                eng.bpp_recurse(&root_groups, task.root, k);
            }
        }
    }
    eng.release_groups(root_groups);
}

/// Shared state of one engine run. `top` is the arena watermark: frames at
/// the current recursion depth own `arena[..top]`; a child frame claims
/// `[top, top + len)`, advances `top` past its compacted survivors while
/// recursing, and restores it on unwind.
struct Engine<'a, S: CellSink> {
    rel: &'a Relation,
    minsup: u64,
    d: usize,
    node: &'a mut SimNode,
    sink: &'a mut S,
    scratch: &'a mut BucScratch,
    top: usize,
}

impl<'a, S: CellSink> Engine<'a, S> {
    /// Grabs a cleared group vector from the pool (or allocates the pool's
    /// first few on a cold start).
    fn grab_groups(&mut self) -> Vec<Group> {
        let mut g = self.scratch.pool.pop().unwrap_or_default();
        g.clear();
        g
    }

    /// Returns a group vector to the pool, keeping its capacity.
    fn release_groups(&mut self, g: Vec<Group>) {
        self.scratch.pool.push(g);
    }

    /// Grows the arena (never shrinks, never re-zeroes live data) so that
    /// `arena[..needed]` is addressable.
    fn ensure_arena(&mut self, needed: usize) {
        if self.scratch.arena.len() < needed {
            self.scratch.arena.resize(needed, 0);
        }
    }

    /// Aggregates the arena range `[s, e)` and charges the per-tuple
    /// update cost.
    fn aggregate(&mut self, s: u32, e: u32) -> Aggregate {
        let mut agg = Aggregate::empty();
        for &row in &self.scratch.arena[s as usize..e as usize] {
            agg.update(self.rel.measure(row as usize));
        }
        self.node.charge_agg_updates((e - s) as u64);
        agg
    }

    /// Fills the key buffer with the cell key of the group starting at `row`.
    fn project_key(&mut self, mask: CuboidMask, row: u32) {
        let key = &mut self.scratch.key;
        key.clear();
        key.resize(mask.dim_count(), 0);
        mask.project_row(self.rel.row(row as usize), key);
    }

    /// Counting-sorts the arena range by `dim`, appending groups to `out`.
    fn split(&mut self, range: Group, dim: usize, out: &mut Vec<Group>) {
        self.scratch.part.split(
            self.rel,
            &mut self.scratch.arena,
            range,
            dim,
            self.node,
            out,
        );
    }

    // ---- depth-first (BUC / RP) -------------------------------------

    /// Navigates the task root's dimensions; partitions below the support
    /// threshold are pruned (their cells, and all refinements, cannot
    /// qualify). Intermediate prefixes' cells belong to other tasks and
    /// are not emitted; the root cuboid's cells are.
    fn df_descend(&mut self, range: Group, rdims: &[usize], depth: usize, task: TreeTask) {
        if depth == rdims.len() {
            if rdims.is_empty() {
                // Whole-lattice task: no root cell (the "all" node is
                // special), go straight to the subtree loop.
                self.df(range, CuboidMask::ALL, task.from_dim);
            }
            return;
        }
        let dim = rdims[depth];
        let mut groups = self.grab_groups();
        self.split(range, dim, &mut groups);
        let last = depth + 1 == rdims.len();
        for &(s, e) in &groups {
            if ((e - s) as u64) < self.minsup {
                continue;
            }
            if last {
                // This is a cell of the task's root cuboid: BUC writes the
                // aggregate before recursing (Figure 2.9, line 13).
                let agg = self.aggregate(s, e);
                let first = self.scratch.arena[s as usize];
                self.project_key(task.root, first);
                self.emit_one(task.root, &agg);
                self.df((s, e), task.root, task.from_dim);
            } else {
                self.df_descend((s, e), rdims, depth + 1, task);
            }
        }
        self.release_groups(groups);
    }

    /// The BUC recursion: extend `mask` by each dimension `k ≥ from`,
    /// writing each qualifying cell then refining it depth-first. The
    /// range is partitioned strictly in place, so a parent's sibling
    /// groups are untouched by the recursion below.
    fn df(&mut self, range: Group, mask: CuboidMask, from: usize) {
        self.node.trace_event(EventKind::Depth {
            depth: mask.dim_count() as u32,
        });
        for k in from..self.d {
            let mut groups = self.grab_groups();
            self.split(range, k, &mut groups);
            let child = mask.with_dim(k);
            for &(s, e) in &groups {
                if ((e - s) as u64) < self.minsup {
                    continue;
                }
                let agg = self.aggregate(s, e);
                let first = self.scratch.arena[s as usize];
                self.project_key(child, first);
                self.emit_one(child, &agg);
                self.df((s, e), child, k + 1);
            }
            self.release_groups(groups);
        }
    }

    /// Writes a single cell immediately (depth-first / scattered writing).
    fn emit_one(&mut self, cuboid: CuboidMask, agg: &Aggregate) {
        self.sink.emit(cuboid, &self.scratch.key, agg);
        self.node.write_cells(
            cuboid.bits() as u64,
            Cell::disk_bytes(self.scratch.key.len()),
            1,
        );
    }

    // ---- breadth-first (BPP-BUC / BPP / PT) --------------------------

    /// Descends to the task root (pruning, not emitting, intermediate
    /// prefixes — they belong to other tasks), emits the root cuboid, then
    /// recurses over the allowed child dimensions. The descent refines and
    /// compacts the arena prefix `[0, len)` in place.
    fn bpp_from_root(&mut self, mut groups: Vec<Group>, task: TreeTask) {
        let rdims = task.root.dims();
        let mut mask = CuboidMask::ALL;
        let mut len = self.top as u32;
        for (i, &dim) in rdims.iter().enumerate() {
            let mut fine = self.grab_groups();
            {
                let BucScratch { arena, part, .. } = &mut *self.scratch;
                part.refine(self.rel, arena, &groups, dim, self.node, &mut fine);
            }
            mask = mask.with_dim(dim);
            len = if i + 1 == rdims.len() {
                self.emit_cuboid_and_prune(0, &mut fine, mask)
            } else {
                self.prune_only(&mut fine)
            };
            let spent = std::mem::replace(&mut groups, fine);
            self.release_groups(spent);
            if len == 0 {
                self.release_groups(groups);
                return;
            }
        }
        self.top = len as usize;
        for k in task.from_dim..self.d {
            self.bpp_recurse(&groups, mask, k);
        }
        self.release_groups(groups);
    }

    /// One BPP-BUC call: scatter-refine the (already prefix-grouped)
    /// parent region by `k` into the region above the watermark, write the
    /// whole cuboid `mask ∪ {k}` contiguously, compact the survivors in
    /// place, recurse. The parent region is read, never written, so every
    /// sibling dimension sees it intact — the property the cloning kernel
    /// bought with an owned copy per child.
    fn bpp_recurse(&mut self, groups: &[Group], mask: CuboidMask, k: usize) {
        self.node.trace_event(EventKind::Depth {
            depth: mask.dim_count() as u32 + 1,
        });
        let dst_base = self.top as u32;
        let total: u32 = groups.iter().map(|&(s, e)| e - s).sum();
        self.ensure_arena(self.top + total as usize);
        let mut fine = self.grab_groups();
        {
            let BucScratch { arena, part, .. } = &mut *self.scratch;
            part.scatter_refine(self.rel, arena, groups, dst_base, k, self.node, &mut fine);
        }
        let child = mask.with_dim(k);
        let plen = self.emit_cuboid_and_prune(dst_base, &mut fine, child);
        if plen > 0 {
            self.top = (dst_base + plen) as usize;
            for k2 in k + 1..self.d {
                self.bpp_recurse(&fine, child, k2);
            }
            self.top = dst_base as usize;
        }
        self.release_groups(fine);
    }

    /// Emits every qualifying cell of `mask` (one contiguous write) and
    /// compacts the qualifying groups' tuples to the front of the region
    /// at `base`, rewriting `groups` to the compacted layout. Returns the
    /// compacted length.
    ///
    /// The compaction write cursor never passes the group being read
    /// (groups are ascending and survivors only shrink the span), so the
    /// in-place `copy_within` cannot clobber unread tuples.
    fn emit_cuboid_and_prune(
        &mut self,
        base: u32,
        groups: &mut Vec<Group>,
        mask: CuboidMask,
    ) -> u32 {
        let kd = mask.dim_count();
        let mut w = base;
        let mut kept = 0usize;
        let mut cells = 0u64;
        for i in 0..groups.len() {
            let (s, e) = groups[i];
            if ((e - s) as u64) < self.minsup {
                continue;
            }
            let agg = self.aggregate(s, e);
            let first = self.scratch.arena[s as usize];
            self.project_key(mask, first);
            self.sink.emit(mask, &self.scratch.key, &agg);
            cells += 1;
            let len = e - s;
            self.scratch
                .arena
                .copy_within(s as usize..e as usize, w as usize);
            groups[kept] = (w, w + len);
            kept += 1;
            w += len;
        }
        groups.truncate(kept);
        if cells > 0 {
            // One contiguous write for the whole cuboid: breadth-first.
            self.node
                .write_cells(mask.bits() as u64, cells * Cell::disk_bytes(kd), cells);
        }
        self.node.charge_moves((w - base) as u64);
        w - base
    }

    /// Compacts the arena prefix to tuples in qualifying groups without
    /// emitting (used while descending to a chopped task's root). Returns
    /// the compacted length; when every group qualifies this is free — no
    /// tuple moves, no move charge, matching the cost model's treatment of
    /// a prune that keeps everything.
    fn prune_only(&mut self, groups: &mut Vec<Group>) -> u32 {
        if groups.iter().all(|&(s, e)| ((e - s) as u64) >= self.minsup) {
            return groups.last().map_or(0, |&(_, e)| e);
        }
        let mut w = 0u32;
        let mut kept = 0usize;
        for i in 0..groups.len() {
            let (s, e) = groups[i];
            if ((e - s) as u64) < self.minsup {
                continue;
            }
            let len = e - s;
            self.scratch
                .arena
                .copy_within(s as usize..e as usize, w as usize);
            groups[kept] = (w, w + len);
            kept += 1;
            w += len;
        }
        groups.truncate(kept);
        self.node.charge_moves(w as u64);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{sort_cells, CellBuf};
    use crate::fixtures::sales;
    use crate::naive::naive_iceberg_cube;
    use crate::query::IcebergQuery;
    use icecube_cluster::{ClusterConfig, SimCluster};
    use icecube_data::presets;

    fn run_engine(
        rel: &Relation,
        minsup: u64,
        task: TreeTask,
        depth_first: bool,
    ) -> (Vec<Cell>, SimCluster) {
        let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut sink = CellBuf::collecting();
        if depth_first {
            buc_depth_first(rel, minsup, task, &mut cluster.nodes[0], &mut sink);
        } else {
            bpp_buc(rel, minsup, task, &mut cluster.nodes[0], &mut sink);
        }
        let mut cells = sink.into_cells();
        sort_cells(&mut cells);
        (cells, cluster)
    }

    fn check_against_naive(rel: &Relation, minsup: u64) {
        let d = rel.arity();
        let want = naive_iceberg_cube(rel, &IcebergQuery::count_cube(d, minsup));
        let task = TreeTask::whole_lattice(d);
        let (df, _) = run_engine(rel, minsup, task, true);
        let (bf, _) = run_engine(rel, minsup, task, false);
        assert_eq!(df, want, "depth-first BUC mismatch at minsup {minsup}");
        assert_eq!(bf, want, "BPP-BUC mismatch at minsup {minsup}");
    }

    #[test]
    fn both_engines_match_naive_on_sales() {
        let rel = sales();
        for minsup in [1, 2, 3, 6, 18, 19] {
            check_against_naive(&rel, minsup);
        }
    }

    #[test]
    fn both_engines_match_naive_on_skewed_synthetic() {
        for seed in 0..3 {
            let rel = presets::tiny(seed).generate().unwrap();
            for minsup in [1, 2, 5] {
                check_against_naive(&rel, minsup);
            }
        }
    }

    #[test]
    fn subtree_tasks_cover_exactly_their_members() {
        let rel = presets::tiny(7).generate().unwrap();
        let minsup = 2;
        let want = naive_iceberg_cube(&rel, &IcebergQuery::count_cube(4, minsup));
        for target in [1usize, 3, 8, 15] {
            let tasks = icecube_lattice::divide_tasks(4, target);
            let mut all = Vec::new();
            for &task in &tasks {
                let (mut cells, _) = run_engine(&rel, minsup, task, false);
                // Each task emits only its own cuboids.
                let members: std::collections::HashSet<_> = task.members().into_iter().collect();
                assert!(cells.iter().all(|c| members.contains(&c.cuboid)));
                all.append(&mut cells);
            }
            sort_cells(&mut all);
            assert_eq!(all, want, "target {target}");
        }
    }

    #[test]
    fn depth_first_tasks_also_cover_their_members() {
        let rel = presets::tiny(9).generate().unwrap();
        let want = naive_iceberg_cube(&rel, &IcebergQuery::count_cube(4, 2));
        // RP-style: one full subtree per dimension.
        let mut all = Vec::new();
        for k in 0..4 {
            let task = TreeTask::full_subtree(CuboidMask::from_dims(&[k]), 4);
            let (mut cells, _) = run_engine(&rel, 2, task, true);
            all.append(&mut cells);
        }
        sort_cells(&mut all);
        assert_eq!(all, want);
    }

    #[test]
    fn breadth_first_switches_files_less() {
        // The Figure 3.6 effect at engine level: same cells, far fewer
        // file switches under breadth-first writing.
        let rel = presets::tiny(3).generate().unwrap();
        let task = TreeTask::whole_lattice(4);
        let (df_cells, df) = run_engine(&rel, 1, task, true);
        let (bf_cells, bf) = run_engine(&rel, 1, task, false);
        assert_eq!(df_cells, bf_cells);
        let df_switches = df.nodes[0].stats.file_switches;
        let bf_switches = bf.nodes[0].stats.file_switches;
        assert!(
            df_switches > 3 * bf_switches,
            "depth-first {df_switches} vs breadth-first {bf_switches}"
        );
        assert!(df.nodes[0].stats.disk_write_ns > bf.nodes[0].stats.disk_write_ns);
    }

    #[test]
    fn pruning_reduces_work() {
        let rel = presets::tiny(5).generate().unwrap();
        let task = TreeTask::whole_lattice(4);
        let (_, loose) = run_engine(&rel, 1, task, false);
        let (_, tight) = run_engine(&rel, 8, task, false);
        assert!(tight.nodes[0].stats.cpu_ns < loose.nodes[0].stats.cpu_ns);
        assert!(tight.nodes[0].stats.cells_written < loose.nodes[0].stats.cells_written);
    }

    #[test]
    fn empty_relation_emits_nothing() {
        let rel = Relation::new(icecube_data::Schema::from_cardinalities(&[2, 2]).unwrap());
        let (cells, _) = run_engine(&rel, 1, TreeTask::whole_lattice(2), false);
        assert!(cells.is_empty());
        let (cells, _) = run_engine(&rel, 1, TreeTask::whole_lattice(2), true);
        assert!(cells.is_empty());
    }

    #[test]
    fn minsup_above_data_size_emits_nothing() {
        let rel = sales();
        let (cells, _) = run_engine(&rel, 100, TreeTask::whole_lattice(3), false);
        assert!(cells.is_empty());
    }
}
