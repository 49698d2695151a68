//! Degree-aware aggregation schedules (GNNAdvisor-style neighbor
//! grouping).
//!
//! CSR aggregation kernels are row-parallel, but on power-law graphs
//! uniform row chunks are badly balanced: one hub row can carry more
//! work than a thousand leaf rows. The schedule built here groups
//! contiguous rows by degree instead:
//!
//! - a node whose work (`degree + 1`, counting the self term) reaches
//!   [`HEAVY_DEGREE`] becomes a **heavy** single-node group, which the
//!   kernels may additionally split across the feature dimension;
//! - lighter nodes are batched into groups of roughly
//!   [`LIGHT_GROUP_WORK`] work units, so tiny rows amortize their
//!   scheduling overhead.
//!
//! Groups are contiguous, ascending, and a pure function of the degree
//! sequence — never of the thread count. Workers pick up whole groups
//! (weighted by [`AggGroup::work`]), and each group's inner loop is the
//! identical serial code in every configuration, so kernels scheduled
//! this way keep the parallel-vs-serial bitwise-identity property.
//!
//! Forward aggregations gather over out-neighbors and backward
//! aggregations gather over the transpose's in-sources, so the two
//! passes see different degree sequences; [`AggSchedule`] carries one
//! grouping for each. The whole thing is computed once per
//! [`Graph`](crate::Graph) and cached alongside the degree-norm and
//! transpose caches.

use crate::csr::NodeId;

/// Work threshold (in `degree + 1` units) above which a node gets its
/// own schedule group. 64 matches GNNAdvisor's neighbor-group sizing:
/// a row this wide saturates a worker's inner loop on its own.
pub const HEAVY_DEGREE: usize = 64;

/// Target total work units per light (batched) group.
pub const LIGHT_GROUP_WORK: usize = 256;

/// A contiguous run of rows `start..end` scheduled as one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggGroup {
    /// First row of the group.
    pub start: NodeId,
    /// One past the last row.
    pub end: NodeId,
    /// Total work units (`Σ degree + 1`) over the rows.
    pub work: u64,
    /// Whether this is a single high-degree row that kernels may
    /// further split across the feature dimension.
    pub heavy: bool,
}

impl AggGroup {
    /// Number of rows in the group.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the group covers no rows (never produced by
    /// [`DegreeSchedule::build`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Degree-bucketed grouping of the rows `0..n` for one aggregation
/// direction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DegreeSchedule {
    /// Contiguous ascending groups covering every row exactly once.
    pub groups: Vec<AggGroup>,
    /// Total work units across all groups.
    pub total_work: u64,
    /// Number of heavy (single hub row) groups.
    pub heavy_groups: usize,
}

impl DegreeSchedule {
    /// Builds the grouping for `n` rows where row `v` has
    /// `degree(v)` neighbors to gather (the `+ 1` self/bookkeeping
    /// unit is added here).
    pub fn build(n: usize, degree: impl Fn(usize) -> usize) -> Self {
        let mut groups = Vec::new();
        let mut total_work = 0u64;
        let mut heavy_groups = 0usize;
        let mut run_start = 0usize;
        let mut run_work = 0u64;
        let flush_light = |groups: &mut Vec<AggGroup>, start: usize, end: usize, work: u64| {
            if end > start {
                groups.push(AggGroup {
                    start: start as NodeId,
                    end: end as NodeId,
                    work,
                    heavy: false,
                });
            }
        };
        for v in 0..n {
            let work = degree(v) as u64 + 1;
            total_work += work;
            if work >= HEAVY_DEGREE as u64 {
                flush_light(&mut groups, run_start, v, run_work);
                groups.push(AggGroup {
                    start: v as NodeId,
                    end: (v + 1) as NodeId,
                    work,
                    heavy: true,
                });
                heavy_groups += 1;
                run_start = v + 1;
                run_work = 0;
            } else {
                run_work += work;
                if run_work >= LIGHT_GROUP_WORK as u64 {
                    flush_light(&mut groups, run_start, v + 1, run_work);
                    run_start = v + 1;
                    run_work = 0;
                }
            }
        }
        flush_light(&mut groups, run_start, n, run_work);
        DegreeSchedule { groups, total_work, heavy_groups }
    }

    /// The grouping clamped to the row prefix `0..rows`: the groups
    /// that end at or before `rows`, borrowed unchanged, plus — when
    /// `rows` falls inside a group — that group cut at `rows` with its
    /// work recounted through `degree` (the function the schedule was
    /// built with). Kernels that compute only a row prefix walk
    /// `whole` then `cut`; boundaries stay a pure function of the
    /// degree sequence and `rows`, never of the thread count, so a
    /// clamped kernel keeps the bitwise width-invariance of the full
    /// one. `rows` at or past the last row returns every group and no
    /// cut.
    pub fn prefix(
        &self,
        rows: usize,
        degree: impl Fn(usize) -> usize,
    ) -> (&[AggGroup], Option<AggGroup>) {
        let whole = self.groups.partition_point(|g| g.end as usize <= rows);
        let cut = self.groups.get(whole).filter(|g| (g.start as usize) < rows).map(|g| AggGroup {
            end: rows as NodeId,
            work: (g.start as usize..rows).map(|v| degree(v) as u64 + 1).sum(),
            ..*g
        });
        (&self.groups[..whole], cut)
    }
}

/// The cached per-graph pair of degree schedules: forward kernels
/// gather over out-neighbors, backward kernels gather over the
/// transpose's in-sources.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggSchedule {
    /// Grouping of rows by *out*-degree (forward aggregation).
    pub fwd: DegreeSchedule,
    /// Grouping of rows by *in*-degree (backward/transpose
    /// aggregation).
    pub bwd: DegreeSchedule,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degrees(seq: &[usize]) -> DegreeSchedule {
        DegreeSchedule::build(seq.len(), |v| seq[v])
    }

    fn assert_covers(s: &DegreeSchedule, n: usize) {
        let mut next = 0 as NodeId;
        for g in &s.groups {
            assert_eq!(g.start, next, "groups must be contiguous");
            assert!(g.end > g.start, "no empty groups");
            next = g.end;
        }
        assert_eq!(next as usize, n, "groups must cover every row");
        let work: u64 = s.groups.iter().map(|g| g.work).sum();
        assert_eq!(work, s.total_work);
    }

    #[test]
    fn hub_rows_become_single_groups() {
        let mut seq = vec![2usize; 100];
        seq[10] = 500;
        seq[40] = HEAVY_DEGREE; // boundary: deg + 1 > threshold
        let s = degrees(&seq);
        assert_covers(&s, 100);
        assert_eq!(s.heavy_groups, 2);
        let heavy: Vec<_> = s.groups.iter().filter(|g| g.heavy).collect();
        assert_eq!(heavy[0].start, 10);
        assert_eq!(heavy[0].len(), 1);
        assert_eq!(heavy[0].work, 501);
        assert_eq!(heavy[1].start, 40);
    }

    #[test]
    fn light_rows_batch_to_target_work() {
        let s = degrees(&vec![3usize; 1000]); // 4 work units per row
        assert_covers(&s, 1000);
        assert_eq!(s.heavy_groups, 0);
        for g in &s.groups {
            assert!(!g.heavy);
            assert!(g.work >= LIGHT_GROUP_WORK as u64 || g.end == 1000);
        }
    }

    #[test]
    fn exact_threshold_degree_is_heavy() {
        // work = degree + 1, so degree HEAVY_DEGREE - 1 is the first
        // heavy degree.
        let s = degrees(&[HEAVY_DEGREE - 1]);
        assert_eq!(s.heavy_groups, 1);
        let s = degrees(&[HEAVY_DEGREE - 2]);
        assert_eq!(s.heavy_groups, 0);
    }

    #[test]
    fn empty_and_isolated_rows() {
        let s = degrees(&[]);
        assert!(s.groups.is_empty());
        assert_eq!(s.total_work, 0);
        // All-isolated graph: one work unit per row, all light.
        let s = degrees(&[0usize; 7]);
        assert_covers(&s, 7);
        assert_eq!(s.heavy_groups, 0);
        assert_eq!(s.total_work, 7);
        assert!(!s.groups[0].is_empty());
    }

    #[test]
    fn prefix_clamps_to_any_row_count() {
        let mut seq: Vec<usize> = (0..300).map(|v| (v * 7) % 40).collect();
        seq[120] = 400; // one hub, so heavy groups are crossed too
        let s = degrees(&seq);
        for rows in 0..=seq.len() + 3 {
            let (whole, cut) = s.prefix(rows, |v| seq[v]);
            let covered = rows.min(seq.len());
            let mut next = 0usize;
            let mut work = 0u64;
            for g in whole.iter().chain(cut.as_ref()) {
                assert_eq!(g.start as usize, next, "rows={rows}: contiguous");
                assert!(!g.is_empty(), "rows={rows}: no empty groups");
                next = g.end as usize;
                work += g.work;
            }
            assert_eq!(next, covered, "rows={rows}: covers exactly the prefix");
            let expect: u64 = seq[..covered].iter().map(|&d| d as u64 + 1).sum();
            assert_eq!(work, expect, "rows={rows}: work recounted exactly");
            // Whole groups are the schedule's own, untouched; a hub row
            // is a group of one and can never be the cut.
            assert_eq!(whole, &s.groups[..whole.len()]);
            assert!(cut.is_none_or(|g| !g.heavy));
        }
        let (whole, cut) = s.prefix(seq.len(), |v| seq[v]);
        assert_eq!((whole.len(), cut), (s.groups.len(), None));
    }

    #[test]
    fn schedule_is_pure_function_of_degrees() {
        let seq: Vec<usize> = (0..300).map(|v| (v * 7) % 90).collect();
        assert_eq!(degrees(&seq), degrees(&seq));
        assert_covers(&degrees(&seq), 300);
    }
}
