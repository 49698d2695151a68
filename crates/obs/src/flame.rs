//! Folded-stacks (flamegraph) export of a span forest.
//!
//! Produces the line-per-stack format `flamegraph.pl` and `inferno`
//! consume: `track;frame;…;frame <weight>`, one line per distinct
//! span path, sorted lexicographically. Weights are **exclusive**
//! time in integer microseconds, so the flamegraph's box widths sum
//! to the total traced time without double counting parents.
//!
//! Two weightings are available (`gnnavigate --flame-weight`):
//! [`Clock::Sim`] is deterministic for a fixed seed and is what CI
//! byte-compares; [`Clock::Wall`] shows real overheads (profiler
//! workers, exploration) and varies run to run.

use crate::journal::JournalSnapshot;
use crate::tree::{Clock, SpanForest};

/// Renders `snapshot`'s spans as folded stacks on `clock`.
///
/// Paths whose weight rounds to zero microseconds are omitted (a
/// folded stack with weight 0 renders as nothing but still perturbs
/// diffs).
pub fn folded_stacks(snapshot: &JournalSnapshot, clock: Clock) -> String {
    render(&SpanForest::build(snapshot, clock))
}

/// Renders an already-built forest as folded stacks (see
/// [`folded_stacks`]).
pub(crate) fn render(forest: &SpanForest) -> String {
    let mut out = String::new();
    for (path, agg) in forest.aggregate_paths() {
        let weight = agg.exclusive_us.round() as u64;
        if weight == 0 {
            continue;
        }
        out.push_str(&path);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Journal;

    fn demo_journal() -> Journal {
        let j = Journal::new();
        j.enable(true);
        // Sim timeline: two epochs with a nested inner span.
        j.span_complete("epoch", "backend", 0.0, Some(11.0), Some(0.0), Some(100.0), Vec::new());
        j.span_complete("inner", "backend", 1.0, None, Some(10.0), Some(40.0), Vec::new());
        j.span_complete("epoch", "backend", 11.0, Some(9.0), Some(100.0), Some(60.0), Vec::new());
        // Wall-only span: appears in wall weighting only.
        j.span_complete(
            "profile.config",
            "profiler.worker-0",
            0.0,
            Some(5.5),
            None,
            None,
            Vec::new(),
        );
        j
    }

    #[test]
    fn folded_stacks_use_exclusive_weights() {
        let out = folded_stacks(&demo_journal().snapshot(), Clock::Sim);
        // 100 - 40 + 60 = 120 exclusive across both epochs.
        assert_eq!(out, "backend;epoch 120\nbackend;epoch;inner 40\n");
    }

    #[test]
    fn wall_weighting_includes_wall_only_tracks() {
        let out = folded_stacks(&demo_journal().snapshot(), Clock::Wall);
        assert!(out.contains("profiler.worker-0;profile.config 6\n"), "{out}");
        assert!(out.contains("backend;epoch 20\n"), "{out}");
        // The sim-only inner span is absent on the wall clock.
        assert!(!out.contains("inner"), "{out}");
    }

    #[test]
    fn zero_weight_paths_are_omitted() {
        let j = Journal::new();
        j.enable(true);
        j.span_complete("z", "t", 0.0, None, Some(0.0), Some(0.2), Vec::new());
        assert_eq!(folded_stacks(&j.snapshot(), Clock::Sim), "");
    }

    #[test]
    fn every_line_parses_as_path_space_weight() {
        let out = folded_stacks(&demo_journal().snapshot(), Clock::Wall);
        for line in out.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("separator");
            assert!(!path.is_empty());
            weight.parse::<u64>().expect("integer weight");
        }
    }
}
