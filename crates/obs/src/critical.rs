//! Critical-path extraction and the `--trace-summary` report.
//!
//! Answers "where did the simulated time go" from a journal snapshot
//! (live or imported from a `--trace-out` file): per-track rollups, a
//! top-K table of span paths by exclusive time, the critical path
//! (heaviest root-to-leaf chain), and a per-epoch phase-attribution
//! table that assigns every `phase.*` span to the epoch it started
//! in.
//!
//! The report is built exclusively on the **sim clock** so it is
//! byte-identical across runs of the same `(seed, plan,
//! GNNAV_THREADS)`; wall-only spans (profiler workers) are excluded
//! and surfaced as a single count.

use crate::journal::JournalSnapshot;
use crate::names;
use crate::tree::{Clock, SpanForest, SpanNode};
use std::collections::BTreeMap;

/// Phase columns in their pipeline order; phases outside this list
/// append alphabetically.
const PHASE_ORDER: [&str; 6] =
    ["sample", "transfer", "replace", "compute", "recovery", "migration"];

fn secs(us: f64) -> String {
    format!("{:.6}", us / 1e6)
}

/// Renders the deterministic `--trace-summary` report from
/// `snapshot`, with `top_k` rows in the span-path table.
pub fn render_summary(snapshot: &JournalSnapshot, top_k: usize) -> String {
    let forest = SpanForest::build(snapshot, Clock::Sim);
    let mut out = String::new();
    out.push_str("trace-summary (sim clock)\n");
    if forest.dropped > 0 {
        out.push_str(&format!(
            "WARNING: journal ring dropped {} events; totals are partial\n",
            forest.dropped
        ));
    }

    // --- per-track rollups -------------------------------------------
    out.push_str("\ntracks (spans / roots / total sim s):\n");
    if forest.tracks.is_empty() {
        out.push_str("  (no sim-clock spans)\n");
    }
    for r in forest.rollups() {
        out.push_str(&format!(
            "  {:<28} {:>6} / {:>5} / {}\n",
            r.track,
            r.spans,
            r.roots,
            secs(r.inclusive_us)
        ));
    }
    out.push_str(&format!("  total accounted: {} s", secs(forest.total_inclusive_us())));
    if forest.skipped_spans > 0 {
        out.push_str(&format!("  (wall-only spans excluded: {})", forest.skipped_spans));
    }
    out.push('\n');

    // --- top-K span paths by exclusive time --------------------------
    let mut paths: Vec<_> = forest.aggregate_paths().into_iter().collect();
    paths.sort_by(|a, b| b.1.exclusive_us.total_cmp(&a.1.exclusive_us).then_with(|| a.0.cmp(&b.0)));
    out.push_str(&format!("\ntop {} span paths by exclusive sim time:\n", top_k.min(paths.len())));
    out.push_str(&format!(
        "  {:<4} {:>12} {:>12} {:>6}  {}\n",
        "rank", "excl s", "incl s", "count", "path"
    ));
    for (rank, (path, agg)) in paths.iter().take(top_k).enumerate() {
        out.push_str(&format!(
            "  {:<4} {:>12} {:>12} {:>6}  {}\n",
            rank + 1,
            secs(agg.exclusive_us),
            secs(agg.inclusive_us),
            agg.count,
            path
        ));
    }

    // --- critical path ------------------------------------------------
    out.push_str("\ncritical path (heaviest chain by inclusive sim time):\n");
    match critical_path(&forest) {
        Some(chain) => {
            for (depth, node) in chain.iter().enumerate() {
                out.push_str(&format!(
                    "  {}{}  incl {} s  excl {} s\n",
                    "  ".repeat(depth),
                    node.path,
                    secs(node.inclusive_us),
                    secs(node.exclusive_us)
                ));
            }
        }
        None => out.push_str("  (empty forest)\n"),
    }

    // --- per-epoch phase attribution ---------------------------------
    out.push('\n');
    out.push_str(&phase_table(&forest));
    out
}

/// The heaviest root-to-leaf chain: start from the root span with the
/// largest inclusive time across every track, then repeatedly descend
/// into the heaviest child. Ties break on path order so the chain is
/// deterministic.
pub(crate) fn critical_path(forest: &SpanForest) -> Option<Vec<&SpanNode>> {
    let heaviest = |nodes: &[SpanNode]| -> Option<usize> {
        nodes
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.inclusive_us.total_cmp(&b.inclusive_us).then_with(|| b.path.cmp(&a.path))
            })
            .map(|(i, _)| i)
    };
    let all_roots: Vec<&SpanNode> = forest.tracks.values().flatten().collect();
    let mut node = *all_roots.iter().max_by(|a, b| {
        a.inclusive_us.total_cmp(&b.inclusive_us).then_with(|| b.path.cmp(&a.path))
    })?;
    let mut chain = vec![node];
    while let Some(i) = heaviest(&node.children) {
        node = &node.children[i];
        chain.push(node);
    }
    Some(chain)
}

/// Renders the per-epoch phase-attribution table.
///
/// Epochs are the spans named [`names::EVENT_EPOCH`] on
/// [`names::TRACK_BACKEND`]; each `phase.*` root span is attributed
/// to the last epoch starting at or before it (so a migration span
/// sitting *between* two epochs lands on the epoch that triggered
/// it). `residual` is the epoch time not covered by its phases — it
/// goes negative when a pipelined configuration overlaps phases,
/// which is signal, not an error.
pub(crate) fn phase_table(forest: &SpanForest) -> String {
    let epochs: Vec<&SpanNode> = forest
        .tracks
        .get(names::TRACK_BACKEND)
        .map(|roots| roots.iter().filter(|r| r.name == names::EVENT_EPOCH).collect())
        .unwrap_or_default();
    if epochs.is_empty() {
        return "per-epoch phase attribution: (no epoch spans)\n".to_string();
    }

    // Column set: phase-track suffixes present in the forest, in
    // pipeline order, then any stragglers alphabetically.
    let mut present: Vec<&str> =
        forest.tracks.keys().filter_map(|t| t.strip_prefix(names::TRACK_PHASE_PREFIX)).collect();
    present.sort_by_key(|p| {
        (PHASE_ORDER.iter().position(|k| k == p).unwrap_or(PHASE_ORDER.len()), p.to_string())
    });

    // epoch index -> phase suffix -> summed sim µs.
    let mut cells: Vec<BTreeMap<&str, f64>> = vec![BTreeMap::new(); epochs.len()];
    for (track, roots) in &forest.tracks {
        let Some(phase) = track.strip_prefix(names::TRACK_PHASE_PREFIX) else { continue };
        for span in roots {
            // Last epoch with start <= span start.
            let idx = match epochs.binary_search_by(|e| e.start_us.total_cmp(&span.start_us)) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            };
            *cells[idx].entry(phase).or_default() += span.inclusive_us;
        }
    }

    let mut out = String::from("per-epoch phase attribution (sim s):\n");
    out.push_str(&format!("  {:<5} {:>12}", "epoch", "total"));
    for p in &present {
        out.push_str(&format!(" {:>12}", p));
    }
    out.push_str(&format!(" {:>12}\n", "residual"));
    for (i, epoch) in epochs.iter().enumerate() {
        let label = epoch.arg_f64("epoch").map_or(i as u64, |v| v as u64);
        let attributed: f64 = cells[i].values().sum();
        out.push_str(&format!("  {:<5} {:>12}", label, secs(epoch.inclusive_us)));
        for p in &present {
            out.push_str(&format!(" {:>12}", secs(cells[i].get(p).copied().unwrap_or(0.0))));
        }
        out.push_str(&format!(" {:>12}\n", secs(epoch.inclusive_us - attributed)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{ArgValue, Journal};
    use std::borrow::Cow;

    fn epoch_args(i: u64) -> Vec<(Cow<'static, str>, ArgValue)> {
        vec![(Cow::Borrowed("epoch"), ArgValue::U64(i))]
    }

    /// Two epochs with phases, a migration between them, and a
    /// wall-only profiler span.
    fn demo() -> Journal {
        let j = Journal::new();
        j.enable(true);
        j.span_complete("epoch", "backend", 0.0, Some(5.0), Some(0.0), Some(100.0), epoch_args(0));
        j.span_complete("sample", "phase.sample", 0.0, None, Some(0.0), Some(30.0), Vec::new());
        j.span_complete("compute", "phase.compute", 0.0, None, Some(30.0), Some(60.0), Vec::new());
        j.span_complete(
            "migration",
            "phase.migration",
            5.0,
            None,
            Some(100.0),
            Some(20.0),
            Vec::new(),
        );
        j.span_complete("epoch", "backend", 5.0, Some(4.0), Some(120.0), Some(80.0), epoch_args(1));
        j.span_complete("sample", "phase.sample", 5.0, None, Some(120.0), Some(25.0), Vec::new());
        j.span_complete(
            "profile.config",
            "profiler.worker-0",
            0.0,
            Some(2.0),
            None,
            None,
            Vec::new(),
        );
        j
    }

    #[test]
    fn summary_is_deterministic_and_mentions_sections() {
        let a = render_summary(&demo().snapshot(), 20);
        let b = render_summary(&demo().snapshot(), 20);
        assert_eq!(a, b, "summary must not depend on wall timings");
        assert!(a.contains("tracks (spans / roots / total sim s):"));
        assert!(a.contains("top "));
        assert!(a.contains("critical path"));
        assert!(a.contains("per-epoch phase attribution"));
        assert!(a.contains("wall-only spans excluded: 1"), "{a}");
        assert!(!a.contains("WARNING"), "{a}");
    }

    #[test]
    fn truncated_snapshot_warns() {
        let mut snap = demo().snapshot();
        snap.dropped = 4;
        let out = render_summary(&snap, 20);
        assert!(out.contains("WARNING: journal ring dropped 4 events"), "{out}");
    }

    #[test]
    fn critical_path_descends_heaviest_chain() {
        let j = Journal::new();
        j.enable(true);
        j.span_complete("root", "t", 0.0, None, Some(0.0), Some(100.0), Vec::new());
        j.span_complete("light", "t", 0.0, None, Some(0.0), Some(10.0), Vec::new());
        j.span_complete("heavy", "t", 0.0, None, Some(10.0), Some(80.0), Vec::new());
        j.span_complete("leaf", "t", 0.0, None, Some(20.0), Some(50.0), Vec::new());
        let forest = SpanForest::build(&j.snapshot(), Clock::Sim);
        let chain = critical_path(&forest).expect("chain");
        let names: Vec<_> = chain.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["root", "heavy", "leaf"]);
    }

    #[test]
    fn phase_attribution_assigns_epochs_and_between_epoch_migration() {
        let forest = SpanForest::build(&demo().snapshot(), Clock::Sim);
        let table = phase_table(&forest);
        let lines: Vec<&str> = table.lines().collect();
        // Header: pipeline order, residual last.
        assert!(lines[1].contains("sample"));
        let sample_col = lines[1].find("sample").expect("sample col");
        let compute_col = lines[1].find("compute").expect("compute col");
        let migration_col = lines[1].find("migration").expect("migration col");
        assert!(sample_col < compute_col && compute_col < migration_col);
        // Epoch 0: sample 30, compute 60, migration 20 (the switch
        // between epochs lands on the epoch that triggered it),
        // residual 100 - 110 = -0.00001.
        let row0 = lines[2];
        assert!(row0.trim_start().starts_with('0'), "{row0}");
        assert!(row0.contains("0.000030"), "{row0}");
        assert!(row0.contains("0.000060"), "{row0}");
        assert!(row0.contains("0.000020"), "{row0}");
        assert!(row0.contains("-0.000010"), "{row0}");
        // Epoch 1: sample 25 only.
        let row1 = lines[3];
        assert!(row1.trim_start().starts_with('1'), "{row1}");
        assert!(row1.contains("0.000025"), "{row1}");
    }

    #[test]
    fn empty_snapshot_renders_placeholders() {
        let j = Journal::new();
        j.enable(true);
        let out = render_summary(&j.snapshot(), 5);
        assert!(out.contains("(no sim-clock spans)"));
        assert!(out.contains("(empty forest)"));
        assert!(out.contains("(no epoch spans)"));
    }
}
