//! Every cache policy against a golden transcript.
//!
//! For each policy × capacity, 40 seeded batches (with ids repeated
//! inside a batch) go through `lookup` → `update`; the transcript
//! records every hit/miss split, every `update` return and `len`. At
//! batch 20 the cache is snapshotted, restored into a freshly built
//! cache, and the run continues on that cache, so restore is pinned as
//! part of the stream. The final `snapshot()` and `resident()` close
//! each run. A checkpoint carries the snapshot, so its bytes are pinned
//! too.
//!
//! There is deliberately no regeneration switch: if a later change
//! moves these on purpose, print `render()` from a scratch test, review
//! the diff, and replace the file by hand.

use gnnav_cache::{build_cache, CachePolicy};
use gnnav_graph::generators::barabasi_albert;
use gnnav_graph::NodeId;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/policy_pins.txt");
const NODES: usize = 300;
const BATCHES: usize = 40;
const RESTORE_AT: usize = 20;

/// xorshift64*: a fixed, dependency-free id stream.
struct Ids(u64);

impl Ids {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }

    /// A batch of 4–19 ids: half from a hot set of 40, half from the
    /// whole graph, then a few copies of earlier ids.
    fn batch(&mut self) -> Vec<NodeId> {
        let len = 4 + self.below(16) as usize;
        let mut batch: Vec<NodeId> = (0..len)
            .map(|_| {
                let range = if self.below(2) == 0 { 40 } else { NODES as u64 };
                self.below(range) as NodeId
            })
            .collect();
        for _ in 0..self.below(4) {
            let repeat = batch[self.below(batch.len() as u64) as usize];
            batch.push(repeat);
        }
        batch
    }
}

fn render() -> String {
    let graph = barabasi_albert(NODES, 3, 7).expect("generate");
    let mut out = String::new();
    for policy in CachePolicy::ALL {
        for capacity in [0, 17, 60] {
            let mut ids = Ids(0x9E37_79B9_7F4A_7C15 ^ capacity as u64);
            let mut cache = build_cache(policy, capacity, &graph);
            writeln!(out, "== {policy} capacity {capacity}").expect("write to string");
            for b in 0..BATCHES {
                if b == RESTORE_AT {
                    let snap = cache.snapshot();
                    cache = build_cache(policy, capacity, &graph);
                    cache.restore(&snap).expect("restore a snapshot of the same cache");
                    writeln!(out, "restored {snap:?}").expect("write to string");
                }
                let outcome = cache.lookup(&ids.batch());
                let written = cache.update(&outcome.misses);
                writeln!(
                    out,
                    "{b}: hits {:?} misses {:?} update {written} len {}",
                    outcome.hits,
                    outcome.misses,
                    cache.len()
                )
                .expect("write to string");
            }
            writeln!(out, "snapshot {:?}", cache.snapshot()).expect("write to string");
            writeln!(out, "resident {:?}", cache.resident()).expect("write to string");
        }
    }
    out
}

#[test]
fn every_policy_matches_the_golden_transcript() {
    let got = render();
    let (mut got_lines, mut want_lines) = (got.lines(), GOLDEN.lines());
    loop {
        match (got_lines.next(), want_lines.next()) {
            (None, None) => break,
            (g, w) => assert_eq!(g, w, "cache transcript differs from the golden capture"),
        }
    }
}
