//! Serve determinism: the full request/response transcript of a
//! zipf load run is byte-identical at every worker width.

use gnnav_serve::{run_load, LoadGenOptions, NavService, ServeOptions};

fn fast_options(seed: u64) -> ServeOptions {
    ServeOptions {
        queue_capacity: 24,
        tenant_budget: 4,
        degrade_depth: 12,
        cache_only_depth: 18,
        explore_budget: 120,
        reduced_budget: 40,
        pool_capacity: 4,
        calibration_graphs: 1,
        calibration_nodes: 250,
        calibration_samples: 6,
        seed,
    }
}

fn transcript_at_width(width: usize, seed: u64) -> String {
    gnnav_par::with_thread_limit(width, || {
        let mut service = NavService::new(fast_options(seed));
        let load =
            LoadGenOptions { tenants: 1000, requests: 96, burst: 32, zipf_exponent: 1.1, seed };
        run_load(&mut service, &load).expect("load run").transcript
    })
}

#[test]
fn transcripts_are_byte_identical_at_widths_1_2_4_8() {
    let baseline = transcript_at_width(1, 0x7A51);
    assert!(baseline.lines().count() > 30, "transcript should be substantial");
    // Rejections must appear: the burst exceeds the queue capacity.
    assert!(baseline.contains("rej "), "load must exercise admission rejection");
    assert!(baseline.contains("tier=explore-cache"), "zipf head tenants must repeat");
    for width in [2, 4, 8] {
        let transcript = transcript_at_width(width, 0x7A51);
        assert_eq!(baseline, transcript, "transcript diverged at width {width}");
    }
}

#[test]
fn different_seeds_produce_different_traffic() {
    let a = transcript_at_width(1, 0x7A51);
    let b = transcript_at_width(1, 1337);
    assert_ne!(a, b);
}
