//! The metric tables, the result line, and `compare`.

use std::collections::BTreeMap;

use gnnavigator::obs::json::{self, Value};

use crate::stats;

/// A metric as `BENCHMARK.json` declares it. `bound` is the share of
/// the base median by which the metric may worsen before `compare`
/// calls it `worse`; per-layer metrics have none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// What a user of the system sees. Every workload emits every row:
/// `latency_p50_ms` is one navigation (navigate workloads), one
/// `explore` call, one request from `submit` to the return of its
/// wave's `drain`, or one training epoch; `throughput_per_s` counts
/// navigations, evaluated candidates, responses, or epochs.
/// Times are on the calibrated clock (`calib.rs`). Every bound is the
/// contract's maximum: run-to-run spread on the shared sandbox is up
/// to 12 %, and a bound has to be three times the spread.
pub const END_TO_END: [Metric; 5] = [
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_tail_ms", "ms", "lower", 0.25),
    e2e("throughput_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single-layer metrics, layer = crate name. Times are benchmark-side
/// spans around public calls; counts come from return values and file
/// sizes. Rows a workload's spans feed read 0 on workloads that never
/// make the call; probe rows read the same on every workload.
pub const PER_LAYER: [Metric; 96] = [
    // Span rows: inclusive seconds per operation of the traced repeat.
    layer("core.open_stores_s", "s", "lower"),
    layer("core.prepare_s", "s", "lower"),
    layer("core.generate_s", "s", "lower"),
    layer("core.apply_s", "s", "lower"),
    layer("core.configs_profiled", "count", "lower"),
    layer("core.sim_speedup_vs_pyg", "ratio", "higher"),
    layer("core.sim_mem_reduction_vs_pyg", "ratio", "higher"),
    layer("core.acc_delta_pp", "pp", "higher"),
    layer("estimator.profile_sweep_s", "s", "lower"),
    layer("explorer.explore_s_p50", "s", "lower"),
    layer("explorer.evaluated", "count", "higher"),
    layer("explorer.rejected", "count", "higher"),
    layer("explorer.pruned", "count", "higher"),
    layer("explorer.front_size", "count", "higher"),
    layer("explorer.fallbacks", "count", "lower"),
    layer("runtime.execute_s.gcn", "s", "lower"),
    layer("runtime.execute_s.sage", "s", "lower"),
    layer("runtime.execute_s.gat", "s", "lower"),
    layer("runtime.batches", "count", "higher"),
    layer("hwsim.sim_epoch_s", "s", "lower"),
    layer("hwsim.sim_peak_mem_mb", "MB", "lower"),
    layer("hwsim.phase_share.sample", "ratio", "lower"),
    layer("hwsim.phase_share.transfer", "ratio", "lower"),
    layer("hwsim.phase_share.replace", "ratio", "lower"),
    layer("hwsim.phase_share.compute", "ratio", "lower"),
    layer("cache.hit_ratio", "ratio", "higher"),
    layer("serve.submit_us", "us", "lower"),
    layer("serve.drain_s_p50", "s", "lower"),
    layer("serve.drain_s_max", "s", "lower"),
    layer("serve.hit_ratio", "ratio", "higher"),
    layer("serve.par_eff", "ratio", "higher"),
    layer("serve.admitted", "count", "higher"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.responses", "count", "higher"),
    layer("serve.explorations", "count", "lower"),
    layer("serve.cache_hits", "count", "higher"),
    layer("serve.neighbor_served", "count", "higher"),
    layer("serve.coalesced", "count", "higher"),
    layer("serve.degraded", "count", "lower"),
    layer("serve.pool_hits", "count", "higher"),
    layer("serve.pool_misses", "count", "lower"),
    layer("serve.waves", "count", "lower"),
    // Self seconds per operation of the traced repeat, by layer.
    layer("self_s.core", "s", "lower"),
    layer("self_s.graph", "s", "lower"),
    layer("self_s.runtime", "s", "lower"),
    layer("self_s.estimator", "s", "lower"),
    layer("self_s.explorer", "s", "lower"),
    layer("self_s.serve", "s", "lower"),
    layer("obs.trace_overhead_share", "ratio", "lower"),
    layer("obs.self_time_gap", "ratio", "lower"),
    layer("obs.speed_factor", "ratio", "higher"),
    // Probe rows: fixed inputs, the same on every workload.
    layer("graph.load_s", "s", "lower"),
    layer("graph.materialize_s", "s", "lower"),
    layer("graph.stats_s", "s", "lower"),
    layer("graph.nodes", "count", "higher"),
    layer("graph.edges", "count", "higher"),
    layer("sampler.batch_s.node", "s", "lower"),
    layer("sampler.batch_s.layer", "s", "lower"),
    layer("sampler.batch_s.subgraph", "s", "lower"),
    layer("sampler.nodes_per_s", "1/s", "higher"),
    layer("cache.lookup_ns.static", "ns", "lower"),
    layer("cache.lookup_ns.lru", "ns", "lower"),
    layer("cache.lookup_ns.lfu", "ns", "lower"),
    layer("nn.calib_gflops", "GFLOP/s", "higher"),
    layer("nn.train_step_s.gcn", "s", "lower"),
    layer("nn.train_step_s.sage", "s", "lower"),
    layer("nn.train_step_s.gat", "s", "lower"),
    layer("nn.matmul_flops", "count", "lower"),
    layer("nn.par_eff", "ratio", "higher"),
    layer("runtime.timing_only_execute_s", "s", "lower"),
    layer("runtime.checkpoint_overhead_s", "s", "lower"),
    layer("estimator.profile_config_s_p50", "s", "lower"),
    layer("estimator.profile_par_eff", "ratio", "higher"),
    layer("estimator.fit_s", "s", "lower"),
    layer("estimator.predict_batch_us", "us", "lower"),
    layer("estimator.fingerprint_us", "us", "lower"),
    layer("estimator.store_open_s", "s", "lower"),
    layer("estimator.store_insert_ms", "ms", "lower"),
    layer("estimator.mape.time", "ratio", "lower"),
    layer("estimator.mape.memory", "ratio", "lower"),
    layer("estimator.mape.accuracy", "ratio", "lower"),
    layer("explorer.par_eff", "ratio", "higher"),
    layer("explorer.fingerprint_us", "us", "lower"),
    layer("explorer.cache_open_s", "s", "lower"),
    layer("explorer.cache_lookup_us", "us", "lower"),
    layer("explorer.cache_insert_ms", "ms", "lower"),
    layer("store.wal_append_ms_at.0", "ms", "lower"),
    layer("store.wal_append_ms_at.256", "ms", "lower"),
    layer("store.wal_append_ms_at.1024", "ms", "lower"),
    layer("store.wal_open_s", "s", "lower"),
    layer("store.wal_bytes", "count", "lower"),
    layer("store.checkpoint_write_ms", "ms", "lower"),
    layer("store.checkpoint_read_ms", "ms", "lower"),
    layer("serve.cold_wave_s", "s", "lower"),
    layer("serve.warm_pool_wave_s", "s", "lower"),
    layer("adapt.overhead_ratio", "ratio", "lower"),
];

/// One run's result: what the last stdout line carries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// Builds a result holding exactly the rows of `table`, in value
    /// order from `values`; a missing row reads 0.
    pub fn new(
        table: &[Metric],
        values: &BTreeMap<String, f64>,
        attempted: u64,
        failed: u64,
    ) -> Self {
        let metrics = table
            .iter()
            .map(|m| {
                let v = values.get(m.name).copied().unwrap_or(0.0);
                (m.name.to_string(), (v, m.unit.to_string()))
            })
            .collect();
        RunResult { correct: failed == 0, attempted, failed, metrics }
    }

    /// The single-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_string(&mut out, name);
            out.push_str(": {\"value\": ");
            json::push_f64(&mut out, *value);
            out.push_str(", \"unit\": ");
            json::push_string(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a result line back.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing key.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let num = |key: &str| {
            v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("result lacks `{key}`"))
        };
        let correct = matches!(v.get("correct"), Some(Value::Bool(true)));
        let Some(Value::Obj(rows)) = v.get("metrics") else {
            return Err("result lacks `metrics`".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, row) in rows {
            let value = row
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric `{name}` lacks a value"))?;
            let unit = row.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
            metrics.insert(name.clone(), (value, unit));
        }
        Ok(RunResult {
            correct,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// Verdict of one metric × workload row of `compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread of either side is wider than the bound and the two
    /// sides' runs interleave: neither unchanged nor worse can be said.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies `metric`'s bound to the runs of a base and a candidate.
/// Returns the verdict, both medians, and the wider relative spread
/// (interquartile range over median) of the two sides.
pub fn judge(metric: &Metric, base: &[f64], cand: &[f64]) -> (Verdict, f64, f64, f64) {
    let bound = metric.bound.unwrap_or(0.0);
    let lower_is_better = metric.better == "lower";
    let (bq1, bm, bq3) = stats::quartiles(base);
    let (cq1, cm, cq3) = stats::quartiles(cand);
    let spread = |q1: f64, m: f64, q3: f64| if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
    let spread = spread(bq1, bm, bq3).max(spread(cq1, cm, cq3));
    // Worsening as a share of the base median, positive = worse.
    let worsening = if bm == 0.0 {
        0.0
    } else if lower_is_better {
        (cm - bm) / bm.abs()
    } else {
        (bm - cm) / bm.abs()
    };
    let worse_than = |a: f64, b: f64| if lower_is_better { a > b } else { a < b };
    let all_better = cand.iter().all(|&c| base.iter().all(|&b| !worse_than(c, b)));
    let all_worse = cand.iter().all(|&c| base.iter().all(|&b| worse_than(c, b)));
    let verdict = if spread > bound && base.len() > 1 && !all_better && !all_worse {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, bm, cm, spread)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: Metric = e2e("latency_ms", "ms", "lower", 0.10);
    const THR: Metric = e2e("throughput_per_s", "1/s", "higher", 0.10);

    #[test]
    fn judge_applies_the_bound_in_the_metric_direction() {
        assert_eq!(judge(&LAT, &[100.0], &[109.0]).0, Verdict::Ok);
        assert_eq!(judge(&LAT, &[100.0], &[111.0]).0, Verdict::Worse);
        assert_eq!(judge(&LAT, &[100.0], &[50.0]).0, Verdict::Ok);
        assert_eq!(judge(&THR, &[100.0], &[91.0]).0, Verdict::Ok);
        assert_eq!(judge(&THR, &[100.0], &[89.0]).0, Verdict::Worse);
        assert_eq!(judge(&THR, &[100.0], &[300.0]).0, Verdict::Ok);
    }

    #[test]
    fn wide_interleaved_runs_are_unresolved() {
        let base = [80.0, 100.0, 120.0, 90.0, 110.0];
        let cand = [85.0, 125.0, 105.0, 95.0, 140.0];
        assert_eq!(judge(&LAT, &base, &cand).0, Verdict::Unresolved);
        // Wide but disjoint: every candidate run is worse.
        let far = [200.0, 260.0, 230.0, 210.0, 250.0];
        assert_eq!(judge(&LAT, &base, &far).0, Verdict::Worse);
        // Wide but every candidate run is better.
        let fast = [10.0, 30.0, 20.0, 15.0, 25.0];
        assert_eq!(judge(&LAT, &base, &fast).0, Verdict::Ok);
    }

    #[test]
    fn result_line_round_trips() {
        let values: BTreeMap<String, f64> =
            [("latency_p50_ms".to_string(), 1.25), ("setup_s".to_string(), 0.5)].into();
        let r = RunResult::new(&END_TO_END, &values, 10, 0);
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = RunResult::from_value(&json::parse(&line).expect("parses")).expect("decodes");
        assert_eq!(back, r);
        assert_eq!(back.metrics.len(), END_TO_END.len());
        assert_eq!(back.metrics["latency_p50_ms"], (1.25, "ms".to_string()));
        assert_eq!(back.metrics["throughput_per_s"].0, 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
    }
}
