//! Result export: CSV and JSON-lines emitters for measured
//! performance.
//!
//! The evaluation binaries print human tables; downstream analysis
//! (plotting the paper's figures, regression tracking) wants
//! machine-readable output. Both emitters are dependency-free and
//! take `W: Write` by value, so `&mut` writers work too.

use crate::config::TrainingConfig;
use crate::perf::Perf;
use gnnav_obs::json::push_string;
use std::io::Write;

/// The CSV header matching [`write_perf_csv`]'s rows.
pub const PERF_CSV_HEADER: &str = "label,epoch_time_s,peak_mem_bytes,accuracy,hit_rate,\
                                   avg_batch_nodes,avg_batch_edges,n_iter,t_sample_s,\
                                   t_transfer_s,t_replace_s,t_compute_s,config";

/// Writes labeled performance rows as CSV (header + one line per
/// entry). Config summaries are quoted; labels must not contain
/// commas or quotes.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_perf_csv<W: Write>(
    mut writer: W,
    rows: &[(String, TrainingConfig, Perf)],
) -> std::io::Result<()> {
    writeln!(writer, "{PERF_CSV_HEADER}")?;
    for (label, config, perf) in rows {
        writeln!(
            writer,
            "{label},{:.9},{},{:.6},{:.6},{:.2},{:.2},{},{:.9},{:.9},{:.9},{:.9},\"{}\"",
            perf.epoch_time.as_secs(),
            perf.peak_mem_bytes,
            perf.accuracy,
            perf.hit_rate,
            perf.avg_batch_nodes,
            perf.avg_batch_edges,
            perf.n_iter,
            perf.phases.sample.as_secs(),
            perf.phases.transfer.as_secs(),
            perf.phases.replace.as_secs(),
            perf.phases.compute.as_secs(),
            config.summary().replace('"', "'"),
        )?;
    }
    Ok(())
}

/// Writes one JSON object per line (JSON-lines), suitable for `jq`
/// pipelines and append-only experiment logs.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_perf_jsonl<W: Write>(
    mut writer: W,
    rows: &[(String, TrainingConfig, Perf)],
) -> std::io::Result<()> {
    let quoted = |s: &str| {
        let mut out = String::new();
        push_string(&mut out, s);
        out
    };
    for (label, config, perf) in rows {
        writeln!(
            writer,
            "{{\"label\":{},\"epoch_time_s\":{:.9},\"peak_mem_bytes\":{},\
             \"accuracy\":{:.6},\"hit_rate\":{:.6},\"avg_batch_nodes\":{:.2},\
             \"n_iter\":{},\"config\":{}}}",
            quoted(label),
            perf.epoch_time.as_secs(),
            perf.peak_mem_bytes,
            perf.accuracy,
            perf.hit_rate,
            perf.avg_batch_nodes,
            perf.n_iter,
            quoted(&config.summary()),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PhaseBreakdown;
    use gnnav_hwsim::SimTime;

    fn sample_rows() -> Vec<(String, TrainingConfig, Perf)> {
        let perf = Perf {
            epoch_time: SimTime::from_millis(12.5),
            peak_mem_bytes: 1_000_000,
            accuracy: 0.789,
            hit_rate: 0.5,
            avg_batch_nodes: 1234.5,
            avg_batch_edges: 5678.9,
            n_iter: 42,
            phases: PhaseBreakdown {
                sample: SimTime::from_millis(1.0),
                transfer: SimTime::from_millis(2.0),
                replace: SimTime::ZERO,
                compute: SimTime::from_millis(3.0),
            },
        };
        vec![("PyG".to_string(), TrainingConfig::default(), perf)]
    }

    #[test]
    fn csv_has_header_and_matching_columns() {
        let mut buf = Vec::new();
        write_perf_csv(&mut buf, &sample_rows()).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let mut lines = text.lines();
        let header = lines.next().expect("header");
        let row = lines.next().expect("row");
        assert_eq!(header.split(',').count(), 13);
        // The config summary is quoted (it contains commas itself), so
        // count the unquoted columns: everything before the final
        // quoted field.
        let before_config = row.split(",\"").next().expect("unquoted prefix");
        assert_eq!(before_config.split(',').count(), 12, "{row}");
        assert!(row.starts_with("PyG,0.0125"));
        assert!(row.ends_with('"'));
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut buf = Vec::new();
        write_perf_jsonl(&mut buf, &sample_rows()).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 1);
        let line = text.lines().next().expect("line");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"label\":\"PyG\""));
        assert!(line.contains("\"n_iter\":42"));
    }

    #[test]
    fn jsonl_labels_with_specials_read_back() {
        let label = "a\"b\\c\nd\u{1}e";
        let mut rows = sample_rows();
        rows[0].0 = label.to_string();
        let mut buf = Vec::new();
        write_perf_jsonl(&mut buf, &rows).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 1, "{text}");
        let row = gnnav_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(row.get("label").and_then(|v| v.as_str()), Some(label));
        let summary = rows[0].1.summary();
        assert_eq!(row.get("config").and_then(|v| v.as_str()), Some(summary.as_str()));
        assert_eq!(row.get("n_iter").and_then(|v| v.as_f64()), Some(42.0));
    }

    #[test]
    fn empty_rows_still_write_csv_header() {
        let mut buf = Vec::new();
        write_perf_csv(&mut buf, &[]).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 1);
    }
}
