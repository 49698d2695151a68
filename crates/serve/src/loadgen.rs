//! Deterministic closed-loop load generator.
//!
//! Drives a [`NavService`] with thousands of synthetic tenants whose
//! dataset shapes and platforms are zipf-distributed: a handful of
//! head tenants dominate traffic (and hit the warm tiers), a long
//! tail keeps cold calibrations and explorations flowing. Everything
//! — tenant selection, workload attributes, burst boundaries — is a
//! pure function of the generator seed, so the full
//! request/response transcript is byte-identical at every worker
//! width (the wave pipeline itself is width-independent by
//! construction).

use gnnav_explorer::{Priority, RuntimeConstraints};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;

use crate::request::{NavRequest, TenantId, WorkloadSpec};
use crate::service::{NavService, ServeError};

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadGenOptions {
    /// Number of synthetic tenants in the population.
    pub tenants: usize,
    /// Total requests to submit.
    pub requests: usize,
    /// Submissions per wave; each burst ends with a drain. Bursts
    /// larger than the service queue exercise admission rejection.
    pub burst: usize,
    /// Zipf exponent of the tenant popularity distribution.
    pub zipf_exponent: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for LoadGenOptions {
    fn default() -> Self {
        LoadGenOptions {
            tenants: 1000,
            requests: 2000,
            burst: 80,
            zipf_exponent: 1.1,
            seed: 0x7A51,
        }
    }
}

/// What a load run did, plus the full deterministic transcript.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests rejected at submit (see `AdmitError::reason`).
    pub rejected: u64,
    /// Responses committed.
    pub responses: u64,
    /// Wave drains executed.
    pub waves: u64,
    /// One line per rejection (at submit order) and per response (at
    /// commit order). Byte-identical at every worker width.
    pub transcript: String,
}

/// splitmix64: the stateless seeded mixer used across the workspace.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from the top 53 bits of a mixed word.
fn unit_f64(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Workload shape buckets: same bucket ⇒ same synthetic graph, so
/// popular shapes repeat across tenants and hit the warm tiers.
const SHAPES: [(usize, usize, usize, usize); 12] = [
    (300, 3, 32, 8),
    (420, 4, 32, 8),
    (540, 3, 64, 8),
    (660, 5, 32, 16),
    (780, 4, 64, 16),
    (900, 3, 32, 8),
    (1020, 5, 64, 8),
    (1140, 4, 32, 16),
    (1260, 3, 64, 16),
    (520, 6, 32, 8),
    (840, 6, 64, 8),
    (1380, 5, 32, 16),
];

/// Precomputed zipf CDF over tenant ranks.
#[derive(Debug)]
pub struct ZipfTenants {
    cdf: Vec<f64>,
}

impl ZipfTenants {
    /// Builds the popularity CDF for `tenants` ranks at `exponent`.
    pub fn new(tenants: usize, exponent: f64) -> Self {
        let tenants = tenants.max(1);
        let mut cdf = Vec::with_capacity(tenants);
        let mut total = 0.0;
        for rank in 0..tenants {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for c in cdf.iter_mut() {
            *c /= total;
        }
        ZipfTenants { cdf }
    }

    /// Maps a uniform `[0, 1)` draw to a tenant rank.
    pub fn pick(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The fixed attributes of one synthetic tenant: a pure function of
/// `(seed, tenant)`. Dataset seeds derive from the shape bucket, not
/// the tenant, so tenants sharing a bucket share one dataset (and
/// one exploration fingerprint).
pub fn tenant_request(seed: u64, tenant: usize) -> NavRequest {
    let h = splitmix64(seed ^ (tenant as u64).wrapping_mul(0xD134_2543_DE82_EF95));
    let bucket = (h % SHAPES.len() as u64) as usize;
    let (num_nodes, edges_per_node, feat_dim, num_classes) = SHAPES[bucket];
    let platform = match (h >> 8) % 3 {
        0 => Platform::default_rtx4090(),
        1 => Platform::default_a100(),
        _ => Platform::default_m90(),
    };
    let model = ModelKind::ALL[((h >> 16) % 3) as usize];
    let priority = Priority::ALL[((h >> 24) % 4) as usize];
    let constraints = if (h >> 32).is_multiple_of(4) {
        RuntimeConstraints {
            max_time_s: Some(500.0),
            max_mem_bytes: Some(1e12),
            min_accuracy: None,
        }
    } else {
        RuntimeConstraints::none()
    };
    NavRequest {
        tenant: TenantId(tenant as u64),
        platform,
        workload: WorkloadSpec {
            num_nodes,
            edges_per_node,
            feat_dim,
            num_classes,
            graph_seed: splitmix64(seed ^ 0x5AFE ^ bucket as u64),
            model,
            priority,
            constraints,
        },
    }
}

/// Runs the closed loop: submit zipf-selected tenant requests in
/// bursts, drain a wave at each burst boundary, and transcribe every
/// rejection and response.
pub fn run_load(
    service: &mut NavService,
    options: &LoadGenOptions,
) -> Result<LoadSummary, ServeError> {
    let zipf = ZipfTenants::new(options.tenants, options.zipf_exponent);
    let mut transcript = String::new();
    transcript.push_str(&format!(
        "# serve-bench tenants={} requests={} burst={} zipf={:?} seed={:#x}\n",
        options.tenants, options.requests, options.burst, options.zipf_exponent, options.seed,
    ));
    let mut summary = LoadSummary {
        submitted: 0,
        admitted: 0,
        rejected: 0,
        responses: 0,
        waves: 0,
        transcript: String::new(),
    };
    let burst = options.burst.max(1);
    let mut in_flight = 0usize;
    for step in 0..options.requests {
        let tenant = zipf.pick(unit_f64(options.seed ^ 0xC0FF_EE00 ^ step as u64));
        let request = tenant_request(options.seed, tenant);
        summary.submitted += 1;
        match service.submit(request) {
            Ok(_) => {
                summary.admitted += 1;
                in_flight += 1;
            }
            Err(err) => {
                summary.rejected += 1;
                transcript.push_str(&format!(
                    "rej step={step} tenant={tenant} reason={}\n",
                    err.reason()
                ));
            }
        }
        let last = step + 1 == options.requests;
        if ((step + 1) % burst == 0 || last) && in_flight > 0 {
            for response in service.drain()? {
                summary.responses += 1;
                transcript.push_str(&response.transcript_line());
                transcript.push('\n');
            }
            summary.waves += 1;
            in_flight = 0;
        }
    }
    transcript.push_str(&format!(
        "# done submitted={} admitted={} rejected={} responses={} waves={}\n",
        summary.submitted, summary.admitted, summary.rejected, summary.responses, summary.waves,
    ));
    summary.transcript = transcript;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_head_heavy() {
        let z = ZipfTenants::new(100, 1.1);
        assert_eq!(z.pick(0.0), 0);
        assert!(z.pick(0.999_999) > 10);
        // The head tenant owns a visibly larger share than rank 50.
        let head = z.cdf[0];
        let mid = z.cdf[50] - z.cdf[49];
        assert!(head > 10.0 * mid, "head {head} vs mid {mid}");
    }

    #[test]
    fn tenant_attributes_are_stable() {
        let a = tenant_request(7, 42);
        let b = tenant_request(7, 42);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.platform, b.platform);
        // Different tenants eventually differ.
        let c = tenant_request(7, 43);
        assert!(a.workload != c.workload || a.platform != c.platform);
    }
}
