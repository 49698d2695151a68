//! `serve_zipf` and `serve_durable_uniform`: the closed-loop load
//! generator against a fresh `NavService` — submit a burst, drain the
//! wave, repeat — timed per request from outside.

use std::collections::BTreeMap;
use std::path::Path;

use gnnavigator::estimator::ProfileStore;
use gnnavigator::serve::{
    tenant_request, DegradeLevel, LoadGenOptions, NavRequest, NavResponse, NavService,
    ServeOptions, ServeTier, ZipfTenants,
};
use gnnavigator::ExploreCache;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{ctx_err, Ctx, Repeat, Workload};
use crate::calib::{Interval, Stamp};
use crate::trace::Tracer;

/// Requests per repeat of the durable workload: three waves, ~1.5 s.
/// Every append rewrites the whole segment, so a repeat writes bytes
/// with the square of this, and the sandbox's disk changes speed
/// twofold over minutes. Waiting for it is not on the CPU clock, but
/// the fewer bytes, the less the file system's own work moves with it
/// (on wall times, ten runs at 160 requests spread 25 %).
const DURABLE_REQUESTS: usize = 96;

pub struct Serve {
    durable: bool,
    load: LoadGenOptions,
    serve: ServeOptions,
    requests: Vec<(usize, NavRequest)>,
    repeats: usize,
}

/// `gnnav_serve::loadgen`'s private uniform draw, bit for bit, so the
/// benchmark at the default seed submits the request stream
/// `serve-bench` submits (and reproduces `BENCH_serve.json`).
fn unit_f64(x: u64) -> f64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What one closed loop did, as `run_load` would transcribe it.
struct Loop {
    transcript: String,
    submitted: u64,
    rejected: u64,
    responses: Vec<NavResponse>,
    waves: u64,
}

impl Serve {
    pub fn setup(ctx: &Ctx, durable: bool) -> Result<Self, String> {
        let mut load = LoadGenOptions { seed: ctx.seed, ..LoadGenOptions::default() };
        if durable {
            // Uniform tenants: mostly unique fingerprints. Burst 32
            // stays below `degrade_depth`, so nothing is rejected or
            // degraded and every miss is a full exploration.
            // (`zipf_exponent` only labels the transcript here.)
            load.zipf_exponent = 0.0;
            load.burst = 32;
            load.requests = DURABLE_REQUESTS;
        }
        if ctx.quick {
            load.requests /= 10;
        }
        // The request stream is the input. The seed picks the arrival
        // order only: the tenant population (who asks for what, on
        // which platform) and the service keep their default seed, so
        // every seed offers the same mix of work.
        let population = LoadGenOptions::default().seed;
        let tenants: Vec<usize> = if durable {
            // Uniform without replacement: every `tenants / requests`-th
            // tenant once, shuffled.
            let mut evenly: Vec<usize> =
                (0..load.requests).map(|i| i * load.tenants / load.requests).collect();
            evenly.shuffle(&mut StdRng::seed_from_u64(load.seed));
            evenly
        } else {
            // Drawn as `run_load` draws it, so the default seed submits
            // `serve-bench`'s own stream.
            let zipf = ZipfTenants::new(load.tenants, load.zipf_exponent);
            let draw = |step: usize| unit_f64(load.seed ^ 0xC0FF_EE00 ^ step as u64);
            (0..load.requests).map(|step| zipf.pick(draw(step))).collect()
        };
        let requests = tenants
            .into_iter()
            .map(|tenant| (tenant, tenant_request(population, tenant)))
            .collect();
        Ok(Serve { durable, load, serve: ServeOptions::default(), requests, repeats: 0 })
    }

    fn service(&self, dir: &Path) -> Result<NavService, String> {
        let service = NavService::new(self.serve.clone());
        if !self.durable {
            return Ok(service);
        }
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(ctx_err("create store dir"))?;
        let store =
            ProfileStore::open(dir.join("profiles.db")).map_err(ctx_err("open profile store"))?;
        let cache =
            ExploreCache::open(dir.join("explore.wal")).map_err(ctx_err("open explore cache"))?;
        Ok(service.with_profile_store(store).with_explore_cache(cache))
    }

    /// `run_load`, with each request timed from its `submit` call to
    /// the return of the `drain` that answers it.
    fn closed_loop(
        &self,
        ctx: &Ctx,
        service: &mut NavService,
        t: &Tracer,
        latencies: &mut Vec<Interval>,
    ) -> Result<Loop, String> {
        let o = &self.load;
        let mut out = Loop {
            transcript: format!(
                "# serve-bench tenants={} requests={} burst={} zipf={:?} seed={:#x}\n",
                o.tenants, o.requests, o.burst, o.zipf_exponent, o.seed,
            ),
            submitted: 0,
            rejected: 0,
            responses: Vec::with_capacity(o.requests),
            waves: 0,
        };
        let burst = o.burst.max(1);
        let mut in_flight: Vec<Stamp> = Vec::with_capacity(burst);
        for (step, (tenant, request)) in self.requests.iter().enumerate() {
            t.set_op(out.waves);
            out.submitted += 1;
            let submitted_at = ctx.calib.stamp();
            match t.time("serve.submit", || service.submit(request.clone())) {
                Ok(_) => in_flight.push(submitted_at),
                Err(err) => {
                    out.rejected += 1;
                    out.transcript.push_str(&format!(
                        "rej step={step} tenant={tenant} reason={}\n",
                        err.reason()
                    ));
                }
            }
            let boundary = (step + 1) % burst == 0 || step + 1 == o.requests;
            if boundary && !in_flight.is_empty() {
                let responses =
                    t.time("serve.drain", || service.drain()).map_err(ctx_err("drain"))?;
                let answered_at = ctx.calib.stamp();
                latencies
                    .extend(in_flight.drain(..).map(|start| Interval::between(start, answered_at)));
                for response in &responses {
                    out.transcript.push_str(&response.transcript_line());
                    out.transcript.push('\n');
                }
                out.responses.extend(responses);
                out.waves += 1;
                // Between waves: no request is in flight.
            }
        }
        out.transcript.push_str(&format!(
            "# done submitted={} admitted={} rejected={} responses={} waves={}\n",
            out.submitted,
            out.submitted - out.rejected,
            out.rejected,
            out.responses.len(),
            out.waves,
        ));
        Ok(out)
    }
}

impl Workload for Serve {
    fn work_unit(&self) -> &'static str {
        "responses"
    }

    fn repeat(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<Repeat, String> {
        self.repeats += 1;
        let dir = ctx.dir.join(format!("serve-{}", self.repeats));
        let mut rep = Repeat::default();
        let mut service = self.service(&dir)?;
        let (wall, run) =
            ctx.time(|| self.closed_loop(ctx, &mut service, tracer, &mut rep.latencies));
        let run = run?;
        rep.wall = vec![wall];
        drop(service);

        let admitted = run.submitted - run.rejected;
        rep.attempted = run.submitted;
        rep.work = run.responses.len() as f64;
        rep.check(run.responses.len() as u64 == admitted, || {
            format!("{} responses for {admitted} admitted requests", run.responses.len())
        });
        let tier = |t: ServeTier| run.responses.iter().filter(|r| r.tier == t).count() as f64;
        let degraded = run.responses.iter().filter(|r| r.degrade != DegradeLevel::Full).count();
        let counts: BTreeMap<&str, f64> = [
            ("serve.admitted", admitted as f64),
            ("serve.rejected", run.rejected as f64),
            ("serve.responses", run.responses.len() as f64),
            ("serve.explorations", tier(ServeTier::Cold) + tier(ServeTier::WarmEstimator)),
            ("serve.cache_hits", tier(ServeTier::ExploreCache)),
            ("serve.neighbor_served", tier(ServeTier::NearestNeighbor)),
            ("serve.coalesced", tier(ServeTier::Coalesced)),
            ("serve.degraded", degraded as f64),
            ("serve.pool_hits", tier(ServeTier::WarmEstimator)),
            ("serve.pool_misses", tier(ServeTier::Cold)),
            ("serve.waves", run.waves as f64),
        ]
        .into();
        if self.durable {
            rep.check(run.rejected == 0 && degraded == 0, || {
                format!("durable loop rejected {} and degraded {degraded}", run.rejected)
            });
        } else {
            rep.check(run.rejected > 0, || "burst 80 over queue 64 rejected nothing".into());
        }
        rep.counts = counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        rep.digest = format!("{:08x}", gnnavigator::store::crc32(run.transcript.as_bytes()));

        // Trace pass: every CPU's worth of workers must transcribe the
        // very same bytes as the one the repeat ran on.
        if tracer.enabled() {
            let mut service = self.service(&dir)?;
            let quiet = Tracer::new(false);
            let ((wide_wall, wide), width) = ctx.on_all_cpus(|width| {
                let timed =
                    ctx.time(|| self.closed_loop(ctx, &mut service, &quiet, &mut Vec::new()));
                (timed, width)
            });
            let wide = wide?;
            rep.check(wide.transcript == run.transcript, || {
                format!("transcript at {width} workers differs from the one at 1")
            });
            // Wall against wall: the workers' CPU time is not on the
            // measuring thread's clock.
            rep.counts.insert(
                "serve.par_eff".into(),
                wall.wall_s() / (wide_wall.wall_s() * width as f64),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(rep)
    }
}
