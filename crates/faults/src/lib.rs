//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] is a declarative description of *which* fault
//! classes may fire, *where* (a site window), *how often* (a per-site
//! probability), and *how hard* (a magnitude), all derived from one
//! seed. The [`FaultInjector`] turns a plan into a pure function of
//! `(kind, site, attempt)`: the same plan always yields byte-identical
//! schedules, independent of thread interleaving or wall clock — which
//! is what makes chaos runs debuggable, diffable, and resumable.
//!
//! Sites are domain ordinals chosen by the instrumented layer: the
//! runtime backend keys batch-level faults by its global mini-batch
//! counter and NaN injection by the training-step counter; the
//! profiler keys worker faults by config index. `attempt` counts
//! retries of the same site, so a spec's [`FaultSpec::duration_attempts`]
//! bounds how long a transient fault persists under retry — the knob
//! that separates "survivable blip" from "persistent failure" in
//! tests.
//!
//! Draws are derived with a splitmix64-style finalizer over
//! `(plan seed, kind tag, site, spec index)` — no RNG state is
//! carried, so concurrent injection sites cannot perturb each other.

use gnnav_obs::json::{self, Value};
use gnnav_obs::names as metric;
use std::fmt;

/// Schema version of the fault-plan JSON format.
pub(crate) const FAULT_PLAN_SCHEMA_VERSION: u64 = 1;

/// The fault classes the simulator can express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// Transient Γ_runtime spike: the per-batch memory claim is
    /// multiplied by the magnitude, typically forcing an OOM that the
    /// backend must retry or degrade around. Site = global batch.
    TransientOom,
    /// Link-bandwidth degradation: miss-transfer time is multiplied
    /// by the magnitude (a stall window when large). Site = global
    /// batch.
    LinkDegrade,
    /// The mini-batch sampler fails; the backend retries with
    /// backoff. Site = global batch.
    SamplerFailure,
    /// A profiler sweep worker crashes before executing its config.
    /// Site = config index.
    WorkerCrash,
    /// A profiler sweep worker straggles: it sleeps `magnitude`
    /// wall-seconds (capped by the profiler) before executing.
    /// Site = config index.
    Straggler,
    /// The training loss of a step is forced to NaN, exercising the
    /// backend's NaN guard. Site = global training step.
    NanLoss,
    /// The training process "dies" at an epoch boundary: the durable
    /// driver returns a typed error without finishing, leaving only
    /// the checkpoints written so far. Site = epoch index; attempt =
    /// the lineage's persisted kill count, so `duration_attempts`
    /// bounds how many times the same run may be killed.
    ProcessKill,
    /// The last durable write is torn: `magnitude` trailing bytes are
    /// truncated from the just-written store file. Site = epoch index.
    TornWrite,
    /// One stored byte is corrupted: the byte at offset `magnitude`
    /// (modulo file length) of the just-written store file gets a bit
    /// flipped. Site = epoch index.
    BitFlip,
}

impl FaultKind {
    /// Every kind, in schedule/tag order.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::TransientOom,
        FaultKind::LinkDegrade,
        FaultKind::SamplerFailure,
        FaultKind::WorkerCrash,
        FaultKind::Straggler,
        FaultKind::NanLoss,
        FaultKind::ProcessKill,
        FaultKind::TornWrite,
        FaultKind::BitFlip,
    ];

    /// Stable label used in JSON plans, metric names, and journal args.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FaultKind::TransientOom => "transient_oom",
            FaultKind::LinkDegrade => "link_degrade",
            FaultKind::SamplerFailure => "sampler_failure",
            FaultKind::WorkerCrash => "worker_crash",
            FaultKind::Straggler => "straggler",
            FaultKind::NanLoss => "nan_loss",
            FaultKind::ProcessKill => "process_kill",
            FaultKind::TornWrite => "torn_write",
            FaultKind::BitFlip => "bit_flip",
        }
    }

    /// Parses a [`label`](FaultKind::label) back into a kind.
    pub(crate) fn from_label(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// Domain-separation tag mixed into the hash draw, so two kinds
    /// never share a schedule even at the same site.
    fn tag(self) -> u64 {
        match self {
            FaultKind::TransientOom => 0x01,
            FaultKind::LinkDegrade => 0x02,
            FaultKind::SamplerFailure => 0x03,
            FaultKind::WorkerCrash => 0x04,
            FaultKind::Straggler => 0x05,
            FaultKind::NanLoss => 0x06,
            FaultKind::ProcessKill => 0x07,
            FaultKind::TornWrite => 0x08,
            FaultKind::BitFlip => 0x09,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One declarative fault rule inside a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Which fault class this rule injects.
    pub kind: FaultKind,
    /// Per-site firing probability in `[0, 1]`. `1.0` fires at every
    /// site in the window, `0.0` never fires.
    pub probability: f64,
    /// Kind-specific severity (claim multiplier, transfer-time
    /// multiplier, straggler seconds, ...). Unused by kinds that are
    /// binary (sampler failure, worker crash, NaN loss).
    pub magnitude: f64,
    /// First site (inclusive) the rule applies to; `None` = from 0.
    pub from: Option<u64>,
    /// Site bound (exclusive); `None` = unbounded.
    pub until: Option<u64>,
    /// When the site draw fires, only attempts `0..duration_attempts`
    /// of that site are injected — retry `duration_attempts` sees a
    /// clean run. `None` makes the fault persistent across attempts.
    pub duration_attempts: Option<u32>,
}

impl FaultSpec {
    /// A rule that always fires at every site, persistently, with
    /// magnitude 1 — customize from here.
    pub fn new(kind: FaultKind) -> Self {
        FaultSpec {
            kind,
            probability: 1.0,
            magnitude: 1.0,
            from: None,
            until: None,
            duration_attempts: None,
        }
    }

    /// Sets the per-site firing probability.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p;
        self
    }

    /// Sets the magnitude.
    pub fn with_magnitude(mut self, m: f64) -> Self {
        self.magnitude = m;
        self
    }

    /// Restricts the rule to sites in `[from, until)`.
    pub fn with_window(mut self, from: u64, until: u64) -> Self {
        self.from = Some(from);
        self.until = Some(until);
        self
    }

    /// Makes the fault transient: it clears after `attempts` retries
    /// of the same site.
    pub fn with_duration_attempts(mut self, attempts: u32) -> Self {
        self.duration_attempts = Some(attempts);
        self
    }

    fn applies(&self, site: u64, attempt: u32) -> bool {
        if self.from.is_some_and(|f| site < f) || self.until.is_some_and(|u| site >= u) {
            return false;
        }
        self.duration_attempts.is_none_or(|d| attempt < d)
    }
}

/// A seeded, declarative schedule of faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed every hash draw is derived from.
    pub seed: u64,
    /// The fault rules; for a given `(kind, site, attempt)` the first
    /// applicable rule whose draw fires wins.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, specs: Vec::new() }
    }

    /// Builder-style rule append.
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Validates every rule: probabilities in `[0, 1]`, finite
    /// non-negative magnitudes, non-empty windows.
    pub fn validate(&self) -> Result<(), FaultError> {
        for (i, s) in self.specs.iter().enumerate() {
            if !s.probability.is_finite() || !(0.0..=1.0).contains(&s.probability) {
                return Err(FaultError::Invalid(format!(
                    "spec {i} ({}): probability {} outside [0, 1]",
                    s.kind, s.probability
                )));
            }
            if !s.magnitude.is_finite() || s.magnitude < 0.0 {
                return Err(FaultError::Invalid(format!(
                    "spec {i} ({}): magnitude {} must be finite and >= 0",
                    s.kind, s.magnitude
                )));
            }
            if let (Some(f), Some(u)) = (s.from, s.until) {
                if f >= u {
                    return Err(FaultError::Invalid(format!(
                        "spec {i} ({}): empty site window [{f}, {u})",
                        s.kind
                    )));
                }
            }
        }
        Ok(())
    }

    /// Loads and parses a plan from a JSON file, tagging I/O failures
    /// with the offending path.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<FaultPlan, FaultError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| FaultError::Io(path.to_path_buf(), e.to_string()))?;
        FaultPlan::from_json(&text)
    }

    /// Parses a plan from its JSON form (see [`to_json`](Self::to_json)
    /// for the schema) and validates it.
    pub fn from_json(input: &str) -> Result<FaultPlan, FaultError> {
        let root = json::parse(input)
            .map_err(|e| FaultError::Parse(format!("{} at offset {}", e.message, e.offset)))?;
        let version = root
            .get("version")
            .and_then(Value::as_f64)
            .ok_or_else(|| FaultError::Parse("missing numeric 'version'".into()))?;
        if version != FAULT_PLAN_SCHEMA_VERSION as f64 {
            return Err(FaultError::Parse(format!(
                "unsupported fault-plan schema version {version} (expected {FAULT_PLAN_SCHEMA_VERSION})"
            )));
        }
        let seed = match root.get("seed") {
            Some(v) => read_u64(v).map_err(|e| FaultError::Parse(format!("seed {e}")))?,
            None => return Err(FaultError::Parse("missing or invalid 'seed'".into())),
        };
        let faults = root
            .get("faults")
            .and_then(Value::as_arr)
            .ok_or_else(|| FaultError::Parse("missing 'faults' array".into()))?;
        let mut specs = Vec::with_capacity(faults.len());
        for (i, f) in faults.iter().enumerate() {
            // Reject unknown keys loudly: a typoed "magntiude" must
            // not silently fall back to the default.
            const KNOWN_KEYS: [&str; 6] =
                ["kind", "probability", "magnitude", "from", "until", "duration_attempts"];
            match f {
                Value::Obj(map) => {
                    if let Some(key) = map.keys().find(|k| !KNOWN_KEYS.contains(&k.as_str())) {
                        return Err(FaultError::Parse(format!(
                            "fault {i}: unknown key '{key}' (known keys: {})",
                            KNOWN_KEYS.join(", ")
                        )));
                    }
                }
                _ => return Err(FaultError::Parse(format!("fault {i}: not a JSON object"))),
            }
            let kind_label = f
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| FaultError::Parse(format!("fault {i}: missing 'kind'")))?;
            let kind = FaultKind::from_label(kind_label).ok_or_else(|| {
                FaultError::Parse(format!("fault {i}: unknown kind '{kind_label}'"))
            })?;
            let num = |key: &str, default: f64| -> Result<f64, FaultError> {
                match f.get(key) {
                    None | Some(Value::Null) => Ok(default),
                    Some(v) => v.as_f64().ok_or_else(|| {
                        FaultError::Parse(format!("fault {i}: '{key}' is not a number"))
                    }),
                }
            };
            let site = |key: &str| -> Result<Option<u64>, FaultError> {
                match f.get(key) {
                    None | Some(Value::Null) => Ok(None),
                    Some(v) => read_u64(v)
                        .map(Some)
                        .map_err(|e| FaultError::Parse(format!("fault {i}: '{key}' {e}"))),
                }
            };
            let duration_attempts = match site("duration_attempts")? {
                Some(d) => Some(u32::try_from(d).map_err(|_| {
                    FaultError::Parse(format!(
                        "fault {i}: 'duration_attempts' {d} exceeds {}",
                        u32::MAX
                    ))
                })?),
                None => None,
            };
            specs.push(FaultSpec {
                kind,
                probability: num("probability", 1.0)?,
                magnitude: num("magnitude", 1.0)?,
                from: site("from")?,
                until: site("until")?,
                duration_attempts,
            });
        }
        let plan = FaultPlan { seed, specs };
        plan.validate()?;
        Ok(plan)
    }

    /// Serializes the plan:
    ///
    /// ```json
    /// {
    ///   "version": 1,
    ///   "seed": 42,
    ///   "faults": [
    ///     {"kind": "transient_oom", "probability": 1.0,
    ///      "magnitude": 8.0, "from": 0, "until": 4,
    ///      "duration_attempts": 2}
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.specs.len() * 96);
        out.push_str("{\"version\": ");
        json::push_f64(&mut out, FAULT_PLAN_SCHEMA_VERSION as f64);
        out.push_str(", \"seed\": ");
        push_u64(&mut out, self.seed);
        out.push_str(", \"faults\": [");
        for (i, s) in self.specs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"kind\": ");
            json::push_string(&mut out, s.kind.label());
            out.push_str(", \"probability\": ");
            json::push_f64(&mut out, s.probability);
            out.push_str(", \"magnitude\": ");
            json::push_f64(&mut out, s.magnitude);
            for (key, v) in [("from", s.from), ("until", s.until)] {
                if let Some(v) = v {
                    out.push_str(", \"");
                    out.push_str(key);
                    out.push_str("\": ");
                    push_u64(&mut out, v);
                }
            }
            if let Some(d) = s.duration_attempts {
                out.push_str(", \"duration_attempts\": ");
                json::push_f64(&mut out, d as f64);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Integers above 2^53 lose precision as JSON numbers.
const MAX_EXACT: u64 = 1 << 53;

/// Writes `v` as a JSON number up to [`MAX_EXACT`] and as a decimal
/// string above it; [`read_u64`] takes either form.
fn push_u64(out: &mut String, v: u64) {
    if v <= MAX_EXACT {
        json::push_f64(out, v as f64);
    } else {
        json::push_string(out, &v.to_string());
    }
}

/// A `u64` written by [`push_u64`]; the error completes "`<field>` …".
/// A number above [`MAX_EXACT`] is refused: it may already be rounded.
fn read_u64(v: &Value) -> Result<u64, String> {
    match v {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT as f64 => Ok(*n as u64),
        Value::Str(s) => s.parse::<u64>().map_err(|_| format!("'{s}' is not a u64")),
        _ => Err("is not a non-negative integer up to 2^53 (write larger ones as strings)".into()),
    }
}

/// Errors from plan parsing and validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// The JSON could not be parsed into a plan.
    Parse(String),
    /// The plan parsed but a rule is malformed.
    Invalid(String),
    /// The plan file could not be read (path, OS error).
    Io(std::path::PathBuf, String),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Parse(m) => write!(f, "fault plan parse error: {m}"),
            FaultError::Invalid(m) => write!(f, "invalid fault plan: {m}"),
            FaultError::Io(path, m) => write!(f, "fault plan {}: {m}", path.display()),
        }
    }
}

impl std::error::Error for FaultError {}

/// splitmix64 step: the standard finalizer that turns sequential or
/// structured inputs into well-distributed 64-bit outputs.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic uniform draw in `[0, 1)` keyed by the tuple.
fn unit_draw(seed: u64, tag: u64, site: u64, spec_index: u64) -> f64 {
    let h = splitmix64(splitmix64(splitmix64(splitmix64(seed) ^ tag) ^ site) ^ spec_index);
    // Top 53 bits → exact f64 in [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Stateless scheduler over a [`FaultPlan`], plus the obs plumbing
/// that records every injection.
#[derive(Debug)]
pub struct FaultInjector<'p> {
    plan: &'p FaultPlan,
}

impl<'p> FaultInjector<'p> {
    /// Binds an injector to a plan.
    pub fn new(plan: &'p FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// Pure schedule query: the magnitude of the fault of `kind` at
    /// `(site, attempt)`, or `None` when the schedule is clean there.
    /// Identical inputs always yield identical answers.
    pub(crate) fn would_inject(&self, kind: FaultKind, site: u64, attempt: u32) -> Option<f64> {
        for (i, spec) in self.plan.specs.iter().enumerate() {
            if spec.kind != kind || !spec.applies(site, attempt) {
                continue;
            }
            // The draw is keyed by site only (not attempt): whether a
            // site is faulty is decided once; how long the fault lasts
            // under retry is the spec's duration_attempts.
            if unit_draw(self.plan.seed, kind.tag(), site, i as u64) < spec.probability {
                return Some(spec.magnitude);
            }
        }
        None
    }

    /// Like `would_inject`, but records the
    /// injection: bumps `faults.injected` (+ the per-kind counter) and
    /// emits a journal instant on the `faults` track. `sim_us` anchors
    /// the event on the simulated clock when the caller has one.
    pub fn inject(
        &self,
        kind: FaultKind,
        site: u64,
        attempt: u32,
        sim_us: Option<f64>,
    ) -> Option<f64> {
        let magnitude = self.would_inject(kind, site, attempt)?;
        let metrics = gnnav_obs::global();
        if metrics.is_enabled() {
            metrics.add(metric::FAULTS_INJECTED, 1);
            metrics.add(&format!("{}{}", metric::FAULTS_INJECTED_PREFIX, kind.label()), 1);
        }
        let journal = metrics.journal();
        if journal.is_enabled() {
            journal.instant(
                metric::EVENT_FAULT,
                metric::TRACK_FAULTS,
                sim_us,
                vec![
                    ("kind".into(), kind.label().into()),
                    ("site".into(), site.into()),
                    ("attempt".into(), (attempt as u64).into()),
                    ("magnitude".into(), magnitude.into()),
                ],
            );
        }
        Some(magnitude)
    }

    /// First-attempt schedule preview for `kind` over `sites`:
    /// `(site, magnitude)` for every site that would inject. Pure —
    /// used by determinism tests and plan debugging.
    pub fn schedule(&self, kind: FaultKind, sites: std::ops::Range<u64>) -> Vec<(u64, f64)> {
        sites.filter_map(|s| self.would_inject(kind, s, 0).map(|m| (s, m))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_label(k.label()), Some(k));
        }
        assert_eq!(FaultKind::from_label("meteor_strike"), None);
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new(7)
            .with_fault(FaultSpec::new(FaultKind::TransientOom).with_probability(0.5));
        let a = FaultInjector::new(&plan).schedule(FaultKind::TransientOom, 0..256);
        let b = FaultInjector::new(&plan).schedule(FaultKind::TransientOom, 0..256);
        assert_eq!(a, b);
        // p = 0.5 over 256 sites: some fire, some don't.
        assert!(!a.is_empty() && a.len() < 256, "fired {}", a.len());

        let other = FaultPlan::new(8)
            .with_fault(FaultSpec::new(FaultKind::TransientOom).with_probability(0.5));
        let c = FaultInjector::new(&other).schedule(FaultKind::TransientOom, 0..256);
        assert_ne!(a, c, "different seeds must yield different schedules");
    }

    #[test]
    fn kinds_do_not_share_schedules() {
        let plan = FaultPlan::new(42)
            .with_fault(FaultSpec::new(FaultKind::TransientOom).with_probability(0.5))
            .with_fault(FaultSpec::new(FaultKind::NanLoss).with_probability(0.5));
        let inj = FaultInjector::new(&plan);
        let oom = inj.schedule(FaultKind::TransientOom, 0..512);
        let nan = inj.schedule(FaultKind::NanLoss, 0..512);
        assert_ne!(oom, nan);
    }

    #[test]
    fn window_and_probability_extremes() {
        let plan = FaultPlan::new(3).with_fault(
            FaultSpec::new(FaultKind::LinkDegrade).with_magnitude(4.0).with_window(10, 20),
        );
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.would_inject(FaultKind::LinkDegrade, 9, 0), None);
        assert_eq!(inj.would_inject(FaultKind::LinkDegrade, 10, 0), Some(4.0));
        assert_eq!(inj.would_inject(FaultKind::LinkDegrade, 19, 0), Some(4.0));
        assert_eq!(inj.would_inject(FaultKind::LinkDegrade, 20, 0), None);

        let never = FaultPlan::new(3)
            .with_fault(FaultSpec::new(FaultKind::LinkDegrade).with_probability(0.0));
        assert!(FaultInjector::new(&never).schedule(FaultKind::LinkDegrade, 0..128).is_empty());
    }

    #[test]
    fn duration_attempts_bounds_persistence() {
        let plan = FaultPlan::new(1)
            .with_fault(FaultSpec::new(FaultKind::SamplerFailure).with_duration_attempts(2));
        let inj = FaultInjector::new(&plan);
        assert!(inj.would_inject(FaultKind::SamplerFailure, 5, 0).is_some());
        assert!(inj.would_inject(FaultKind::SamplerFailure, 5, 1).is_some());
        assert_eq!(inj.would_inject(FaultKind::SamplerFailure, 5, 2), None);

        let persistent = FaultPlan::new(1).with_fault(FaultSpec::new(FaultKind::SamplerFailure));
        let inj = FaultInjector::new(&persistent);
        assert!(inj.would_inject(FaultKind::SamplerFailure, 5, 1000).is_some());
    }

    #[test]
    fn first_applicable_spec_wins() {
        let plan = FaultPlan::new(9)
            .with_fault(FaultSpec::new(FaultKind::Straggler).with_magnitude(2.0).with_window(0, 4))
            .with_fault(FaultSpec::new(FaultKind::Straggler).with_magnitude(7.0));
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.would_inject(FaultKind::Straggler, 1, 0), Some(2.0));
        assert_eq!(inj.would_inject(FaultKind::Straggler, 6, 0), Some(7.0));
    }

    #[test]
    fn inject_fires_only_planned_kinds() {
        let plan = FaultPlan::new(2).with_fault(FaultSpec::new(FaultKind::WorkerCrash));
        let inj = FaultInjector::new(&plan);
        assert!(inj.inject(FaultKind::WorkerCrash, 0, 0, None).is_some());
        assert!(inj.inject(FaultKind::WorkerCrash, 1, 0, None).is_some());
        assert!(inj.inject(FaultKind::NanLoss, 0, 0, None).is_none());
    }

    #[test]
    fn json_round_trip() {
        let plan = FaultPlan::new(0xDEAD_BEEF)
            .with_fault(
                FaultSpec::new(FaultKind::TransientOom)
                    .with_probability(0.25)
                    .with_magnitude(8.0)
                    .with_window(0, 64)
                    .with_duration_attempts(2),
            )
            .with_fault(FaultSpec::new(FaultKind::NanLoss).with_probability(0.1));
        let json = plan.to_json();
        let parsed = FaultPlan::from_json(&json).expect("round trip");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn json_huge_seed_round_trips_via_string() {
        let plan = FaultPlan::new(u64::MAX).with_fault(FaultSpec::new(FaultKind::LinkDegrade));
        let parsed = FaultPlan::from_json(&plan.to_json()).expect("round trip");
        assert_eq!(parsed.seed, u64::MAX);
    }

    #[test]
    fn json_round_trips_arbitrary_u64_windows() {
        // Both sides of 2^53, where a JSON number stops being exact,
        // then splitmix64 draws spread over the whole range.
        let edges = [0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
        let mut bounds: Vec<u64> = edges.to_vec();
        bounds.extend((0..64).map(splitmix64));
        bounds.extend((0..64).map(|i| splitmix64(i) >> (i % 64)));
        for (i, &a) in bounds.iter().enumerate() {
            let b = bounds[(i * 7 + 3) % bounds.len()];
            let mut spec = FaultSpec::new(FaultKind::ALL[i % FaultKind::ALL.len()]);
            (spec.from, spec.until) = match a.cmp(&b) {
                std::cmp::Ordering::Less => (Some(a), Some(b)),
                std::cmp::Ordering::Greater => (Some(b), Some(a)),
                std::cmp::Ordering::Equal => (Some(a), None),
            };
            let plan = FaultPlan::new(b).with_fault(spec);
            let parsed = FaultPlan::from_json(&plan.to_json()).expect("round trip");
            assert_eq!(parsed, plan, "{}", plan.to_json());
        }
    }

    #[test]
    fn json_duration_attempts_above_u32_is_refused_not_wrapped() {
        let doc = |d: u64| {
            format!(
                r#"{{"version": 1, "seed": 5, "faults": [{{"kind": "nan_loss", "duration_attempts": {d}}}]}}"#
            )
        };
        let max = FaultPlan::from_json(&doc(u32::MAX.into())).expect("u32::MAX fits");
        assert_eq!(max.specs[0].duration_attempts, Some(u32::MAX));
        for d in [u64::from(u32::MAX) + 1, 1 << 33, 1 << 40] {
            match FaultPlan::from_json(&doc(d)) {
                Err(FaultError::Parse(m)) => assert!(m.contains("duration_attempts"), "{m}"),
                other => panic!("duration_attempts {d} gave {other:?}"),
            }
        }
    }

    #[test]
    fn json_defaults_and_errors() {
        let minimal = r#"{"version": 1, "seed": 5, "faults": [{"kind": "nan_loss"}]}"#;
        let plan = FaultPlan::from_json(minimal).expect("minimal plan");
        assert_eq!(plan.specs[0].probability, 1.0);
        assert_eq!(plan.specs[0].magnitude, 1.0);
        assert_eq!(plan.specs[0].duration_attempts, None);

        for bad in [
            "not json",
            r#"{"seed": 5, "faults": []}"#,
            r#"{"version": 99, "seed": 5, "faults": []}"#,
            r#"{"version": 1, "faults": []}"#,
            r#"{"version": 1, "seed": 5, "faults": [{"kind": "meteor"}]}"#,
            r#"{"version": 1, "seed": 5, "faults": [{"kind": "nan_loss", "probability": 2.0}]}"#,
            r#"{"version": 1, "seed": 5, "faults": [{"kind": "nan_loss", "until": 1e30}]}"#,
            r#"{"version": 1, "seed": 1e30, "faults": []}"#,
        ] {
            assert!(FaultPlan::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn json_unknown_key_rejected_with_name() {
        let typo =
            r#"{"version": 1, "seed": 5, "faults": [{"kind": "nan_loss", "magntiude": 2.0}]}"#;
        let err = FaultPlan::from_json(typo).expect_err("typoed key");
        let msg = err.to_string();
        assert!(msg.contains("magntiude"), "message names the bad key: {msg}");
        assert!(msg.contains("magnitude"), "message lists the known keys: {msg}");

        let non_obj = r#"{"version": 1, "seed": 5, "faults": [42]}"#;
        assert!(FaultPlan::from_json(non_obj).is_err());
    }

    #[test]
    fn json_probability_bounds_rejected_each_side() {
        for p in ["-0.5", "1.5", "1e9"] {
            let doc = format!(
                r#"{{"version": 1, "seed": 5, "faults": [{{"kind": "bit_flip", "probability": {p}}}]}}"#
            );
            let err = FaultPlan::from_json(&doc).expect_err("out-of-range p");
            assert!(err.to_string().contains("[0, 1]"), "p={p}: {err}");
        }
    }

    #[test]
    fn durability_kinds_round_trip_and_schedule() {
        for kind in [FaultKind::ProcessKill, FaultKind::TornWrite, FaultKind::BitFlip] {
            assert_eq!(FaultKind::from_label(kind.label()), Some(kind));
            let plan = FaultPlan::new(21).with_fault(FaultSpec::new(kind).with_window(2, 3));
            let parsed = FaultPlan::from_json(&plan.to_json()).expect("round trip");
            assert_eq!(parsed, plan);
            let inj = FaultInjector::new(&plan);
            assert_eq!(inj.schedule(kind, 0..8), vec![(2, 1.0)]);
        }
        // The three kinds draw from separated schedules.
        let plan = FaultPlan::new(33)
            .with_fault(FaultSpec::new(FaultKind::TornWrite).with_probability(0.5))
            .with_fault(FaultSpec::new(FaultKind::BitFlip).with_probability(0.5));
        let inj = FaultInjector::new(&plan);
        assert_ne!(
            inj.schedule(FaultKind::TornWrite, 0..512),
            inj.schedule(FaultKind::BitFlip, 0..512)
        );
    }

    #[test]
    fn process_kill_duration_bounds_lineage_kills() {
        // duration_attempts(1) kills a lineage exactly once: attempt 0
        // (first life) fires, attempt 1 (after one resume) is clean.
        let plan = FaultPlan::new(4)
            .with_fault(FaultSpec::new(FaultKind::ProcessKill).with_duration_attempts(1));
        let inj = FaultInjector::new(&plan);
        assert!(inj.would_inject(FaultKind::ProcessKill, 3, 0).is_some());
        assert_eq!(inj.would_inject(FaultKind::ProcessKill, 3, 1), None);
    }

    #[test]
    fn validate_rejects_malformed_specs() {
        let bad_prob =
            FaultPlan::new(0).with_fault(FaultSpec::new(FaultKind::NanLoss).with_probability(-0.1));
        assert!(matches!(bad_prob.validate(), Err(FaultError::Invalid(_))));
        let bad_mag = FaultPlan::new(0)
            .with_fault(FaultSpec::new(FaultKind::NanLoss).with_magnitude(f64::NAN));
        assert!(matches!(bad_mag.validate(), Err(FaultError::Invalid(_))));
        let empty_window =
            FaultPlan::new(0).with_fault(FaultSpec::new(FaultKind::NanLoss).with_window(5, 5));
        assert!(matches!(empty_window.validate(), Err(FaultError::Invalid(_))));
        assert!(FaultPlan::new(0).validate().is_ok());
    }

    #[test]
    fn load_names_the_missing_file() {
        let path = std::env::temp_dir().join("gnnav-faults-no-such-plan.json");
        let err = FaultPlan::load(&path).expect_err("missing file must fail");
        let FaultError::Io(p, msg) = &err else { panic!("expected Io, got {err:?}") };
        assert_eq!(p, &path);
        assert!(!msg.is_empty());
        assert!(err.to_string().contains("gnnav-faults-no-such-plan.json"), "{err}");
    }

    #[test]
    fn load_names_an_unreadable_path() {
        // A directory is not readable as a file; the error still names it.
        let dir = std::env::temp_dir().join(format!("gnnav-faults-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let err = FaultPlan::load(&dir).expect_err("directory must fail");
        assert!(matches!(&err, FaultError::Io(p, _) if p == &dir), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_surfaces_malformed_json_as_parse_error() {
        let path =
            std::env::temp_dir().join(format!("gnnav-faults-bad-{}.json", std::process::id()));
        std::fs::write(&path, "{not json").expect("write");
        let err = FaultPlan::load(&path).expect_err("malformed JSON must fail");
        assert!(matches!(err, FaultError::Parse(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_round_trips_a_written_plan() {
        let path =
            std::env::temp_dir().join(format!("gnnav-faults-rt-{}.json", std::process::id()));
        let plan = FaultPlan::new(7)
            .with_fault(FaultSpec::new(FaultKind::LinkDegrade).with_probability(0.5));
        std::fs::write(&path, plan.to_json()).expect("write");
        let loaded = FaultPlan::load(&path).expect("load");
        assert_eq!(loaded, plan);
        std::fs::remove_file(&path).ok();
    }
}
