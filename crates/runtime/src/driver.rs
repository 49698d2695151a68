//! The one epoch loop.
//!
//! Every way of running training — static or adaptive, ephemeral or
//! crash-safe — is [`drive`] over an [`EpochLoop`]: *what is stepped*
//! (an [`ExecutionSession`](crate::ExecutionSession), or the adaptive
//! layer's state around one) is the trait, *whether it persists* is an
//! `Option<&DurabilityOptions>`. Kill, checkpoint and corruption
//! handling therefore exist exactly once.

use crate::backend::ExecutionOptions;
use crate::checkpoint::{DurabilityOptions, LINEAGE_WAL};
use crate::RuntimeError;
use gnnav_faults::{FaultInjector, FaultKind};
use gnnav_obs::names as metric;
use gnnav_store::{CheckpointDir, Wal};

/// A run [`drive`] can open, step, persist and restore. The
/// implementor holds what is fixed for the run (platform, dataset,
/// options); [`Run`](Self::Run) is the state that advances.
pub trait EpochLoop {
    /// The advancing state.
    type Run;
    /// What a step can fail with; the driver's own failures (store
    /// I/O, injected kills) are [`RuntimeError`]s.
    type Error: From<RuntimeError>;
    /// Label of this loop's checkpoint files (`label-NNNNNN.ckpt`), so
    /// two kinds of run sharing a directory never read each other's.
    const LABEL: &'static str;

    /// Opens a fresh run at epoch 0.
    fn open(&self) -> Result<Self::Run, RuntimeError>;

    /// Rebuilds a run from a checkpoint payload. `Ok(None)` means "not
    /// mine": the payload does not decode, or it belongs to a run other
    /// than the one [`open`](Self::open) would start. A payload of this
    /// run that does not fit the dataset is an error.
    fn restore(&self, payload: &[u8]) -> Result<Option<Self::Run>, RuntimeError>;

    /// Epochs `run` has completed.
    fn epochs_run(run: &Self::Run) -> usize;

    /// Runs the next epoch.
    fn step(&self, run: &mut Self::Run) -> Result<(), Self::Error>;

    /// The checkpoint payload of `run` at the current epoch boundary.
    fn encode(run: &mut Self::Run) -> Vec<u8>;
}

/// What a durable [`drive`] holds open.
struct Persist<'a> {
    ckpts: CheckpointDir,
    /// One record per simulated process kill, so the kill count
    /// survives even when no checkpoint does.
    lineage: Wal,
    every: usize,
    faults: Option<FaultInjector<'a>>,
}

/// Runs `epoch_loop` to `opts.epochs` completed epochs and returns the
/// finished run.
///
/// With `dur`, the run is crash-safe: it resumes from the newest
/// checkpoint in `dur.dir` that verifies and that
/// [`EpochLoop::restore`] accepts (when `dur.resume`; otherwise, or
/// when none is accepted, it cold-starts), checkpoints after every
/// `dur.every` completed epochs, and honors the crash/corruption fault
/// kinds of `opts.fault_plan`:
///
/// - `ProcessKill` at epoch-boundary site `e` (attempt = the kill count
///   persisted in the directory's lineage log, so `duration_attempts`
///   bounds kills per directory) aborts with [`RuntimeError::Killed`]
///   before epoch `e` runs.
/// - `TornWrite` / `BitFlip` at site `e` corrupt the checkpoint file
///   written after epoch `e`, exercising the resume fallback chain.
///
/// Without `dur` nothing is read or written and those three kinds are
/// inert. A run killed at any boundary and driven again with the same
/// arguments ends in the state of the uninterrupted run.
///
/// # Errors
///
/// Whatever opening, restoring or stepping returns, plus
/// [`RuntimeError::Killed`] and [`RuntimeError::Store`].
pub fn drive<L: EpochLoop>(
    epoch_loop: &L,
    opts: &ExecutionOptions,
    dur: Option<&DurabilityOptions>,
) -> Result<L::Run, L::Error> {
    let mut restored = None;
    let mut persist = None;
    if let Some(dur) = dur {
        let ckpts = CheckpointDir::create(&dur.dir, L::LABEL).map_err(RuntimeError::from)?;
        let lineage = Wal::open(dur.dir.join(LINEAGE_WAL)).map_err(RuntimeError::from)?;
        if dur.resume {
            restored = ckpts.load_latest(|payload| epoch_loop.restore(payload))?;
        }
        let faults = opts.fault_plan.as_ref().filter(|p| !p.is_empty()).map(FaultInjector::new);
        persist = Some(Persist { ckpts, lineage, every: dur.every.max(1), faults });
    }
    let mut run = match restored {
        Some((_, run)) => run,
        None => epoch_loop.open()?,
    };

    while L::epochs_run(&run) < opts.epochs {
        let epoch = L::epochs_run(&run);
        if let Some(Persist { lineage, faults: Some(faults), .. }) = &mut persist {
            let kill_attempt = lineage.len() as u32;
            if faults.inject(FaultKind::ProcessKill, epoch as u64, kill_attempt, None).is_some() {
                // Record the kill in the lineage log so the next life
                // sees attempt+1, then "die".
                lineage.append(&(epoch as u64).to_le_bytes()).map_err(RuntimeError::from)?;
                let journal = gnnav_obs::global().journal();
                if journal.is_enabled() {
                    journal.instant(
                        metric::EVENT_KILL,
                        metric::TRACK_STORE,
                        None,
                        vec![
                            ("epoch".into(), epoch.into()),
                            ("attempt".into(), (kill_attempt as u64).into()),
                        ],
                    );
                }
                return Err(RuntimeError::Killed { epoch }.into());
            }
        }
        epoch_loop.step(&mut run)?;
        let done = L::epochs_run(&run);
        let Some(Persist { ckpts, every, faults, .. }) = &persist else { continue };
        if done % every == 0 && done < opts.epochs {
            let payload = L::encode(&mut run);
            ckpts.write(done, &payload).map_err(RuntimeError::from)?;
            let metrics = gnnav_obs::global();
            if metrics.is_enabled() {
                metrics.gauge_set(metric::STORE_CHECKPOINT_BYTES, payload.len() as f64);
            }
            if let Some(faults) = faults {
                let site = (done - 1) as u64;
                let path = ckpts.path_for(done);
                if let Some(m) = faults.inject(FaultKind::TornWrite, site, 0, None) {
                    gnnav_store::corrupt::torn_write(&path, m.max(1.0) as u64)
                        .map_err(RuntimeError::from)?;
                }
                if let Some(m) = faults.inject(FaultKind::BitFlip, site, 0, None) {
                    gnnav_store::corrupt::bit_flip(&path, m.max(0.0) as u64, 3)
                        .map_err(RuntimeError::from)?;
                }
            }
        }
    }
    Ok(run)
}
