//! Execution traces kept between sweeps: train once, charge per
//! platform.
//!
//! A profile record is a function of `(dataset, platform, config)` and
//! the sweep's execution options, but nearly all of its cost — the
//! sampling, the cache, the training steps — does not read the
//! platform at all (see `gnnav_runtime::session`). [`ExecutionTraces`]
//! holds the platform-free [`ExecutionTrace`] of every clean execution
//! a sweep ran, keyed by everything that execution read *except* the
//! platform, so a sweep of the same configs for another platform
//! re-charges the recorded mini-batches instead of training them
//! again. A [`ProfileStore`](crate::ProfileStore) remembers results
//! per platform and across processes; this remembers work across
//! platforms, in memory, for one owner.

use crate::context::Context;
use crate::store::put_workload_key;
use gnnav_graph::DatasetId;
use gnnav_runtime::{ExecutionOptions, ExecutionTrace};
use gnnav_store::ByteWriter;
use std::collections::HashMap;

/// Clean [`ExecutionTrace`]s by platform-free execution identity.
/// Hand one to [`Profiler::profile_through`](crate::Profiler::profile_through)
/// for every sweep that may share executions with an earlier one.
#[derive(Debug, Default)]
pub struct ExecutionTraces {
    /// Keyed by the exact bytes of [`ExecutionTraces::key`], not a
    /// hash of them: a collision here would hand one config another's
    /// accuracy.
    by_key: HashMap<Vec<u8>, ExecutionTrace>,
}

impl ExecutionTraces {
    /// An empty collection.
    pub fn new() -> Self {
        ExecutionTraces::default()
    }

    /// Number of traces held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Everything an execution reads except the platform: the
    /// identity the profile store already trusts for the dataset and
    /// config (its key minus the platform block), plus the execution
    /// options, which the store leaves to its owner. `journal` only
    /// decides what is logged. A non-empty fault plan is part of the
    /// key although a run under one never leaves a trace: such a key
    /// is never stored, so a faulted sweep is never answered from a
    /// clean one's traces.
    pub(crate) fn key(id: DatasetId, ctx: &Context, opts: &ExecutionOptions) -> Vec<u8> {
        let ExecutionOptions { epochs, train, train_batches_cap, seed, fault_plan, journal: _ } =
            opts;
        let mut w = ByteWriter::new();
        put_workload_key(&mut w, id, ctx);
        w.put_usize(*epochs);
        w.put_bool(*train);
        w.put_bool(train_batches_cap.is_some());
        w.put_usize(train_batches_cap.unwrap_or(0));
        w.put_u64(*seed);
        let plan = fault_plan.as_ref().filter(|plan| !plan.is_empty());
        w.put_str(&plan.map(|plan| format!("{plan:?}")).unwrap_or_default());
        w.finish()
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<&ExecutionTrace> {
        self.by_key.get(key)
    }

    pub(crate) fn insert(&mut self, key: Vec<u8>, trace: ExecutionTrace) {
        self.by_key.insert(key, trace);
    }
}
