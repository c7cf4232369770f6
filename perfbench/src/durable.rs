//! The durable stage: the workload's trace through `DurableMiner` with
//! group commit per routed batch of [`GROUP_COMMIT_EVENTS`] (the miner's
//! sink policy), a checkpoint every [`CHECKPOINT_EVERY`] events and
//! compaction on; then `flush`, a pre-crash `snapshot`, `crash`,
//! `recover` and a post-recovery `snapshot`.
//!
//! Each cycle checks that the recovered snapshot equals the pre-crash one
//! bit for bit and that recovery accounts for every ingested event.

use std::path::Path;
use std::time::Instant;

use farmer_obs::{ObsReport, Registry};
use farmer_stream::{recover, snapshots_bitwise_equal, DurableConfig, DurableMiner, StreamConfig};
use farmer_trace::Trace;

use crate::ledger::{Layer, Spans};
use crate::workload::{accesses, stream_config, Access, CHECKPOINT_EVERY, GROUP_COMMIT_EVENTS};

/// What one durable cycle measured.
pub struct DurableCycle {
    /// Ingest rate over the ingest loop plus the final flush (events/s).
    pub events_per_s: f64,
    /// Wall time of the ingest loop plus the final flush (ns).
    pub ingest_ns: u64,
    /// Wall time of the `recover` call (ns).
    pub recover_ns: u64,
    /// `RecoveryReport::replay_ns`.
    pub replay_ns: u64,
    /// Events replayed from the log suffix.
    pub events_replayed: u64,
    /// Ingest events journaled.
    pub ingests: u64,
    /// Ingest and forget operations journaled.
    pub ops: u64,
    /// Recovered snapshot equals the pre-crash one, and the recovered
    /// event count equals the journaled one.
    pub recovered_exactly: bool,
    /// The WAL registry snapshot (traced run only).
    pub obs: Option<ObsReport>,
}

/// Run one cycle of `ops` operations, logging under `dir`.
///
/// The end-to-end run lets the miner checkpoint itself every
/// [`CHECKPOINT_EVERY`] events; the traced run turns the automatic
/// cadence off and calls `checkpoint` at the same positions, so each
/// checkpoint is its own span and the journaled history is identical.
pub fn cycle<S: Spans>(
    trace: &Trace,
    ops: usize,
    dir: &Path,
    spans: &mut S,
) -> Result<DurableCycle, String> {
    let path = dir.join("farmer.wal");
    let auto = if S::ON { 0 } else { CHECKPOINT_EVERY };
    let stream = StreamConfig {
        route_batch: GROUP_COMMIT_EVENTS,
        ..stream_config(trace)
    };
    let cfg = DurableConfig::new(stream)
        .with_checkpoint_interval(auto)
        .with_compaction(true);
    let reg = Registry::new(S::ON);
    let mut miner = if S::ON {
        DurableMiner::create_instrumented(&path, cfg.clone(), &reg)
    } else {
        DurableMiner::create(&path, cfg.clone())
    }
    .map_err(|e| format!("durable: create {}: {e}", path.display()))?;

    let mut ingests = 0u64;
    let t = Instant::now();
    for a in accesses(trace).take(ops) {
        match a {
            Access::Ingest(req, p) => {
                spans.span(Layer::DurableIngest, || miner.ingest(req, p));
                ingests += 1;
                if S::ON && ingests.is_multiple_of(CHECKPOINT_EVERY) {
                    spans
                        .span(Layer::DurableCheckpoint, || miner.checkpoint())
                        .map_err(|e| format!("durable: checkpoint: {e}"))?;
                }
            }
            Access::Forget(f) => spans.span(Layer::DurableForget, || miner.forget(f)),
        }
    }
    spans.span(Layer::DurableFlush, || miner.flush());
    let ingest_ns = t.elapsed().as_nanos() as u64;

    // The pre-crash snapshot is the check's reference, not measured work.
    let before = miner.snapshot();
    miner.crash();
    let t = Instant::now();
    let (mut recovered, report) = spans
        .span(Layer::Recover, || recover(&path, cfg))
        .map_err(|e| format!("durable: recover {}: {e}", path.display()))?;
    let recover_ns = t.elapsed().as_nanos() as u64;
    let after = recovered.snapshot();
    drop(recovered);

    Ok(DurableCycle {
        events_per_s: ingests as f64 / (ingest_ns as f64 / 1e9).max(1e-9),
        ingest_ns,
        recover_ns,
        replay_ns: report.replay_ns,
        events_replayed: report.events_replayed,
        ingests,
        ops: ops as u64,
        recovered_exactly: snapshots_bitwise_equal(&before, &after)
            && report.events_recovered == ingests,
        obs: S::ON.then(|| reg.snapshot()),
    })
}
