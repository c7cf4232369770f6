//! The three workloads, their inputs and their fixed amounts of work.
//!
//! Every workload drives the whole deployed path — the serving tier, the
//! durable tier and the online MDS replay — over one trace family, so each
//! run reports every end-to-end metric. The family decides which layers
//! are stressed, and the workload's own stage gets the most repetitions.
//! README.md records why each family was chosen.

use farmer_core::{FarmerConfig, Request};
use farmer_stream::StreamConfig;
use farmer_trace::{ChurnSpec, FileId, FilePath, Op, Trace, TraceEvent, TraceFamily, WorkloadSpec};

/// The three stages of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `FarmerServe`: ring → ingest worker → shard → publish → reader.
    Serve,
    /// `DurableMiner`: WAL group commit, checkpoints, crash, recover.
    Durable,
    /// `replay_online`: online miner → FPA → cache → MDS queue model.
    Replay,
}

/// One workload: a trace family plus the stage it is named after.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// Trace family of the generated input.
    pub family: TraceFamily,
    /// Scale applied to the family preset's event count.
    pub scale: f64,
    /// Wrap the trace in the default `ChurnSpec` (create/unlink churn, so
    /// forgets reach the miners and the WAL).
    pub churn: bool,
    /// The stage this workload is named after (most repetitions).
    pub focus: Stage,
    /// Open-loop offered ingest rate (events/s), about a third of this
    /// family's saturated serving rate on the reference host.
    pub open_event_rate: f64,
    /// Open-loop offered top-k query rate (queries/s).
    pub open_query_rate: f64,
    /// Operations per durable cycle (ingest, crash, recover).
    pub durable_ops: usize,
}

/// Every workload, in CLI order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve_hp",
        family: TraceFamily::Hp,
        scale: 0.5,
        churn: false,
        focus: Stage::Serve,
        open_event_rate: 100_000.0,
        open_query_rate: 20_000.0,
        durable_ops: 120_000,
    },
    Workload {
        name: "durable_llnl",
        family: TraceFamily::Llnl,
        scale: 0.5,
        churn: true,
        focus: Stage::Durable,
        open_event_rate: 60_000.0,
        open_query_rate: 12_000.0,
        durable_ops: 184_000,
    },
    Workload {
        name: "replay_res",
        family: TraceFamily::Res,
        scale: 1.0,
        churn: false,
        focus: Stage::Replay,
        open_event_rate: 60_000.0,
        open_query_rate: 12_000.0,
        durable_ops: 120_000,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Shard count of every miner the benchmark builds: with two cores, a
/// second shard plus the router thread makes throughput swing run to run.
pub const SHARDS: usize = 1;

/// Top-k size of the open-loop queries.
pub const QUERY_K: usize = 8;

/// Events between online snapshot refreshes in the replay stage.
pub const REFRESH_EVERY: usize = 4096;

/// Events between durable checkpoints.
pub const CHECKPOINT_EVERY: u64 = 64_000;

/// Events per routed batch in the durable stage, and so per group commit
/// (one WAL sync per batch). With the default batch of 256 the shared
/// VM's fsync latency made up about half of the HP durable rate and moved
/// single cycles between 125k and 408k events/s; at 1024 the sync share
/// is about an eighth.
pub const GROUP_COMMIT_EVENTS: usize = 1024;

/// Events per closed-loop saturation chunk (each ends with a flush).
pub const SATURATION_CHUNK: usize = 50_000;

/// Length of one open-loop reporting window (1/3 s). Latency percentiles
/// are taken per window and the median over windows is reported, so one
/// stall on a shared host moves one window, not the run's figure. Each
/// window runs as its own segment, which continues until the window's
/// events are published.
pub const OPEN_WINDOW_NS: u64 = 333_333_333;

/// Fewest open-loop windows in any run.
pub const MIN_OPEN_WINDOWS: usize = 8;

/// Trace generations timed for `setup_s`.
pub const SETUP_REPEATS: usize = 5;

impl Workload {
    /// Generate this workload's trace for `seed`.
    pub fn generate(&self, seed: u64) -> Trace {
        let spec = WorkloadSpec::for_family(self.family)
            .scaled(self.scale)
            .with_seed(seed);
        if self.churn {
            ChurnSpec::new(spec).generate()
        } else {
            spec.generate()
        }
    }

    /// The fixed work of each stage for a run of `seconds`, scaled from
    /// the amounts of a 20-second run. The workload's own stage gets about
    /// twice the closed-loop chunks, durable cycles or replay repetitions
    /// of the others; every workload gets the same open loop. Amounts are a
    /// function of the workload and `seconds` only, never of measured
    /// speed, so every count repeats exactly across runs.
    pub fn plan(&self, seconds: u64) -> Plan {
        let f = seconds as f64 / 20.0;
        let scaled = |focused: f64, other: f64, stage: Stage| {
            let n = if stage == self.focus { focused } else { other };
            ((n * f).round() as usize).max(3)
        };
        Plan {
            saturation_chunks: scaled(18.0, 9.0, Stage::Serve),
            open_windows: ((24.0 * f).round() as usize).max(MIN_OPEN_WINDOWS),
            durable_cycles: scaled(8.0, 6.0, Stage::Durable),
            replay_reps: scaled(16.0, 8.0, Stage::Replay),
        }
    }
}

/// Fixed work of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Counted closed-loop chunks of [`SATURATION_CHUNK`] events (one
    /// uncounted warm-up chunk runs first).
    pub saturation_chunks: usize,
    /// Open-loop windows of [`OPEN_WINDOW_NS`].
    pub open_windows: usize,
    /// Durable ingest → crash → recover cycles.
    pub durable_cycles: usize,
    /// `replay_online` repetitions.
    pub replay_reps: usize,
}

/// One unit of measured work in an end-to-end run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// A closed-loop serving chunk.
    Chunk,
    /// An open-loop serving window.
    Window,
    /// A durable ingest → crash → recover cycle.
    Cycle,
    /// A `replay_online` repetition.
    Rep,
}

impl Plan {
    /// The order of an end-to-end run's work, each task flagged `true`
    /// when it counts: one uncounted warm-up chunk, cycle and repetition
    /// first, then every counted task interleaved evenly, so a spell of
    /// outside load on a shared host touches a few tasks of every kind
    /// rather than all of one.
    pub fn schedule(&self) -> Vec<(Task, bool)> {
        let mut counted: Vec<(f64, usize, Task)> = Vec::new();
        for (rank, (task, n)) in [
            (Task::Chunk, self.saturation_chunks),
            (Task::Window, self.open_windows),
            (Task::Cycle, self.durable_cycles),
            (Task::Rep, self.replay_reps),
        ]
        .into_iter()
        .enumerate()
        {
            for k in 0..n {
                counted.push(((k as f64 + 0.5) / n as f64, rank, task));
            }
        }
        counted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        [Task::Chunk, Task::Cycle, Task::Rep]
            .into_iter()
            .map(|t| (t, false))
            .chain(counted.into_iter().map(|(_, _, t)| (t, true)))
            .collect()
    }
}

/// The miner configuration for `trace`: paper defaults, with the path
/// attribute only where the family records paths (the FPA rule).
pub fn farmer_config(trace: &Trace) -> FarmerConfig {
    if trace.family.has_paths() {
        FarmerConfig::default()
    } else {
        FarmerConfig::pathless()
    }
}

/// The streaming configuration every stage uses for `trace`.
pub fn stream_config(trace: &Trace) -> StreamConfig {
    StreamConfig::default()
        .with_farmer(farmer_config(trace))
        .with_shards(SHARDS)
}

/// What one trace event asks of a miner (the online routing policy:
/// unlinks are forgotten, metadata demands observed, closes ignored).
pub enum Access<'t> {
    /// Observe an access.
    Ingest(Request, Option<&'t FilePath>),
    /// Forget a file.
    Forget(FileId),
}

/// The miner operation for `e`, or `None` for a close.
pub fn access<'t>(trace: &'t Trace, e: &TraceEvent) -> Option<Access<'t>> {
    if e.op == Op::Unlink {
        Some(Access::Forget(e.file))
    } else if e.op.is_metadata_demand() {
        Some(Access::Ingest(
            Request::from_event(e),
            trace.path_of(e.file),
        ))
    } else {
        None
    }
}

/// The endless operation stream over `trace` (closes skipped).
pub fn accesses(trace: &Trace) -> impl Iterator<Item = Access<'_>> + '_ {
    trace.stream().filter_map(move |e| access(trace, &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_warms_up_then_interleaves() {
        let plan = Plan {
            saturation_chunks: 4,
            open_windows: 2,
            durable_cycles: 2,
            replay_reps: 1,
        };
        let s = plan.schedule();
        assert_eq!(
            &s[..3],
            &[
                (Task::Chunk, false),
                (Task::Cycle, false),
                (Task::Rep, false)
            ]
        );
        let counted: Vec<Task> = s[3..]
            .iter()
            .map(|&(t, c)| {
                assert!(c);
                t
            })
            .collect();
        use Task::*;
        // Positions: chunks 1/8, 3/8, 5/8, 7/8; windows and cycles 1/4,
        // 3/4; the repetition 1/2. Ties go to the earlier kind.
        assert_eq!(
            counted,
            vec![Chunk, Window, Cycle, Chunk, Rep, Chunk, Window, Cycle, Chunk]
        );
    }

    #[test]
    fn plans_are_fixed_work() {
        for w in WORKLOADS {
            let a = w.plan(20);
            let b = w.plan(20);
            assert_eq!(a.schedule(), b.schedule());
            assert!(a.saturation_chunks >= 3 && a.durable_cycles >= 3 && a.replay_reps >= 3);
            assert!(a.open_windows >= MIN_OPEN_WINDOWS);
        }
        assert!(by_name("serve_hp").is_some());
        assert!(by_name("nope").is_none());
    }
}
