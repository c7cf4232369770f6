//! The serving stage: the workload's trace through `FarmerServe` with the
//! default configuration, driven by one load thread in two kinds of
//! segment that a run may interleave with other work.
//!
//! * **Closed-loop chunk (saturation).** A fixed number of operations is
//!   pushed as fast as the ring accepts them, then `flush`; the chunk's
//!   rate is its operations over push-to-flush time.
//! * **Open-loop window.** Ingest and top-k queries are offered on a fixed
//!   schedule. Each operation is due at a fixed instant and its generator
//!   lateness is recorded. Between operations the thread polls a reader;
//!   when a newly published snapshot covers `n` events, every earlier
//!   event became visible then (see [`LagTracker`]). Query `j` asks for the
//!   top-k correlators of the owner of list `j·TARGET_STRIDE mod n` of the
//!   snapshot the reader serves, so every query finds a list and the
//!   latency distribution is not split between found and absent files.
//!
//! At the end the tier's final publication must equal, bit for bit, a
//! reference `ShardedMiner` fed the same operations, and the tier must
//! report every pushed event.

use std::sync::Arc;
use std::time::Instant;

use farmer_core::Correlator;
use farmer_obs::{ObsReport, Registry};
use farmer_serve::{
    FarmerServe, IngestHandle, ServeConfig, ServeReader, ServeStats, StreamSnapshot,
};
use farmer_stream::{snapshots_bitwise_equal, ShardedMiner, StreamMiner};
use farmer_trace::{FileId, Trace};

use crate::ledger::{Layer, Spans};
use crate::stats::{LagTracker, Samples};
use crate::workload::{
    accesses, stream_config, Access, Workload, OPEN_WINDOW_NS, QUERY_K, SATURATION_CHUNK,
};

/// The figures of one open-loop window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Median visibility lag (ms) of the events due in the window.
    pub lag_p50_ms: f64,
    /// 99th-percentile visibility lag (ms).
    pub lag_p99_ms: f64,
    /// Median service time (ns) of the queries due in the window.
    pub query_p50_ns: f64,
    /// 99th-percentile query service time (ns).
    pub query_p99_ns: f64,
    /// Events behind the lag percentiles.
    pub lags: usize,
    /// Queries behind the service-time percentiles.
    pub queries: usize,
    /// Every event due in the window was seen published.
    pub all_seen: bool,
    /// Rise of the lag over the segment (ns), see
    /// [`LagTracker::lag_rise_ns`].
    pub lag_rise_ns: f64,
}

/// Everything one serving stage measured.
pub struct ServeRun {
    /// Per-chunk saturated ingest rates (events/s), warm-up chunk
    /// excluded.
    pub chunk_rates: Vec<f64>,
    /// Wall time of all closed-loop chunks (ns).
    pub saturation_ns: u64,
    /// The open-loop windows, in run order.
    pub windows: Vec<Window>,
    /// Generator lateness of every open-loop operation (ns).
    pub late_ns: Samples,
    /// Wall time of all open-loop segments (ns).
    pub open_ns: u64,
    /// Open-loop publication period (ns) at the offered event rate.
    pub publish_period_ns: u64,
    /// Ingest and forget operations pushed.
    pub ops: u64,
    /// Ingest operations pushed.
    pub ingests: u64,
    /// Queries served.
    pub queries: u64,
    /// Queries that returned at least one correlator.
    pub answered: u64,
    /// Operations the tier refused.
    pub refused: u64,
    /// Lifetime stats from `shutdown`.
    pub stats: ServeStats,
    /// Whether the final snapshot equals the reference miner's.
    pub matches_reference: bool,
    /// The registry snapshot (traced run only).
    pub obs: Option<ObsReport>,
}

/// Push one operation; `false` if the tier refused it.
fn push<S: Spans>(h: &mut IngestHandle, a: &Access<'_>, spans: &mut S) -> bool {
    match a {
        Access::Ingest(req, path) => spans.span(Layer::ServeIngest, || h.ingest(*req, *path)),
        Access::Forget(f) => spans.span(Layer::ServeForget, || h.forget(*f)),
    }
}

/// Nanoseconds since `t0`.
fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A live serving tier with its load generator's handles. Chunks and
/// windows may be interleaved with other stages' work (the tier's worker
/// parks while idle); `finish` shuts the tier down and checks it.
pub struct LiveTier<'t> {
    trace: &'t Trace,
    tier: FarmerServe,
    handle: IngestHandle,
    reader: ServeReader,
    ops: Box<dyn Iterator<Item = Access<'t>> + 't>,
    reg: Registry,
    run: ServeRun,
}

impl<'t> LiveTier<'t> {
    /// Spawn the tier with the default configuration. With spans on, it is
    /// spawned through `spawn_instrumented` so the registry's
    /// `serve.*`/`stream.*` counters can be read at the end.
    pub fn start<S: Spans>(w: &Workload, trace: &'t Trace) -> LiveTier<'t> {
        let cfg = ServeConfig {
            stream: stream_config(trace),
            ..ServeConfig::default()
        };
        let reg = Registry::new(S::ON);
        let tier = if S::ON {
            FarmerServe::spawn_instrumented(cfg.clone(), &reg)
        } else {
            FarmerServe::spawn(cfg.clone())
        };
        LiveTier {
            trace,
            handle: tier.handle(),
            reader: tier.reader(),
            tier,
            ops: Box::new(accesses(trace)),
            reg,
            run: ServeRun {
                publish_period_ns: (cfg.publish_every as f64 * 1e9 / w.open_event_rate) as u64,
                chunk_rates: Vec::new(),
                saturation_ns: 0,
                windows: Vec::new(),
                late_ns: Samples::default(),
                open_ns: 0,
                ops: 0,
                ingests: 0,
                queries: 0,
                answered: 0,
                refused: 0,
                stats: ServeStats {
                    events: 0,
                    forgets: 0,
                    publishes: 0,
                    final_epoch: 0,
                },
                matches_reference: false,
                obs: None,
            },
        }
    }

    /// One closed-loop chunk: push [`SATURATION_CHUNK`] operations as fast
    /// as the ring takes them, then `flush`. A counted chunk's rate joins
    /// `chunk_rates`; the first chunk fills the empty miner and is not
    /// counted.
    pub fn chunk<S: Spans>(&mut self, counted: bool, spans: &mut S) {
        let t = Instant::now();
        for a in self.ops.by_ref().take(SATURATION_CHUNK) {
            self.run.ops += 1;
            self.run.ingests += u64::from(matches!(a, Access::Ingest(..)));
            self.run.refused += u64::from(!push(&mut self.handle, &a, spans));
        }
        spans.span(Layer::ServeFlush, || self.tier.flush());
        let took = t.elapsed();
        self.run.saturation_ns += took.as_nanos() as u64;
        if counted {
            self.run
                .chunk_rates
                .push(SATURATION_CHUNK as f64 / took.as_secs_f64().max(1e-9));
        }
    }

    /// One open-loop segment: events at `open_event_rate` and queries at
    /// `open_query_rate`, interleaved by due time on this thread, for one
    /// reported window of [`OPEN_WINDOW_NS`] and then until the regular
    /// publication cadence has made every event of the window visible (at
    /// most three publication periods more).
    pub fn window<S: Spans>(&mut self, w: &Workload, spans: &mut S) {
        let event_period = 1e9 / w.open_event_rate;
        let query_period = 1e9 / w.open_query_rate;
        let end_ns = OPEN_WINDOW_NS + 3 * self.run.publish_period_ns;
        // Ingests due inside the reported window.
        let mut in_window = 0usize;
        let secs = end_ns as f64 / 1e9;
        let mut lag = LagTracker::with_capacity((secs * w.open_event_rate) as usize + 1);
        // Service times of the queries due inside the window.
        let mut queries = Samples::with_capacity((secs * w.open_query_rate) as usize + 1);
        let mut out: Vec<Correlator> = Vec::with_capacity(QUERY_K);
        let reader = &mut self.reader;
        let run = &mut self.run;
        // The snapshot the reader serves, for picking query targets.
        let mut serving = reader.snapshot();
        // Ingests pushed before this segment: a snapshot covering `n`
        // events covers this segment's first `n - base`. (The previous
        // segment's last events may still be unpublished.)
        let base = run.ingests;
        let (mut i, mut j) = (0u64, 0u64);
        let t0 = Instant::now();
        loop {
            let event_due = (i as f64 * event_period) as u64;
            let query_due = (j as f64 * query_period) as u64;
            let (is_event, due) = if event_due <= query_due {
                (true, event_due)
            } else {
                (false, query_due)
            };
            if due >= end_ns || (due >= OPEN_WINDOW_NS && lag.visible() >= in_window) {
                break;
            }
            // Wait for the due time, watching for publications meanwhile.
            let wait_start = ns_since(t0);
            let mut now = wait_start;
            let mut refresh_ns = 0u64;
            loop {
                let r = Instant::now();
                let swapped = reader.refresh();
                if swapped {
                    let took = r.elapsed().as_nanos() as u64;
                    refresh_ns += took;
                    spans.record(Layer::ServeRefresh, took);
                    serving = reader.snapshot();
                    let seen = serving.events.saturating_sub(base) as usize;
                    lag.observe(seen, ns_since(t0));
                }
                now = ns_since(t0).max(now);
                if now >= due {
                    break;
                }
                std::hint::spin_loop();
            }
            spans.record(
                Layer::LoadgenWait,
                (now - wait_start).saturating_sub(refresh_ns),
            );
            run.late_ns.push(now - due);
            if is_event {
                let Some(a) = self.ops.next() else { break };
                run.ops += 1;
                if let Access::Ingest(..) = &a {
                    run.ingests += 1;
                    lag.push_due(due);
                    in_window += usize::from(due < OPEN_WINDOW_NS);
                }
                run.refused += u64::from(!push(&mut self.handle, &a, spans));
                i += 1;
            } else {
                let file = query_target(&serving, j);
                let t = Instant::now();
                reader.top_k_into(file, QUERY_K, 0.0, &mut out);
                let took = t.elapsed().as_nanos() as u64;
                spans.record(Layer::ServeQuery, took);
                if due < OPEN_WINDOW_NS {
                    queries.push(took);
                }
                run.queries += 1;
                run.answered += u64::from(!out.is_empty());
                j += 1;
            }
        }
        run.open_ns += ns_since(t0);

        let (mut lags, all_seen) = match lag.lags_due_before(OPEN_WINDOW_NS) {
            Some(l) => (l, true),
            None => (Samples::default(), false),
        };
        run.windows.push(Window {
            lag_p50_ms: lags.pct(0.50) as f64 / 1e6,
            lag_p99_ms: lags.pct(0.99) as f64 / 1e6,
            query_p50_ns: queries.pct(0.50) as f64,
            query_p99_ns: queries.pct(0.99) as f64,
            lags: lags.len(),
            queries: queries.len(),
            all_seen,
            lag_rise_ns: lag.lag_rise_ns(),
        });
    }

    /// Shut the tier down and check its final publication against a
    /// reference miner. The closing flush is part of the check, not of
    /// the measured work.
    pub fn finish<S: Spans>(mut self) -> ServeRun {
        self.tier.flush();
        let published = self.reader.snapshot();
        let mut run = self.run;
        if S::ON {
            run.obs = Some(self.reg.snapshot());
        }
        drop(self.reader);
        drop(self.handle);
        run.stats = self.tier.shutdown();
        run.matches_reference = matches_reference(self.trace, run.ops, &published);
        run
    }
}

/// Stride between consecutive query targets among a snapshot's lists: a
/// prime, so consecutive queries land far apart in memory and a cycle
/// visits every list when the count is not a multiple of it.
const TARGET_STRIDE: u64 = 7919;

/// The file query `j` asks about: the owner of one of `snap`'s lists (file
/// 0 while the snapshot holds none).
fn query_target(snap: &StreamSnapshot, j: u64) -> FileId {
    let n = snap.table.len() as u64;
    if n == 0 {
        return FileId::new(0);
    }
    let k = (j * TARGET_STRIDE % n) as usize;
    snap.table.iter().nth(k).map_or(FileId::new(0), |l| l.owner)
}

/// Feed a fresh `ShardedMiner` the first `ops` operations and compare its
/// consistent snapshot with the tier's final publication.
fn matches_reference(trace: &Trace, ops: u64, published: &Arc<StreamSnapshot>) -> bool {
    let mut m = ShardedMiner::spawn(stream_config(trace));
    for a in accesses(trace).take(ops as usize) {
        match a {
            Access::Ingest(req, path) => m.route(req, path),
            Access::Forget(f) => m.route_forget(f),
        }
    }
    snapshots_bitwise_equal(&m.snapshot(), published)
}

/// The single-threaded engine pass of the traced run: one `StreamMiner`
/// over the saturation phase's operations.
pub struct EnginePass {
    /// Wall time per ingest (ns).
    pub ns_per_event: f64,
    /// Files evicted by Space-Saving retention.
    pub evictions: u64,
    /// Files tracked at the end.
    pub tracked_files: usize,
    /// Resident miner state at the end (bytes).
    pub state_bytes: usize,
}

/// Run the engine pass over the first `ops` operations of `trace`. It is
/// timed as a whole: a span per call would cost as much as the call.
pub fn engine_pass(trace: &Trace, ops: usize) -> EnginePass {
    let mut m = StreamMiner::new(stream_config(trace));
    let mut ingests = 0u64;
    let t = Instant::now();
    for a in accesses(trace).take(ops) {
        match a {
            Access::Ingest(req, path) => {
                ingests += 1;
                m.ingest(req, path);
            }
            Access::Forget(f) => m.forget(f),
        }
    }
    let wall = t.elapsed().as_nanos() as f64;
    EnginePass {
        ns_per_event: wall / ingests.max(1) as f64,
        evictions: m.evictions(),
        tracked_files: m.tracked_files(),
        state_bytes: m.state_bytes(),
    }
}
