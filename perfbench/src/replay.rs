//! The replay stage: the paper's own evaluation loop. `replay_online`
//! co-drives a live miner with the MDS simulator; the FPA predictor inside
//! the MDS serves from a snapshot refreshed every [`REFRESH_EVERY`]
//! events, through the metadata cache, the MDS queue model and the
//! B+-tree store.
//!
//! The traced run drives the same loop step by step from the public
//! pieces (`OnlineDriver`, `MdsServer`) with a span around each call, and
//! must reproduce `replay_online`'s response time, hit ratio and
//! prefetch accuracy exactly.

use std::time::Instant;

use farmer_mds::{replay_online, MdsServer, ReplayConfig};
use farmer_obs::{ObsReport, Registry};
use farmer_prefetch::{CacheStats, FpaPredictor, OnlineConfig, OnlineDriver};
use farmer_store::IoStats;
use farmer_trace::{Trace, TraceEvent};

use crate::ledger::{Layer, Spans};
use crate::workload::{stream_config, REFRESH_EVERY};

/// The simulated, deterministic outcome of one replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Mean demand response time (ms), the paper's Figure 8 metric.
    pub response_ms: f64,
    /// Demand hit ratio of the MDS cache.
    pub hit_ratio: f64,
    /// Useful prefetches over prefetches issued.
    pub accuracy: f64,
}

/// One replay repetition.
pub struct Replay {
    /// Events replayed per wall second.
    pub events_per_s: f64,
    /// Wall time of the replay (ns).
    pub wall_ns: u64,
    /// The simulated outcome.
    pub outcome: Outcome,
}

fn online_config(trace: &Trace) -> OnlineConfig {
    OnlineConfig::every(stream_config(trace), REFRESH_EVERY)
}

/// One untraced `replay_online` run.
pub fn run(trace: &Trace) -> Replay {
    let t = Instant::now();
    let r = replay_online(
        trace,
        Box::new(FpaPredictor::for_trace(trace)),
        ReplayConfig::for_family(trace.family),
        &online_config(trace),
    );
    let wall_ns = t.elapsed().as_nanos() as u64;
    Replay {
        events_per_s: trace.len() as f64 / (wall_ns as f64 / 1e9).max(1e-9),
        wall_ns,
        outcome: Outcome {
            response_ms: r.replay.avg_response_ms(),
            hit_ratio: r.replay.cache.hit_ratio(),
            accuracy: r.replay.cache.prefetch_accuracy(),
        },
    }
}

/// What the traced, step-by-step replay measured beyond [`Replay`].
pub struct TracedReplay {
    /// The replay itself.
    pub replay: Replay,
    /// Cache counters at the end.
    pub cache: CacheStats,
    /// Store I/O counters at the end.
    pub store: IoStats,
    /// Prefetches the MDS queue dropped.
    pub prefetches_dropped: u64,
    /// The `fpa.*`/`cache.*`/`mds.*`/`store.*` registry.
    pub obs: ObsReport,
}

/// The step-by-step replay with a span around each call into a layer.
pub fn traced<S: Spans>(trace: &Trace, spans: &mut S) -> Result<TracedReplay, String> {
    let cfg = ReplayConfig::for_family(trace.family);
    let online = online_config(trace);
    let reg = Registry::enabled();
    let mut fpa = FpaPredictor::for_trace(trace);
    fpa.instrument(&reg);
    let t = Instant::now();
    let mut mds = MdsServer::new(trace, Box::new(fpa), cfg.mds);
    mds.instrument(&reg);
    let mut driver = OnlineDriver::spawn(&online);
    if !mds.refresh_predictor(OnlineDriver::initial_source(), 0) {
        return Err("replay: FPA refused an external correlation source".into());
    }
    for (i, event) in trace.events.iter().enumerate() {
        let due = if online.refresh_due(i) {
            spans.span(Layer::OnlineRefresh, || driver.snapshot_due(i))
        } else {
            spans.span(Layer::OnlineRoute, || driver.snapshot_due(i))
        };
        if let Some((source, events)) = due {
            spans.span(Layer::FpaInstall, || mds.refresh_predictor(source, events));
        }
        spans.span(Layer::OnlineRoute, || driver.route(trace, event));
        if !event.op.is_metadata_demand() {
            continue;
        }
        let mut e: TraceEvent = *event;
        e.timestamp_us = (event.timestamp_us as f64 * cfg.time_scale) as u64;
        spans.span(Layer::MdsDemand, || mds.demand(trace, &e));
    }
    let wall_ns = t.elapsed().as_nanos() as u64;
    driver.finish();
    let cache = mds.cache_stats();
    Ok(TracedReplay {
        replay: Replay {
            events_per_s: trace.len() as f64 / (wall_ns as f64 / 1e9).max(1e-9),
            wall_ns,
            outcome: Outcome {
                response_ms: mds.stats().mean_ms(),
                hit_ratio: cache.hit_ratio(),
                accuracy: cache.prefetch_accuracy(),
            },
        },
        cache,
        store: mds.store_stats(),
        prefetches_dropped: mds.counters().prefetches_dropped,
        obs: reg.snapshot(),
    })
}
