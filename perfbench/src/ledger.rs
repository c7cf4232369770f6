//! Spans recorded from the benchmark's own code around each call into a
//! layer. The end-to-end runs use [`Off`], which compiles to the bare
//! call; the traced run uses [`Ledger`], which times every call and keeps
//! the durations in memory until the run ends.

use std::time::Instant;

use crate::stats::Samples;

/// The layer boundaries the benchmark times, one per kind of call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `IngestHandle::ingest` (ring push, backpressure included).
    ServeIngest,
    /// `IngestHandle::forget`.
    ServeForget,
    /// `FarmerServe::flush` (drain, mine, publish, ack).
    ServeFlush,
    /// A `ServeReader::refresh` that swapped epochs.
    ServeRefresh,
    /// `ServeReader::top_k_into`.
    ServeQuery,
    /// The open-loop generator waiting for the next due time.
    LoadgenWait,
    /// `DurableMiner::ingest`.
    DurableIngest,
    /// `DurableMiner::forget`.
    DurableForget,
    /// `DurableMiner::checkpoint`.
    DurableCheckpoint,
    /// `DurableMiner::flush`.
    DurableFlush,
    /// `recover` (log scan, image restore, suffix replay).
    Recover,
    /// `OnlineDriver::snapshot_due` at a refresh boundary.
    OnlineRefresh,
    /// `OnlineDriver::snapshot_due` between boundaries plus
    /// `OnlineDriver::route`.
    OnlineRoute,
    /// `MdsServer::refresh_predictor`.
    FpaInstall,
    /// `MdsServer::demand` (cache, FPA top-k, queue model, B+-tree).
    MdsDemand,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 15;

/// Where spans go: nowhere ([`Off`]) or into a [`Ledger`].
pub trait Spans {
    /// True when spans are recorded (selects the `*_instrumented` entry
    /// points where the program offers them).
    const ON: bool;

    /// Run `f` as one call into `layer`.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;

    /// Add an externally measured duration to `layer`.
    fn record(&mut self, layer: Layer, ns: u64);
}

/// Tracing off: every span is the bare call.
#[derive(Debug, Default)]
pub struct Off;

impl Spans for Off {
    const ON: bool = false;

    #[inline(always)]
    fn span<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn record(&mut self, _layer: Layer, _ns: u64) {}
}

/// Tracing on: every span's duration, per layer.
#[derive(Debug)]
pub struct Ledger {
    per_layer: [Samples; LAYERS],
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            per_layer: std::array::from_fn(|_| Samples::default()),
        }
    }
}

impl Ledger {
    /// The samples recorded for `layer`.
    pub fn layer(&mut self, layer: Layer) -> &mut Samples {
        &mut self.per_layer[layer as usize]
    }

    /// Total nanoseconds covered by every span recorded so far.
    pub fn covered_ns(&self) -> u64 {
        self.per_layer.iter().map(Samples::sum).sum()
    }
}

impl Spans for Ledger {
    const ON: bool = true;

    #[inline(always)]
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(layer, t.elapsed().as_nanos() as u64);
        r
    }

    #[inline(always)]
    fn record(&mut self, layer: Layer, ns: u64) {
        self.per_layer[layer as usize].push(ns);
    }
}
