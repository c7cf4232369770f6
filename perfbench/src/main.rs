//! `perfbench` — the repository benchmark over the deployed FARMER path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run generates the workload's trace from `--seed`, times its set-up,
//! and drives three stages over it: the serving tier (closed then open
//! loop), the durable tier (ingest, crash, recover) and the online MDS
//! replay. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it reruns each stage with a span around every call into a
//! layer and prints the per-layer metrics instead, including the wall time
//! the spans leave unattributed and the tracing overhead. Human-readable
//! lines come first; the last line of standard output is one JSON object
//! (see [`report`]). Every run checks the program's outputs, and a failed
//! check makes `correct` false.

mod durable;
mod ledger;
mod replay;
mod report;
mod serve;
mod stats;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use ledger::{Layer, Ledger, Off};
use report::{Report, END_TO_END, PER_LAYER};
use stats::{backlog_grows, highest_reportable, median, relative_spread, reportable};
use workload::{Plan, Task, Workload};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <serve_hp|durable_llnl|replay_res> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A work directory under the current directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty subdirectory.
    fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.0.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
        Ok(d)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = &args.workload;
    let plan = w.plan(args.seconds);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={cores} shards={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::SHARDS
    );
    println!(
        "plan: saturation 1+{}x{} ops, open loop {} x {} s windows at {} ev/s + {} q/s (k={}), \
         durable 1+{}x{} ops (checkpoint every {}), replay 1+{} reps (refresh every {}); \
         one uncounted warm-up of each, then the counted work interleaved",
        plan.saturation_chunks,
        workload::SATURATION_CHUNK,
        plan.open_windows,
        workload::OPEN_WINDOW_NS as f64 / 1e9,
        w.open_event_rate,
        w.open_query_rate,
        workload::QUERY_K,
        plan.durable_cycles,
        w.durable_ops,
        workload::CHECKPOINT_EVERY,
        plan.replay_reps,
        workload::REFRESH_EVERY,
    );

    let mut report = Report::default();
    let (trace, setup_s) = setup(w, args.seed, &mut report);
    println!(
        "trace: {} events, {} files, family {}",
        trace.len(),
        trace.num_files(),
        trace.family.name()
    );
    let work = WorkDir::create()?;
    if args.trace {
        traced(w, &trace, &plan, &work, &mut report)?;
    } else {
        end_to_end(w, &trace, &plan, &work, setup_s, &mut report)?;
    }
    for (name, ok) in report.checks() {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    report.to_json(if args.trace { &PER_LAYER } else { &END_TO_END })
}

/// Generate the trace [`workload::SETUP_REPEATS`] times; the median time
/// is the set-up time, and every generation must be identical.
fn setup(w: &Workload, seed: u64, report: &mut Report) -> (farmer_trace::Trace, f64) {
    let timed = || {
        let t = Instant::now();
        let trace = w.generate(seed);
        (trace, t.elapsed().as_secs_f64())
    };
    let (trace, first) = timed();
    let mut times = vec![first];
    let mut identical = true;
    for _ in 1..workload::SETUP_REPEATS {
        let (again, secs) = timed();
        times.push(secs);
        identical &= again.events == trace.events && again.num_files() == trace.num_files();
    }
    report.check("setup.deterministic_trace", identical);
    (trace, median(&times).unwrap_or(0.0))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Rates as whole thousands, for the human-readable lines.
fn kilo(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| (r / 1000.0).round() as u64).collect()
}

/// The end-to-end run: plain entry points, tracing off.
fn end_to_end(
    w: &Workload,
    trace: &farmer_trace::Trace,
    plan: &Plan,
    work: &WorkDir,
    setup_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    // The three stages' counted work, interleaved.
    let mut live = serve::LiveTier::start::<Off>(w, trace);
    let mut rates = Vec::with_capacity(plan.durable_cycles);
    let mut recoveries = Vec::with_capacity(plan.durable_cycles);
    let mut replayed = Vec::with_capacity(plan.durable_cycles + 1);
    let mut replay_rates = Vec::with_capacity(plan.replay_reps);
    let mut outcomes = Vec::with_capacity(plan.replay_reps + 1);
    for (task, counted) in plan.schedule() {
        match task {
            Task::Chunk => live.chunk(counted, &mut Off),
            Task::Window => live.window(w, &mut Off),
            Task::Cycle => {
                let k = replayed.len();
                let dir = work.fresh(&format!("durable-{k}"))?;
                let c = durable::cycle(trace, w.durable_ops, &dir, &mut Off)?;
                let _ = std::fs::remove_dir_all(&dir);
                report.attempted += c.ops;
                report.check(
                    format!("durable.cycle{k}.recovered_bitwise"),
                    c.recovered_exactly,
                );
                if counted {
                    rates.push(c.events_per_s);
                    recoveries.push(c.recover_ns as f64 / 1e9);
                }
                replayed.push(c.events_replayed);
            }
            Task::Rep => {
                let r = replay::run(trace);
                report.attempted += trace.len() as u64;
                if counted {
                    replay_rates.push(r.events_per_s);
                }
                outcomes.push(r.outcome);
            }
        }
    }
    let mut s = live.finish::<Off>();

    // Serving tier.
    check_serve("serve", &s, report);
    let per = |f: fn(&serve::Window) -> f64| s.windows.iter().map(f).collect::<Vec<f64>>();
    let (lag50, lag99) = (per(|x| x.lag_p50_ms), per(|x| x.lag_p99_ms));
    let (q50, q99) = (per(|x| x.query_p50_ns), per(|x| x.query_p99_ns));
    let min_lags = s.windows.iter().map(|x| x.lags).min().unwrap_or(0);
    let min_queries = s.windows.iter().map(|x| x.queries).min().unwrap_or(0);
    println!(
        "serve closed loop: {:.0} ev/s median of {} chunks, spread {:.3} (k ev/s: {:?})",
        median(&s.chunk_rates).unwrap_or(0.0),
        s.chunk_rates.len(),
        relative_spread(&s.chunk_rates).unwrap_or(0.0),
        kilo(&s.chunk_rates)
    );
    println!(
        "serve open loop: {} windows; lag p50/p99 ms per window {:.1?} / {:.1?} (>= {} events \
         each, highest quotable p{}); query p50/p99 ns per window {:?} / {:?} (>= {} queries \
         each, highest quotable p{}; {} of {} answered); generator late p99 {:.3} ms, \
         max {:.3} ms over {} ops",
        s.windows.len(),
        lag50,
        lag99,
        min_lags,
        highest_reportable(min_lags).map_or(0.0, |p| p * 100.0),
        q50,
        q99,
        min_queries,
        highest_reportable(min_queries).map_or(0.0, |p| p * 100.0),
        s.answered,
        s.queries,
        ms(s.late_ns.pct(0.99)),
        ms(s.late_ns.max()),
        s.late_ns.len(),
    );
    report.set("ingest_events_per_s", median(&s.chunk_rates).unwrap_or(0.0));
    report.set("visibility_lag_p50_ms", median(&lag50).unwrap_or(0.0));
    report.set("visibility_lag_p99_ms", median(&lag99).unwrap_or(0.0));
    report.set("query_p50_ns", median(&q50).unwrap_or(0.0));
    report.set("query_p99_ns", median(&q99).unwrap_or(0.0));

    // Durable tier.
    report.check(
        "durable.replay_is_deterministic",
        replayed.windows(2).all(|p| p[0] == p[1]),
    );
    println!(
        "durable: {:.0} ev/s, recovery {:.3} s, medians of {} cycles, spreads {:.3} / {:.3} \
         (k ev/s: {:?}; recovery s: {:.3?}); {} events replayed per recovery",
        median(&rates).unwrap_or(0.0),
        median(&recoveries).unwrap_or(0.0),
        rates.len(),
        relative_spread(&rates).unwrap_or(0.0),
        relative_spread(&recoveries).unwrap_or(0.0),
        kilo(&rates),
        recoveries,
        replayed.first().copied().unwrap_or(0),
    );
    report.set("durable_events_per_s", median(&rates).unwrap_or(0.0));
    report.set("recovery_s", median(&recoveries).unwrap_or(0.0));

    // Online MDS replay.
    report.check(
        "replay.outcome_is_deterministic",
        outcomes.windows(2).all(|p| p[0] == p[1]),
    );
    let out = outcomes
        .first()
        .copied()
        .ok_or("no replay repetition ran")?;
    println!(
        "replay: {:.0} ev/s median of {}, spread {:.3} (k ev/s: {:?}); response {:.4} ms, \
         hit ratio {:.4}, accuracy {:.4}",
        median(&replay_rates).unwrap_or(0.0),
        replay_rates.len(),
        relative_spread(&replay_rates).unwrap_or(0.0),
        kilo(&replay_rates),
        out.response_ms,
        out.hit_ratio,
        out.accuracy
    );
    report.set("replay_events_per_s", median(&replay_rates).unwrap_or(0.0));
    report.set("mds_response_ms", out.response_ms);
    report.set("hit_ratio", out.hit_ratio);
    report.set("prefetch_accuracy", out.accuracy);

    report.set("setup_s", setup_s);
    report.set("peak_rss_mib", peak_rss_mib()?);
    let ok = report.attempted.saturating_sub(report.failed) as f64 / report.attempted.max(1) as f64;
    report.set("ok_op_ratio", ok);
    Ok(())
}

/// Checks of one serving stage, named under `label`.
fn check_serve(label: &str, s: &serve::ServeRun, report: &mut Report) {
    report.attempted += s.ops + s.queries;
    report.failed += s.refused;
    let all = |f: fn(&serve::Window) -> bool| s.windows.iter().all(f);
    for (name, ok) in [
        ("final_snapshot_matches_reference", s.matches_reference),
        ("stats_count_every_event", s.stats.events == s.ingests),
        (
            "open_loop_backlog_steady",
            !backlog_grows(
                &s.windows.iter().map(|x| x.lag_rise_ns).collect::<Vec<_>>(),
                s.publish_period_ns as f64,
            ),
        ),
        ("open_loop_windows_fully_published", all(|x| x.all_seen)),
        (
            "lag_and_query_p99_have_10_beyond_per_window",
            all(|x| reportable(x.lags, 0.99) && reportable(x.queries, 0.99)),
        ),
    ] {
        report.check(format!("{label}.{name}"), ok);
    }
}

/// Untraced/traced pairs run per stage in the traced run, alternating, for
/// the overhead figure.
const TRACE_PAIRS: usize = 3;

/// The traced run: each stage with a span around every call into a layer,
/// alternating with untraced runs of the same work for the overhead.
fn traced(
    w: &Workload,
    trace: &farmer_trace::Trace,
    plan: &Plan,
    work: &WorkDir,
    report: &mut Report,
) -> Result<(), String> {
    traced_serve(w, trace, plan, report)?;
    traced_durable(w, trace, work, report)?;
    traced_replay(trace, report)
}

/// Share of `wall_ns` no span covers.
fn unattributed(wall_ns: u64, led: &Ledger) -> f64 {
    wall_ns.saturating_sub(led.covered_ns()) as f64 / wall_ns.max(1) as f64
}

/// Serving: an untraced and a traced tier side by side, their chunks and
/// windows alternating; then the single-threaded engine pass.
fn traced_serve(
    w: &Workload,
    trace: &farmer_trace::Trace,
    plan: &Plan,
    report: &mut Report,
) -> Result<(), String> {
    let mut led = Ledger::default();
    let mut plain = serve::LiveTier::start::<Off>(w, trace);
    let mut spanned = serve::LiveTier::start::<Ledger>(w, trace);
    for chunk in 0..=plan.saturation_chunks {
        plain.chunk(chunk > 0, &mut Off);
        spanned.chunk(chunk > 0, &mut led);
    }
    for _ in 0..plan.open_windows {
        plain.window(w, &mut Off);
        spanned.window(w, &mut led);
    }
    let plain = plain.finish::<Off>();
    let mut s = spanned.finish::<Ledger>();
    check_serve("serve.plain", &plain, report);
    check_serve("serve.traced", &s, report);
    let obs = s.obs.take().ok_or("serve: no registry snapshot")?;
    let hist = |name: &str| obs.histogram(name).cloned().unwrap_or_default();
    let publish = hist("serve.publish_ns");
    let build = hist("stream.snapshot_build_ns");
    report.set(
        "serve.ingest_ns.p50",
        led.layer(Layer::ServeIngest).pct(0.50) as f64,
    );
    report.set(
        "serve.ingest_ns.p99",
        led.layer(Layer::ServeIngest).pct(0.99) as f64,
    );
    report.set(
        "serve.backpressure_waits",
        obs.counter("serve.backpressure_waits").unwrap_or(0) as f64,
    );
    report.set("loadgen.late_ms.p99", ms(s.late_ns.pct(0.99)));
    report.set("loadgen.late_ms.max", ms(s.late_ns.max()));
    report.set("serve.publish_ns.p50", publish.quantile(0.50) as f64);
    report.set("serve.publish_ns.p99", publish.quantile(0.99) as f64);
    report.set("stream.snapshot_build_ns.p50", build.quantile(0.50) as f64);
    report.set("stream.snapshot_build_ns.p99", build.quantile(0.99) as f64);
    report.set("serve.publishes", s.stats.publishes as f64);
    report.set(
        "serve.refresh_ns.p99",
        led.layer(Layer::ServeRefresh).pct(0.99) as f64,
    );
    report.set(
        "serve.flush_ms.p50",
        ms(led.layer(Layer::ServeFlush).pct(0.50)),
    );
    report.set(
        "trace.serve.unattributed_share",
        unattributed(s.saturation_ns + s.open_ns, &led),
    );
    report.set(
        "trace.serve.overhead",
        median(&plain.chunk_rates).unwrap_or(0.0) / median(&s.chunk_rates).unwrap_or(1.0) - 1.0,
    );
    println!(
        "serve traced: {} ingest spans, {} publishes, {} swapped refreshes, {} queries",
        led.layer(Layer::ServeIngest).len(),
        s.stats.publishes,
        led.layer(Layer::ServeRefresh).len(),
        led.layer(Layer::ServeQuery).len()
    );
    let e = serve::engine_pass(trace, plan.saturation_chunks * workload::SATURATION_CHUNK);
    report.set("stream.engine_ns_per_event", e.ns_per_event);
    report.set("stream.evictions", e.evictions as f64);
    report.set("stream.tracked_files", e.tracked_files as f64);
    report.set("stream.state_bytes", e.state_bytes as f64);
    Ok(())
}

/// Durable: [`TRACE_PAIRS`] untraced/traced cycles, alternating.
fn traced_durable(
    w: &Workload,
    trace: &farmer_trace::Trace,
    work: &WorkDir,
    report: &mut Report,
) -> Result<(), String> {
    let mut led = Ledger::default();
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let (mut wall, mut replay_ms, mut open_ms) = (0u64, Vec::new(), Vec::new());
    let mut last = None;
    for k in 0..TRACE_PAIRS {
        let dir = work.fresh(&format!("durable-plain-{k}"))?;
        let plain = durable::cycle(trace, w.durable_ops, &dir, &mut Off)?;
        let _ = std::fs::remove_dir_all(&dir);
        let dir = work.fresh(&format!("durable-traced-{k}"))?;
        let c = durable::cycle(trace, w.durable_ops, &dir, &mut led)?;
        let _ = std::fs::remove_dir_all(&dir);
        report.attempted += plain.ops + c.ops;
        report.check(
            format!("durable.plain{k}.recovered_bitwise"),
            plain.recovered_exactly,
        );
        report.check(
            format!("durable.traced{k}.recovered_bitwise"),
            c.recovered_exactly,
        );
        report.check(
            format!("durable.traced{k}.replays_same_suffix"),
            c.events_replayed == plain.events_replayed,
        );
        plain_ns.push(plain.ingest_ns as f64);
        traced_ns.push(c.ingest_ns as f64);
        wall += c.ingest_ns + c.recover_ns;
        replay_ms.push(ms(c.replay_ns));
        open_ms.push(ms(c.recover_ns.saturating_sub(c.replay_ns)));
        last = Some(c);
    }
    let mut c = last.ok_or("durable: no traced cycle ran")?;
    let obs = c.obs.take().ok_or("durable: no registry snapshot")?;
    let fsync = obs.histogram("wal.fsync_ns").cloned().unwrap_or_default();
    report.set(
        "durable.ingest_ns.p99",
        led.layer(Layer::DurableIngest).pct(0.99) as f64,
    );
    report.set(
        "durable.checkpoint_ms.max",
        ms(led.layer(Layer::DurableCheckpoint).max()),
    );
    report.set("wal.syncs", obs.counter("wal.syncs").unwrap_or(0) as f64);
    report.set("wal.fsync_ns.p50", fsync.quantile(0.50) as f64);
    report.set("wal.fsync_ns.p99", fsync.quantile(0.99) as f64);
    report.set(
        "wal.bytes_per_event",
        obs.counter("wal.append_bytes").unwrap_or(0) as f64 / c.ingests.max(1) as f64,
    );
    report.set("recovery.replay_ms", median(&replay_ms).unwrap_or(0.0));
    report.set("recovery.open_ms", median(&open_ms).unwrap_or(0.0));
    report.set("recovery.events_replayed", c.events_replayed as f64);
    report.set("trace.durable.unattributed_share", unattributed(wall, &led));
    report.set(
        "trace.durable.overhead",
        median(&traced_ns).unwrap_or(0.0) / median(&plain_ns).unwrap_or(1.0) - 1.0,
    );
    Ok(())
}

/// Replay: [`TRACE_PAIRS`] `replay_online` runs alternating with the
/// step-by-step traced loop, which must reproduce their outcome exactly.
fn traced_replay(trace: &farmer_trace::Trace, report: &mut Report) -> Result<(), String> {
    let mut led = Ledger::default();
    let (mut plain_ns, mut traced_ns, mut wall) = (Vec::new(), Vec::new(), 0u64);
    let mut last = None;
    for k in 0..TRACE_PAIRS {
        let plain = replay::run(trace);
        let r = replay::traced(trace, &mut led)?;
        report.attempted += 2 * trace.len() as u64;
        report.check(
            format!("replay.traced{k}.reproduces_replay_online"),
            r.replay.outcome == plain.outcome,
        );
        plain_ns.push(plain.wall_ns as f64);
        traced_ns.push(r.replay.wall_ns as f64);
        wall += r.replay.wall_ns;
        last = Some(r);
    }
    let r = last.ok_or("replay: no traced run")?;
    let topk = r.obs.histogram("fpa.topk_ns").cloned().unwrap_or_default();
    report.set(
        "online.refresh_ms.p50",
        ms(led.layer(Layer::OnlineRefresh).pct(0.50)),
    );
    report.set(
        "online.refresh_ms.p99",
        ms(led.layer(Layer::OnlineRefresh).pct(0.99)),
    );
    report.set(
        "online.route_ns.p50",
        led.layer(Layer::OnlineRoute).pct(0.50) as f64,
    );
    report.set(
        "fpa.install_ns.p50",
        led.layer(Layer::FpaInstall).pct(0.50) as f64,
    );
    report.set("fpa.topk_ns.p99", topk.quantile(0.99) as f64);
    report.set("cache.prefetches_issued", r.cache.prefetches_issued as f64);
    report.set("cache.useful_prefetches", r.cache.useful_prefetches as f64);
    report.set("cache.wasted_prefetches", r.cache.wasted_prefetches as f64);
    report.set(
        "mds.demand_ns.p50",
        led.layer(Layer::MdsDemand).pct(0.50) as f64,
    );
    report.set(
        "mds.demand_ns.p99",
        led.layer(Layer::MdsDemand).pct(0.99) as f64,
    );
    report.set("mds.prefetches_dropped", r.prefetches_dropped as f64);
    report.set("store.lookups", r.store.lookups as f64);
    report.set("store.page_reads", r.store.page_reads as f64);
    report.set("trace.replay.unattributed_share", unattributed(wall, &led));
    report.set(
        "trace.replay.overhead",
        median(&traced_ns).unwrap_or(0.0) / median(&plain_ns).unwrap_or(1.0) - 1.0,
    );
    Ok(())
}
