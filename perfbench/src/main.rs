//! `perfbench` — the repository's benchmark of the TLC engine and service.
//!
//! ```text
//! perfbench --workload <hot-mix|suite-scan> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates its inputs from the seed, sets the service up from an
//! XML file, measures for `--seconds`, checks every answer against an
//! oracle computed apart from the service, prints operations attempted and
//! failed per type, and ends with one JSON line. With `--trace 0` that line
//! holds the end-to-end metrics; with `--trace 1` the run records spans
//! around its calls into each layer, replays the workload's queries layer
//! by layer on one thread, and reports the per-layer metrics instead.
//! A failed operation (an error, a wrong answer, a broken store invariant or
//! a republication that did not empty the caches) makes the run exit 1.

mod alloc;
mod common;
mod replay;
mod trace;
mod workloads;

use common::{median, quantile, release_free_memory, status_mb, us, RssSampler};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{measure_swaps, prepare, Bench, Phase, Workload};

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("allocs_per_op", "count"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 42] = [
    ("xmldb.load_ms", "ms"),
    ("xmldb.clone_us", "us"),
    ("xmldb.update_us", "us"),
    ("xmldb.renumbered", "count"),
    ("xquery.parse_us", "us"),
    ("tlc.translate_us", "us"),
    ("tlc.verify_us", "us"),
    ("tlc.lint_us", "us"),
    ("tlc.prune_us", "us"),
    ("tlc.lower_us", "us"),
    ("tlc.vm_run_us", "us"),
    ("tlc.vm_allocs", "count"),
    ("tlc.walk_run_us", "us"),
    ("tlc.walk_allocs", "count"),
    ("tlc.probes", "count"),
    ("tlc.nodes_inspected", "count"),
    ("tlc.struct_cmps", "count"),
    ("tlc.candidate_fetches", "count"),
    ("tlc.trees_built", "count"),
    ("tlc.join_steps", "count"),
    ("tlc.serialize_us", "us"),
    ("tlc.output_bytes", "bytes"),
    ("service.plan_hit_ratio", "ratio"),
    ("service.plan_lookups", "count"),
    ("service.match_hit_ratio", "ratio"),
    ("service.match_lookups", "count"),
    ("service.match_bytes", "bytes"),
    ("service.match_evictions", "count"),
    ("service.hit_exec_us", "us"),
    ("service.hit_allocs", "count"),
    ("service.queue_wait_us", "us"),
    ("service.batch_jobs", "count"),
    ("service.call_us", "us"),
    ("service.commit_us", "us"),
    ("service.swap_us", "us"),
    ("service.plans_carried", "count"),
    ("service.plans_resident", "count"),
    ("service.matches_carried", "count"),
    ("service.matches_resident", "count"),
    ("protocol.frame_us", "us"),
    ("client.self_us", "us"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

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
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Operation accounting of a run, per operation type: attempted, failed.
#[derive(Default)]
struct Ops {
    reads: (u64, u64),
    writes: (u64, u64),
    installs: (u64, u64),
}

impl Ops {
    fn add_phase(&mut self, p: &Phase) {
        self.reads.0 += p.reads_attempted;
        self.reads.1 += p.reads_failed;
        self.installs.0 += p.installs_attempted;
        self.installs.1 += p.installs_failed;
    }

    fn add_writes(&mut self, w: &common::Writes) {
        self.writes.0 += w.attempted;
        self.writes.1 += w.failed;
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <hot-mix|suite-scan> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the workload and prints its report; `Ok(false)` when an operation
/// failed or an answer or a store invariant was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let bench = prepare(args.workload, args.seed)?;
    let setups = &bench.ready.setups_s;
    println!(
        "workload {} seed {} ({} client(s)): set-up {:.4} s, median of {} (min {:.4}, max {:.4})",
        args.workload.name(),
        args.seed,
        if args.workload == Workload::HotMix { workloads::hot_clients() } else { 1 },
        bench.ready.setup_s,
        setups.len(),
        setups[0],
        setups[setups.len() - 1],
    );
    let mut ops = Ops::default();
    let mut wrong = 0u64;
    let mut broken = 0u64;
    let metrics = if args.trace {
        per_layer(&bench, args.seconds, &mut ops, &mut wrong, &mut broken)?
    } else {
        end_to_end(&bench, args.seconds, &mut ops, &mut wrong, &mut broken)
    };
    for bad in &bench.work_count_bad {
        println!("work-count property violated: {bad}");
    }
    let attempted = ops.reads.0 + ops.writes.0 + ops.installs.0;
    let failed = ops.reads.1 + ops.writes.1 + ops.installs.1;
    let correct = failed == 0 && wrong == 0 && broken == 0 && bench.work_count_bad.is_empty();
    println!("op read attempted={} failed={}", ops.reads.0, ops.reads.1);
    println!("op write attempted={} failed={}", ops.writes.0, ops.writes.1);
    if ops.installs.0 > 0 {
        println!("op install attempted={} failed={}", ops.installs.0, ops.installs.1);
    }
    println!("wrong answers {wrong}, broken store invariants {broken}");
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = metrics.get(name).copied().ok_or_else(|| format!("metric {name} missing"))?;
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn end_to_end(
    bench: &Bench,
    seconds: f64,
    ops: &mut Ops,
    wrong: &mut u64,
    broken: &mut u64,
) -> BTreeMap<&'static str, f64> {
    // The resident set is sampled from here on, after the allocator has
    // handed back what input generation and the oracles freed, so its peak
    // is the service's under the workload.
    let rss_before = status_mb("VmHWM");
    release_free_memory();
    let rss_start = status_mb("VmRSS");
    let rss = RssSampler::start();
    let phase = bench.phase(seconds, true, false, 0);
    ops.add_phase(&phase);
    *wrong += phase.wrong;
    let writes = bench.probe_writes(seconds, false).0;
    ops.add_writes(&writes);
    *broken += writes.broken;
    let peak_rss_mb = rss.finish();
    println!(
        "resident set: {rss_before:.1} MiB peak before the timed phase, {rss_start:.1} MiB at \
         its start, {peak_rss_mb:.1} MiB peak over the phase and the write stream"
    );
    println!(
        "timed phase {:.2} s wall: {} reads, {} writes",
        phase.wall_s,
        phase.reads_us.len(),
        writes.latencies_us.len()
    );
    let allocs_per_op = phase.allocs as f64 / phase.reads_us.len().max(1) as f64;
    let rates = window_rates(&phase);
    let read_p50 = windowed(&phase.reads_at, &phase.reads_us, phase.wall_s, 0.50);
    let span = writes.at_s.last().copied().unwrap_or(0.0);
    let write_p50 = windowed(&writes.at_s, &writes.latencies_us, span, 0.50);
    println!("ops/s per window: {}", fmt_list(&rates));
    println!("read p50 per window: {}", fmt_list(&read_p50));
    println!("write p50 per window: {}", fmt_list(&write_p50));
    let mut order: Vec<usize> = (0..phase.reads_us.len()).collect();
    order.sort_by(|&a, &b| phase.reads_at[a].total_cmp(&phase.reads_at[b]));
    let reads: Vec<f64> = order.iter().map(|&i| phase.reads_us[i]).collect();
    BTreeMap::from([
        ("setup_s", bench.ready.setup_s),
        ("ops_per_s", median(&mut rates.clone())),
        ("read_p50_us", median(&mut read_p50.clone())),
        ("read_p99_us", tail(&reads, 0.99)),
        ("write_p50_us", median(&mut write_p50.clone())),
        ("write_p90_us", median(&mut windowed(&writes.at_s, &writes.latencies_us, span, 0.90))),
        ("allocs_per_op", allocs_per_op),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

/// Windows a timed phase is cut into; rates and medians are reported as
/// the median over windows, so a burst of outside load moves one window,
/// not the result.
const WINDOWS: usize = 10;

fn fmt_list(v: &[f64]) -> String {
    v.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(" ")
}

/// Reads completed per second of wall time in each window.
fn window_rates(phase: &Phase) -> Vec<f64> {
    let width = phase.wall_s / WINDOWS as f64;
    let mut counts = vec![0u64; WINDOWS];
    for &at in &phase.reads_at {
        counts[((at / width) as usize).min(WINDOWS - 1)] += 1;
    }
    counts.into_iter().map(|c| c as f64 / width).collect()
}

/// Quantile `q` of the samples completing in each time window.
fn windowed(at: &[f64], values: &[f64], wall: f64, q: f64) -> Vec<f64> {
    let width = wall / WINDOWS as f64;
    let mut bins = vec![Vec::new(); WINDOWS];
    for (&t, &v) in at.iter().zip(values) {
        bins[((t / width) as usize).min(WINDOWS - 1)].push(v);
    }
    bins.into_iter().filter(|b| !b.is_empty()).map(|mut b| quantile(&mut b, q)).collect()
}

/// Samples per block of a tail quantile: enough that a p99 has 40 samples
/// beyond it, so which rare heavy queries a block happens to hold does not
/// decide the block's tail.
const TAIL_BLOCK: usize = 4 * common::P99_MIN_SAMPLES;

/// A tail quantile: the median over consecutive blocks of at least
/// `TAIL_BLOCK` samples (at most `WINDOWS` blocks; the whole run when it has
/// fewer) of each block's quantile `q`, so one burst of outside load moves
/// one block.
fn tail(values: &[f64], q: f64) -> f64 {
    let blocks = (values.len() / TAIL_BLOCK).clamp(1, WINDOWS);
    let per = values.len().div_ceil(blocks).max(1);
    let mut each: Vec<f64> = values.chunks(per).map(|c| quantile(&mut c.to_vec(), q)).collect();
    median(&mut each)
}

fn per_layer(
    bench: &Bench,
    seconds: f64,
    ops: &mut Ops,
    wrong: &mut u64,
    broken: &mut u64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let svc = &bench.ready.svc;
    // Same work with spans off, then on: the ratio is the tracing overhead.
    let untraced = bench.phase(seconds / 2.0, false, false, 0);
    let plans0 = svc.cache_stats();
    let matches0 = svc.match_cache_stats().unwrap_or_default();
    let traced = bench.phase(seconds / 2.0, false, true, 1);
    let plans1 = svc.cache_stats();
    let matches1 = svc.match_cache_stats().unwrap_or_default();
    for p in [&untraced, &traced] {
        ops.add_phase(p);
        *wrong += p.wrong;
    }
    let mut spans = trace::totals(&traced.tracers);
    let dump =
        common::out_dir().join(format!("trace-{}-{}.tsv", bench.workload.name(), bench.seed));
    std::fs::write(&dump, trace::render(&traced.tracers))
        .map_err(|e| format!("{}: {e}", dump.display()))?;
    println!(
        "traced phase: {} reads, {} spans written to {}",
        traced.reads_us.len(),
        spans.values().map(|t| t.count).sum::<u64>(),
        dump.display()
    );

    let (writes, tracer) = bench.probe_writes(seconds, true);
    ops.add_writes(&writes);
    *broken += writes.broken;
    spans.extend(trace::totals(&[tracer]));
    let committed = writes.latencies_us.len().max(1) as f64;
    for (name, t) in &spans {
        println!(
            "span {name}: {} x, mean {:.1} us, self {:.1} us",
            t.count,
            t.mean_us(),
            t.mean_self_us()
        );
    }
    let plans_end = svc.cache_stats();
    let matches_end = svc.match_cache_stats().unwrap_or_default();

    let swaps = if bench.workload == Workload::SuiteScan {
        traced.installs_us.clone()
    } else {
        measure_swaps(svc, 5)?
    };
    let snapshot = svc.database();
    let (clone_us, update_us) = replay::store_layer(&snapshot, &mut bench.replay_rng())?;
    let mut m = replay::layers(&snapshot, &bench.workload.weights())?;

    let snap = svc.metrics_snapshot();
    let batches = svc.batch_stats();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let plan_hits = plans1.hits - plans0.hits;
    let plan_misses = plans1.misses - plans0.misses;
    let match_hits = matches1.hits - matches0.hits;
    let match_misses = matches1.misses - matches0.misses;
    let untraced_rate = untraced.ops_per_s();
    let traced_rate = traced.ops_per_s();
    m.extend([
        ("xmldb.load_ms", bench.ready.load_ms),
        ("xmldb.clone_us", clone_us),
        ("xmldb.update_us", update_us),
        ("xmldb.renumbered", writes.renumbered as f64),
        ("service.plan_hit_ratio", ratio(plan_hits, plan_misses)),
        ("service.plan_lookups", (plan_hits + plan_misses) as f64),
        ("service.match_hit_ratio", ratio(match_hits, match_misses)),
        ("service.match_lookups", (match_hits + match_misses) as f64),
        ("service.match_bytes", matches1.bytes as f64),
        ("service.match_evictions", (matches1.evictions - matches0.evictions) as f64),
        ("service.queue_wait_us", us(snap.queue_wait.mean())),
        ("service.batch_jobs", batches.jobs as f64 / batches.batches.max(1) as f64),
        ("service.call_us", spans.get("service.execute").map_or(0.0, |t| t.mean_us())),
        ("service.commit_us", spans.get("service.apply_update").map_or(0.0, |t| t.mean_us())),
        ("service.swap_us", replay::mean(&swaps)),
        ("service.plans_carried", writes.plans_carried as f64 / committed),
        ("service.plans_resident", plans_end.len as f64),
        ("service.matches_carried", writes.matches_carried as f64 / committed),
        ("service.matches_resident", matches_end.len as f64),
        ("client.self_us", spans.get("request").map_or(0.0, |t| t.mean_self_us())),
        ("trace.overhead_pct", (untraced_rate / traced_rate.max(f64::MIN_POSITIVE) - 1.0) * 100.0),
    ]);
    println!(
        "tracing overhead: {:.1} ops/s untraced vs {:.1} ops/s traced",
        untraced_rate, traced_rate
    );
    Ok(m)
}
