//! The two workloads. Each sets the service up from an XML file, runs a
//! timed phase of whole rounds, checks every answer against an oracle
//! computed apart from the service, and reports what it measured.

use crate::alloc;
use crate::common::{
    generate, nav_answers, query_texts, secs, set_up, skewed_round, stream_rng, us, warm_all,
    work_count_violations, write_probe, Ready, Writes, P99_MIN_SAMPLES,
};
use crate::trace::Tracer;
use service::catalog::DEFAULT_DB;
use service::protocol::{read_response, Frame, FrameBuf};
use service::Service;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// XMark factor of hot-mix: small, so its match-cache working set fits the
/// default 32 MiB budget many times over.
pub const HOT_MIX_FACTOR: f64 = 0.002;
/// XMark factor of suite-scan, bounded by the NAV oracle's superlinear cost.
pub const SUITE_SCAN_FACTOR: f64 = 0.01;

/// The write stream after a read-only workload's phase lasts half as long
/// as the phase, and makes at least `PROBE_WRITES` commits (200 in a
/// traced run, which reports no tail).
const PROBE_WRITES: usize = 1000;
const PROBE_WRITES_TRACED: usize = 200;
/// A timed phase that has not yet gathered its p99 samples stops anyway
/// this many seconds past its nominal length, so a run ends within its
/// time limit on a slow host.
const OVERRUN_S: f64 = 60.0;

/// Stream ids, so each stream of a run draws from its own generator.
const STREAM_READS: u64 = 0;
const STREAM_WRITES: u64 = 100;
const STREAM_REPLAY: u64 = 200;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop clients replaying a skewed mix against warm caches.
    HotMix,
    /// One client running the Figure 15 suite pass after pass, cold.
    SuiteScan,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot-mix" => Some(Workload::HotMix),
            "suite-scan" => Some(Workload::SuiteScan),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotMix => "hot-mix",
            Workload::SuiteScan => "suite-scan",
        }
    }

    fn factor(self) -> f64 {
        match self {
            Workload::HotMix => HOT_MIX_FACTOR,
            Workload::SuiteScan => SUITE_SCAN_FACTOR,
        }
    }

    /// Each query's share of the workload's reads.
    pub fn weights(self) -> Vec<f64> {
        let n = query_texts().len();
        match self {
            Workload::SuiteScan => vec![1.0 / n as f64; n],
            Workload::HotMix => crate::common::skewed_weights(n),
        }
    }
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Read latencies at the caller, µs.
    pub reads_us: Vec<f64>,
    /// When each of those reads completed, s since the phase began.
    pub reads_at: Vec<f64>,
    /// Reads attempted.
    pub reads_attempted: u64,
    /// Reads that failed (error or wrong answer).
    pub reads_failed: u64,
    /// Reads whose answer differed from the oracle.
    pub wrong: u64,
    /// Catalog republications (suite-scan only): latencies, µs.
    pub installs_us: Vec<f64>,
    /// Republications attempted (suite-scan only).
    pub installs_attempted: u64,
    /// Republications that failed or did not leave the next pass cold.
    pub installs_failed: u64,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Heap allocations made by the measured operations.
    pub allocs: u64,
    /// Spans, one tracer per client.
    pub tracers: Vec<Tracer>,
}

impl Phase {
    /// Reads completed per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.reads_us.len() as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }
}

/// A workload's state between set-up and report.
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// Run seed.
    pub seed: u64,
    /// NAV answers for every query (hot-mix and suite-scan).
    pub nav: Vec<String>,
    /// Work-count property violations (suite-scan).
    pub work_count_bad: Vec<String>,
    /// The service after set-up.
    pub ready: Ready,
}

/// What one hot-mix client observed.
struct Client {
    /// Completion time (s since the phase began) and latency (µs) of each
    /// correctly answered read.
    lat: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    tracer: Tracer,
}

/// Number of closed-loop clients of hot-mix.
pub fn hot_clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 2)
}

/// Generates inputs, computes the oracles and sets the service up.
pub fn prepare(workload: Workload, seed: u64) -> Result<Bench, String> {
    let inputs = generate(workload.name(), workload.factor(), seed)?;
    let nav = nav_answers(&inputs.db)?;
    let work_count_bad = match workload {
        Workload::SuiteScan => work_count_violations(&inputs.db)?,
        _ => Vec::new(),
    };
    let ready = match workload {
        // Two passes: plans compiled and lowered, match cache filled.
        Workload::HotMix => set_up(&inputs, |svc| {
            warm_all(svc, &nav)?;
            warm_all(svc, &nav)
        })?,
        Workload::SuiteScan => set_up(&inputs, |svc| warm_all(svc, &nav))?,
    };
    Ok(Bench { workload, seed, nav, work_count_bad, ready })
}

impl Bench {
    /// Runs one timed phase of at least `seconds` (and, when `min_samples`,
    /// until every p99 the phase reports has its samples).
    pub fn phase(&self, seconds: f64, min_samples: bool, trace: bool, stream: u64) -> Phase {
        match self.workload {
            Workload::HotMix => self.hot_mix(seconds, min_samples, trace, stream),
            Workload::SuiteScan => self.suite_scan(seconds, min_samples, trace),
        }
    }

    /// The write stream that follows a read-only workload's phase, with
    /// its spans.
    pub fn probe_writes(&self, seconds: f64, traced: bool) -> (Writes, Tracer) {
        let (min, seconds) =
            if traced { (PROBE_WRITES_TRACED, 0.0) } else { (PROBE_WRITES, seconds / 2.0) };
        let mut tracer = Tracer::new(traced, Instant::now());
        let mut rng = stream_rng(self.seed, STREAM_WRITES);
        let writes = write_probe(&self.ready.svc, &mut rng, min, seconds, &mut tracer);
        (writes, tracer)
    }

    /// An RNG for the single-threaded layer replay.
    pub fn replay_rng(&self) -> xmark::rng::StdRng {
        stream_rng(self.seed, STREAM_REPLAY)
    }

    fn hot_mix(&self, seconds: f64, min_samples: bool, trace: bool, stream: u64) -> Phase {
        let svc = &self.ready.svc;
        let texts = query_texts();
        let expect = &self.nav;
        let stop = AtomicBool::new(false);
        let done = AtomicU64::new(0);
        let origin = Instant::now();
        let alloc0 = alloc::total();
        let per_client: Vec<Client> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..hot_clients())
                .map(|c| {
                    let (texts, stop, done) = (&texts, &stop, &done);
                    s.spawn(move || {
                        let mut rng = stream_rng(self.seed, STREAM_READS + 10 * stream + c as u64);
                        let mut tracer = Tracer::new(trace, origin);
                        let mut frame = FrameBuf::new();
                        let mut wire: Vec<u8> = Vec::new();
                        let mut lat = Vec::with_capacity(1 << 16);
                        let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
                        let mut req = (c as u64) << 40;
                        while !stop.load(Ordering::Relaxed) {
                            let round = skewed_round(&mut rng, texts.len());
                            for &qi in &round {
                                req += 1;
                                attempted += 1;
                                let root = tracer.begin("request", req);
                                let begun = Instant::now();
                                let call = tracer.begin("service.execute", req);
                                let res = svc.execute(texts[qi]);
                                tracer.end(call);
                                let resp = match res {
                                    Ok(resp) => resp,
                                    Err(e) => {
                                        tracer.end(root);
                                        eprintln!("hot-mix read failed: {e}");
                                        failed += 1;
                                        continue;
                                    }
                                };
                                let framing = tracer.begin("protocol.frame", req);
                                wire.clear();
                                let back = frame
                                    .write_ok(&mut wire, &resp.output)
                                    .and_then(|()| read_response(&mut wire.as_slice()));
                                tracer.end(framing);
                                let took = begun.elapsed();
                                let check = tracer.begin("check", req);
                                let right = matches!(&back, Ok(Frame::Ok(p)) if *p == expect[qi]);
                                tracer.end(check);
                                tracer.end(root);
                                if right {
                                    lat.push((secs(origin), us(took)));
                                } else {
                                    failed += 1;
                                    wrong += 1;
                                }
                            }
                            done.fetch_add(round.len() as u64, Ordering::Relaxed);
                        }
                        Client { lat, attempted, failed, wrong, tracer }
                    })
                })
                .collect();
            wait_until(origin, seconds, || {
                !min_samples || done.load(Ordering::Relaxed) >= P99_MIN_SAMPLES as u64
            });
            stop.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().expect("hot-mix client panicked")).collect()
        });
        let wall_s = secs(origin);
        let mut phase = Phase { wall_s, allocs: alloc::total() - alloc0, ..Phase::default() };
        for Client { lat, attempted, failed, wrong, tracer } in per_client {
            for (at, took) in lat {
                phase.reads_at.push(at);
                phase.reads_us.push(took);
            }
            phase.reads_attempted += attempted;
            phase.reads_failed += failed;
            phase.wrong += wrong;
            phase.tracers.push(tracer);
        }
        phase
    }

    fn suite_scan(&self, seconds: f64, min_samples: bool, trace: bool) -> Phase {
        let svc = &self.ready.svc;
        let texts = query_texts();
        let snapshot = svc.database();
        let origin = Instant::now();
        let mut tracer = Tracer::new(trace, origin);
        let mut phase = Phase { reads_us: Vec::with_capacity(4096), ..Phase::default() };
        let alloc0 = alloc::total();
        let mut req = 0u64;
        loop {
            let elapsed = secs(origin);
            let sampled = !min_samples || phase.reads_us.len() >= P99_MIN_SAMPLES;
            if (elapsed >= seconds && sampled) || elapsed >= seconds + OVERRUN_S {
                break;
            }
            // Republish the same snapshot: new epoch, both caches emptied,
            // so every query of the pass compiles and executes from scratch.
            // That is the premise of the workload, and it is checked: the
            // caches must be empty after the republication, and every query
            // of the pass must miss the plan cache.
            req += 1;
            phase.installs_attempted += 1;
            let span = tracer.begin("service.install", req);
            let begun = Instant::now();
            let installed = svc.install(DEFAULT_DB, Arc::clone(&snapshot));
            phase.installs_us.push(us(begun.elapsed()));
            tracer.end(span);
            let plans0 = svc.cache_stats();
            let mut cold = match installed {
                Ok(_) => {
                    let matches = svc.match_cache_stats().map_or(0, |m| m.len);
                    let emptied = plans0.len == 0 && matches == 0;
                    if !emptied {
                        eprintln!(
                            "suite-scan: {} plans and {matches} match entries survived \
                             the republication",
                            plans0.len
                        );
                    }
                    emptied
                }
                Err(e) => {
                    eprintln!("suite-scan install failed: {e}");
                    false
                }
            };
            for (qi, text) in texts.iter().enumerate() {
                req += 1;
                phase.reads_attempted += 1;
                let root = tracer.begin("request", req);
                let begun = Instant::now();
                let call = tracer.begin("service.execute", req);
                let res = svc.execute(text);
                tracer.end(call);
                let took = begun.elapsed();
                let check = tracer.begin("check", req);
                let verdict = res.map(|resp| resp.output == self.nav[qi]);
                tracer.end(check);
                tracer.end(root);
                match verdict {
                    Ok(true) => {
                        phase.reads_at.push(secs(origin));
                        phase.reads_us.push(us(took));
                    }
                    Ok(false) => {
                        phase.reads_failed += 1;
                        phase.wrong += 1;
                    }
                    Err(e) => {
                        eprintln!("suite-scan read failed: {e}");
                        phase.reads_failed += 1;
                    }
                }
            }
            let misses = svc.cache_stats().misses - plans0.misses;
            if misses != texts.len() as u64 {
                eprintln!("suite-scan: {misses} plan-cache misses in a pass of {}", texts.len());
                cold = false;
            }
            if !cold {
                phase.installs_failed += 1;
            }
        }
        phase.allocs = alloc::total() - alloc0;
        phase.wall_s = secs(origin);
        phase.tracers.push(tracer);
        phase
    }
}

/// Blocks until `seconds` have passed since `origin` and `ready()` holds,
/// or until the overrun limit.
fn wait_until(origin: Instant, seconds: f64, ready: impl Fn() -> bool) {
    loop {
        let elapsed = secs(origin);
        if (elapsed >= seconds && ready()) || elapsed >= seconds + OVERRUN_S {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Publishes the current snapshot `times` times, each after one pass over
/// every query, and returns the publication latencies, µs — the swap cost
/// of a service whose caches hold one pass of the workload.
pub fn measure_swaps(svc: &Service, times: usize) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(times);
    for _ in 0..times {
        for text in query_texts() {
            svc.execute(text).map_err(|e| format!("swap warm-up: {e}"))?;
        }
        let snapshot = svc.database();
        let begun = Instant::now();
        svc.install(DEFAULT_DB, snapshot).map_err(|e| format!("install: {e}"))?;
        out.push(us(begun.elapsed()));
    }
    Ok(out)
}
