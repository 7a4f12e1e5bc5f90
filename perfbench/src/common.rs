//! Inputs, set-up, oracles and statistics shared by the workloads.

use crate::trace::Tracer;
use baselines::{evaluate_nav, Engine};
use service::catalog::DEFAULT_DB;
use service::{Service, ServiceConfig, UpdateOp};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmark::rng::{RngExt, SeedableRng, StdRng};
use xmldb::Database;

/// The one document every XMark database carries.
pub const DOC: &str = "auction.xml";

/// Indices of the hot set in the Figure 15 order: x15, x16, x17, x10a.
pub const HOT_SET: [usize; 4] = [14, 15, 16, 22];

/// Share of skewed-mix requests drawn from the hot set, in percent.
pub const HOT_PCT: u32 = 80;

/// Samples an operation type needs before its p99 is a tail (ten samples
/// beyond it).
pub const P99_MIN_SAMPLES: usize = 1000;

/// Each run sets the service up at least `SETUP_MIN_REPS` times and for at
/// least `SETUP_MIN_SECONDS` (at most `SETUP_MAX_REPS` times); `setup_s` is
/// the median.
pub const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 400;
const SETUP_MIN_SECONDS: f64 = 4.0;

/// The 23 Figure 15 query texts, in table order.
pub fn query_texts() -> Vec<&'static str> {
    queries::all_queries().iter().map(|q| q.text).collect()
}

/// The Figure 15 query names, in table order.
pub fn query_names() -> Vec<&'static str> {
    queries::all_queries().iter().map(|q| q.name).collect()
}

/// Times each hot query appears in a round of the skewed mix, on top of
/// the one appearance every query has: enough that the hot set takes
/// `HOT_PCT`% of the round.
fn hot_repeats(n: usize) -> usize {
    n * HOT_PCT as usize / (100 - HOT_PCT) as usize / HOT_SET.len()
}

/// One round of the skewed mix in a seeded order: every query once, and
/// each hot query [`hot_repeats`] more times, so `HOT_PCT`% of the round
/// goes to the hot set. A round holds the same queries in every run;
/// only their order depends on the seed, so the tail of a run is made of
/// the same queries whatever the seed.
pub fn skewed_round(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut round: Vec<usize> = (0..n).collect();
    for &h in &HOT_SET {
        round.extend(std::iter::repeat_n(h, hot_repeats(n)));
    }
    for i in (1..round.len()).rev() {
        round.swap(i, rng.random_range(0..=i));
    }
    round
}

/// Each query's share of a [`skewed_round`].
pub fn skewed_weights(n: usize) -> Vec<f64> {
    let len = (n + HOT_SET.len() * hot_repeats(n)) as f64;
    (0..n)
        .map(|i| (1 + if HOT_SET.contains(&i) { hot_repeats(n) } else { 0 }) as f64 / len)
        .collect()
}

/// A per-stream RNG derived from the run seed, so streams are reproducible
/// but independent of each other.
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Where the benchmark keeps its generated inputs and span dumps: inside
/// the build directory of the checkout.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    Path::new(&base).join("perfbench")
}

/// The generated workload document: the store the oracles read, and the
/// XML file the timed set-up loads.
pub struct Inputs {
    /// Store built directly by the generator (never touched by the service).
    pub db: Database,
    /// The same document serialized to an XML file.
    pub xml_path: PathBuf,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.xml_path);
    }
}

/// Generates the XMark document (untimed) and writes it as XML. The
/// document is the standard one of its factor (`xmark::DEFAULT_SEED`); the
/// run seed drives the request and write streams.
pub fn generate(workload: &str, factor: f64, seed: u64) -> Result<Inputs, String> {
    let mut db = Database::new();
    xmark::generate_into(&mut db, DOC, factor, xmark::DEFAULT_SEED)
        .map_err(|e| format!("generate: {e}"))?;
    let doc = db.document_by_name(DOC).map_err(|e| e.to_string())?;
    let xml = xmldb::serialize::serialize_subtree(&db, db.root(doc));
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let xml_path = dir.join(format!("{workload}-{seed}-{}.xml", std::process::id()));
    std::fs::write(&xml_path, xml).map_err(|e| format!("{}: {e}", xml_path.display()))?;
    Ok(Inputs { db, xml_path })
}

/// A service ready for the timed phase, with what its set-up cost.
pub struct Ready {
    /// The service, in its default configuration.
    pub svc: Service,
    /// Median set-up time (load + start + warm-up), seconds.
    pub setup_s: f64,
    /// Median XML load time, milliseconds.
    pub load_ms: f64,
    /// Every set-up's time, seconds, in ascending order.
    pub setups_s: Vec<f64>,
}

/// Sets the service up repeatedly — read and parse the XML file, start the
/// service, run `warm` — and keeps the last one.
pub fn set_up(
    inputs: &Inputs,
    warm: impl Fn(&Service) -> Result<(), String>,
) -> Result<Ready, String> {
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while setups.len() < SETUP_MAX_REPS
        && (setups.len() < SETUP_MIN_REPS || secs(started) < SETUP_MIN_SECONDS)
    {
        drop(last.take());
        let begun = Instant::now();
        let xml = std::fs::read_to_string(&inputs.xml_path)
            .map_err(|e| format!("{}: {e}", inputs.xml_path.display()))?;
        let mut db = Database::new();
        db.load_xml(DOC, &xml).map_err(|e| format!("load: {e}"))?;
        loads.push(begun.elapsed().as_secs_f64() * 1e3);
        let svc = Service::new(Arc::new(db), ServiceConfig::default());
        warm(&svc)?;
        setups.push(begun.elapsed().as_secs_f64());
        last = Some(svc);
    }
    Ok(Ready {
        svc: last.expect("SETUP_MIN_REPS > 0"),
        setup_s: median(&mut setups),
        load_ms: median(&mut loads),
        setups_s: setups,
    })
}

/// Runs every query once through the service, checking each answer.
pub fn warm_all(svc: &Service, expect: &[String]) -> Result<(), String> {
    for (i, text) in query_texts().iter().enumerate() {
        let resp = svc.execute(text).map_err(|e| format!("warm-up query {i}: {e}"))?;
        if resp.output != expect[i] {
            return Err(format!("warm-up query {} answered wrongly", query_names()[i]));
        }
    }
    Ok(())
}

/// Every query's answer from the navigational interpreter, which shares no
/// algebra, executor, VM or service code with TLC.
pub fn nav_answers(db: &Database) -> Result<Vec<String>, String> {
    query_texts()
        .iter()
        .zip(query_names())
        .map(|(text, name)| {
            let ast = xquery::parse(text).map_err(|e| format!("{name}: parse: {e}"))?;
            evaluate_nav(db, &ast).map(|(out, _)| out).map_err(|e| format!("{name}: nav: {e}"))
        })
        .collect()
}

/// The paper's work-count property on every query: TLC inspects no more
/// nodes than GTP, and GTP no more than TAX. Returns the violations.
pub fn work_count_violations(db: &Database) -> Result<Vec<String>, String> {
    let mut bad = Vec::new();
    for (text, name) in query_texts().iter().zip(query_names()) {
        let mut counts = [0u64; 3];
        for (slot, engine) in [Engine::Tlc, Engine::Gtp, Engine::Tax].into_iter().enumerate() {
            let plan = baselines::plan_for(engine, text, db).map_err(|e| format!("{name}: {e}"))?;
            let (_, stats) = tlc::execute(db, &plan).map_err(|e| format!("{name}: {e}"))?;
            counts[slot] = stats.nodes_inspected;
        }
        if !(counts[0] <= counts[1] && counts[1] <= counts[2]) {
            bad.push(format!("{name}: TLC {} GTP {} TAX {}", counts[0], counts[1], counts[2]));
        }
    }
    Ok(bad)
}

fn pick(db: &Database, rng: &mut StdRng, tag: &str) -> Option<u32> {
    let nodes = db.nodes_with_tag(tag);
    (!nodes.is_empty()).then(|| nodes[rng.random_range(0..nodes.len())].pre)
}

/// Draws the next write against the current snapshot: insert a `<note>`
/// under a random item (40%), or set the text of (25%) or delete (35%) an
/// earlier note, inserting while none exists. Deletes outweigh inserts, so
/// the note count stays small and a long stream does not grow the document
/// it measures. Items, not persons, host the notes: person writes would
/// invalidate half the skewed mix's hot set after every commit and put the
/// read median on the boundary between warm and cold reads.
pub fn next_write(db: &Database, rng: &mut StdRng, n: u64) -> UpdateOp {
    let kind = rng.random_range(0..100u32);
    if kind >= 40 {
        if let Some(pre) = pick(db, rng, "note") {
            return if kind < 65 {
                UpdateOp::SetText { doc: DOC.into(), pre, text: format!("note v{n}") }
            } else {
                UpdateOp::Delete { doc: DOC.into(), pre }
            };
        }
    }
    let parent = pick(db, rng, "item")
        .or_else(|| pick(db, rng, "site"))
        .expect("an XMark document has a site element");
    let xml = if n.is_multiple_of(2) {
        format!("<note>payload {n}</note>")
    } else {
        format!("<note seq=\"{n}\">payload {n}</note>")
    };
    UpdateOp::Insert { doc: DOC.into(), parent, xml }
}

/// Applies `op` to a standalone store through the update engine directly.
pub fn apply_direct(db: &mut Database, op: &UpdateOp) -> Result<xmldb::UpdateSummary, String> {
    let doc = db.document_by_name(op.doc()).map_err(|e| e.to_string())?;
    match op {
        UpdateOp::Insert { parent, xml, .. } => xmldb::insert_subtree(db, doc, *parent, xml),
        UpdateOp::Delete { pre, .. } => xmldb::delete_subtree(db, doc, *pre),
        UpdateOp::SetText { pre, text, .. } => xmldb::set_text(db, doc, *pre, text),
    }
    .map_err(|e| e.to_string())
}

/// What a stream of commits observed.
#[derive(Debug, Default)]
pub struct Writes {
    /// Commit latencies at the caller, µs.
    pub latencies_us: Vec<f64>,
    /// When each of those commits completed, s since the first began.
    pub at_s: Vec<f64>,
    origin: Option<Instant>,
    /// Commits attempted.
    pub attempted: u64,
    /// Commits that failed or left the store failing its invariant check.
    pub failed: u64,
    /// Of those, commits whose new snapshot failed the invariant check.
    pub broken: u64,
    /// Nodes renumbered across all commits.
    pub renumbered: u64,
    /// Plans carried into new epochs, summed over commits.
    pub plans_carried: u64,
    /// Match-cache entries carried into new epochs, summed over commits.
    pub matches_carried: u64,
}

impl Writes {
    /// Commits one write through the service and checks the new snapshot's
    /// invariants (the check is not part of the latency or the span).
    pub fn commit(&mut self, svc: &Service, op: UpdateOp, tracer: &mut Tracer, req: u64) {
        self.attempted += 1;
        let span = tracer.begin("service.apply_update", req);
        let begun = Instant::now();
        let origin = *self.origin.get_or_insert(begun);
        let res = svc.apply_update(DEFAULT_DB, &op);
        let took = begun.elapsed();
        tracer.end(span);
        match res {
            Ok(outcome) => {
                self.latencies_us.push(us(took));
                self.at_s.push(secs(origin));
                self.renumbered += outcome.summary.renumbered as u64;
                self.plans_carried += outcome.plans_seeded;
                self.matches_carried += outcome.matches_seeded;
                if let Err(e) = xmldb::check_database(outcome.entry.database()) {
                    eprintln!("invariant check failed after {op:?}: {e}");
                    self.failed += 1;
                    self.broken += 1;
                }
            }
            Err(e) => {
                eprintln!("commit failed: {op:?}: {e}");
                self.failed += 1;
            }
        }
    }
}

/// Commits seeded writes back to back, in rounds of `PROBE_ROUND`, for at
/// least `seconds` and `min` commits — the write stream of the read-only
/// workloads, run after their timed read phase.
pub fn write_probe(
    svc: &Service,
    rng: &mut StdRng,
    min: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> Writes {
    const PROBE_ROUND: usize = 10;
    let mut writes = Writes::default();
    let started = Instant::now();
    let mut n = 0u64;
    while (writes.attempted as usize) < min || secs(started) < seconds {
        for _ in 0..PROBE_ROUND {
            n += 1;
            let op = next_write(&svc.database(), rng, n);
            writes.commit(svc, op, tracer, n);
        }
    }
    writes
}

/// Median of `v` (sorts it); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (sorts it); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A `kB` field of `/proc/self/status`, in MiB; 0 where it cannot be read.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hands the allocator's free pages back to the system, so that the
/// resident set measured afterwards is what the service holds, not what
/// input generation and the oracles left behind.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count, touches only
        // the allocator's own free lists and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Samples the process's resident set (`VmRSS`) every `RSS_EVERY` on a
/// thread of its own and keeps the maximum.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<f64>,
}

const RSS_EVERY: Duration = Duration::from_millis(20);

impl RssSampler {
    /// Starts sampling.
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = status_mb("VmRSS");
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(RSS_EVERY);
                peak = peak.max(status_mb("VmRSS"));
            }
            peak.max(status_mb("VmRSS"))
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling and returns the largest resident set seen, MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("RSS sampler panicked")
    }
}

/// Seconds since `t`, as f64.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Microseconds in `d`, as f64.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
