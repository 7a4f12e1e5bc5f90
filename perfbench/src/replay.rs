//! The traced run's single-threaded layer replay.
//!
//! Each query of the workload runs through the layers one call at a time —
//! parse → translate → verify → lint → prune → lower → `vm::run` → tree
//! walker → serialize → protocol framing — plus a second `vm::run` against
//! a warm match cache (the service's hit path). Every call is a leaf span,
//! so its time is its self time; allocations are counted on this thread
//! only, so a count covers exactly the call measured. Per-query figures
//! are weighted by the query's share of the workload's reads, which makes
//! each metric a per-read cost. Times are medians over repeated rounds.

use crate::alloc;
use crate::common::{apply_direct, median, next_write, query_names, query_texts, us, DOC};
use service::cache::{MatchStore, ScopedMatchCache};
use service::catalog::DEFAULT_DB;
use service::protocol::{read_response, FrameBuf};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tlc::ExecCtx;
use xmark::rng::StdRng;
use xmldb::Database;

/// The replay repeats until it has run this long…
const REPLAY_SECONDS: f64 = 1.5;
/// …and at least this many rounds (at most `MAX_ROUNDS`).
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 50;
/// Clone + direct-update samples of the store layer.
const STORE_SAMPLES: usize = 25;

/// Timed layers, in call order.
const TIMED: [&str; 11] = [
    "xquery.parse_us",
    "tlc.translate_us",
    "tlc.verify_us",
    "tlc.lint_us",
    "tlc.prune_us",
    "tlc.lower_us",
    "tlc.vm_run_us",
    "tlc.walk_run_us",
    "tlc.serialize_us",
    "protocol.frame_us",
    "service.hit_exec_us",
];

/// Times `f` and returns its result with the elapsed µs.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let begun = Instant::now();
    let r = f();
    (r, us(begun.elapsed()))
}

/// Counts this thread's allocations during `f`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = alloc::local();
    let r = f();
    (r, alloc::local() - before)
}

/// Replays every query with a non-zero weight through each layer against
/// `db` and returns per-read layer costs, or the first disagreement.
pub fn layers(db: &Database, weights: &[f64]) -> Result<BTreeMap<&'static str, f64>, String> {
    let texts = query_texts();
    let names = query_names();
    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut frame = FrameBuf::new();
    let mut wire = Vec::new();
    // Arena carried from one hit-path execution to the next, as the
    // service's pool does.
    let mut arena = tlc::ExecArena::default();
    let started = Instant::now();
    let mut round = 0;
    while round < MAX_ROUNDS
        && (round < MIN_ROUNDS || started.elapsed().as_secs_f64() < REPLAY_SECONDS)
    {
        let mut t: BTreeMap<&'static str, f64> = TIMED.iter().map(|&k| (k, 0.0)).collect();
        let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
        for ((text, name), &w) in texts.iter().zip(&names).zip(weights) {
            if w == 0.0 {
                continue;
            }
            let fail = |layer: &str, e: &dyn std::fmt::Display| format!("{name}: {layer}: {e}");
            let (ast, dt) = timed(|| xquery::parse(text));
            let ast = ast.map_err(|e| fail("parse", &e))?;
            *t.get_mut("xquery.parse_us").expect("listed") += w * dt;
            let (plan, dt) = timed(|| tlc::translate(&ast, db));
            let plan = plan.map_err(|e| fail("translate", &e))?;
            *t.get_mut("tlc.translate_us").expect("listed") += w * dt;
            let (verdict, dt) = timed(|| tlc::verify(&plan));
            verdict.map_err(|e| fail("verify", &e))?;
            *t.get_mut("tlc.verify_us").expect("listed") += w * dt;
            let (_lints, dt) = timed(|| tlc::lint(&plan, db));
            *t.get_mut("tlc.lint_us").expect("listed") += w * dt;
            let ((pruned, _report), dt) = timed(|| tlc::prune_with_report(&plan));
            *t.get_mut("tlc.prune_us").expect("listed") += w * dt;
            let (prog, dt) = timed(|| tlc::vm::lower(&pruned));
            let prog = prog.map_err(|e| fail("lower", &e))?;
            *t.get_mut("tlc.lower_us").expect("listed") += w * dt;

            let mut ctx = ExecCtx::new();
            let ((trees, allocs), dt) = timed(|| counted(|| tlc::vm::run(db, &prog, &mut ctx)));
            let trees = trees.map_err(|e| fail("vm", &e))?;
            *t.get_mut("tlc.vm_run_us").expect("listed") += w * dt;
            *c.entry("tlc.vm_allocs").or_default() += w * allocs as f64;

            let mut wctx = ExecCtx::new();
            let ((walked, allocs), dt) =
                timed(|| counted(|| tlc::execute_with_ctx(db, &pruned, &mut wctx)));
            let walked = walked.map_err(|e| fail("walker", &e))?;
            *t.get_mut("tlc.walk_run_us").expect("listed") += w * dt;
            *c.entry("tlc.walk_allocs").or_default() += w * allocs as f64;
            let s = wctx.stats;
            for (k, v) in [
                ("tlc.probes", s.probes),
                ("tlc.nodes_inspected", s.nodes_inspected),
                ("tlc.struct_cmps", s.struct_cmps),
                ("tlc.candidate_fetches", s.candidate_fetches),
                ("tlc.trees_built", s.trees_built),
                ("tlc.join_steps", s.join_steps),
            ] {
                *c.entry(k).or_default() += w * v as f64;
            }

            let (out, dt) = timed(|| tlc::serialize_results(db, &trees));
            *t.get_mut("tlc.serialize_us").expect("listed") += w * dt;
            *c.entry("tlc.output_bytes").or_default() += w * out.len() as f64;
            if out != tlc::serialize_results(db, &walked) {
                return Err(format!("{name}: register VM and tree walker disagree"));
            }

            let (back, dt) = timed(|| {
                wire.clear();
                frame.write_ok(&mut wire, &out).and_then(|()| read_response(&mut wire.as_slice()))
            });
            if back.ok() != Some(service::protocol::Frame::Ok(out)) {
                return Err(format!("{name}: protocol framing did not round-trip"));
            }
            *t.get_mut("protocol.frame_us").expect("listed") += w * dt;

            // The hit path: fill a fresh match cache, then run again.
            let store = Arc::new(MatchStore::new(32 << 20));
            let scoped = Arc::new(ScopedMatchCache::new(store, DEFAULT_DB, 0));
            let mut fill = ExecCtx::new().with_cache(scoped.clone());
            tlc::vm::run(db, &prog, &mut fill).map_err(|e| fail("vm fill", &e))?;
            let mut hit = ExecCtx::new().with_cache(scoped);
            hit.arena = std::mem::take(&mut arena);
            let ((trees, allocs), dt) = timed(|| counted(|| tlc::vm::run(db, &prog, &mut hit)));
            let trees = trees.map_err(|e| fail("vm hit", &e))?;
            hit.free_trees(trees);
            arena = std::mem::take(&mut hit.arena);
            *t.get_mut("service.hit_exec_us").expect("listed") += w * dt;
            *c.entry("service.hit_allocs").or_default() += w * allocs as f64;
        }
        for (k, v) in t {
            per_round.entry(k).or_default().push(v);
        }
        counts = c;
        round += 1;
    }
    let mut out: BTreeMap<&'static str, f64> =
        per_round.into_iter().map(|(k, mut v)| (k, median(&mut v))).collect();
    out.extend(counts);
    Ok(out)
}

/// Store-layer costs on `snapshot`: a whole-snapshot clone and a direct
/// update-engine write on the clone, medians in µs.
pub fn store_layer(snapshot: &Database, rng: &mut StdRng) -> Result<(f64, f64), String> {
    let mut clones = Vec::with_capacity(STORE_SAMPLES);
    let mut updates = Vec::with_capacity(STORE_SAMPLES);
    let mut current = snapshot.clone();
    for n in 0..STORE_SAMPLES as u64 {
        let (mut next, dt) = timed(|| current.clone());
        clones.push(dt);
        let op = next_write(&next, rng, n);
        let (res, dt) = timed(|| apply_direct(&mut next, &op));
        res.map_err(|e| format!("direct update on {DOC}: {e}"))?;
        updates.push(dt);
        current = next;
    }
    Ok((median(&mut clones), median(&mut updates)))
}

/// Mean of `v`, 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
