//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers.
//!
//! Each client thread owns a [`Tracer`]; a span carries its name, the
//! request it belongs to, the span that caused it, and its start and end
//! relative to one shared origin. Nothing is written while the clock runs:
//! the tracers are merged and written out when the run ends. A disabled
//! tracer records nothing, so untraced runs pay one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Request (operation) identifier shared by the span's whole tree.
    pub req: u64,
    /// Index of the parent span in the same tracer, `NO_PARENT` for roots.
    parent: u32,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer measuring against `origin`; records only when `on`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer { on, origin, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, req, parent, start_ns, end_ns: start_ns });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: the span's duration minus the part its child
    /// spans cover (children of one thread never overlap).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }
}

/// Per-name totals over a set of tracers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration in microseconds (0 when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean self time in microseconds (0 when no span was recorded).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Sums spans by name across tracers.
pub fn totals(tracers: &[Tracer]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for t in tracers {
        for (s, own) in t.spans().iter().zip(t.self_times()) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += own;
        }
    }
    out
}

/// All spans as tab-separated lines: thread, request, span, parent, name,
/// start and end in ns.
pub fn render(tracers: &[Tracer]) -> String {
    let mut out = String::from("thread\treq\tspan\tparent\tname\tstart_ns\tend_ns\n");
    for (thread, t) in tracers.iter().enumerate() {
        for (i, s) in t.spans().iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{thread}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
    }
    out
}
