//! The benchmark's own spans, kept in memory and written out at the
//! end of a traced run, plus the percentile helpers every metric uses.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Where a span was recorded: the workload's own op loop, or a side
/// probe that exists only to time one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The timed op loop.
    Main,
    /// A side probe after the op loop.
    Probe,
}

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The public call (or op) it wraps.
    pub name: &'static str,
    /// The op it belongs to; spans of one op share it.
    pub op: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Main loop or side probe.
    pub phase: Phase,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Phase stamped on spans opened from now on.
    pub phase: Phase,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            phase: Phase::Main,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            phase: self.phase,
            start_ns,
            end_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// Renames span `id` (a call's outcome, such as a cache hit, is
    /// known only after it returns).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Durations (ns) of spans named `name` recorded in `phase`.
    pub fn durations_in(&self, name: &str, phase: Phase) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.phase == phase)
            .map(Span::dur)
            .collect()
    }

    /// Self times (ns) of spans named `name` recorded in `phase`: each
    /// span's duration minus the durations of its children.
    pub fn self_times_in(&self, name: &str, phase: Phase) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .filter(|(s, _)| s.name == name && s.phase == phase)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Writes the first `limit` spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"phase\":\"{:?}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.phase, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The `q`-quantile (nearest rank) of `samples`; 0 for none.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    quantile_f64(&samples.iter().map(|&s| s as f64).collect::<Vec<_>>(), q)
}

/// The `q`-quantile (nearest rank) of `samples`; 0 for none.
pub fn quantile_f64(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
