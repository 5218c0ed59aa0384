//! In-memory span recorder.
//!
//! The benchmark wraps each call into the library in a span: name,
//! start, end, parent span, and a group id shared by every span of one
//! fit iteration, request ticket or stream round. Spans stay in memory
//! and are written out once, when the run ends. A disabled tracer
//! records nothing, so untraced runs pay one branch per call site.

use std::io::Write as _;
use std::time::Instant;

/// Marker for "no parent".
const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Public call the span wraps.
    pub name: &'static str,
    /// Fit iteration, request ticket or stream round.
    pub group: u64,
    /// Index of the enclosing span, `u32::MAX` at the root.
    pub parent: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    group: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            group: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the group id of the spans opened next.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Reserves room for `n` more spans, so recording does not
    /// reallocate mid-measurement.
    pub fn reserve(&mut self, n: usize) {
        if self.on {
            self.spans.reserve(n);
        }
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(ROOT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            group: self.group,
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.0 == ROOT {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.0 as usize) {
            span.end_ns = now;
        }
        if let Some(pos) = self.open.iter().rposition(|&o| o == id.0) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self times (ns) of the spans named `name`: each span's duration
    /// minus the part of it that its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self_time(s, &children[i], &self.spans) as f64)
            .collect()
    }

    /// Per span named `name`: the summed durations (ns) of its direct
    /// children.
    pub fn children_total(&self, name: &str) -> Vec<f64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| {
                children[i]
                    .iter()
                    .map(|&c| self.spans[c as usize].duration_ns() as f64)
                    .sum()
            })
            .collect()
    }

    /// Child indices per span.
    fn children(&self) -> Vec<Vec<u32>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != ROOT {
                children[s.parent as usize].push(i as u32);
            }
        }
        children
    }

    /// Writes `header` as the first line, then every span as one JSON
    /// array `[id, parent, group, name, start_ns, end_ns, self_ns]`
    /// (`parent` is null at the root).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let children = self.children();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = self_time(s, &children[i], &self.spans);
            if s.parent == ROOT {
                write!(out, "[{i},null,")?;
            } else {
                write!(out, "[{i},{},", s.parent)?;
            }
            writeln!(
                out,
                "{},\"{}\",{},{},{self_ns}]",
                s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// `span`'s duration minus the union of its children's intervals.
fn self_time(span: &Span, children: &[u32], spans: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&c| {
            let c = &spans[c as usize];
            (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns))
        })
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    span.duration_ns().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let parent = Span {
            name: "p",
            group: 0,
            parent: ROOT,
            start_ns: 0,
            end_ns: 100,
        };
        let mk = |a, b| Span {
            name: "c",
            group: 0,
            parent: 0,
            start_ns: a,
            end_ns: b,
        };
        let spans = vec![parent, mk(10, 30), mk(20, 40), mk(90, 120)];
        // Covered: [10, 40) and [90, 100) -> 40 ns.
        assert_eq!(self_time(&spans[0], &[1, 2, 3], &spans), 60);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut t = Tracer::new(true);
        t.set_group(7);
        let a = t.begin("a");
        t.span("b", || ());
        t.end(a);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, 0);
        assert_eq!(s[1].group, 7);
        assert!(t.self_times("a")[0] <= t.durations("a")[0]);
    }
}
