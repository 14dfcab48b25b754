//! In-memory spans recorded by the benchmark around each call into a
//! layer, and the per-layer self times derived from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the run began.
    pub start: u64,
    /// End, nanoseconds since the run began.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Pass index (compile, infer) or request id (serve).
    pub req: u64,
}

/// A span recorder for one thread. When off, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder whose times count from `origin`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`enter`](Tracer::enter).
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end = self.now();
            self.open.retain(|&i| i != index);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, req);
        let out = f();
        self.exit(open);
        out
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in seconds per `(name, req)`: each span's duration minus
    /// the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<(&'static str, u64), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end - s.start).saturating_sub(covered);
            *out.entry((s.name, s.req)).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.enter("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(outer);
        let times = t.self_times();
        let outer_self = times[&("outer", 1)];
        let inner_self = times[&("inner", 1)];
        assert!(inner_self >= 0.020);
        assert!(outer_self >= 0.005 && outer_self < inner_self);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing_and_absorb_rebases_parents() {
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", 0, || 3), 3);
        assert!(off.spans().is_empty());
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.span("a", 0, || ());
        let mut b = Tracer::new(true, origin);
        let o = b.enter("b", 0);
        b.span("c", 0, || ());
        b.exit(o);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
