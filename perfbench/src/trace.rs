//! In-memory spans around the benchmark's calls into each layer, written
//! out once the traced run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call (or batch of calls) into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `wire.decode`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (line batch, sweep cell or round) the span serves.
    pub request: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: [`Tracer::span`] only runs its
    /// closure. The same code path with tracing off, for timing the
    /// tracer's own overhead.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for `request`; spans opened by
    /// `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now();
        let out = f(self);
        self.spans[index].end_ns = self.now();
        self.open.pop();
        out
    }

    /// Duration of the most recently closed span named `name`.
    pub fn last_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.end_ns >= s.start_ns)
            .map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Summed self time of the spans named `name` recorded at index `since`
    /// or later: each span's duration less the part its children cover.
    pub fn self_ns(&self, name: &str, since: usize) -> u64 {
        self.self_times(name, since).map(|(_, ns)| ns).sum()
    }

    /// The request id and self time of each span named `name` recorded at
    /// index `since` or later.
    pub fn self_times<'a>(
        &'a self,
        name: &'a str,
        since: usize,
    ) -> impl Iterator<Item = (u64, u64)> + 'a {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .skip(since)
            .filter(move |(s, _)| s.name == name)
            .map(|(s, c)| (s.request, (s.end_ns - s.start_ns).saturating_sub(c)))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as newline-JSON.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 2, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].request, 2);
        let outer = spans[0].end_ns - spans[0].start_ns;
        let inner: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert!(inner >= 2_000_000);
        assert_eq!(t.self_ns("outer", 0), outer - inner);
        assert_eq!(t.self_ns("inner", 0), inner);
        assert_eq!(t.self_ns("inner", 2), spans[2].end_ns - spans[2].start_ns);

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", 1, |t| t.span("inner", 1, |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
