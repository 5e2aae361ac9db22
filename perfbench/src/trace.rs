//! In-memory span recorder.
//!
//! A span brackets one call into a layer's public function: its name,
//! start and end (nanoseconds since the recorder was created) and the
//! span that was open when it started. Spans stay in memory until the
//! run ends and are then written out as NDJSON. A disabled recorder
//! records nothing and just runs the closure.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off, returning the previous setting.
    pub fn set_enabled(&mut self, enabled: bool) -> bool {
        std::mem::replace(&mut self.enabled, enabled)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` (a plain call when disabled).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of the spans named `name` recorded since
    /// span index `from` (a [`Tracer::len`] taken earlier), in start
    /// order.
    pub fn secs(&self, from: usize, name: &str) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one NDJSON line, creating parent directories.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans[1].start_ns >= tr.spans[0].start_ns);
        assert!(tr.spans[1].end_ns <= tr.spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert_eq!(tr.len(), 0);
    }
}
