//! The benchmark's own spans: one per timed call into a crate, kept in
//! memory and written out when the run ends.

use std::sync::Mutex;
use std::time::Instant;

use grover_obs::json::Obj;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Recorder-unique id.
    pub id: u64,
    /// The span that caused it.
    pub parent: Option<u64>,
    /// Layer metric name, e.g. `frontend.compile_ms`.
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span list.
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span that ran from `start` to `end`; returns its id.
    pub fn record(&self, name: &str, parent: Option<u64>, start: Instant, end: Instant) -> u64 {
        let mut spans = self.spans.lock().expect("span list poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(SpanRec {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Open a span now; [`Spans::close`] ends it.
    pub fn open(&self, name: &str, parent: Option<u64>) -> u64 {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// End a span opened by [`Spans::open`].
    pub fn close(&self, id: u64) {
        let end = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span list poisoned");
        if let Some(s) = spans.get_mut(id as usize - 1) {
            s.end_ns = end;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Every span recorded so far.
    pub fn all(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Every span as one JSON object per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.all() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(
                &Obj::new()
                    .str("source", "bench")
                    .u64("id", s.id)
                    .raw("parent", &parent)
                    .str("name", &s.name)
                    .u64("start_ns", s.start_ns)
                    .u64("end_ns", s.end_ns)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let spans = Spans::default();
        let root = spans.open("root", None);
        let v = spans.time("child", Some(root), || 7);
        spans.close(root);
        assert_eq!(v, 7);
        let all = spans.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(root));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert_eq!(spans.jsonl().lines().count(), 2);
    }
}
