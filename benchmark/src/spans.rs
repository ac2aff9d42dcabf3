//! Span recorder: `name, id, parent, start_ns, end_ns`, kept in memory and
//! written out when the benchmark ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the program under
//! test is instrumented. A disabled recorder (the untraced pass) only
//! runs the closure.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Ids of the currently open spans, innermost last.
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` gets the recorder back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A leaf span around `f`; returns the result and the elapsed seconds
    /// (measured whether or not the recorder is enabled).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = self.span(name, |_| f());
        (out, t.elapsed().as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Per span: its duration minus the part its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// `(name, calls, total seconds, self seconds)` per span name, in order
    /// of first appearance.
    pub fn by_name(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_ns();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for s in &self.spans {
            let i = match rows.iter().position(|r| r.0 == s.name) {
                Some(i) => i,
                None => {
                    rows.push((s.name, 0, 0.0, 0.0));
                    rows.len() - 1
                }
            };
            rows[i].1 += 1;
            rows[i].2 += s.secs();
            rows[i].3 += own[s.id] as f64 * 1e-9;
        }
        rows
    }

    /// The whole trace as a JSON array of span objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_nest_inside_their_parent() {
        let mut rec = Recorder::new(true);
        rec.span("phase", |rec| {
            rec.span("a", |rec| {
                spin(200);
                rec.span("a.inner", |_| spin(200));
            });
            rec.span("b", |_| spin(200));
        });
        rec.span("next", |_| spin(50));
        let s = rec.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert_eq!(s[4].parent, None);
        for c in s {
            assert!(c.start_ns <= c.end_ns);
            if let Some(p) = c.parent {
                assert!(
                    s[p].start_ns <= c.start_ns && c.end_ns <= s[p].end_ns,
                    "{c:?} outside {:?}",
                    s[p]
                );
            }
        }
        // Siblings do not overlap.
        assert!(s[1].end_ns <= s[3].start_ns);
    }

    #[test]
    fn self_time_never_exceeds_the_span_and_sums_to_the_root() {
        let mut rec = Recorder::new(true);
        rec.span("root", |rec| {
            spin(300);
            for _ in 0..3 {
                rec.span("child", |rec| {
                    spin(100);
                    rec.span("leaf", |_| spin(100));
                });
            }
        });
        let own = rec.self_ns();
        let spans = rec.spans();
        for (s, &o) in spans.iter().zip(&own) {
            assert!(o <= s.end_ns - s.start_ns, "self time of {} exceeds its duration", s.name);
        }
        // Every nanosecond of the root belongs to exactly one span.
        assert_eq!(own.iter().sum::<u64>(), spans[0].end_ns - spans[0].start_ns);
        assert!(own[0] >= 300_000, "root self time lost: {}", own[0]);
        let rows = rec.by_name();
        assert_eq!(
            rows.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>(),
            [("root", 1), ("child", 3), ("leaf", 3)]
        );
    }

    #[test]
    fn a_disabled_recorder_records_nothing_but_still_times() {
        let mut rec = Recorder::new(false);
        let (v, secs) = rec.timed("x", || {
            spin(100);
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 100e-6);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn json_lists_every_span() {
        let mut rec = Recorder::new(true);
        rec.span("p", |rec| rec.span("c", |_| ()));
        let j = rec.to_json();
        assert!(j.contains("\"name\": \"p\", \"id\": 0, \"parent\": null"));
        assert!(j.contains("\"name\": \"c\", \"id\": 1, \"parent\": 0"));
    }
}
