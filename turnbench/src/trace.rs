//! Spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own files only — tracing inside
//! the program is a later change. They stay in memory until the run ends.
//! A disabled tracer records nothing and takes no timestamps, so the same
//! workload code serves the untraced (end-to-end) and the traced run.

use crate::json;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`sim.engine.step_x1000`).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; see the module docs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tag the spans opened from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Run `f` inside a span called `name`. `f` gets the tracer back so it
    /// can open child spans.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        let result = f(self);
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in ns, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Summed self time, in ns, of every span called `name`.
    pub fn self_ns(&self, name: &str) -> f64 {
        let self_times = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .sum()
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let self_times = self_times_ns(&self.spans);
        let mut out = format!("{{\"workload\":{},\"spans\":[", json::quote(workload));
        for (i, (s, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"rep\":{},\"self_ns\":{self_ns}}}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.rep,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Each span's self time: its duration minus the part of it its direct
/// children cover. Children of one parent never overlap here (spans are
/// opened and closed on one thread, in stack order).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_times: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_times[p] = self_times[p].saturating_sub(s.duration_ns());
        }
    }
    self_times
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("rep", 0, 100, None),
            span("setup", 5, 25, Some(0)),
            span("body", 30, 90, Some(0)),
            span("window", 30, 50, Some(2)),
            span("window", 50, 85, Some(2)),
        ];
        // rep: 100 - (20 + 60); body: 60 - (20 + 35); leaves keep it all.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 5, 20, 35]);
    }

    #[test]
    fn scopes_nest_and_tag_repetitions() {
        let mut tr = Tracer::new(true);
        tr.set_rep(3);
        let got = tr.scope("outer", |tr| {
            tr.scope("inner", |_| ());
            tr.scope("inner", |_| 7)
        });
        assert_eq!(got, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(tr.durations_ns("inner").len(), 2);
        assert!(tr.self_ns("outer") <= spans[0].duration_ns() as f64);
        assert!(json::parse(&tr.to_json("w")).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.scope("outer", |tr| tr.scope("inner", |_| 1)), 1);
        assert!(tr.spans().is_empty());
    }
}
