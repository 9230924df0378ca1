//! Host-time spans around the layer calls the benchmark makes.
//!
//! Every layer call goes through [`Spans::time`], which always returns
//! the call's wall time (the untraced end-to-end metrics need it) and,
//! when tracing is on, also records a span in memory. Spans are written
//! once, at exit, as Chrome `trace_event` JSON.

use std::collections::BTreeMap;
use std::time::Instant;

use mempar_obs::escape_json;

/// One timed interval on the host clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `transform.cluster`.
    pub name: &'static str,
    /// Application the call worked on (empty for pass-level spans).
    pub app: &'static str,
    /// Seconds since the benchmark started.
    pub start: f64,
    /// Seconds since the benchmark started.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// The span recorder. Disabled recorders time calls but keep nothing.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span that encloses the spans recorded until [`Spans::close`].
    pub fn open(&mut self, name: &'static str, app: &'static str) {
        if self.enabled {
            let start = self.now();
            self.push(name, app, start, f64::NAN);
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.now();
        }
    }

    /// Runs `f`, returning its result and its wall time in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        app: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.now();
        let r = f();
        let end = self.now();
        if self.enabled {
            self.push(name, app, start, end);
        }
        (r, end - start)
    }

    fn push(&mut self, name: &'static str, app: &'static str, start: f64, end: f64) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            app,
            start,
            end,
            parent,
        });
    }

    /// Number of spans recorded so far (a mark for [`Spans::self_times`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name over the spans recorded since `mark`: a
    /// span's duration minus the time its child spans cover.
    pub fn self_times(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[mark..];
        let mut child = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child[p - mark] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.end - s.start - c;
        }
        out
    }

    /// Chrome `trace_event` JSON of every recorded span (complete events,
    /// microseconds), with the host provenance as process metadata.
    pub fn chrome_json(&self, provenance: &str) -> String {
        let mut events = vec![format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
             \"args\": {{\"name\": \"{}\"}}}}",
            escape_json(provenance)
        )];
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"app\": \"{}\"}}}}",
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.app
            ));
        }
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}
