//! An in-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer: name, start, end, the request they belong to and the span that
//! caused them. They stay in memory until the run ends and are then
//! written as Chrome trace-event JSON, which Perfetto opens directly. With
//! the recorder off, [`Recorder::span`] only calls through, so the same
//! replay code measures the tracing overhead.

use crate::json::Json;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request (or unit) this span belongs to.
    pub req: u32,
    /// Index of the enclosing span, `None` for a request root.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The recorder: an epoch, the spans so far, and the open-span stack.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the request id later spans are tagged with.
    pub fn set_req(&mut self, req: u32) {
        self.req = req;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Attaches already-measured child spans to the most recently closed
    /// span named `parent`, laid end to end from its start. The durations
    /// come from a layer's own accounting (the optimizer's per-pass
    /// timings), which says how long each part took but not exactly when,
    /// so the children are placed in pipeline order; a child that would
    /// overrun the parent is clipped to it.
    pub fn attach_children(&mut self, parent: &'static str, parts: &[(&'static str, Duration)]) {
        if !self.on {
            return;
        }
        let Some(p) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let (mut at, end, req) = (self.spans[p].start, self.spans[p].end, self.spans[p].req);
        for &(name, d) in parts {
            let d = d.as_nanos() as u64;
            if d == 0 {
                continue;
            }
            let stop = (at + d).min(end);
            self.spans.push(Span {
                name,
                req,
                parent: Some(p),
                start: at,
                end: stop,
            });
            at = stop;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace events ("X" complete events, in
    /// microseconds) under process `pid`, preceded by the metadata event
    /// that names the process.
    pub fn chrome_events(&self, pid: u32, process: &str) -> Vec<Json> {
        let meta = Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(f64::from(pid))),
            ("args", Json::obj([("name", Json::str(process))])),
        ]);
        let spans = self.spans.iter().enumerate().map(|(i, s)| {
            let mut args = vec![
                ("req".to_string(), Json::Num(f64::from(s.req))),
                ("id".to_string(), Json::Num(i as f64)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Json::Num(p as f64)));
            }
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str("specbench")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start as f64 / 1e3)),
                ("dur", Json::Num(s.dur() as f64 / 1e3)),
                ("pid", Json::Num(f64::from(pid))),
                ("tid", Json::Num(1.0)),
                ("args", Json::Obj(args)),
            ])
        });
        std::iter::once(meta).chain(spans).collect()
    }
}

/// Per-layer timing summary of the spans under request roots named
/// `root`: for every span name, the median over requests of its summed
/// inclusive time and of its summed self time (inclusive minus the time
/// its children cover), in milliseconds.
pub struct LayerTable {
    /// `(name, inclusive p50 ms, self p50 ms)`, largest self time first.
    pub rows: Vec<(&'static str, f64, f64)>,
    /// Median inclusive time of the request roots.
    pub request_p50_ms: f64,
    /// Requests summarized.
    pub requests: usize,
}

impl LayerTable {
    /// The table over the request roots named `root` whose request id
    /// `keep` accepts.
    pub fn build(spans: &[Span], root: &str, keep: impl Fn(u32) -> bool) -> LayerTable {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        // the root each span descends from, if it is a request root
        let mut root_of: Vec<Option<usize>> = vec![None; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            root_of[i] = match s.parent {
                None => (s.name == root && keep(s.req)).then_some(i),
                Some(p) => root_of[p],
            };
        }
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| root_of[i] == Some(i))
            .collect();
        let pos: BTreeMap<usize, usize> = roots.iter().enumerate().map(|(k, &r)| (r, k)).collect();
        // name -> per-request (inclusive, self) sums
        let mut per: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let Some(r) = root_of[i] else { continue };
            let slot = per
                .entry(s.name)
                .or_insert_with(|| vec![(0.0, 0.0); roots.len()]);
            let e = &mut slot[pos[&r]];
            e.0 += s.dur() as f64 / 1e6;
            e.1 += s.dur().saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        let mut rows: Vec<(&'static str, f64, f64)> = per
            .into_iter()
            .map(|(name, v)| {
                let incl: Vec<f64> = v.iter().map(|x| x.0).collect();
                let selft: Vec<f64> = v.iter().map(|x| x.1).collect();
                (name, median(&incl), median(&selft))
            })
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        let request_p50_ms = rows.iter().find(|r| r.0 == root).map_or(0.0, |r| r.1);
        LayerTable {
            rows,
            request_p50_ms,
            requests: roots.len(),
        }
    }

    /// Inclusive p50 of `name`, 0 when no request called it.
    pub fn incl(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1)
    }

    /// Sum of every layer's self-time median.
    pub fn self_sum(&self) -> f64 {
        self.rows.iter().map(|r| r.2).sum()
    }

    /// Human-readable table under the heading `title`.
    pub fn render(&self, title: &str) -> String {
        let mut s = format!(
            "  {title:<26} {:>11} {:>11} {:>7}\n",
            "self p50", "incl p50", "share"
        );
        for &(name, incl, selft) in &self.rows {
            let share = if self.request_p50_ms > 0.0 {
                100.0 * selft / self.request_p50_ms
            } else {
                0.0
            };
            s.push_str(&format!(
                "  {name:<26} {selft:>8.3} ms {incl:>8.3} ms {share:>6.1}%\n"
            ));
        }
        s.push_str(&format!(
            "  {:<26} {:>8.3} ms = {:.1}% of the request p50 ({:.3} ms over {} requests)\n",
            "sum of self p50",
            self.self_sum(),
            100.0 * self.self_sum() / self.request_p50_ms.max(f64::MIN_POSITIVE),
            self.request_p50_ms,
            self.requests
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        r.set_req(1);
        r.span("request", |r| {
            r.span("a", |_| std::thread::sleep(Duration::from_millis(2)));
            r.span("b", |_| ());
        });
        r.attach_children("a", &[("a.x", Duration::from_millis(1))]);
        let t = LayerTable::build(r.spans(), "request", |_| true);
        assert_eq!(t.requests, 1);
        let a = t.rows.iter().find(|x| x.0 == "a").unwrap();
        assert!(a.1 >= 2.0 && a.2 <= a.1 - 0.99, "{:?}", t.rows);
        assert!((t.self_sum() - t.request_p50_ms).abs() < 1e-6);
        for s in r.spans() {
            if let Some(p) = s.parent {
                let p = &r.spans()[p];
                assert!(p.start <= s.start && s.end <= p.end);
            }
        }
    }

    #[test]
    fn off_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", |_| 7), 7);
        assert!(r.spans().is_empty());
    }
}
