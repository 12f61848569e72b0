//! In-memory spans for the traced run: name, start, end, parent and
//! request id for every call the benchmark makes into a layer. Nothing
//! is written until the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans on one thread; nested calls become children.
pub struct Recorder {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    on: bool,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            on: true,
        }
    }

    /// A recorder that records nothing: `span` just runs its closure
    /// (the untraced baseline the tracing overhead is measured against).
    pub fn off() -> Self {
        Recorder {
            on: false,
            ..Recorder::new()
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name` for request `request`.
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_us: self.now_us(),
                end_us: f64::NAN,
                parent: self.open.borrow().last().copied(),
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_us = self.now_us();
        r
    }

    /// Record stages measured inside the program as children of the
    /// innermost open span, laid out back to back and ending now (as the
    /// server lays out its batcher's queue wait and model call).
    pub fn children_ending_now(&self, request: u64, stages: &[(&'static str, f64)]) {
        if !self.on {
            return;
        }
        let mut at = self.now_us() - stages.iter().map(|s| s.1).sum::<f64>();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        for &(name, dur_us) in stages {
            spans.push(Span {
                name,
                start_us: at,
                end_us: at + dur_us,
                parent,
                request,
            });
            at += dur_us;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_us), b.min(s.end_us));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Total self time per span name (µs), and the number of spans.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

/// Spans as JSON lines (one object per span) for the run's span file.
pub fn to_json_lines(spans: &[Span]) -> String {
    spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}\n",
                s.name,
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: a,
            end_us: b,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0.0, 100.0, None),
            span("parse", 0.0, 10.0, Some(0)),
            span("score", 20.0, 70.0, Some(0)),
            // Overlaps `score`: counted once.
            span("wait", 60.0, 80.0, Some(0)),
            span("inner", 30.0, 40.0, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![30.0, 10.0, 40.0, 20.0, 10.0]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["request"], (30.0, 1));
    }

    #[test]
    fn recorder_nests_and_can_be_switched_off() {
        let r = Recorder::new();
        r.span("outer", 7, || {
            r.span("inner", 7, || ());
            r.children_ending_now(7, &[("wait", 1.0), ("work", 2.0)]);
        });
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert!(s[1..].iter().all(|x| x.parent == Some(0)));
        assert_eq!(s[2].end_us, s[3].start_us);
        assert!((s[3].dur_us() - 2.0).abs() < 1e-9);
        assert!(s.iter().all(|x| x.request == 7 && x.end_us >= x.start_us));
        let off = Recorder::off();
        assert_eq!(off.span("x", 0, || 5), 5);
        assert!(off.spans().is_empty());
    }
}
