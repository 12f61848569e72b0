//! The load generator: closed and open loops over keep-alive
//! connections, never more than `nproc` sending threads or open
//! connections at once (the machine's cores are shared with the server
//! under test, so a wider client would only measure its own contention).

use crate::http::Conn;
use crate::stats::Sent;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Counts live resources of one kind against a hard limit and records
/// the peak; exceeding the limit is a bug in the benchmark and panics.
pub struct Gauge {
    limit: usize,
    live: AtomicUsize,
    peak: AtomicUsize,
}

/// Worker slots a loop reserved up front, released on drop.
struct Reservation<'a> {
    reserved: &'a AtomicUsize,
    n: usize,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.reserved.fetch_sub(self.n, Ordering::SeqCst);
    }
}

/// Releases one unit of a [`Gauge`] on drop.
pub struct GaugeGuard<'a>(&'a Gauge);

impl Gauge {
    fn new(limit: usize) -> Self {
        Gauge {
            limit,
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn enter(&self) -> GaugeGuard<'_> {
        let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        assert!(
            now <= self.limit,
            "load generator exceeded its limit of {}",
            self.limit
        );
        GaugeGuard(self)
    }

    /// The most ever live at once.
    #[cfg(test)]
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The generator's resource limits: sending threads and connections,
/// each at most `nproc`, shared by every loop running at once.
pub struct Generator {
    pub threads: Gauge,
    pub conns: Gauge,
    reserved: AtomicUsize,
}

impl Generator {
    /// Limits of `nproc` each.
    pub fn new(nproc: usize) -> Self {
        Generator {
            threads: Gauge::new(nproc.max(1)),
            conns: Gauge::new(nproc.max(1)),
            reserved: AtomicUsize::new(0),
        }
    }

    /// Reserve up to `want` worker slots, as many as other loops left
    /// free (possibly none).
    fn reserve(&self, want: usize) -> Reservation<'_> {
        let mut n = 0;
        let _ = self
            .reserved
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
                n = want.min(self.threads.limit.saturating_sub(used));
                Some(used + n)
            });
        Reservation {
            reserved: &self.reserved,
            n,
        }
    }
}

/// The number of cores the generator may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One request's work on a connection: `Ok(())` when it succeeded and
/// its output checked out.
pub type Work<'a> = dyn Fn(&mut Conn, usize) -> Result<(), String> + Sync + 'a;

/// Whether a closed loop takes request `i` (0-based, in order).
pub type Keep<'a> = dyn Fn(usize) -> bool + Sync + 'a;

/// A closed-loop condition: inside `window` from now, at most `max`
/// requests.
pub fn for_window(window: Duration, max: usize) -> impl Fn(usize) -> bool + Sync {
    let until = Instant::now() + window;
    move |i| i < max && Instant::now() < until
}

/// Closed loop: `conns` workers, each sending its next request as soon
/// as the previous reply arrives, while `keep` accepts the next request
/// index (handed out in order). Returns whether each request sent
/// succeeded, and the errors.
pub fn closed_loop(
    gen: &Generator,
    addr: SocketAddr,
    conns: usize,
    keep: &Keep<'_>,
    work: &Work<'_>,
) -> (Vec<bool>, Vec<String>) {
    let next = AtomicUsize::new(0);
    let slots = gen.reserve(conns);
    if slots.n == 0 {
        return (Vec::new(), vec!["no load-generator slot free".into()]);
    }
    let n = slots.n;
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                s.spawn(|| {
                    let _t = gen.threads.enter();
                    let _c = gen.conns.enter();
                    let mut calls = Vec::new();
                    let mut errors = Vec::new();
                    let mut conn = match Conn::open(addr) {
                        Ok(c) => c,
                        Err(e) => return (calls, vec![format!("connect: {e}")]),
                    };
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if !keep(index) {
                            break;
                        }
                        let r = work(&mut conn, index);
                        calls.push(r.is_ok());
                        if let Err(e) = r {
                            errors.push(e);
                        }
                    }
                    (calls, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut calls = Vec::new();
    let mut errors = Vec::new();
    for (c, e) in results {
        calls.extend(c);
        errors.extend(e);
    }
    (calls, errors)
}

/// Open loop: request `i` is due at `start + i / rate`, for every due
/// time inside `window` and after it for as long as `extend` holds,
/// whatever the replies do. `conns` workers each take the next due
/// request, wait for its due time and send it; when all are busy a due
/// request waits, and that wait counts in its latency (see
/// [`Sent::latency`]).
pub fn open_loop(
    gen: &Generator,
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    window: Duration,
    extend: &(dyn Fn() -> bool + Sync),
    work: &Work<'_>,
) -> (Vec<Sent>, Vec<String>) {
    let total = (window.as_secs_f64() * rate).floor() as usize;
    let next = AtomicUsize::new(0);
    let slots = gen.reserve(conns);
    if slots.n == 0 {
        return (Vec::new(), vec!["no load-generator slot free".into()]);
    }
    let n = slots.n;
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                s.spawn(|| {
                    let _t = gen.threads.enter();
                    let _c = gen.conns.enter();
                    let mut sent = Vec::new();
                    let mut errors = Vec::new();
                    let mut conn = match Conn::open(addr) {
                        Ok(c) => Some(c),
                        Err(e) => {
                            errors.push(format!("connect: {e}"));
                            None
                        }
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= total && !extend() {
                            break;
                        }
                        let d = due(i);
                        let now = Instant::now();
                        if d > now {
                            std::thread::sleep(d - now);
                        }
                        let at = Instant::now();
                        let r = match conn.as_mut() {
                            Some(c) => work(c, i),
                            None => Err("no connection".to_string()),
                        };
                        if let Err(e) = &r {
                            errors.push(e.clone());
                        }
                        sent.push((
                            i,
                            Sent {
                                due: d,
                                sent: at,
                                done: r.is_ok().then(Instant::now),
                            },
                        ));
                    }
                    (sent, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut sent = Vec::new();
    let mut errors = Vec::new();
    for (s, e) in results {
        sent.extend(s);
        errors.extend(e);
    }
    sent.sort_by_key(|(i, _)| *i);
    (sent.into_iter().map(|(_, s)| s).collect(), errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    /// A stub keep-alive server answering every request with `{}` after
    /// `delay`, one thread per connection; counts connections it saw.
    fn stub(delay: Duration) -> (SocketAddr, std::sync::Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seen = std::sync::Arc::new(AtomicUsize::new(0));
        let counter = seen.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                counter.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let mut w = stream.try_clone().unwrap();
                    let mut r = BufReader::new(stream);
                    loop {
                        let mut len = 0usize;
                        let mut line = String::new();
                        loop {
                            line.clear();
                            if r.read_line(&mut line).unwrap_or(0) == 0 {
                                return;
                            }
                            if line == "\r\n" {
                                break;
                            }
                            if let Some(v) = line.strip_prefix("Content-Length: ") {
                                len = v.trim().parse().unwrap();
                            }
                        }
                        let mut body = vec![0; len];
                        if r.read_exact(&mut body).is_err() {
                            return;
                        }
                        std::thread::sleep(delay);
                        let reply = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
                        if w.write_all(reply.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, seen)
    }

    fn ok(c: &mut Conn, _: usize) -> Result<(), String> {
        let r = c.call("POST", "/x", "{}").map_err(|e| e.to_string())?;
        (r.status == 200)
            .then_some(())
            .ok_or_else(|| "status".into())
    }

    #[test]
    fn generator_never_exceeds_nproc_threads_or_connections() {
        let (addr, seen) = stub(Duration::from_millis(2));
        let gen = Generator::new(2);
        // Ask for far more workers than the limit, from two loops at
        // once (the stream-mixed shape).
        let keep = for_window(Duration::from_millis(200), 1000);
        std::thread::scope(|s| {
            let a = s.spawn(|| closed_loop(&gen, addr, 8, &keep, &ok));
            let b = s.spawn(|| {
                open_loop(
                    &gen,
                    addr,
                    8,
                    200.0,
                    Duration::from_millis(200),
                    &|| false,
                    &ok,
                )
            });
            let (calls, e1) = a.join().unwrap();
            let (sent, e2) = b.join().unwrap();
            // Whichever loop reserved second got what the first left.
            assert!(calls.len() + sent.len() > 0, "{e1:?} {e2:?}");
        });
        assert!(
            gen.threads.peak() <= 2,
            "threads peaked at {}",
            gen.threads.peak()
        );
        assert!(
            gen.conns.peak() <= 2,
            "connections peaked at {}",
            gen.conns.peak()
        );
        assert!(seen.load(Ordering::SeqCst) <= 2);
        // And a single loop does use every core it may.
        let gen = Generator::new(2);
        closed_loop(
            &gen,
            addr,
            8,
            &for_window(Duration::from_millis(50), 1000),
            &ok,
        );
        assert_eq!(gen.threads.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeded its limit")]
    fn gauge_refuses_to_go_past_its_limit() {
        let g = Gauge::new(1);
        let _a = g.enter();
        let _b = g.enter();
    }

    #[test]
    fn open_loop_keeps_its_schedule_and_charges_stalls() {
        // Each reply takes 30 ms on one connection while requests are
        // due every 10 ms: the generator falls behind, and later
        // requests' latency (from due time) grows with the backlog.
        let (addr, _) = stub(Duration::from_millis(30));
        let gen = Generator::new(1);
        let (sent, errors) = open_loop(
            &gen,
            addr,
            1,
            100.0,
            Duration::from_millis(100),
            &|| false,
            &ok,
        );
        assert!(errors.is_empty());
        assert_eq!(sent.len(), 10);
        for w in sent.windows(2) {
            let gap = (w[1].due - w[0].due).as_secs_f64();
            assert!((gap - 0.010).abs() < 1e-6, "gap {gap}");
        }
        let last = sent.last().unwrap();
        assert!(last.lateness() >= Duration::from_millis(150));
        assert!(last.latency() >= last.lateness() + Duration::from_millis(30));
    }
}
