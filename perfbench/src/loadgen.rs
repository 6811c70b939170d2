//! Open-loop load over keep-alive connections, and the capacity search
//! on a fixed ladder of offered rates.
//!
//! Requests follow a seeded arrival schedule whatever the server does:
//! each connection's thread sends every request that is due (pipelined,
//! at most `inflight_cap` unanswered) and reads responses while it
//! waits for the next due time. Latency runs from the **due** time, not
//! the send time, so a stalled server is charged for the wait it
//! imposes on every request due behind the stall, and the generator's
//! own lateness (send − due) is recorded separately.

use crate::stats::{self, Summary};
use mmvc_graph::rng::SplitMix64;
use mmvc_serve::client::read_response;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One planned request: when it is due (from the schedule's start),
/// which connection carries it, and which request body it sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub due_ns: u64,
    pub conn: usize,
    pub spec: usize,
}

/// Seeded Poisson arrivals at `rate` per second over `duration`, dealt
/// round-robin to `conns` connections; `pick(i)` chooses request `i`'s
/// body.
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    duration: Duration,
    conns: usize,
    mut pick: impl FnMut(usize) -> usize,
) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed);
    let end = duration.as_nanos() as f64;
    let mut t = 0.0f64;
    let mut plan = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate * 1e9;
        if t >= end {
            return plan;
        }
        let i = plan.len();
        plan.push(Planned {
            due_ns: t as u64,
            conn: i % conns.max(1),
            spec: pick(i),
        });
    }
}

/// How the response to one request turned out.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Record {
    /// Whether the request was sent (an aborted probe leaves the rest
    /// unsent; they are not attempted).
    pub sent: bool,
    /// Send time minus due time.
    pub late_ns: u64,
    /// Response time minus due time; `None` when no response came.
    pub latency_ns: Option<u64>,
    pub status: u16,
    /// The `x-cache` header: `Some(true)` hit, `Some(false)` miss.
    pub hit: Option<bool>,
    pub bytes: usize,
    /// Whether the body matched the expected bytes (true when unchecked).
    pub body_ok: bool,
}

impl Record {
    /// Sent, answered 200 and byte-correct.
    pub fn ok(&self) -> bool {
        self.latency_ns.is_some() && self.status == 200 && self.body_ok
    }
}

/// A load to drive against one server.
pub struct Load<'a> {
    pub addr: SocketAddr,
    /// Request body per spec id.
    pub bodies: &'a [Vec<u8>],
    /// Expected response body per spec id (`None`: not checked here).
    pub expected: &'a [Option<Vec<u8>>],
    /// Response bodies of unchecked specs kept per connection, for
    /// checking afterwards.
    pub keep_unchecked: usize,
    /// Most unanswered requests per connection.
    pub inflight_cap: usize,
    /// Stop sending once more than this many requests exceeded this
    /// latency (`(limit_ns, max_over)`); a probe that must fail ends
    /// early.
    pub abort_over: Option<(u64, usize)>,
    /// How long to wait for outstanding responses after the last send.
    pub drain: Duration,
}

/// Everything one [`drive`] call observed.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// One record per planned request, in plan order.
    pub records: Vec<Record>,
    /// `(request index, body)` of kept unchecked responses.
    pub kept: Vec<(usize, Vec<u8>)>,
    /// Schedule start to the last response.
    pub elapsed: Duration,
}

/// Drives `plan` open-loop: one thread per connection (the plan's
/// `conn` values), all timed against one shared start instant.
///
/// # Errors
///
/// Connection, write, or framing failures.
pub fn drive(load: &Load, plan: &[Planned]) -> io::Result<LoadResult> {
    let conns = plan.iter().map(|p| p.conn + 1).max().unwrap_or(0);
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); conns];
    for (i, p) in plan.iter().enumerate() {
        per_conn[p.conn].push(i);
    }
    let streams = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(load.addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<io::Result<Vec<_>>>()?;
    let over = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let start = Instant::now();
    let outputs = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&per_conn)
            .map(|(stream, mine)| {
                let ctl = Control {
                    load,
                    plan,
                    start,
                    over: &over,
                    abort: &abort,
                };
                scope.spawn(move || ctl.conn_loop(stream, mine))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load connection thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut result = LoadResult {
        records: vec![Record::default(); plan.len()],
        ..LoadResult::default()
    };
    let mut last = start;
    for output in outputs {
        let (records, kept, last_recv) = output?;
        for (i, rec) in records {
            result.records[i] = rec;
        }
        result.kept.extend(kept);
        last = last.max(last_recv.unwrap_or(start));
    }
    result.kept.sort_by_key(|&(i, _)| i);
    result.elapsed = last - start;
    Ok(result)
}

type ConnOutput = io::Result<(Vec<(usize, Record)>, Vec<(usize, Vec<u8>)>, Option<Instant>)>;

/// The state one connection thread shares with the others.
struct Control<'a> {
    load: &'a Load<'a>,
    plan: &'a [Planned],
    start: Instant,
    over: &'a AtomicUsize,
    abort: &'a AtomicBool,
}

impl Control<'_> {
    fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_nanos(self.plan[i].due_ns)
    }

    /// Counts a request past the abort latency; trips the abort flag.
    fn past_limit(&self, ns: u64) {
        if let Some((limit, max_over)) = self.load.abort_over {
            if ns > limit && self.over.fetch_add(1, Ordering::SeqCst) + 1 > max_over {
                self.abort.store(true, Ordering::SeqCst);
            }
        }
    }

    fn conn_loop(&self, mut stream: TcpStream, mine: &[usize]) -> ConnOutput {
        let load = self.load;
        let mut records: Vec<(usize, Record)> =
            mine.iter().map(|&i| (i, Record::default())).collect();
        let mut kept = Vec::new();
        let mut wbuf = Vec::new();
        let mut rbuf: Vec<u8> = Vec::with_capacity(64 << 10);
        let mut chunk = vec![0u8; 64 << 10];
        let mut inflight: VecDeque<usize> = VecDeque::new();
        let mut next = 0usize;
        let mut last_recv = None;
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let now = Instant::now();
            let stop = self.abort.load(Ordering::SeqCst);
            wbuf.clear();
            while !stop && next < mine.len() && inflight.len() < load.inflight_cap {
                let due = self.due(mine[next]);
                if due > now {
                    break;
                }
                let body = &load.bodies[self.plan[mine[next]].spec];
                wbuf.extend_from_slice(
                    format!(
                        "POST /run HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
                        body.len()
                    )
                    .as_bytes(),
                );
                wbuf.extend_from_slice(body);
                let rec = &mut records[next].1;
                rec.sent = true;
                rec.late_ns = (now - due).as_nanos() as u64;
                self.past_limit(rec.late_ns);
                inflight.push_back(next);
                next += 1;
            }
            if !wbuf.is_empty() {
                stream.write_all(&wbuf)?;
            }
            let sending_done = stop || next == mine.len();
            if inflight.is_empty() {
                if sending_done {
                    break;
                }
                std::thread::sleep(
                    self.due(mine[next])
                        .saturating_duration_since(Instant::now()),
                );
                continue;
            }
            if sending_done && now >= *drain_deadline.get_or_insert(now + load.drain) {
                break;
            }
            let wait = if sending_done || inflight.len() >= load.inflight_cap {
                Duration::from_millis(10)
            } else {
                self.due(mine[next]).saturating_duration_since(now)
            };
            stream.set_read_timeout(Some(
                wait.clamp(Duration::from_micros(20), Duration::from_millis(10)),
            ))?;
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
            let recv = Instant::now();
            let mut consumed = 0;
            while let Some(len) = frame_len(&rbuf[consumed..]) {
                let resp = read_response(&mut &rbuf[consumed..consumed + len])?;
                consumed += len;
                let pos = inflight
                    .pop_front()
                    .ok_or_else(|| bad("a response arrived with no request outstanding"))?;
                let (idx, rec) = &mut records[pos];
                let spec = self.plan[*idx].spec;
                let latency = recv.saturating_duration_since(self.due(*idx)).as_nanos() as u64;
                rec.latency_ns = Some(latency);
                rec.status = resp.status;
                rec.hit = match resp.header("x-cache") {
                    Some("hit") => Some(true),
                    Some("miss") => Some(false),
                    _ => None,
                };
                rec.bytes = resp.body.len();
                rec.body_ok = match &load.expected[spec] {
                    Some(expected) => *expected == resp.body,
                    None => {
                        if kept.len() < load.keep_unchecked {
                            kept.push((*idx, resp.body));
                        }
                        true
                    }
                };
                self.past_limit(latency);
                last_recv = Some(recv);
            }
            rbuf.drain(..consumed);
        }
        Ok((records, kept, last_recv))
    }
}

/// Length of the first complete response frame in `buf`, if any.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let body = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    (buf.len() >= head_end + body).then_some(head_end + body)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// The verdict on one offered rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    pub rate: f64,
    pub pass: bool,
    /// Completed requests per second of schedule time.
    pub achieved: f64,
    pub p99_ms: f64,
}

/// How much schedule time one latency window covers.
pub const WINDOW_SECONDS: f64 = 0.5;

/// Requests per window at `rate`: [`WINDOW_SECONDS`] of the schedule,
/// and never fewer than 1000 so a window's p99 has ten samples beyond it.
pub fn window_len(rate: f64) -> usize {
    ((rate * WINDOW_SECONDS) as usize).max(1000)
}

/// A request's latency in milliseconds as a tail sees it: failed,
/// refused and unanswered requests miss every limit.
fn charged_ms(r: &Record) -> f64 {
    match r.latency_ns {
        Some(ns) if r.ok() => ns as f64 / 1e6,
        _ => f64::INFINITY,
    }
}

/// The `p`-th percentile latency of each window of `window` consecutive
/// requests (in due order), and the median of those per-window values.
/// A host stall that hits one window moves that window's value, not the
/// median; a slower server or a growing backlog moves every window.
pub fn windowed(records: &[Record], window: usize, p: f64) -> Summary {
    let n = records.len();
    let windows = (n / window.max(1)).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let lat: Vec<f64> = records[w * n / windows..(w + 1) * n / windows]
                .iter()
                .map(charged_ms)
                .collect();
            stats::percentile(&lat, p)
        })
        .collect();
    Summary {
        value: stats::median(&per_window),
        samples: n,
        percentile: p,
        supported: stats::beyond(n / windows, p) >= stats::MIN_BEYOND,
    }
}

/// Judges one probe: it passes when every planned request was sent and
/// answered correctly, the windowed p99 latency (from due time) is
/// within `limit_ms`, and no backlog was growing at the end (the median
/// latency of the last window is within the limit too). Refused or
/// failed requests count as missing the limit.
pub fn judge(rate: f64, records: &[Record], elapsed: Duration, limit_ms: f64) -> Probe {
    let window = window_len(rate);
    let p99 = windowed(records, window, 99.0).value;
    let last: Vec<f64> = records[records.len().saturating_sub(window)..]
        .iter()
        .map(charged_ms)
        .collect();
    let completed = records.iter().filter(|r| r.ok()).count();
    Probe {
        rate,
        pass: !records.is_empty()
            && records.iter().all(|r| r.sent)
            && p99 <= limit_ms
            && stats::median(&last) <= limit_ms,
        achieved: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        p99_ms: p99,
    }
}

/// The offered rates of the capacity ladder: geometric from `lo` by
/// `ratio` while at most `hi`.
pub fn ladder(lo: f64, hi: f64, ratio: f64) -> Vec<f64> {
    std::iter::successors(Some(lo), |r| Some(r * ratio))
        .take_while(|&r| r <= hi)
        .collect()
}

/// The highest passing rung, found by bisection (passing is taken to be
/// monotone in the offered rate). Every probe is returned as well, in
/// the order run.
pub fn capacity_search<E>(
    rungs: &[f64],
    mut probe: impl FnMut(f64) -> Result<Probe, E>,
) -> Result<(Option<Probe>, Vec<Probe>), E> {
    let (mut lo, mut hi) = (-1i64, rungs.len() as i64);
    let mut best = None;
    let mut tried = Vec::new();
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let p = probe(rungs[mid as usize])?;
        tried.push(p);
        if p.pass {
            lo = mid;
            best = Some(p);
        } else {
            hi = mid;
        }
    }
    Ok((best, tried))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_serve::http::parse_head;
    use std::net::TcpListener;

    /// A one-connection HTTP server that holds its first response for
    /// `stall`, then answers everything at once.
    fn stalling_server(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut first = true;
            loop {
                let n = s.read(&mut chunk).unwrap_or(0);
                if n == 0 {
                    return;
                }
                buf.extend_from_slice(&chunk[..n]);
                while let Ok(Some((head, used))) = parse_head(&buf) {
                    if buf.len() < used + head.content_length {
                        break;
                    }
                    buf.drain(..used + head.content_length);
                    if first {
                        std::thread::sleep(stall);
                        first = false;
                    }
                    let reply = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nx-cache: hit\r\n\r\n{}";
                    s.write_all(reply.as_bytes()).unwrap();
                }
            }
        });
        (addr, handle)
    }

    fn every_10ms(count: usize) -> Vec<Planned> {
        (0..count)
            .map(|i| Planned {
                due_ns: i as u64 * 10_000_000,
                conn: 0,
                spec: 0,
            })
            .collect()
    }

    fn run_against_stall(inflight_cap: usize) -> LoadResult {
        let stall = Duration::from_millis(200);
        let (addr, server) = stalling_server(stall);
        let bodies = vec![b"{}".to_vec()];
        let expected = vec![Some(b"{}".to_vec())];
        let load = Load {
            addr,
            bodies: &bodies,
            expected: &expected,
            keep_unchecked: 0,
            inflight_cap,
            abort_over: None,
            drain: Duration::from_secs(5),
        };
        let result = drive(&load, &every_10ms(40)).unwrap();
        server.join().unwrap();
        result
    }

    #[test]
    fn latency_runs_from_the_due_time_through_a_stalled_server() {
        for cap in [64, 1] {
            let result = run_against_stall(cap);
            assert!(result.records.iter().all(Record::ok), "cap {cap}");
            for (i, rec) in result.records.iter().enumerate() {
                let due_ms = i as f64 * 10.0;
                let lat_ms = rec.latency_ns.unwrap() as f64 / 1e6;
                if due_ms < 180.0 {
                    // Everything due during the stall waits for it to end.
                    assert!(
                        lat_ms >= 200.0 - due_ms - 1.0,
                        "cap {cap}: request {i} due {due_ms} ms took {lat_ms} ms"
                    );
                }
            }
            let last = result.records.last().unwrap();
            assert!(
                last.latency_ns.unwrap() < 100_000_000,
                "cap {cap}: recovered"
            );
            if cap == 1 {
                // With one request in flight the sends themselves fall
                // behind, and that lateness is recorded too.
                assert!(result.records[5].late_ns >= 100_000_000);
            } else {
                assert!(result.records[5].late_ns < 50_000_000);
            }
        }
    }

    /// A single-server FIFO queue with a fixed cost per request, driven
    /// by the same schedule and judged by the same rule as real probes.
    fn fixed_cost_probe(rate: f64, cost_ns: u64, limit_ms: f64) -> Probe {
        let plan = poisson_schedule(7, rate, Duration::from_secs(2), 1, |_| 0);
        let mut free_at = 0u64;
        let mut last = 0u64;
        let records: Vec<Record> = plan
            .iter()
            .map(|p| {
                free_at = free_at.max(p.due_ns) + cost_ns;
                last = free_at;
                Record {
                    sent: true,
                    latency_ns: Some(free_at - p.due_ns),
                    status: 200,
                    body_ok: true,
                    ..Record::default()
                }
            })
            .collect();
        judge(rate, &records, Duration::from_nanos(last), limit_ms)
    }

    #[test]
    fn capacity_search_finds_the_knee_of_a_fixed_cost_service() {
        let cost_ns = 1_000_000; // 1 ms per request: saturates at 1000/s
        let limit_ms = 20.0;
        let rungs = ladder(100.0, 10_000.0, 1.1);
        let (best, tried) = capacity_search(&rungs, |r| {
            Ok::<_, ()>(fixed_cost_probe(r, cost_ns, limit_ms))
        })
        .unwrap();
        let best = best.expect("the lowest rung passes");
        assert!(tried.len() <= 7, "bisection, not a scan: {}", tried.len());
        assert!(
            (700.0..=1000.0).contains(&best.rate),
            "capacity {} for a 1000/s service",
            best.rate
        );
        assert!((best.achieved / best.rate - 1.0).abs() < 0.1);
        let above = rungs[rungs.iter().position(|&r| r == best.rate).unwrap() + 1];
        assert!(!fixed_cost_probe(above, cost_ns, limit_ms).pass);
    }

    #[test]
    fn schedule_is_seeded_and_hits_its_rate() {
        let a = poisson_schedule(3, 1000.0, Duration::from_secs(4), 2, |i| i % 5);
        let b = poisson_schedule(3, 1000.0, Duration::from_secs(4), 2, |i| i % 5);
        assert_eq!(a, b);
        assert!((3800..4200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert_eq!(a[3].conn, 1);
        assert_ne!(
            a,
            poisson_schedule(4, 1000.0, Duration::from_secs(4), 2, |i| i % 5)
        );
    }

    #[test]
    fn refused_requests_miss_the_limit() {
        let ok = Record {
            sent: true,
            latency_ns: Some(1),
            status: 200,
            body_ok: true,
            ..Record::default()
        };
        let refused = Record { status: 503, ..ok };
        let mut records = vec![ok; 98];
        records.extend([refused, refused]);
        assert!(!judge(1.0, &records, Duration::from_secs(1), 1.0).pass);
        assert!(judge(1.0, &records[..98], Duration::from_secs(1), 1.0).pass);
    }

    #[test]
    fn windowed_tail_shrugs_off_a_stall_in_one_window_but_not_a_slow_server() {
        let at = |ms: u64| Record {
            sent: true,
            latency_ns: Some(ms * 1_000_000),
            status: 200,
            body_ok: true,
            ..Record::default()
        };
        let mut records = vec![at(1); 10_000];
        records[3000..4000].fill(at(500));
        let tail = windowed(&records, 1000, 99.0);
        assert_eq!(
            (tail.value, tail.samples, tail.supported),
            (1.0, 10_000, true)
        );
        records[..6000].fill(at(500));
        assert_eq!(windowed(&records, 1000, 99.0).value, 500.0);
        // A few extra requests join the last window rather than forming
        // a thin window of their own.
        records.extend([at(1); 500]);
        assert!(windowed(&records, 1000, 99.0).supported);
    }
}
