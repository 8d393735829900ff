//! Load generators: the closed-loop in-process reader, the mutation
//! writer, and the open-loop HTTP sender. Each times only the call into
//! the program; checks and bookkeeping happen outside the timed calls.

use crate::inputs::{Inputs, QueryStream, Sampler};
use crate::oracle::Op;
use crate::stats::{percentile, sorted};
use crate::system::Requests;
use gc_core::{PipelineStage, SharedGraphCache};
use gc_graph::{BitSet, GraphId};
use gc_server::HttpClient;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Mutations started and finished so far: a query that read `done = a`
/// before it ran and `started = b` after it returned saw a generation in
/// `a..=b`.
#[derive(Debug, Default)]
pub struct Generations {
    pub started: AtomicU64,
    pub done: AtomicU64,
}

/// One answer kept for the check.
pub struct Kept {
    pub idx: usize,
    pub lo: u64,
    pub hi: u64,
    pub answer: BitSet,
}

/// What a closed-loop reader recorded.
#[derive(Default)]
pub struct ReadLog {
    pub lat_ns: Vec<f64>,
    pub elapsed: Duration,
    /// Each `run_until` call's throughput (queries/s) and latency
    /// percentiles.
    pub windows: Vec<Window>,
    pub kept: Vec<Kept>,
    /// `(pool index, call ns)` of every traced query.
    pub traced: Vec<(usize, u64)>,
}

pub struct Reader<'a> {
    pub cache: &'a SharedGraphCache,
    pub inputs: &'a Inputs,
    pub stream: QueryStream,
    pub sampler: Sampler,
    pub gens: &'a Generations,
    pub pos: u64,
}

impl Reader<'_> {
    /// Query back to back until `until`. A traced segment keeps every
    /// answer and call time; otherwise only the sampled positions' answers.
    pub fn run_until(&mut self, until: Instant, traced: bool, log: &mut ReadLog) {
        let start = Instant::now();
        let before = log.lat_ns.len();
        loop {
            let idx = self.stream.next_index();
            let (q, kind) = &self.inputs.pool[idx];
            let lo = self.gens.done.load(Ordering::SeqCst);
            let t = Instant::now();
            if t >= until {
                break;
            }
            let report = self.cache.query(q, *kind);
            let ns = t.elapsed().as_nanos() as u64;
            let hi = self.gens.started.load(Ordering::SeqCst);
            log.lat_ns.push(ns as f64);
            if traced {
                log.traced.push((idx, ns));
            }
            if traced || self.sampler.hit(self.pos) {
                log.kept.push(Kept { idx, lo, hi, answer: report.answer });
            }
            self.pos += 1;
        }
        let took = start.elapsed();
        log.elapsed += took;
        log.windows.push(Window::of(&log.lat_ns[before..], took));
    }
}

/// One measurement window: throughput and latency percentiles, µs.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub rate: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Window {
    pub fn of(lat_ns: &[f64], took: Duration) -> Window {
        let lat = sorted(lat_ns.to_vec());
        let us = |p| percentile(&lat, p).unwrap_or(0.0) / 1e3;
        Window { rate: lat.len() as f64 / took.as_secs_f64(), p50_us: us(50.0), p99_us: us(99.0) }
    }
}

/// Cache counters that per-layer metrics are deltas of.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub queries: u64,
    pub memo_hits: u64,
    pub exact_hits: u64,
    pub hit_queries: u64,
    pub case_hits: u64,
    pub tests: u64,
    pub probe_tests: u64,
    pub evicted: u64,
    pub admission_rejected: u64,
    /// Stage-histogram sums, µs, in [`PipelineStage::ALL`] order. Each
    /// observation is cut to whole µs, so a sum reads low by less than
    /// its stage's observation count in µs.
    pub stage_us: [u64; 6],
    /// Stage-histogram observation counts, same order.
    pub stage_n: [u64; 6],
}

impl Counters {
    pub fn read(cache: &SharedGraphCache) -> Counters {
        let s = cache.monitor().snapshot();
        let (mut stage_us, mut stage_n) = ([0; 6], [0; 6]);
        for (i, stage) in PipelineStage::ALL.into_iter().enumerate() {
            let hist = cache.telemetry().stage(stage);
            stage_us[i] = hist.sum_us();
            stage_n[i] = hist.count();
        }
        Counters {
            queries: s.queries,
            memo_hits: s.memo_hits,
            exact_hits: s.exact_hits,
            hit_queries: s.hit_queries,
            case_hits: s.sub_hits + s.super_hits,
            tests: s.tests_executed,
            probe_tests: s.probe_tests,
            evicted: s.evicted,
            admission_rejected: s.admission_rejected,
            stage_us,
            stage_n,
        }
    }

    /// Add `after - before` into `self`.
    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        self.queries += after.queries - before.queries;
        self.memo_hits += after.memo_hits - before.memo_hits;
        self.exact_hits += after.exact_hits - before.exact_hits;
        self.hit_queries += after.hit_queries - before.hit_queries;
        self.case_hits += after.case_hits - before.case_hits;
        self.tests += after.tests - before.tests;
        self.probe_tests += after.probe_tests - before.probe_tests;
        self.evicted += after.evicted - before.evicted;
        self.admission_rejected += after.admission_rejected - before.admission_rejected;
        for i in 0..6 {
            self.stage_us[i] += after.stage_us[i] - before.stage_us[i];
            self.stage_n[i] += after.stage_n[i] - before.stage_n[i];
        }
    }

    /// A stage's summed µs and its observation count.
    pub fn stage(&self, stage: PipelineStage) -> (u64, u64) {
        let i = PipelineStage::ALL.iter().position(|s| *s == stage).expect("stage in ALL");
        (self.stage_us[i], self.stage_n[i])
    }

    pub fn stage_sum(&self) -> u64 {
        self.stage_us.iter().sum()
    }
}

/// The mutation sequence: inserts of fresh graphs alternate with removes
/// of random live graphs, all drawn from the seed.
pub struct Mutator {
    rng: StdRng,
    live: Vec<GraphId>,
    next_fresh: usize,
    k: u64,
}

#[derive(Debug, Clone, Copy)]
pub enum Planned {
    Insert(usize),
    Remove(GraphId),
}

impl Mutator {
    pub fn new(seed: u64, dataset_len: usize) -> Mutator {
        Mutator {
            rng: StdRng::seed_from_u64(seed ^ 0x6d75_7461_7465),
            live: (0..dataset_len as GraphId).collect(),
            next_fresh: 0,
            k: 0,
        }
    }

    pub fn plan(&mut self) -> Planned {
        self.k += 1;
        if self.k % 2 == 1 {
            self.next_fresh += 1;
            Planned::Insert(self.next_fresh - 1)
        } else {
            let at = self.rng.gen_range(0..self.live.len());
            Planned::Remove(self.live.swap_remove(at))
        }
    }

    pub fn inserted(&mut self, gid: GraphId) {
        self.live.push(gid);
    }
}

/// What the mutation side recorded.
#[derive(Default)]
pub struct MutLog {
    /// Latency from the due time.
    pub lat_ns: Vec<f64>,
    pub late_ns: Vec<f64>,
    pub insert_ns: Vec<f64>,
    pub remove_ns: Vec<f64>,
    /// Cached entries each mutation had to repair (traced runs).
    pub repaired: Vec<f64>,
    pub ops: Vec<Op>,
    pub attempted: u64,
    pub failed: u64,
}

/// Apply one planned mutation in-process.
fn mutate(
    cache: &SharedGraphCache,
    inputs: &Inputs,
    m: &mut Mutator,
    gens: &Generations,
    traced: bool,
    log: &mut MutLog,
) {
    let planned = m.plan();
    if traced {
        log.repaired.push(cache.len() as f64);
    }
    log.attempted += 1;
    gens.started.fetch_add(1, Ordering::SeqCst);
    match planned {
        Planned::Insert(fresh) => {
            let graph = inputs.fresh[fresh].clone();
            let t = Instant::now();
            let gid = cache.insert_graph(graph);
            let took = t.elapsed();
            m.inserted(gid);
            log.ops.push(Op::Insert { gid, fresh });
            log.insert_ns.push(took.as_nanos() as f64);
        }
        Planned::Remove(gid) => {
            let t = Instant::now();
            let applied = cache.remove_graph(gid);
            let took = t.elapsed();
            if applied {
                log.ops.push(Op::Remove { gid });
            } else {
                log.failed += 1;
            }
            log.remove_ns.push(took.as_nanos() as f64);
        }
    }
    gens.done.fetch_add(1, Ordering::SeqCst);
}

/// Open-loop writer: one mutation due every `1/rate` s from now until
/// `until`, each timed from its due time.
pub fn write_open_loop(
    cache: &SharedGraphCache,
    inputs: &Inputs,
    m: &mut Mutator,
    gens: &Generations,
    rate: f64,
    until: Instant,
    traced: bool,
) -> MutLog {
    let mut log = MutLog::default();
    let t0 = Instant::now();
    for k in 0u64.. {
        let due = t0 + Duration::from_secs_f64(k as f64 / rate);
        if due >= until {
            break;
        }
        wait_until(due);
        log.late_ns.push(due.elapsed().as_nanos() as f64);
        mutate(cache, inputs, m, gens, traced, &mut log);
        log.lat_ns.push(due.elapsed().as_nanos() as f64);
    }
    log
}

/// Sleep until `due`, spinning through the last stretch so wake-up jitter
/// does not count as lateness.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One request of an open loop.
pub struct Sent {
    pub idx: usize,
    pub status: u16,
    /// From the due time to the full response.
    pub lat_ns: f64,
    pub late_ns: f64,
    /// From the write of the request to the full response.
    pub rt_ns: f64,
    pub body: Option<Vec<u8>>,
}

/// Send `idxs` at `rate` over the clients (request `i` on client
/// `i % clients`), each due at `t0 + i / rate`. `keep(i)` selects the
/// responses whose bodies are kept. With `abort_late`, the loop stops once
/// any request would be sent later than that (a growing backlog); the
/// return flag says whether it did.
pub fn send_open_loop(
    clients: &mut [HttpClient],
    requests: &Requests,
    idxs: &[usize],
    rate: f64,
    keep: &(dyn Fn(usize) -> bool + Sync),
    abort_late: Option<Duration>,
) -> (Vec<Sent>, bool) {
    let n_clients = clients.len();
    let aborted = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(1);
    let sent = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let aborted = &aborted;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in (c..idxs.len()).step_by(n_clients) {
                        if aborted.load(Ordering::Relaxed) {
                            break;
                        }
                        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due);
                        let send = Instant::now();
                        let late = send - due;
                        if abort_late.is_some_and(|limit| late > limit) {
                            aborted.store(true, Ordering::Relaxed);
                            break;
                        }
                        let idx = idxs[i];
                        let resp = client.post(requests.paths[idx], &requests.bodies[idx]);
                        let done = Instant::now();
                        let (status, body) = match resp {
                            Ok(r) => (r.status, r.body),
                            Err(_) => (0, Vec::new()),
                        };
                        out.push(Sent {
                            idx,
                            status,
                            lat_ns: (done - due).as_nanos() as f64,
                            late_ns: late.as_nanos() as f64,
                            rt_ns: (done - send).as_nanos() as f64,
                            body: keep(i).then_some(body),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop sender panicked"))
            .collect::<Vec<_>>()
    });
    (sent, aborted.into_inner())
}

/// Closed loop over the clients: each sends its next request as soon as
/// the previous one returns, until `until`, taking pool indices from
/// `idxs` in order from position `from` (wrapping). Latency is the round
/// trip; `keep(i)` selects the responses whose bodies are kept. Every
/// position taken is sent, so the next call continues at `from` plus the
/// number returned.
pub fn send_closed_loop(
    clients: &mut [HttpClient],
    requests: &Requests,
    idxs: &[usize],
    from: usize,
    keep: &(dyn Fn(usize) -> bool + Sync),
    until: Instant,
) -> Vec<Sent> {
    let next = std::sync::atomic::AtomicUsize::new(from);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let send = Instant::now();
                        if send >= until {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let idx = idxs[i % idxs.len()];
                        let resp = client.post(requests.paths[idx], &requests.bodies[idx]);
                        let done = Instant::now();
                        let rt = (done - send).as_nanos() as f64;
                        let (status, body) = resp.map_or((0, Vec::new()), |r| (r.status, r.body));
                        let body = keep(i).then_some(body);
                        out.push(Sent { idx, status, lat_ns: rt, late_ns: 0.0, rt_ns: rt, body });
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("closed-loop sender panicked")).collect()
    })
}
