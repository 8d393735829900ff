//! The repository benchmark: three seeded workloads over the GraphCache
//! stack, end-to-end metrics with tracing off, per-layer metrics from a
//! traced run, and an answer check against Method M on every run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform_cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are a table of
//! the same metrics with their sample counts. A wrong answer, a stage sum
//! that exceeds its call time, or a failed operation makes the run exit
//! with a non-zero code.

mod inputs;
mod load;
mod oracle;
mod ratesearch;
mod report;
mod stats;
mod system;

use gc_core::{CacheConfig, PipelineStage, PolicyKind, SharedGraphCache};
use gc_method::{Dataset, Engine, FtvMethod, Method, QueryKind};
use gc_server::QueryResponse;
use gc_store::CacheStore;
use inputs::{Draw, Inputs, QueryStream, Sampler};
use load::{Counters, Generations, Kept, MutLog, Mutator, ReadLog, Reader, Sent, Window};
use oracle::{Checked, Op, Oracle, FTV_L};
use report::{Values, END_TO_END, PER_LAYER};
use stats::{percentile, sorted};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use system::{Edge, Footprint, Requests, System};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Open-loop mutation rate of `mutate_mix`, per second. Each mutation
/// stalls the single reader once, for the write lock's hold time, so at
/// 5/s the stalled queries stay near 0.3% of ~1,600 queries/s and the
/// reader's p99 measures its own tail; at 10/s they sit at the p99 rank
/// itself and the figure flips between the two populations from run to
/// run.
const MUTATION_RATE: f64 = 5.0;
/// Untimed one-second windows a run queries before its first timed one,
/// while the memo and the cache finish filling.
const WARMUP_WINDOWS: u32 = 1;
/// Timed runs check the answer of one stream position in this many.
const CHECK_PERIOD: u64 = 64;
/// Traced runs alternate untraced and traced segments of this length.
const SEGMENT: Duration = Duration::from_secs(1);
/// Offered rate of `http_open`'s traced open loop, requests/s: low enough
/// that a request seldom waits behind the previous one on its connection,
/// high enough that idle wake-ups do not dominate (on a 2-vCPU guest,
/// 200/s read ~1.5x slower and noisier than 500/s).
const NOMINAL_RPS: f64 = 500.0;
/// Share of a traced `http_open` run spent in the open loop; the rest
/// runs the rate search (`server.max_rps`).
const NOMINAL_SHARE: f64 = 0.5;
/// Latency limit of the rate search, on p99 from the due time.
const P99_LIMIT: Duration = Duration::from_millis(10);
/// Pool indices the closed loop cycles through.
const CLOSED_LOOP_IDXS: usize = 100_000;
/// Rate-search bounds and probe count, requests/s.
const SEARCH_RATES: (f64, f64) = (250.0, 64_000.0);
const SEARCH_TRIALS: usize = 12;
/// Distinct queries whose candidates the VF2 replay re-verifies.
const ISO_REPLAY_QUERIES: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    UniformCold,
    MutateMix,
    HttpOpen,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "uniform_cold" => Workload::UniformCold,
            "mutate_mix" => Workload::MutateMix,
            "http_open" => Workload::HttpOpen,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::UniformCold => "uniform_cold",
            Workload::MutateMix => "mutate_mix",
            Workload::HttpOpen => "http_open",
        }
    }

    fn pool_size(self) -> usize {
        if self == Workload::UniformCold {
            20_000
        } else {
            2_000
        }
    }

    fn draw(self) -> Draw {
        if self == Workload::UniformCold {
            Draw::Uniform
        } else {
            Draw::Zipf(1.1)
        }
    }

    fn edge(self) -> Edge {
        match self {
            Workload::MutateMix => Edge::Store,
            Workload::HttpOpen => Edge::Http,
            Workload::UniformCold => Edge::InProcess,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(30);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            let metrics = out.values.select(if args.trace { PER_LAYER } else { END_TO_END });
            print!("{}", report::table(&metrics));
            for p in &out.problems {
                eprintln!("perfbench: {p}");
            }
            let correct = out.problems.is_empty();
            println!("{}", report::result_line(&metrics, correct, out.attempted, out.failed));
            if !correct || out.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What a run produced.
#[derive(Default)]
struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
    /// Wrong answers and failed reconciliations; any one fails the run.
    problems: Vec<String>,
}

/// Scratch space inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    const ROOT: &'static str = ".perfbench_tmp";

    fn create(workload: Workload) -> Result<WorkDir, String> {
        let dir = Path::new(Self::ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(Self::ROOT);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    // Half of the writer's mutations insert a fresh graph.
    let fresh = (MUTATION_RATE * args.seconds as f64 / 2.0).ceil() as usize;
    let inputs = Inputs::generate(w.pool_size(), w.draw(), fresh);
    let requests = (w.edge() == Edge::Http).then(|| Requests::encode(&inputs));
    let work = WorkDir::create(w)?;
    let store_dir = work.0.join("store");

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built: Option<System> = None;
    for _ in 0..SETUP_REPS {
        if let Some(earlier) = built.take() {
            earlier.teardown();
        }
        let (sys, took) = system::build(&inputs, w.edge(), requests.as_ref(), &store_dir)?;
        setup_s.push(took.as_secs_f64());
        built = Some(sys);
    }
    let mut sys = built.expect("at least one set-up");
    let stream = inputs.stream(args.seed);

    let mut out = Outcome::default();
    out.values.set("setup_s", stats::median(&setup_s).unwrap_or(0.0), SETUP_REPS as u64);
    let result = match w {
        Workload::HttpOpen => {
            let requests = requests.as_ref().expect("http requests encoded");
            run_http(args, &inputs, &mut sys, stream, requests, &mut out)
        }
        _ => run_in_process(args, &inputs, &sys, stream, &work.0, &mut out),
    };
    sys.teardown();
    result?;
    let (failed, attempted) = (out.failed as f64, out.attempted as f64);
    let n = out.attempted;
    out.values.ratio("gen.error_rate", ("gen.failed", failed), ("gen.attempted", attempted), n);
    out.values.set("proc.rss_bytes", system::rss_bytes() as f64, 1);
    Ok(out)
}

// ---- in-process workloads ---------------------------------------------------

fn run_in_process(
    args: &Args,
    inputs: &Inputs,
    sys: &System,
    stream: QueryStream,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let w = args.workload;
    let mut mutator = Mutator::new(args.seed, inputs.graphs.len());
    let cache = Arc::clone(&sys.cache);
    let cache: &SharedGraphCache = &cache;
    let gens = Generations::default();
    let mut reader = Reader {
        cache,
        inputs,
        stream,
        sampler: Sampler::new(args.seed, CHECK_PERIOD),
        gens: &gens,
        pos: 0,
    };
    let (mut traced, mut untraced) = (ReadLog::default(), ReadLog::default());
    let mut acc = Counters::default();
    reader.run_until(Instant::now() + SEGMENT * WARMUP_WINDOWS, false, &mut ReadLog::default());

    let end = Instant::now() + Duration::from_secs(args.seconds);
    let writer_log = std::thread::scope(|scope| {
        let writer = (w == Workload::MutateMix).then(|| {
            let (m, gens) = (&mut mutator, &gens);
            scope.spawn(move || {
                load::write_open_loop(cache, inputs, m, gens, MUTATION_RATE, end, args.trace)
            })
        });
        // One-second windows; a traced run alternates untraced and traced
        // windows.
        for k in 0..args.seconds {
            let until = Instant::now() + SEGMENT;
            if args.trace && k % 2 == 1 {
                let before = Counters::read(cache);
                reader.run_until(until, true, &mut traced);
                acc.add_delta(&before, &Counters::read(cache));
            } else {
                reader.run_until(until, false, &mut untraced);
            }
        }
        writer.map(|h| h.join().expect("mutation writer panicked"))
    });

    // The writer's mutations, timed from due times.
    let writes = writer_log.unwrap_or_default();
    let ops = &writes.ops;
    let mut oracle = Oracle::new(inputs);
    let kept = traced.kept.iter().chain(&untraced.kept);
    check_kept(&mut oracle, kept, ops, out);
    let queries = (traced.lat_ns.len() + untraced.lat_ns.len()) as u64;
    out.attempted += queries;
    if w == Workload::MutateMix {
        out.attempted += writes.attempted;
        out.failed += writes.failed;
        report_mutations(&writes, out);
    }

    let footprint = Footprint::measure(cache, oracle.method.index_memory_bytes());
    out.values.set("memory_bytes", footprint.total() as f64, 1);

    if args.trace {
        report_footprint(&footprint, cache, out);
        let calls: Vec<(usize, f64)> =
            traced.traced.iter().map(|&(idx, ns)| (idx, ns as f64 / 1e3)).collect();
        report_core(&acc, &calls, out);
        report_replay(&mut oracle, inputs, &calls, acc.tests + acc.probe_tests, out);
        let qps = |l: &ReadLog| l.lat_ns.len() as f64 / l.elapsed.as_secs_f64();
        let (plain, with) = (qps(&untraced), qps(&traced));
        out.values.set("trace.overhead_pct", (plain - with) / plain * 100.0, 2);
        if w == Workload::MutateMix {
            let late = sorted(writes.late_ns.clone());
            out.values.set("gen.late_us_p99", pct_us(&late, 99.0), late.len() as u64);
            report_store(inputs, sys, work, writes.ops.len() as u64, out)?;
        }
    } else {
        report_windows(&untraced.windows, untraced.lat_ns.len(), out);
    }
    Ok(())
}

fn check_kept<'k>(
    oracle: &mut Oracle,
    kept: impl Iterator<Item = &'k Kept>,
    ops: &[Op],
    out: &mut Outcome,
) {
    for k in kept {
        let c = Checked { idx: k.idx, lo: k.lo, hi: k.hi, answer: k.answer.to_vec() };
        check_one(oracle, &c, ops, out);
    }
}

fn check_one(oracle: &mut Oracle, c: &Checked, ops: &[Op], out: &mut Outcome) {
    if !oracle.check(c, ops) {
        out.problems.push(format!(
            "answer mismatch: pool query {} at generations {}..={} ({} answers)",
            c.idx,
            c.lo,
            c.hi,
            c.answer.len()
        ));
    }
}

/// `query_*` from windows of the run: the median window's throughput, p50
/// and p99. Medians over windows keep a slow phase of the host from moving
/// a whole run's figure.
fn report_windows(windows: &[Window], samples: usize, out: &mut Outcome) {
    let med = |f: fn(&Window) -> f64| stats::median(&windows.iter().map(f).collect::<Vec<_>>());
    let n = samples as u64;
    out.values.set("query_qps", med(|w| w.rate).unwrap_or(0.0), n);
    out.values.set("query_p50_us", med(|w| w.p50_us).unwrap_or(0.0), n);
    out.values.set("query_p99_us", med(|w| w.p99_us).unwrap_or(0.0), n);
}

fn pct_us(sorted_ns: &[f64], p: f64) -> f64 {
    percentile(sorted_ns, p).map_or(0.0, |ns| ns / 1e3)
}

fn report_mutations(log: &MutLog, out: &mut Outcome) {
    let lat = sorted(log.lat_ns.clone());
    let n = lat.len() as u64;
    out.values.set("core.mutate_us_p50", pct_us(&lat, 50.0), n);
    out.values.set("core.mutate_us_p95", pct_us(&lat, 95.0), n);
    let ins = sorted(log.insert_ns.clone());
    let rem = sorted(log.remove_ns.clone());
    out.values.set("core.insert_us_p50", pct_us(&ins, 50.0), ins.len() as u64);
    out.values.set("core.remove_us_p50", pct_us(&rem, 50.0), rem.len() as u64);
    if !log.repaired.is_empty() {
        let mean = log.repaired.iter().sum::<f64>() / log.repaired.len() as f64;
        out.values.set("core.repair_entries_per_mutation", mean, log.repaired.len() as u64);
    }
}

fn report_footprint(f: &Footprint, cache: &SharedGraphCache, out: &mut Outcome) {
    let v = &mut out.values;
    v.ratio(
        "core.cache_index_ratio",
        ("core.cache_bytes", f.cache as f64),
        ("method.index_bytes", f.method_index as f64),
        1,
    );
    v.set("method.dataset_bytes", f.graphs as f64, 1);
    v.set("method.profile_bytes", f.profiles as f64, 1);
    v.set("method.op_log_bytes", f.op_log as f64, 1);
    v.set("method.ops_len", f.ops as f64, 1);
    let health = cache.index_health();
    v.set("index.distinct_features", health.distinct_features as f64, 1);
    v.set("index.tombstone_ratio", health.tombstone_ratio(), 1);
}

/// Pipeline stages, hit ratios and reconciliation over the traced
/// queries. `calls` holds `(pool index, call µs)` of exactly the queries
/// `acc` counted.
fn report_core(acc: &Counters, calls: &[(usize, f64)], out: &mut Outcome) {
    let n = calls.len() as f64;
    let samples = calls.len() as u64;
    if acc.queries != samples {
        out.problems.push(format!(
            "the cache counted {} queries where the benchmark sent {samples}",
            acc.queries
        ));
    }
    let call_us: f64 = calls.iter().map(|c| c.1).sum();
    let stage_sum = acc.stage_sum() as f64;
    if stage_sum > call_us {
        out.problems.push(format!(
            "pipeline stage sums ({stage_sum} us) exceed the call time ({call_us:.1} us)"
        ));
    }
    let v = &mut out.values;
    v.set("core.queries", n, samples);
    v.set("core.call_us", call_us / n, samples);
    for (name, stage) in [
        ("core.filter_us", PipelineStage::Filter),
        ("core.probe_us", PipelineStage::Probe),
        ("core.prune_us", PipelineStage::Prune),
        ("core.verify_us", PipelineStage::Verify),
        ("core.admit_us", PipelineStage::Admit),
        ("core.memo_us", PipelineStage::Memo),
    ] {
        // The sample count is the stage's observations: each lost up to
        // 1 µs to truncation, which this many µs per query bounds.
        let (us, observed) = acc.stage(stage);
        v.set(name, us as f64 / n, observed);
    }
    v.set("core.residual_us", (call_us - stage_sum) / n, samples);
    let q = ("core.queries", n);
    v.ratio("core.memo_hit_ratio", ("core.memo_hits", acc.memo_hits as f64), q, samples);
    v.ratio("core.exact_hit_ratio", ("core.exact_hits", acc.exact_hits as f64), q, samples);
    let case_queries = acc.hit_queries.saturating_sub(acc.memo_hits + acc.exact_hits);
    v.ratio("core.case_hit_ratio", ("core.case_hit_queries", case_queries as f64), q, samples);
    v.ratio(
        "core.probe_yield",
        ("core.case_hits", acc.case_hits as f64),
        ("core.probe_tests", acc.probe_tests as f64),
        acc.probe_tests,
    );
    v.set("core.tests_per_query", acc.tests as f64 / n, samples);
    v.set("core.probe_tests_per_query", acc.probe_tests as f64 / n, samples);
    v.set("core.evictions_per_kq", acc.evicted as f64 * 1e3 / n, samples);
    v.set("core.admission_rejected_per_kq", acc.admission_rejected as f64 * 1e3 / n, samples);
}

/// Method M replayed over the traced queries (generation 0): the paper's
/// speedups, the filter alone, and VF2 over the candidates it leaves.
fn report_replay(
    oracle: &mut Oracle,
    inputs: &Inputs,
    calls: &[(usize, f64)],
    gc_tests: u64,
    out: &mut Outcome,
) {
    let (mut cands, mut answers, mut base_s, mut filter_us) = (0.0, 0.0, 0.0, 0.0);
    for &(idx, _) in calls {
        let base = oracle.base(idx);
        cands += base.candidates as f64;
        answers += base.answer.count() as f64;
        base_s += base.elapsed.as_secs_f64();
        filter_us += base.filter.as_secs_f64() * 1e6;
    }
    let gc_s: f64 = calls.iter().map(|c| c.1).sum::<f64>() / 1e6;
    let n = calls.len() as f64;
    let samples = calls.len() as u64;
    let v = &mut out.values;
    v.ratio(
        "core.test_speedup",
        ("core.base_tests", cands),
        ("core.gc_tests", gc_tests as f64),
        samples,
    );
    v.ratio("core.time_speedup", ("core.base_time_s", base_s), ("core.gc_time_s", gc_s), samples);
    v.set("method.filter_us", filter_us / n, samples);
    v.set("method.candidates_per_query", cands / n, samples);
    v.ratio("method.precision", ("method.answers", answers), ("method.candidates", cands), samples);

    // VF2 over (query, candidate) pairs of the first distinct queries.
    let mut seen = std::collections::HashSet::new();
    let (mut tests, mut steps, mut contained) = (0u64, 0u64, 0u64);
    let mut busy = Duration::ZERO;
    for &(idx, _) in calls {
        if seen.len() == ISO_REPLAY_QUERIES {
            break;
        }
        if !seen.insert(idx) {
            continue;
        }
        let (q, kind) = &inputs.pool[idx];
        let cands = oracle.method.filter(&oracle.dataset, q, *kind);
        let pairs: Vec<_> = cands.iter().map(|g| oracle.dataset.graph(g as u32)).collect();
        let t = Instant::now();
        for g in &pairs {
            let (found, s) = match kind {
                QueryKind::Subgraph => Engine::Vf2.verify(q, g),
                QueryKind::Supergraph => Engine::Vf2.verify(g, q),
            };
            tests += 1;
            steps += s;
            contained += u64::from(found);
        }
        busy += t.elapsed();
    }
    v.ratio("iso.yield", ("iso.contained", contained as f64), ("iso.tests", tests as f64), tests);
    let per = |x: f64| if tests > 0 { x / tests as f64 } else { 0.0 };
    v.set("iso.verify_us_per_test", per(busy.as_secs_f64() * 1e6), tests);
    v.set("iso.steps_per_test", per(steps as f64), tests);
}

/// Journal and snapshot sizes, a timed snapshot, and a timed warm restart
/// from a copy of the store directory.
fn report_store(
    inputs: &Inputs,
    sys: &System,
    work: &Path,
    generation: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let cache = &sys.cache;
    let store = cache.attached_store().ok_or("mutate_mix runs with a store")?;
    let dir = sys.store_dir.as_ref().ok_or("store directory")?;
    let (bytes, records) = (store.journal_bytes() as f64, store.journal_records() as f64);
    let v = &mut out.values;
    let per_record = ("store.journal_records", records);
    v.ratio("store.bytes_per_record", ("store.journal_bytes", bytes), per_record, records as u64);
    v.set("store.disk_bytes", system::dir_bytes(dir) as f64, 1);

    let copy = work.join("restore");
    std::fs::create_dir_all(&copy).map_err(|e| format!("restore dir: {e}"))?;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read store: {e}"))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), copy.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    let dataset = Arc::new(Dataset::new(inputs.graphs.clone()));
    let method: Arc<dyn Method> = Arc::new(FtvMethod::build(&dataset, FTV_L));
    let copied = Arc::new(CacheStore::open(&copy).map_err(|e| format!("open copy: {e}"))?);
    let t = Instant::now();
    let (restored, recovery) = SharedGraphCache::restore_from(
        dataset,
        method,
        || PolicyKind::Hd.make(),
        CacheConfig::default(),
        copied,
    )?;
    v.set("store.restore_s", t.elapsed().as_secs_f64(), 1);
    let restored_generation = restored.stats().dataset_generation;
    if !recovery.warm || restored_generation != generation {
        out.problems.push(format!(
            "warm restart restored generation {restored_generation} (warm: {}), expected {generation}",
            recovery.warm
        ));
    }
    drop(restored);

    let t = Instant::now();
    let info = cache.snapshot_now()?.ok_or("snapshot already in flight")?;
    v.set("store.snapshot_s", t.elapsed().as_secs_f64(), 1);
    v.set("store.snapshot_bytes", info.snapshot_bytes as f64, 1);
    Ok(())
}

// ---- http_open ---------------------------------------------------------------

fn run_http(
    args: &Args,
    inputs: &Inputs,
    sys: &mut System,
    mut stream: QueryStream,
    requests: &Requests,
    out: &mut Outcome,
) -> Result<(), String> {
    let cache = Arc::clone(&sys.cache);
    // Read-only: every answer is checked at generation 0.
    let ops: &[Op] = &[];

    let sampler = Sampler::new(args.seed, CHECK_PERIOD);
    let secs = args.seconds as f64;
    let per_segment = (NOMINAL_RPS * SEGMENT.as_secs_f64()) as usize;
    // Responses kept for the check: sampled ones, and every traced one.
    let (mut kept, mut traced_kept): (Vec<Sent>, Vec<Sent>) = (Vec::new(), Vec::new());
    let (mut plain_lat, mut traced_lat, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let mut acc = Counters::default();
    let mut record =
        |sent: Vec<Sent>, lat: &mut Vec<f64>, out: &mut Outcome, kept: &mut Vec<Sent>| {
            for s in sent {
                out.attempted += 1;
                out.failed += u64::from(s.status != 200);
                lat.push(s.lat_ns);
                late.push(s.late_ns);
                if s.body.is_some() {
                    kept.push(s);
                }
            }
        };

    let warm = stream.take(CLOSED_LOOP_IDXS);
    let until = Instant::now() + SEGMENT * WARMUP_WINDOWS;
    let sent = load::send_closed_loop(&mut sys.clients, requests, &warm, 0, &|_| false, until);
    if let Some(s) = sent.iter().find(|s| s.status != 200) {
        return Err(format!("warm-up request failed with status {}", s.status));
    }

    let nominal_secs = secs * NOMINAL_SHARE;
    let rest_secs = secs - nominal_secs;
    if args.trace {
        let segments = (nominal_secs / SEGMENT.as_secs_f64()).ceil() as usize;
        let sampled = |i: usize| sampler.hit(i as u64);
        for k in 0..segments {
            let idxs = stream.take(per_segment);
            let traced_segment = k % 2 == 1;
            let keep: &(dyn Fn(usize) -> bool + Sync) =
                if traced_segment { &|_| true } else { &sampled };
            let before = Counters::read(&cache);
            let (sent, _) =
                load::send_open_loop(&mut sys.clients, requests, &idxs, NOMINAL_RPS, keep, None);
            if traced_segment {
                acc.add_delta(&before, &Counters::read(&cache));
                record(sent, &mut traced_lat, out, &mut traced_kept);
            } else {
                record(sent, &mut plain_lat, out, &mut kept);
            }
        }

        let trial_secs = rest_secs / SEARCH_TRIALS as f64;
        let limit_ns = P99_LIMIT.as_nanos() as f64;
        let max_rps =
            ratesearch::max_passing_rate(SEARCH_RATES.0, SEARCH_RATES.1, SEARCH_TRIALS, |rate| {
                let idxs = stream.take((rate * trial_secs).ceil() as usize);
                let (sent, aborted) = load::send_open_loop(
                    &mut sys.clients,
                    requests,
                    &idxs,
                    rate,
                    &|_| false,
                    Some(P99_LIMIT),
                );
                let failures = sent.iter().filter(|s| s.status != 200).count();
                out.attempted += sent.len() as u64;
                out.failed += failures as u64;
                let lat = sorted(sent.iter().map(|s| s.lat_ns).collect());
                !aborted && failures == 0 && percentile(&lat, 99.0).is_some_and(|p| p <= limit_ns)
            });
        out.values.set("server.max_rps", max_rps.unwrap_or(0.0), SEARCH_TRIALS as u64);
    } else {
        // The gated figures come from a closed loop: on a 2-vCPU guest the
        // open loop's idle wake-ups made its latency swing 4x with the
        // host's load, where the closed loop's moved 2x.
        // One-second windows, as in-process.
        let idxs = stream.take(CLOSED_LOOP_IDXS);
        let keep = |i: usize| sampler.hit(i as u64);
        let (mut windows, mut pos) = (Vec::new(), 0);
        for _ in 0..args.seconds {
            let start = Instant::now();
            let sent = load::send_closed_loop(
                &mut sys.clients,
                requests,
                &idxs,
                pos,
                &keep,
                start + SEGMENT,
            );
            let lat: Vec<f64> = sent.iter().map(|s| s.lat_ns).collect();
            windows.push(Window::of(&lat, start.elapsed()));
            pos += sent.len();
            record(sent, &mut plain_lat, out, &mut kept);
        }
        report_windows(&windows, pos, out);
    }

    // Answer check (and, for traced segments, the server's own timings).
    let mut oracle = Oracle::new(inputs);
    check_responses(&mut oracle, &kept, ops, out)?;
    let traced = check_responses(&mut oracle, &traced_kept, ops, out)?;

    let footprint = Footprint::measure(&cache, oracle.method.index_memory_bytes());
    out.values.set("memory_bytes", footprint.total() as f64, 1);

    if args.trace {
        report_footprint(&footprint, &cache, out);
        report_server(&traced, requests, sys, out);
        let calls: Vec<(usize, f64)> =
            traced.iter().map(|(s, r)| (s.idx, r.execute_us as f64)).collect();
        report_core(&acc, &calls, out);
        let tests = acc.tests + acc.probe_tests;
        report_replay(&mut oracle, inputs, &calls, tests, out);
        let p50 = |v: &[f64]| percentile(&sorted(v.to_vec()), 50.0).unwrap_or(0.0);
        let (plain, with) = (p50(&plain_lat), p50(&traced_lat));
        out.values.set("trace.overhead_pct", (with - plain) / plain * 100.0, 2);
        let late = sorted(late);
        out.values.set("gen.late_us_p99", pct_us(&late, 99.0), late.len() as u64);
    }
    Ok(())
}

/// Check the answers of successful responses; returns them parsed.
fn check_responses<'s>(
    oracle: &mut Oracle,
    sent: &'s [Sent],
    ops: &[Op],
    out: &mut Outcome,
) -> Result<Vec<(&'s Sent, QueryResponse)>, String> {
    let generation = ops.len() as u64;
    let mut parsed = Vec::with_capacity(sent.len());
    for s in sent.iter().filter(|s| s.status == 200) {
        let body = s.body.as_deref().unwrap_or_default();
        let text = std::str::from_utf8(body).map_err(|e| format!("response body: {e}"))?;
        let resp: QueryResponse =
            serde_json::from_str(text).map_err(|e| format!("query response: {e}"))?;
        let c = Checked { idx: s.idx, lo: generation, hi: generation, answer: resp.answer.clone() };
        check_one(oracle, &c, ops, out);
        parsed.push((s, resp));
    }
    Ok(parsed)
}

/// Server-side stage timings of the traced requests against the client's
/// round trip, plus the parse cost of the request bodies.
fn report_server(
    traced: &[(&Sent, QueryResponse)],
    requests: &Requests,
    sys: &System,
    out: &mut Outcome,
) {
    let n = traced.len() as u64;
    let col = |f: &dyn Fn(&Sent, &QueryResponse) -> f64| -> Vec<f64> {
        sorted(traced.iter().map(|(s, r)| f(s, r)).collect())
    };
    let server_us = |r: &QueryResponse| (r.queue_us + r.parse_us + r.execute_us) as f64;
    let rtt = col(&|s, _| s.rt_ns / 1e3);
    let residual = col(&|s, r| s.rt_ns / 1e3 - server_us(r));
    let server_sum: f64 = traced.iter().map(|(_, r)| server_us(r)).sum();
    if server_sum > rtt.iter().sum::<f64>() {
        out.problems.push("server stage sums exceed the client round trip".into());
    }
    let v = &mut out.values;
    v.set("server.requests", n as f64, n);
    let p = |s: &[f64], q: f64| percentile(s, q).unwrap_or(0.0);
    v.set("server.rtt_us_p50", p(&rtt, 50.0), n);
    for (name50, name99, xs) in [
        ("server.queue_us_p50", "server.queue_us_p99", col(&|_, r| r.queue_us as f64)),
        ("server.parse_us_p50", "server.parse_us_p99", col(&|_, r| r.parse_us as f64)),
        ("server.execute_us_p50", "server.execute_us_p99", col(&|_, r| r.execute_us as f64)),
        ("server.residual_us", "server.residual_us_p99", residual),
    ] {
        v.set(name50, p(&xs, 50.0), n);
        v.set(name99, p(&xs, 99.0), n);
    }
    let metrics = sys.server.as_ref().expect("http_open runs a server").metrics();
    v.set("server.shed", metrics.total_shed() as f64, 1);
    let timed_out = metrics.requests_timed_out.load(std::sync::atomic::Ordering::Relaxed);
    v.set("server.timed_out", timed_out as f64, 1);

    let t = Instant::now();
    for (s, _) in traced {
        let body = std::str::from_utf8(&requests.bodies[s.idx]).expect("encoded as text");
        std::hint::black_box(gc_graph::io::parse_dataset(body).expect("encoded graph parses"));
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    v.set("graph.parse_us", if n > 0 { us / n as f64 } else { 0.0 }, n);
}
