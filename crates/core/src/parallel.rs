//! Parallel candidate verification.
//!
//! The paper's kernel discusses resource management over memory *and
//! threads*; verification of the reduced candidate set `C` is embarrassingly
//! parallel (read-only dataset, read-only query). Three execution modes:
//!
//! * [`verify_candidates`] — scoped threads spawned per call; zero standing
//!   resources, fine for occasional heavyweight queries;
//! * [`VerifyPool`] — a persistent worker pool fed over an MPMC job queue,
//!   so the per-query spawn cost (hundreds of microseconds) cannot eat the
//!   savings on cheap queries;
//! * [`global_pool`] — the **process-wide** [`VerifyPool`] shared by every
//!   [`crate::SharedGraphCache`] with `threads > 1`: concurrent queries from many client
//!   threads batch their verification work onto one fixed set of workers
//!   sized to the machine, so `N clients × M workers` cannot oversubscribe
//!   the CPU.
//!
//! Every mode runs the **profiled hot path**: the caller passes one
//! [`QueryProfile`] (computed once per query, shared by all workers), the
//! dataset side comes from the load-time [`gc_method::DatasetProfiles`], and
//! each worker reuses one [`VfScratch`] across all its candidates — the
//! per-candidate loop performs no setup and no heap allocation. Results
//! merge deterministically regardless of scheduling, including the
//! per-graph step counts that feed the [`crate::cost::CostModel`].

use gc_graph::{BitSet, Graph};
use gc_method::{Dataset, Engine, QueryProfile, VfScratch};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Merged result of verifying a candidate set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// The survivors `R` (graphs the query embeds into / that embed into
    /// the query, per the profile's kind).
    pub survivors: BitSet,
    /// Total verifier steps across all candidates.
    pub steps: u64,
    /// Observed per-candidate cost `(gid, steps)`, ascending by gid —
    /// exactly one entry per verified candidate (feeds PINC/HD's cost
    /// model without mean-smearing).
    pub costs: Vec<(usize, u64)>,
}

impl VerifyOutcome {
    fn empty(universe: usize) -> Self {
        VerifyOutcome { survivors: BitSet::new(universe), steps: 0, costs: Vec::new() }
    }
}

/// Verify every graph in `to_verify`, returning the survivors `R`, the
/// total verifier steps and the per-graph step counts.
///
/// With `threads == 1` runs inline (no spawn overhead); otherwise splits the
/// candidate list into contiguous chunks, one per scoped worker thread, each
/// with its own [`VfScratch`].
pub fn verify_candidates(
    dataset: &Dataset,
    engine: Engine,
    profile: &QueryProfile,
    query: &Graph,
    to_verify: &BitSet,
    threads: usize,
) -> VerifyOutcome {
    let mut out = VerifyOutcome::empty(dataset.len());
    let n = to_verify.count();

    if threads <= 1 || n < 2 {
        // Inline: walk the survivors straight off the bitset words
        // (`ones()`), no candidate-id vector materialized.
        let mut scratch = VfScratch::new();
        for gid in to_verify.ones() {
            let (ok, s) =
                engine.verify_candidate(dataset, profile, query, gid as u32, &mut scratch);
            out.steps += s;
            out.costs.push((gid, s));
            if ok {
                out.survivors.insert(gid);
            }
        }
        return out;
    }

    // Parallel path: the id vector is the unit of work distribution.
    let ids: Vec<usize> = to_verify.ones().collect();
    let workers = threads.min(ids.len());
    let chunk = ids.len().div_ceil(workers);
    let results: Vec<Vec<(usize, bool, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    let mut scratch = VfScratch::new();
                    slice
                        .iter()
                        .map(|&gid| {
                            let (ok, s) = engine.verify_candidate(
                                dataset,
                                profile,
                                query,
                                gid as u32,
                                &mut scratch,
                            );
                            (gid, ok, s)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("verifier worker panicked")).collect()
    });

    // Chunks are contiguous ascending slices of `ids`, so concatenating in
    // spawn order keeps `costs` sorted by gid.
    for local in results {
        for (gid, ok, s) in local {
            out.steps += s;
            out.costs.push((gid, s));
            if ok {
                out.survivors.insert(gid);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};
    use gc_method::QueryKind;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn dataset() -> Dataset {
        Dataset::new(vec![
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(&[3, 3], &[(0, 1)]),
            g(&[0, 1], &[(0, 1)]),
            g(&[1, 0, 1], &[(0, 1), (1, 2)]),
        ])
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let qp = QueryProfile::new(&ds, &q, QueryKind::Subgraph);
        let all = ds.all_graphs();
        let seq = verify_candidates(&ds, Engine::Vf2, &qp, &q, &all, 1);
        for t in [2, 3, 8] {
            let par = verify_candidates(&ds, Engine::Vf2, &qp, &q, &all, t);
            assert_eq!(seq, par, "results must be deterministic, threads={t}");
        }
        assert_eq!(seq.survivors.to_vec(), vec![0, 1, 3, 4]);
        assert_eq!(seq.costs.len(), 5, "one cost entry per verified candidate");
        assert_eq!(seq.costs.iter().map(|&(_, s)| s).sum::<u64>(), seq.steps);
        assert!(seq.costs.windows(2).all(|w| w[0].0 < w[1].0), "costs sorted by gid");
    }

    #[test]
    fn respects_candidate_subset() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let qp = QueryProfile::new(&ds, &q, QueryKind::Subgraph);
        let only = BitSet::from_indices(ds.len(), [2usize, 3]);
        let out = verify_candidates(&ds, Engine::Vf2, &qp, &q, &only, 2);
        assert_eq!(out.survivors.to_vec(), vec![3]);
        assert_eq!(out.costs.iter().map(|&(gid, _)| gid).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn empty_candidates() {
        let ds = dataset();
        let q = g(&[0], &[]);
        let qp = QueryProfile::new(&ds, &q, QueryKind::Subgraph);
        let none = ds.empty_set();
        let out = verify_candidates(&ds, Engine::Vf2, &qp, &q, &none, 4);
        assert!(out.survivors.is_empty());
        assert_eq!(out.steps, 0);
        assert!(out.costs.is_empty());
    }

    #[test]
    fn supergraph_direction() {
        let ds = dataset();
        let q = g(&[0, 1, 2, 0], &[(0, 1), (1, 2), (0, 3)]);
        let qp = QueryProfile::new(&ds, &q, QueryKind::Supergraph);
        let all = ds.all_graphs();
        let out = verify_candidates(&ds, Engine::Vf2, &qp, &q, &all, 2);
        assert_eq!(out.survivors.to_vec(), vec![0, 3]);
    }
}

// ---------------------------------------------------------------------------
// MPMC job queue (std-only): many query threads enqueue, pool workers drain.
// ---------------------------------------------------------------------------

struct JobQueue<T> {
    queue: Mutex<Option<VecDeque<T>>>,
    ready: Condvar,
}

impl<T> JobQueue<T> {
    fn new() -> Self {
        JobQueue { queue: Mutex::new(Some(VecDeque::new())), ready: Condvar::new() }
    }

    /// Push a job; returns `false` if the queue is closed.
    fn push(&self, job: T) -> bool {
        let mut guard = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_mut() {
            Some(q) => {
                q.push_back(job);
                drop(guard);
                self.ready.notify_one();
                true
            }
            None => false,
        }
    }

    /// Pop a job, blocking; `None` once closed and drained.
    fn pop(&self) -> Option<T> {
        let mut guard = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match guard.as_mut() {
                Some(q) => {
                    if let Some(job) = q.pop_front() {
                        return Some(job);
                    }
                }
                None => return None,
            }
            guard = self.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the queue: wake all workers; outstanding jobs are dropped.
    fn close(&self) {
        let mut guard = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        *guard = None;
        drop(guard);
        self.ready.notify_all();
    }
}

/// One chunk's verification verdicts: `(graph id, embeds, steps)`.
type ChunkVerdicts = Vec<(usize, bool, u64)>;

struct Job {
    dataset: Arc<Dataset>,
    query: Arc<Graph>,
    profile: Arc<QueryProfile>,
    engine: Engine,
    ids: Vec<usize>,
    /// Index of this chunk within its `verify()` call, echoed in the
    /// reply so the caller knows exactly which chunks went missing (a
    /// panicked worker never replies) and can re-verify them inline.
    chunk: usize,
    reply: mpsc::Sender<(usize, ChunkVerdicts)>,
}

/// Fault-plan slot shared by a pool and its workers (chaos testing: armed
/// [`gc_store::FaultSite::Task`] points fire inside the workers'
/// `catch_unwind`, exercising the lost-task fallbacks).
type TaskFaults = Arc<Mutex<Option<Arc<gc_store::FaultPlan>>>>;

/// Consult the pool's fault plan before running a task body. Injected
/// errors and panics both panic here — inside the worker's
/// `catch_unwind` — so the task dies exactly like a genuine panic would.
fn inject_task_fault(faults: &TaskFaults) {
    let plan = faults.lock().unwrap_or_else(|e| e.into_inner()).clone();
    if let Some(plan) = plan {
        match plan.on_op(gc_store::FaultSite::Task) {
            gc_store::FaultAction::Proceed => {}
            action => panic!("injected pool-task fault: {action:?}"),
        }
    }
}

/// One unit of pool work: a verification chunk, or an arbitrary one-shot
/// closure (how [`crate::SharedGraphCache`] fans per-shard probe read
/// sections out; see [`VerifyPool::submit`]).
enum Task {
    Verify(Job),
    Run(Box<dyn FnOnce() + Send + 'static>),
}

/// A persistent pool of verification workers.
///
/// Workers live for the pool's lifetime; each job carries its inputs by
/// `Arc` (dataset, query graph, query profile), so no per-call thread
/// spawning or scoping is needed, and each worker keeps one [`VfScratch`]
/// alive across **all** jobs it ever serves — the per-candidate search loop
/// allocates nothing. The job queue is multi-producer: any number of threads
/// may call [`VerifyPool::verify`] concurrently and their chunks interleave
/// on the same workers (how [`crate::SharedGraphCache`] batches verification
/// work across concurrent queries). Dropping the pool closes the queue and
/// joins the workers.
pub struct VerifyPool {
    jobs: Arc<JobQueue<Task>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
    faults: TaskFaults,
}

impl VerifyPool {
    /// Spawn `size` workers (at least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let jobs: Arc<JobQueue<Task>> = Arc::new(JobQueue::new());
        let faults: TaskFaults = Arc::new(Mutex::new(None));
        let workers = (0..size)
            .map(|i| {
                let jobs = Arc::clone(&jobs);
                let faults = Arc::clone(&faults);
                std::thread::Builder::new()
                    .name(format!("gc-verify-{i}"))
                    .spawn(move || {
                        // One scratch per worker, reused across every job
                        // this worker ever serves (thread-local by
                        // construction: nothing else touches it).
                        let mut scratch = VfScratch::new();
                        while let Some(task) = jobs.pop() {
                            // Confine a panicking task to itself: its reply
                            // sender is dropped without a send, so only the
                            // requesting caller is affected — and it
                            // recovers by redoing the lost chunk inline
                            // (verify()'s fallback, probe_shards_parallel's
                            // re-probe). The worker lives on to serve other
                            // queries. Without this, one poisoned graph
                            // would silently kill global_pool() workers
                            // until every query in the process hung on
                            // recv().
                            match task {
                                Task::Verify(job) => {
                                    let result = std::panic::catch_unwind(
                                        std::panic::AssertUnwindSafe(|| {
                                            inject_task_fault(&faults);
                                            job.ids
                                                .iter()
                                                .map(|&gid| {
                                                    let (ok, s) = job.engine.verify_candidate(
                                                        &job.dataset,
                                                        &job.profile,
                                                        &job.query,
                                                        gid as u32,
                                                        &mut scratch,
                                                    );
                                                    (gid, ok, s)
                                                })
                                                .collect::<Vec<_>>()
                                        }),
                                    );
                                    if let Ok(outcome) = result {
                                        // Receiver may have given up;
                                        // ignore send errors.
                                        let _ = job.reply.send((job.chunk, outcome));
                                    }
                                }
                                Task::Run(f) => {
                                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                        || {
                                            inject_task_fault(&faults);
                                            f();
                                        },
                                    ));
                                }
                            }
                        }
                    })
                    .expect("spawn verification worker")
            })
            .collect();
        VerifyPool { jobs, workers, size, faults }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Install (or with `None`, remove) a fault plan consulted by every
    /// worker before each task ([`gc_store::FaultSite::Task`]) — the
    /// chaos harness's way of injecting worker panics to exercise the
    /// lost-task fallbacks. No plan (the default) costs one uncontended
    /// lock per task.
    pub fn set_fault_plan(&self, plan: Option<Arc<gc_store::FaultPlan>>) {
        *self.faults.lock().unwrap_or_else(|e| e.into_inner()) = plan;
    }

    /// Run an arbitrary one-shot task on the pool's workers — the batched
    /// shard-probe path of [`crate::SharedGraphCache`] fans one such task
    /// per shard so shard read sections overlap. Returns `false` if the
    /// pool is shutting down (the caller runs the work inline instead). A
    /// panic inside the task is confined to it: the task's reply channel,
    /// if any, is dropped unsent and the worker lives on.
    pub fn submit(&self, task: Box<dyn FnOnce() + Send + 'static>) -> bool {
        self.jobs.push(Task::Run(task))
    }

    /// Verify `to_verify` against the dataset, returning survivors, total
    /// verifier steps and per-graph costs. Deterministic: the result is
    /// independent of worker scheduling.
    ///
    /// Resilient to worker panics: a chunk whose task dies (its reply
    /// never arrives) is re-verified inline by this caller, so a poisoned
    /// task costs latency, never an answer — the same guarantee as the
    /// shard-probe fallback in [`crate::SharedGraphCache`].
    pub fn verify(
        &self,
        dataset: &Arc<Dataset>,
        engine: Engine,
        profile: &QueryProfile,
        query: &Graph,
        to_verify: &BitSet,
    ) -> VerifyOutcome {
        let mut out = VerifyOutcome::empty(dataset.len());
        if to_verify.count() < 2 {
            let mut scratch = VfScratch::new();
            for gid in to_verify.ones() {
                let (ok, s) =
                    engine.verify_candidate(dataset, profile, query, gid as u32, &mut scratch);
                out.steps += s;
                out.costs.push((gid, s));
                if ok {
                    out.survivors.insert(gid);
                }
            }
            return out;
        }
        let ids: Vec<usize> = to_verify.ones().collect();
        let query = Arc::new(query.clone());
        let profile = Arc::new(profile.clone());
        let (reply_tx, reply_rx) = mpsc::channel();
        // Oversplit ~2x for load balance under skewed verify costs.
        let chunks = (2 * self.size).min(ids.len());
        let chunk_len = ids.len().div_ceil(chunks);
        let slices: Vec<&[usize]> = ids.chunks(chunk_len).collect();
        for (chunk, slice) in slices.iter().enumerate() {
            let pushed = self.jobs.push(Task::Verify(Job {
                dataset: dataset.clone(),
                query: query.clone(),
                profile: profile.clone(),
                engine,
                ids: slice.to_vec(),
                chunk,
                reply: reply_tx.clone(),
            }));
            assert!(pushed, "workers are alive while the pool exists");
        }
        drop(reply_tx);
        let mut received = vec![false; slices.len()];
        let mut got = 0usize;
        while got < slices.len() {
            // The channel closes once every job has replied or died (each
            // job owns one sender clone, dropped either way): a recv error
            // here means some chunks are lost, never that more are coming.
            let Ok((chunk, local)) = reply_rx.recv() else { break };
            received[chunk] = true;
            got += 1;
            for (gid, ok, s) in local {
                out.steps += s;
                out.costs.push((gid, s));
                if ok {
                    out.survivors.insert(gid);
                }
            }
        }
        if got < slices.len() {
            // A worker panicked mid-chunk: redo the lost chunks inline.
            let mut scratch = VfScratch::new();
            for (chunk, slice) in slices.iter().enumerate() {
                if received[chunk] {
                    continue;
                }
                for &gid in *slice {
                    let (ok, s) = engine.verify_candidate(
                        dataset,
                        &profile,
                        &query,
                        gid as u32,
                        &mut scratch,
                    );
                    out.steps += s;
                    out.costs.push((gid, s));
                    if ok {
                        out.survivors.insert(gid);
                    }
                }
            }
        }
        // Replies arrive in scheduling order; restore the deterministic
        // ascending-gid order the inline path produces.
        out.costs.sort_unstable_by_key(|&(gid, _)| gid);
        out
    }
}

impl Drop for VerifyPool {
    fn drop(&mut self) {
        self.jobs.close(); // wake the workers; they drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for VerifyPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyPool").field("size", &self.size).finish()
    }
}

/// The process-wide verification pool, shared by every
/// [`crate::SharedGraphCache`] (and available to applications).
///
/// Lazily spawned on first use, sized to the machine's available
/// parallelism, and alive for the rest of the process. Centralizing the
/// workers means any number of concurrent caches and client threads share
/// one CPU-sized verification backend instead of multiplying pools.
pub fn global_pool() -> &'static VerifyPool {
    static POOL: OnceLock<VerifyPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let size = std::thread::available_parallelism().map_or(2, |n| n.get());
        VerifyPool::new(size)
    })
}

#[cfg(test)]
mod pool_tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};
    use gc_method::QueryKind;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn dataset() -> Arc<Dataset> {
        Arc::new(Dataset::new(vec![
            g(&[0, 1, 2], &[(0, 1), (1, 2)]),
            g(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(&[3, 3], &[(0, 1)]),
            g(&[0, 1], &[(0, 1)]),
            g(&[1, 0, 1], &[(0, 1), (1, 2)]),
        ]))
    }

    #[test]
    fn pool_matches_sequential() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let qp = QueryProfile::new(&ds, &q, QueryKind::Subgraph);
        let all = ds.all_graphs();
        let seq = verify_candidates(&ds, Engine::Vf2, &qp, &q, &all, 1);
        for size in [1usize, 2, 4] {
            let pool = VerifyPool::new(size);
            let par = pool.verify(&ds, Engine::Vf2, &qp, &q, &all);
            assert_eq!(seq, par, "pool size {size}");
        }
    }

    #[test]
    fn pool_survives_many_calls() {
        let ds = dataset();
        let pool = VerifyPool::new(3);
        let q1 = g(&[0, 1], &[(0, 1)]);
        let q2 = g(&[3], &[]);
        let p1 = QueryProfile::new(&ds, &q1, QueryKind::Subgraph);
        let p2 = QueryProfile::new(&ds, &q2, QueryKind::Subgraph);
        let all = ds.all_graphs();
        for _ in 0..50 {
            let a = pool.verify(&ds, Engine::Vf2, &p1, &q1, &all);
            assert_eq!(a.survivors.to_vec(), vec![0, 1, 3, 4]);
            let b = pool.verify(&ds, Engine::Vf2, &p2, &q2, &all);
            assert_eq!(b.survivors.to_vec(), vec![2]);
        }
    }

    #[test]
    fn pool_empty_and_singleton_candidates() {
        let ds = dataset();
        let pool = VerifyPool::new(2);
        let q = g(&[0, 1], &[(0, 1)]);
        let qp = QueryProfile::new(&ds, &q, QueryKind::Subgraph);
        let none = ds.empty_set();
        let a = pool.verify(&ds, Engine::Vf2, &qp, &q, &none);
        assert!(a.survivors.is_empty());
        assert_eq!(a.steps, 0);
        let one = BitSet::from_indices(ds.len(), [3usize]);
        let b = pool.verify(&ds, Engine::Vf2, &qp, &q, &one);
        assert_eq!(b.survivors.to_vec(), vec![3]);
        assert_eq!(b.costs.len(), 1);
    }

    #[test]
    fn verify_survives_injected_worker_panics() {
        use gc_store::{Failpoint, FaultPlan, FaultSite};
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let qp = QueryProfile::new(&ds, &q, QueryKind::Subgraph);
        let all = ds.all_graphs();
        let expect = verify_candidates(&ds, Engine::Vf2, &qp, &q, &all, 1);

        let pool = VerifyPool::new(2);
        // Every task panics: every chunk is lost and redone inline.
        let all_die = Arc::new(FaultPlan::seeded(1));
        all_die.arm(FaultSite::Task, Failpoint::ErrAfter { n: 0 });
        pool.set_fault_plan(Some(all_die.clone()));
        let got = pool.verify(&ds, Engine::Vf2, &qp, &q, &all);
        assert_eq!(got, expect, "all chunks lost, all recovered inline");
        assert!(all_die.fired() > 0, "the injection actually fired");

        // One task panics: the one lost chunk is redone, the rest arrive
        // from the workers.
        let one_dies = Arc::new(FaultPlan::seeded(2));
        one_dies.arm(FaultSite::Task, Failpoint::PanicAt { n: 0 });
        pool.set_fault_plan(Some(one_dies));
        let got = pool.verify(&ds, Engine::Vf2, &qp, &q, &all);
        assert_eq!(got, expect, "one lost chunk recovered inline");

        // Plan removed: back to the pure pool path.
        pool.set_fault_plan(None);
        let got = pool.verify(&ds, Engine::Vf2, &qp, &q, &all);
        assert_eq!(got, expect);
    }

    #[test]
    fn dropping_pool_joins_workers() {
        let pool = VerifyPool::new(4);
        assert_eq!(pool.size(), 4);
        drop(pool); // must not hang
    }

    #[test]
    fn concurrent_producers_share_the_pool() {
        let ds = dataset();
        let pool = VerifyPool::new(2);
        let q = g(&[0, 1], &[(0, 1)]);
        let qp = QueryProfile::new(&ds, &q, QueryKind::Subgraph);
        let all = ds.all_graphs();
        let expect = verify_candidates(&ds, Engine::Vf2, &qp, &q, &all, 1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (pool, ds, q, qp, all, expect) = (&pool, &ds, &q, &qp, &all, &expect);
                scope.spawn(move || {
                    for _ in 0..20 {
                        let got = pool.verify(ds, Engine::Vf2, qp, q, all);
                        assert_eq!(&got, expect);
                    }
                });
            }
        });
    }

    #[test]
    fn global_pool_is_shared_and_works() {
        let ds = dataset();
        let q = g(&[0, 1], &[(0, 1)]);
        let qp = QueryProfile::new(&ds, &q, QueryKind::Subgraph);
        let all = ds.all_graphs();
        let p1 = global_pool() as *const VerifyPool;
        let p2 = global_pool() as *const VerifyPool;
        assert_eq!(p1, p2, "global pool must be a singleton");
        let got = global_pool().verify(&ds, Engine::Vf2, &qp, &q, &all);
        assert_eq!(got.survivors.to_vec(), vec![0, 1, 3, 4]);
    }
}
