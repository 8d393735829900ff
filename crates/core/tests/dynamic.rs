//! Live dataset mutation + answer memo: the dynamic-dataset contract.
//!
//! Covers:
//!
//! * any interleaving of insert/remove/query yields, at every step, the
//!   answers Method M alone would compute on the dataset *as mutated so
//!   far*, and a cold cache rebuilt on the final dataset agrees with the
//!   mutated-in-place cache (property test over random interleavings);
//! * one-shard and four-shard caches answer identically, and as Method M
//!   does, under the same mutation script;
//! * a memo hit performs **zero** probe/verify work and the memo is
//!   invalidated wholesale by any dataset mutation (generation bump);
//! * mutations racing a snapshot neither deadlock nor lose their delta —
//!   every journaled delta is recoverable (warm restart replays it);
//! * warm restarts replay dataset deltas from the journal on top of the
//!   pristine base dataset and repair restored answer sets.

mod common;

use common::assert_consistent;
use gc_core::persist::CacheStore;
use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
use gc_method::{execute_base, Dataset, Engine, QueryKind, SiMethod};
use gc_workload::{extract_query, molecule_dataset};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc_dynamic_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset(n: usize, seed: u64) -> Arc<Dataset> {
    Arc::new(Dataset::new(molecule_dataset(n, seed)))
}

fn config() -> CacheConfig {
    CacheConfig { capacity: 16, window_size: 2, shards: 1, ..CacheConfig::default() }
}

/// One step of an interleaved mutation/query script.
#[derive(Debug, Clone)]
enum Step {
    Insert,
    Remove,
    Query(QueryKind),
}

/// Deterministic script of `n` steps: ~1/6 inserts, ~1/6 removes, the rest
/// queries alternating kinds.
fn script(n: usize, seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.gen_range(0..6) {
            0 => Step::Insert,
            1 => Step::Remove,
            k => Step::Query(if k % 2 == 0 { QueryKind::Subgraph } else { QueryKind::Supergraph }),
        })
        .collect()
}

/// A query graph extracted from a random *live* dataset graph, so the
/// stream keeps producing non-trivial answers as the dataset churns.
fn live_query(ds: &Dataset, rng: &mut StdRng) -> gc_graph::Graph {
    let live: Vec<_> = ds.live_mask().iter().collect();
    let gid = live[rng.gen_range(0..live.len())];
    let size = rng.gen_range(3..8);
    extract_query(ds.graph(gid as u32), size, rng).expect("molecule graphs are non-empty")
}

/// Fresh molecule graphs to insert, distinct from the base pool.
fn insert_pool(n: usize, seed: u64) -> Vec<gc_graph::Graph> {
    molecule_dataset(n, seed)
}

/// Run `steps` against `gc` from one client, checking every query against
/// Method M alone on the *current* dataset. Returns the (graph, kind)
/// queries issued for replay against a cold rebuild.
fn drive_sequential(
    gc: &SharedGraphCache,
    steps: &[Step],
    seed: u64,
) -> Vec<(gc_graph::Graph, QueryKind)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = insert_pool(steps.len(), seed ^ 0xfeed).into_iter();
    let mut issued = Vec::new();
    for step in steps {
        match step {
            Step::Insert => {
                let gid = gc.insert_graph(pool.next().unwrap());
                assert!(gc.dataset().live_mask().contains(gid as usize));
            }
            Step::Remove => {
                // Keep at least 4 live graphs so queries stay meaningful.
                if gc.dataset().live_count() > 4 {
                    let live: Vec<_> = gc.dataset().live_mask().iter().collect();
                    let victim = live[rng.gen_range(0..live.len())] as u32;
                    assert!(gc.remove_graph(victim));
                    assert!(!gc.remove_graph(victim), "double remove must be a no-op");
                }
            }
            Step::Query(kind) => {
                let q = live_query(&gc.dataset(), &mut rng);
                let r = gc.query(&q, *kind);
                let want = execute_base(&gc.dataset(), &SiMethod, Engine::Vf2, &q, *kind);
                assert_eq!(r.answer, want.answer, "answer must match Method M on current dataset");
                if r.memo_hit {
                    assert_eq!(r.sub_iso_tests, 0, "memo hit must run zero sub-iso tests");
                    assert_eq!(r.probe_tests, 0, "memo hit must run zero probes");
                    assert_eq!(r.verify_steps, 0, "memo hit must run zero verifier steps");
                }
                issued.push((q, *kind));
            }
        }
    }
    issued
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of insert/remove/query matches Method M per step,
    /// and a cold cache rebuilt on the final dataset answers identically
    /// to the mutated-in-place cache.
    #[test]
    fn interleavings_match_cold_rebuild(seed in 0u64..1000) {
        let ds = dataset(18, 40 + seed);
        let gc =
            SharedGraphCache::with_policy(ds, Box::new(SiMethod), PolicyKind::Hd, config())
                .unwrap();
        let steps = script(60, seed);
        let issued = drive_sequential(&gc, &steps, seed);
        prop_assert!(gc.dataset().generation() > 0, "script must mutate");
        gc.for_each_shard(|_, cm| assert_consistent(cm));

        // Cold rebuild on the final dataset: same answers for every query.
        let final_ds = Arc::new((*gc.dataset()).clone());
        let cold =
            SharedGraphCache::with_policy(final_ds, Box::new(SiMethod), PolicyKind::Hd, config())
                .unwrap();
        for (q, kind) in issued {
            let warm = gc.query(&q, kind);
            let want = cold.query(&q, kind);
            prop_assert_eq!(warm.answer, want.answer, "mutated cache must equal cold rebuild");
        }
    }
}

#[test]
fn sequential_and_sharded_answer_identically_under_mutation() {
    let ds = dataset(16, 77);
    let seq =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, config())
            .unwrap();
    let cfg = CacheConfig { shards: 4, ..config() };
    let shared =
        SharedGraphCache::new(ds, Arc::new(SiMethod), || PolicyKind::Hd.make(), cfg).unwrap();

    let steps = script(80, 99);
    let mut rng_a = StdRng::seed_from_u64(7);
    let mut rng_b = StdRng::seed_from_u64(7);
    let mut pool_a = insert_pool(steps.len(), 0xabc).into_iter();
    let mut pool_b = insert_pool(steps.len(), 0xabc).into_iter();
    for step in &steps {
        match step {
            Step::Insert => {
                let a = seq.insert_graph(pool_a.next().unwrap());
                let b = shared.insert_graph(pool_b.next().unwrap());
                assert_eq!(a, b, "both caches must assign the same graph id");
            }
            Step::Remove => {
                if seq.dataset().live_count() > 4 {
                    let live: Vec<_> = seq.dataset().live_mask().iter().collect();
                    let victim = live[rng_a.gen_range(0..live.len())] as u32;
                    let _ = rng_b.gen_range(0..live.len());
                    assert!(seq.remove_graph(victim));
                    assert!(shared.remove_graph(victim));
                }
            }
            Step::Query(kind) => {
                let q = live_query(&seq.dataset(), &mut rng_a);
                let _ = live_query(&shared.dataset(), &mut rng_b);
                let ra = seq.query(&q, *kind);
                let rb = shared.query(&q, *kind);
                let want = execute_base(&seq.dataset(), &SiMethod, Engine::Vf2, &q, *kind);
                assert_eq!(ra.answer, want.answer, "one shard disagrees with Method M");
                assert_eq!(rb.answer, want.answer, "four shards disagree with Method M");
            }
        }
    }
    assert_eq!(seq.dataset().generation(), shared.dataset().generation());
    assert_eq!(seq.dataset().content_fingerprint(), shared.dataset().content_fingerprint());
}

#[test]
fn memo_hit_is_zero_work_and_generation_invalidated() {
    let ds = dataset(20, 123);
    // Tiny cache: entries evict fast, so repeats miss the exact-match table
    // and fall through to the memo.
    let cfg = CacheConfig { capacity: 2, window_size: 1, ..config() };
    let gc = SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Lru, cfg)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(9);
    let q = extract_query(ds.graph(1), 6, &mut rng).unwrap();
    let first = gc.query(&q, QueryKind::Subgraph);
    assert!(!first.memo_hit);

    // Evict q's entry with a stream of distinct queries (capacity 2).
    for gid in 4..14u32 {
        let filler = extract_query(ds.graph(gid), 5, &mut rng).unwrap();
        gc.query(&filler, QueryKind::Subgraph);
    }
    assert!(gc.memo_len() > 0, "executed queries must land in the memo");

    let repeat = gc.query(&q, QueryKind::Subgraph);
    assert!(!repeat.exact_hit, "entry must have been evicted");
    assert!(repeat.memo_hit, "evicted repeat must be served by the answer memo");
    assert_eq!(repeat.sub_iso_tests, 0);
    assert_eq!(repeat.probe_tests, 0);
    assert_eq!(repeat.verify_steps, 0);
    assert_eq!(repeat.answer, first.answer);
    assert_eq!(gc.stats().memo_hits, 1);

    // A mutation bumps the generation: the whole memo is invalid at once.
    let inserted = gc.insert_graph(ds.graph(1).clone());
    let after = gc.query(&q, QueryKind::Subgraph);
    assert!(!after.memo_hit, "mutation must invalidate the memo");
    assert!(
        after.answer.contains(inserted as usize),
        "the re-executed answer must see the inserted duplicate graph"
    );
    let want = execute_base(&gc.dataset(), &SiMethod, Engine::Vf2, &q, QueryKind::Subgraph);
    assert_eq!(after.answer, want.answer);
}

#[test]
fn cached_entries_are_repaired_in_place_by_mutation() {
    let ds = dataset(20, 321);
    let gc =
        SharedGraphCache::with_policy(ds.clone(), Box::new(SiMethod), PolicyKind::Hd, config())
            .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let q = extract_query(ds.graph(2), 5, &mut rng).unwrap();
    let first = gc.query(&q, QueryKind::Subgraph);
    assert!(first.admitted.is_some(), "first execution must admit the entry");

    // Insert a duplicate of a known container: the cached entry's answer
    // set must now include it — served as an exact hit, no re-execution.
    let gid = gc.insert_graph(ds.graph(2).clone());
    let hit = gc.query(&q, QueryKind::Subgraph);
    assert!(hit.exact_hit, "repair must keep the entry servable");
    assert!(hit.answer.contains(gid as usize), "repaired answer must include the inserted graph");

    // Remove that graph again: the bit must drop out of the cached answer.
    assert!(gc.remove_graph(gid));
    let hit2 = gc.query(&q, QueryKind::Subgraph);
    assert!(hit2.exact_hit);
    assert!(!hit2.answer.contains(gid as usize), "removal must clear the cached bit");
    let want = execute_base(&gc.dataset(), &SiMethod, Engine::Vf2, &q, QueryKind::Subgraph);
    assert_eq!(hit2.answer, want.answer);
}

#[test]
fn warm_restart_replays_journaled_dataset_deltas() {
    let base = dataset(18, 555);
    let dir = tmpdir("deltas");
    let cfg = config();

    // Session A: snapshot first (pristine dataset), then mutate — the
    // mutations live only in the journal as dataset deltas.
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (a, _) = SharedGraphCache::restore_from(
        base.clone(),
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        cfg.clone(),
        store,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(12);
    let q = extract_query(base.graph(3), 5, &mut rng).unwrap();
    a.query(&q, QueryKind::Subgraph);
    a.snapshot_now().unwrap();

    let extra = molecule_dataset(3, 999);
    for g in extra {
        a.insert_graph(g);
    }
    assert!(a.remove_graph(0), "graph 0 must be removable");
    let final_gen = a.dataset().generation();
    let final_fp = a.dataset().content_fingerprint();
    let want = execute_base(&a.dataset(), &SiMethod, Engine::Vf2, &q, QueryKind::Subgraph);
    let final_answer = a.query(&q, QueryKind::Subgraph).answer;
    assert_eq!(final_answer, want.answer);
    a.attached_store().unwrap().sync().unwrap();
    drop(a);

    // Session B: restore from the *pristine* base — the deltas must be
    // replayed from the journal, and restored entries repaired to the
    // final universe.
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (b, report) = SharedGraphCache::restore_from(
        base,
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        cfg,
        store,
    )
    .unwrap();
    assert!(report.warm, "delta-bearing store must restore warm: {:?}", report.cold_reason);
    assert!(report.journal_deltas >= 4, "all four mutations must replay as journal deltas");
    assert_eq!(b.dataset().generation(), final_gen);
    assert_eq!(b.dataset().content_fingerprint(), final_fp);

    let r = b.query(&q, QueryKind::Subgraph);
    assert!(r.exact_hit, "restored entry must serve an exact hit");
    assert_eq!(r.answer, final_answer, "restored answer must be repaired to the final dataset");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_accepts_already_mutated_base_dataset() {
    let base = dataset(14, 777);
    let dir = tmpdir("mutated_base");
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (a, _) = SharedGraphCache::restore_from(
        base.clone(),
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        config(),
        store,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let q = extract_query(base.graph(1), 5, &mut rng).unwrap();
    a.query(&q, QueryKind::Subgraph);
    for g in molecule_dataset(2, 31) {
        a.insert_graph(g);
    }
    a.snapshot_now().unwrap();
    let mutated = Arc::new((*a.dataset()).clone());
    let answer = a.query(&q, QueryKind::Subgraph).answer;
    drop(a);

    // Restoring with the already-mutated dataset (e.g. the caller replayed
    // its own op log) must also work — no double-application of ops.
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (b, report) = SharedGraphCache::restore_from(
        mutated.clone(),
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        config(),
        store,
    )
    .unwrap();
    assert!(report.warm, "mutated base matching the snapshot must restore warm");
    assert_eq!(b.dataset().content_fingerprint(), mutated.content_fingerprint());
    assert_eq!(b.query(&q, QueryKind::Subgraph).answer, answer);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 3: a mutation racing `snapshot_now` must neither deadlock nor
/// have its delta dropped between the rotated-away journal and the new one.
/// Every mutation that returned must be recoverable from the store.
#[test]
fn mutations_racing_snapshots_are_never_dropped() {
    let base = dataset(16, 888);
    let dir = tmpdir("race");
    let cfg = CacheConfig { shards: 4, ..config() };
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let mut gc = SharedGraphCache::new(
        base.clone(),
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        cfg.clone(),
    )
    .unwrap();
    gc.attach_store(store).unwrap();
    let gc = Arc::new(gc);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let snapper = {
        let gc = Arc::clone(&gc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rotations = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                gc.snapshot_now().unwrap();
                rotations += 1;
            }
            rotations
        })
    };
    let querier = {
        let gc = Arc::clone(&gc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(3);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let ds = gc.dataset();
                let q = live_query(&ds, &mut rng);
                gc.query(&q, QueryKind::Subgraph);
            }
        })
    };

    // Main thread: a burst of mutations interleaved with the snapshots.
    let extra = molecule_dataset(24, 444);
    let mut inserted = Vec::new();
    for (i, g) in extra.into_iter().enumerate() {
        inserted.push(gc.insert_graph(g));
        if i % 3 == 2 {
            let victim = inserted.remove(0);
            assert!(gc.remove_graph(victim));
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let rotations = snapper.join().unwrap();
    querier.join().unwrap();
    assert!(rotations > 0, "the snapshot thread must have rotated at least once");

    let final_gen = gc.dataset().generation();
    let final_fp = gc.dataset().content_fingerprint();
    assert_eq!(final_gen, 24 + 8, "every mutation must have applied");
    drop(gc);

    // Recovery sees every mutation: none fell between snapshot and journal.
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let (b, report) = SharedGraphCache::restore_from(
        base,
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        cfg,
        store,
    )
    .unwrap();
    assert!(report.warm, "store must restore warm: {:?}", report.cold_reason);
    assert_eq!(b.dataset().generation(), final_gen, "no mutation may be dropped");
    assert_eq!(b.dataset().content_fingerprint(), final_fp);
    let _ = std::fs::remove_dir_all(&dir);
}
