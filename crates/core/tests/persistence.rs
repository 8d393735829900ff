//! Cache persistence: export a session's entries as a snapshot, import them
//! into a new session with `restore_from`, and keep serving exact answers
//! with immediate hits.

use gc_core::{CacheConfig, CacheStore, PolicyKind, SharedGraphCache};
use gc_method::{execute_base, Dataset, Engine, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc_persistence_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> CacheConfig {
    CacheConfig { capacity: 20, window_size: 2, shards: 1, ..CacheConfig::default() }
}

fn session(dataset: &Arc<Dataset>) -> SharedGraphCache {
    SharedGraphCache::with_policy(dataset.clone(), Box::new(SiMethod), PolicyKind::Hd, config())
        .unwrap()
}

fn import(
    dataset: &Arc<Dataset>,
    config: CacheConfig,
    dir: &Path,
) -> (SharedGraphCache, gc_core::RecoveryReport) {
    SharedGraphCache::restore_from(
        dataset.clone(),
        Arc::new(SiMethod),
        || PolicyKind::Hd.make(),
        config,
        Arc::new(CacheStore::open(dir).unwrap()),
    )
    .unwrap()
}

fn workload(dataset: &Arc<Dataset>) -> Workload {
    let spec = WorkloadSpec {
        n_queries: 40,
        pool_size: 15,
        kind: WorkloadKind::Zipf { skew: 1.0 },
        seed: 17,
        ..WorkloadSpec::default()
    };
    Workload::generate(dataset.graphs(), &spec)
}

#[test]
fn export_import_roundtrip_preserves_hits() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(25, 404)));
    let w = workload(&dataset);
    let dir = tmpdir("roundtrip");

    let mut first = session(&dataset);
    for wq in &w.queries {
        first.query(&wq.graph, wq.kind);
    }
    let exported = first.attach_store(Arc::new(CacheStore::open(&dir).unwrap())).unwrap();
    assert!(exported.entries > 0);

    let (second, report) = import(&dataset, config(), &dir);
    assert!(report.warm, "{:?}", report.cold_reason);
    assert_eq!(report.entries_restored, exported.entries);
    assert_eq!(second.len(), first.len());

    // The very first queries of the new session are already exact hits.
    let mut exact_hits = 0;
    for wq in w.queries.iter().take(10) {
        let r1 = second.query(&wq.graph, wq.kind);
        let r2 = first.query(&wq.graph, wq.kind);
        assert_eq!(r1.answer, r2.answer, "warm-start answers must match");
        let base = execute_base(&dataset, &SiMethod, Engine::Vf2, &wq.graph, wq.kind);
        assert_eq!(r1.answer, base.answer, "warm-start answers must be Method M's");
        exact_hits += u64::from(r1.exact_hit);
    }
    assert!(exact_hits > 0, "warm-started cache must hit immediately");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn import_rejects_foreign_universe() {
    let dataset_a = Arc::new(Dataset::new(molecule_dataset(25, 1)));
    let dataset_b = Arc::new(Dataset::new(molecule_dataset(10, 2)));
    let w = workload(&dataset_a);
    let dir = tmpdir("foreign_universe");
    let mut a = session(&dataset_a);
    for wq in &w.queries {
        a.query(&wq.graph, wq.kind);
    }
    a.attach_store(Arc::new(CacheStore::open(&dir).unwrap())).unwrap();
    drop(a);

    let (b, report) = import(&dataset_b, config(), &dir);
    assert!(!report.warm, "a snapshot over 25 graphs must not import into 10");
    assert!(report.cold_reason.is_some());
    assert!(b.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn import_dedups_and_respects_capacity() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(25, 3)));
    let w = workload(&dataset);
    let dir = tmpdir("dedup");

    // Two sessions journal into one store: the second attach rotates, so
    // the surviving journal holds each admission of both sessions, and
    // every entry is admitted twice.
    let store = Arc::new(CacheStore::open(&dir).unwrap());
    let mut a = session(&dataset);
    let mut b = session(&dataset);
    a.attach_store(Arc::clone(&store)).unwrap();
    b.attach_store(Arc::clone(&store)).unwrap();
    for wq in &w.queries {
        a.query(&wq.graph, wq.kind);
        b.query(&wq.graph, wq.kind);
    }
    assert_eq!(a.stats().evicted, 0, "the workload fits: no eviction records");
    let entries = a.len();
    assert!(entries > 3);
    store.sync().unwrap();
    drop((a, b, store));

    // Importing skips the exact duplicates.
    let (restored, report) = import(&dataset, config(), &dir);
    assert!(report.warm, "{:?}", report.cold_reason);
    assert_eq!(report.journal_admits, 2 * entries);
    assert_eq!(report.entries_restored, entries);
    assert_eq!(restored.len(), entries);
    drop(restored);

    // Importing into a tiny cache trims to capacity.
    let tiny = CacheConfig { capacity: 3, window_size: 1, ..config() };
    let (tiny, report) = import(&dataset, tiny, &dir);
    assert!(report.warm);
    assert_eq!(tiny.len(), 3);
    for wq in w.queries.iter().take(10) {
        let base = execute_base(&dataset, &SiMethod, Engine::Vf2, &wq.graph, wq.kind);
        assert_eq!(tiny.query(&wq.graph, wq.kind).answer, base.answer);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
