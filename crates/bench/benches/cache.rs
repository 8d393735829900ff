//! GraphCache hot-path microbenches: exact-hit latency, miss-path latency,
//! and hit-probe cost as the cache grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
use gc_method::{Dataset, FtvMethod, QueryKind};
use gc_workload::{extract_query, molecule_dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn warmed_cache(dataset: &Arc<Dataset>, entries: usize, seed: u64) -> SharedGraphCache {
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(FtvMethod::build(dataset, 2)),
        PolicyKind::Hd,
        CacheConfig {
            capacity: entries.max(1),
            window_size: 10,
            shards: 1,
            ..CacheConfig::default()
        },
    )
    .expect("valid config");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut guard = 0;
    while gc.len() < entries && guard < entries * 20 {
        guard += 1;
        let src = dataset.graph((guard % dataset.len()) as u32);
        if let Some(q) = extract_query(src, 4 + guard % 8, &mut rng) {
            gc.query(&q, QueryKind::Subgraph);
        }
    }
    gc
}

fn bench_cache(c: &mut Criterion) {
    let dataset = Arc::new(Dataset::new(molecule_dataset(100, 31337)));
    let mut group = c.benchmark_group("graphcache");
    group.sample_size(20).measurement_time(Duration::from_secs(2));

    // Exact-hit fast path: resubmit a query the cache holds.
    let gc = warmed_cache(&dataset, 50, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let hot = extract_query(dataset.graph(5), 7, &mut rng).unwrap();
    gc.query(&hot, QueryKind::Subgraph); // ensure cached
    group.bench_function("exact_hit", |b| {
        b.iter(|| gc.query(std::hint::black_box(&hot), QueryKind::Subgraph).answer.count())
    });

    // Probe cost as cache size grows: query misses but must be checked
    // against all cached entries' feature vectors.
    for &entries in &[10usize, 50, 200] {
        let gc = warmed_cache(&dataset, entries, 3);
        let mut rng = StdRng::seed_from_u64(1000);
        let fresh: Vec<_> = (0..10)
            .map(|i| extract_query(dataset.graph(90 + (i % 10)), 9, &mut rng).unwrap())
            .collect();
        group.bench_with_input(BenchmarkId::new("miss_with_probe", entries), &entries, |b, _| {
            b.iter(|| {
                let mut n = 0usize;
                for q in &fresh {
                    n += gc.query(std::hint::black_box(q), QueryKind::Subgraph).answer.count();
                }
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
