//! Concurrency microbenches: SharedGraphCache hot paths under parallel
//! clients.
//!
//! * `shared_exact_hit` — the read-then-write exact fast path, one client;
//! * `shared_miss_probe` — full pipeline misses against a warm cache;
//! * `contended_clients/N` — a fixed batch of mixed queries split over N
//!   client threads (thread spawn included, so compare N against N — the
//!   interesting trend is how batch time changes with N as cores allow).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
use gc_method::{Dataset, FtvMethod, QueryKind};
use gc_workload::{extract_query, molecule_dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn warmed_shared(dataset: &Arc<Dataset>, entries: usize, seed: u64) -> SharedGraphCache {
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(FtvMethod::build(dataset, 2)),
        PolicyKind::Hd,
        CacheConfig { capacity: entries.max(1), window_size: 10, ..CacheConfig::default() },
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

fn bench_concurrent(c: &mut Criterion) {
    let dataset = Arc::new(Dataset::new(molecule_dataset(100, 90210)));
    let mut group = c.benchmark_group("shared_graphcache");
    group.sample_size(20).measurement_time(Duration::from_secs(2));

    // Exact-hit fast path through the sharded cache.
    let gc = warmed_shared(&dataset, 50, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let hot = extract_query(dataset.graph(5), 7, &mut rng).unwrap();
    gc.query(&hot, QueryKind::Subgraph); // ensure cached
    group.bench_function("shared_exact_hit", |b| {
        b.iter(|| gc.query(std::hint::black_box(&hot), QueryKind::Subgraph).answer.count())
    });

    // Miss path: all-shard probe + prune + verify.
    let mut rng = StdRng::seed_from_u64(1000);
    let fresh: Vec<_> = (0..10)
        .map(|i| extract_query(dataset.graph(90 + (i % 10)), 9, &mut rng).unwrap())
        .collect();
    group.bench_function("shared_miss_probe", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for q in &fresh {
                n += gc.query(std::hint::black_box(q), QueryKind::Subgraph).answer.count();
            }
            n
        })
    });

    // Contended: one fixed 64-query batch split over N clients.
    let mut rng = StdRng::seed_from_u64(3000);
    let batch: Vec<_> = (0..64)
        .map(|i| extract_query(dataset.graph((i * 7 % 100) as u32), 5 + i % 6, &mut rng).unwrap())
        .collect();
    for &clients in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("contended_clients", clients),
            &clients,
            |b, &clients| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for t in 0..clients {
                            let gc = &gc;
                            let batch = &batch;
                            scope.spawn(move || {
                                let mut n = 0usize;
                                for q in batch.iter().skip(t).step_by(clients) {
                                    n += gc.query(q, QueryKind::Subgraph).answer.count();
                                }
                                n
                            });
                        }
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_concurrent);
criterion_main!(benches);
