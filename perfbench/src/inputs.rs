//! Inputs: the data graphs, the query pool, the query stream and the
//! graphs mutations insert. The program under test only ever sees what
//! these produce.
//!
//! The corpus — dataset, pool and insert graphs — and the warm-up stream
//! come from one fixed seed, so every run measures the same data from the
//! same warm state; the run's `--seed` drives the order of the measured
//! query stream, the graphs mutations remove and the answer-check sample. Which dataset and which hot queries a run gets
//! would otherwise move its figures by more than any bound worth
//! enforcing.

use gc_graph::Graph;
use gc_method::QueryKind;
use gc_workload::{extract_query, molecule_dataset, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Data graphs in the dataset.
pub const DATASET_GRAPHS: usize = 5_000;
/// Edge range of subgraph queries.
pub const QUERY_EDGES: (usize, usize) = (4, 12);
/// Share of supergraph queries in the pool.
pub const SUPERGRAPH_FRACTION: f64 = 0.2;
/// Seed of the corpus (dataset, pool, insert graphs).
pub const CORPUS_SEED: u64 = 0x6763_2d62_656e_6368;

/// How queries are drawn from the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Draw {
    Zipf(f64),
    Uniform,
}

/// The corpus and how queries are drawn from it.
pub struct Inputs {
    pub graphs: Vec<Graph>,
    pub pool: Vec<(Graph, QueryKind)>,
    /// Graphs for inserts, from a seed disjoint from the dataset's.
    pub fresh: Vec<Graph>,
    pub draw: Draw,
}

impl Inputs {
    pub fn generate(pool_size: usize, draw: Draw, fresh: usize) -> Inputs {
        let graphs = molecule_dataset(DATASET_GRAPHS, CORPUS_SEED);
        let mut rng = StdRng::seed_from_u64(CORPUS_SEED ^ 0x706f_6f6c);
        let pool = (0..pool_size).map(|_| pool_query(&graphs, &mut rng)).collect();
        let fresh = molecule_dataset(fresh, CORPUS_SEED ^ 0x6672_6573_6800);
        Inputs { graphs, pool, fresh, draw }
    }

    /// A query stream: pool indices, an endless pure function of `seed`.
    pub fn stream(&self, seed: u64) -> QueryStream {
        let sampler = match self.draw {
            Draw::Zipf(s) => Some(Zipf::new(self.pool.len(), s)),
            Draw::Uniform => None,
        };
        let rng = StdRng::seed_from_u64(seed ^ 0x7374_7265_616d);
        QueryStream { rng, sampler, n: self.pool.len() }
    }
}

/// One pool query: a connected subgraph of a random data graph (subgraph
/// query), or a whole data graph (supergraph query, so that its answer is
/// not trivially empty) — the shape `gc_workload::Workload` generates.
fn pool_query(graphs: &[Graph], rng: &mut StdRng) -> (Graph, QueryKind) {
    let kind =
        if rng.gen_bool(SUPERGRAPH_FRACTION) { QueryKind::Supergraph } else { QueryKind::Subgraph };
    loop {
        let source = &graphs[rng.gen_range(0..graphs.len())];
        match kind {
            QueryKind::Subgraph => {
                let target = rng.gen_range(QUERY_EDGES.0..=QUERY_EDGES.1);
                if let Some(q) = extract_query(source, target, rng) {
                    return (q, kind);
                }
            }
            QueryKind::Supergraph if source.edge_count() > 0 => return (source.clone(), kind),
            QueryKind::Supergraph => {}
        }
    }
}

pub struct QueryStream {
    rng: StdRng,
    sampler: Option<Zipf>,
    n: usize,
}

impl QueryStream {
    pub fn next_index(&mut self) -> usize {
        match &self.sampler {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.n),
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.next_index()).collect()
    }
}

/// A seeded, fixed sample of stream positions for the answer check of
/// timed runs: position `i` is checked when it falls on the seed's offset.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    period: u64,
    offset: u64,
}

impl Sampler {
    pub fn new(seed: u64, period: u64) -> Sampler {
        Sampler { period, offset: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % period }
    }

    pub fn hit(&self, pos: u64) -> bool {
        pos % self.period == self.offset
    }
}
