//! The answer check: every checked answer must equal Method M's answer at
//! a dataset generation the query could have seen.
//!
//! Method M (FTV, L=2) runs once per distinct pool query over generation 0.
//! A later generation's answer follows from the mutation log: a removed
//! graph leaves the answer, an inserted graph joins it iff one VF2 test
//! says it answers the query. Everything here runs outside timed windows.

use crate::inputs::Inputs;
use gc_graph::{BitSet, GraphId};
use gc_method::{execute_base, Dataset, Engine, FtvMethod, Method, QueryKind};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Feature size of the FTV filter (Method M), as in exp2.
pub const FTV_L: usize = 2;

/// One applied mutation, in generation order.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Graph `inputs.fresh[fresh]` was inserted and got id `gid`.
    Insert {
        gid: GraphId,
        fresh: usize,
    },
    Remove {
        gid: GraphId,
    },
}

/// One answer to check: pool query `idx`, answered at some generation in
/// `lo..=hi`.
#[derive(Debug, Clone)]
pub struct Checked {
    pub idx: usize,
    pub lo: u64,
    pub hi: u64,
    pub answer: Vec<usize>,
}

/// Method M's run of one pool query over generation 0.
#[derive(Debug, Clone)]
pub struct BaseRun {
    pub answer: BitSet,
    pub candidates: usize,
    pub elapsed: Duration,
    pub filter: Duration,
}

pub struct Oracle<'a> {
    inputs: &'a Inputs,
    pub dataset: Dataset,
    pub method: FtvMethod,
    base: HashMap<usize, BaseRun>,
    joins: HashMap<(usize, usize), bool>,
}

impl<'a> Oracle<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        let dataset = Dataset::new(inputs.graphs.clone());
        let method = FtvMethod::build(&dataset, FTV_L);
        Oracle { inputs, dataset, method, base: HashMap::new(), joins: HashMap::new() }
    }

    pub fn base(&mut self, idx: usize) -> &BaseRun {
        let (ds, method, inputs) = (&self.dataset, &self.method, self.inputs);
        self.base.entry(idx).or_insert_with(|| {
            let (q, kind) = &inputs.pool[idx];
            let t = Instant::now();
            let filtered = method.filter(ds, q, *kind);
            let filter = t.elapsed();
            std::hint::black_box(filtered);
            let run = execute_base(ds, method, Engine::Vf2, q, *kind);
            BaseRun { answer: run.answer, candidates: run.candidates, elapsed: run.elapsed, filter }
        })
    }

    /// Does the graph inserted by `ops[k]` answer pool query `idx`?
    fn joins(&mut self, idx: usize, k: usize, fresh: usize) -> bool {
        let inputs = self.inputs;
        *self.joins.entry((idx, k)).or_insert_with(|| {
            let (q, kind) = &inputs.pool[idx];
            let g = &inputs.fresh[fresh];
            match kind {
                QueryKind::Subgraph => Engine::Vf2.verify(q, g).0,
                QueryKind::Supergraph => Engine::Vf2.verify(g, q).0,
            }
        })
    }

    /// `true` iff `c.answer` equals Method M's answer at some generation in
    /// `c.lo..=c.hi` of the mutation log `ops`.
    pub fn check(&mut self, c: &Checked, ops: &[Op]) -> bool {
        let mut expect = self.base(c.idx).answer.clone();
        let hi = (c.hi as usize).min(ops.len());
        for (k, op) in ops.iter().enumerate().take(hi) {
            if k >= c.lo as usize && same(&expect, &c.answer) {
                return true;
            }
            match *op {
                Op::Insert { gid, fresh } => {
                    if self.joins(c.idx, k, fresh) {
                        expect.grow(gid as usize + 1);
                        expect.insert(gid as usize);
                    }
                }
                Op::Remove { gid } => {
                    if (gid as usize) < expect.universe() {
                        expect.remove(gid as usize);
                    }
                }
            }
        }
        same(&expect, &c.answer)
    }
}

fn same(expect: &BitSet, answer: &[usize]) -> bool {
    expect.count() == answer.len() && expect.iter().eq(answer.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Draw;

    #[test]
    fn generations_follow_the_mutation_log() {
        let inputs = Inputs::generate(40, Draw::Uniform, 4);
        let mut oracle = Oracle::new(&inputs);
        let idx = (0..inputs.pool.len())
            .find(|&i| inputs.pool[i].1 == QueryKind::Subgraph && oracle.base(i).answer.count() > 1)
            .expect("a subgraph query with two answers");
        let base: Vec<usize> = oracle.base(idx).answer.to_vec();
        let gone = base[0] as GraphId;
        let ops = [Op::Remove { gid: gone }];
        let at = |lo, hi, answer: &[usize]| Checked { idx, lo, hi, answer: answer.to_vec() };
        assert!(oracle.check(&at(0, 0, &base), &ops));
        assert!(!oracle.check(&at(1, 1, &base), &ops));
        assert!(oracle.check(&at(0, 1, &base[1..]), &ops));
        assert!(oracle.check(&at(1, 1, &base[1..]), &ops));
        assert!(!oracle.check(&at(0, 0, &base[1..]), &ops));
    }

    #[test]
    fn inserted_graph_joins_the_answers_it_contains() {
        let mut inputs = Inputs::generate(1, Draw::Uniform, 2);
        inputs.graphs.truncate(50);
        // The fresh graph itself, as a subgraph query, is contained in it.
        inputs.pool = vec![(inputs.fresh[0].clone(), QueryKind::Subgraph)];
        let mut oracle = Oracle::new(&inputs);
        let ops = [Op::Insert { gid: 50, fresh: 0 }];
        let mut answer = oracle.base(0).answer.to_vec();
        assert!(oracle.check(&Checked { idx: 0, lo: 0, hi: 0, answer: answer.clone() }, &ops));
        assert!(!oracle.check(&Checked { idx: 0, lo: 1, hi: 1, answer: answer.clone() }, &ops));
        answer.push(50);
        assert!(oracle.check(&Checked { idx: 0, lo: 1, hi: 1, answer }, &ops));
    }
}
