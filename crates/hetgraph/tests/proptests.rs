//! Property-based tests for heterograph invariants.

use fedda_hetgraph::{
    split, EdgeIndex, EdgeList, EdgeTypeId, HeteroGraph, LinkSampler, NodeId, NodeStore, Schema,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Random two-type heterograph with a directed a→b type and a symmetric a–a
/// type.
fn random_graph(na: usize, nb: usize, n_ab: usize, n_aa: usize, seed: u64) -> HeteroGraph {
    let mut s = Schema::new();
    let a = s.add_node_type("a", 2);
    let b = s.add_node_type("b", 2);
    s.add_edge_type("ab", a, b, false);
    s.add_edge_type("aa", a, a, true);
    let store = Arc::new(NodeStore::new(
        s,
        &[na, nb],
        vec![vec![0.0; na * 2], vec![0.0; nb * 2]],
    ));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ab = EdgeList::new();
    for _ in 0..n_ab {
        ab.push(
            rng.gen_range(0..na) as u32,
            (na + rng.gen_range(0..nb)) as u32,
        );
    }
    let mut aa = EdgeList::new();
    for _ in 0..n_aa {
        aa.push(rng.gen_range(0..na) as u32, rng.gen_range(0..na) as u32);
    }
    HeteroGraph::from_edges(store, vec![ab, aa])
}

/// Nodes of the padding type that sits between `a` and `b` in
/// [`wide_graph`], so every `b` id exceeds 2¹⁶.
const PAD: usize = 70_000;

/// Heterograph whose `b` node ids all exceed 2¹⁶: types `a` (`na` nodes),
/// `pad` ([`PAD`] nodes) and `b` (`nb` nodes); edge types `ab` (a→b),
/// `aa` (symmetric, self-loops allowed), `bb` (b→b) and `apad`, which never
/// gets an edge. Endpoints are drawn from small ranges, so duplicate edges
/// are common; the first `ab` edge is also pushed twice.
fn wide_graph(na: usize, nb: usize, n_edges: [usize; 3], seed: u64) -> HeteroGraph {
    let mut s = Schema::new();
    let a = s.add_node_type("a", 1);
    let pad = s.add_node_type("pad", 1);
    let b = s.add_node_type("b", 1);
    s.add_edge_type("ab", a, b, false);
    s.add_edge_type("aa", a, a, true);
    s.add_edge_type("bb", b, b, false);
    s.add_edge_type("apad", a, pad, false);
    let store = Arc::new(NodeStore::new(
        s,
        &[na, PAD, nb],
        vec![vec![0.0; na], vec![0.0; PAD], vec![0.0; nb]],
    ));
    let a_id = |rng: &mut StdRng| rng.gen_range(0..na) as NodeId;
    let b_id = |rng: &mut StdRng| (na + PAD + rng.gen_range(0..nb)) as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lists = vec![
        EdgeList::new(),
        EdgeList::new(),
        EdgeList::new(),
        EdgeList::new(),
    ];
    for _ in 0..n_edges[0] {
        let (s, d) = (a_id(&mut rng), b_id(&mut rng));
        lists[0].push(s, d);
    }
    let first = lists[0].iter().next();
    if let Some((s, d)) = first {
        lists[0].push(s, d);
    }
    for _ in 0..n_edges[1] {
        let (s, d) = (a_id(&mut rng), a_id(&mut rng));
        lists[1].push(s, d);
    }
    for _ in 0..n_edges[2] {
        let (s, d) = (b_id(&mut rng), b_id(&mut rng));
        lists[2].push(s, d);
    }
    HeteroGraph::from_edges(store, lists)
}

#[test]
#[should_panic(expected = "EdgeIndex of")]
fn with_index_rejects_an_index_of_another_graph() {
    let g = random_graph(4, 4, 10, 3, 1);
    let other = random_graph(4, 4, 12, 3, 1);
    let index = EdgeIndex::new(&other);
    let _ = LinkSampler::with_index(&g, &index);
}

proptest! {
    #[test]
    fn edge_index_agrees_with_a_btreeset(
        na in 1usize..6, nb in 1usize..6,
        n_ab in 0usize..30, n_aa in 0usize..30, n_bb in 0usize..30,
        seed in any::<u64>(),
    ) {
        let g = wide_graph(na, nb, [n_ab, n_aa, n_bb], seed);
        let index = EdgeIndex::new(&g);
        prop_assert_eq!(index.num_edges(), g.num_edges());
        let mut reference = BTreeSet::new();
        for t in g.schema().edge_type_ids() {
            for (s, d) in g.edges_of_type(t).iter() {
                reference.insert((t.0, s, d));
            }
        }
        // Every edge, plus its neighbours in key space: the reversed pair and
        // single-bit flips of either endpoint, alone and paired with a low
        // bit of the other (these collide under a lossy packing such as
        // `(src << 16) ^ dst` or a `u32` shift).
        let flips = [1u32, 1 << 15, 1 << 16, 1 << 17];
        for &(t, s, d) in &reference {
            prop_assert!(index.contains(EdgeTypeId(t), s, d));
            let mut near = vec![(d, s)];
            for f in flips {
                near.extend([(s ^ f, d), (s, d ^ f), (s ^ 1, d ^ f), (s ^ f, d ^ 1)]);
            }
            for (s2, d2) in near {
                prop_assert_eq!(
                    index.contains(EdgeTypeId(t), s2, d2),
                    reference.contains(&(t, s2, d2)),
                    "type {} pair ({}, {}) near edge ({}, {})", t, s2, d2, s, d
                );
            }
        }
        // Random probes over every type (plus one past the last) and the
        // whole id range, so both endpoints of `bb` and mixed-type pairs
        // are covered; tiny node counts make many probes hit edges.
        let n = g.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1D);
        let pick = |rng: &mut StdRng| match rng.gen_range(0..3) {
            0 => rng.gen_range(0..na) as NodeId,
            1 => (na + PAD + rng.gen_range(0..nb)) as NodeId,
            _ => rng.gen_range(0..n) as NodeId,
        };
        for _ in 0..200 {
            let t = rng.gen_range(0..5u16);
            let (s, d) = (pick(&mut rng), pick(&mut rng));
            prop_assert_eq!(
                index.contains(EdgeTypeId(t), s, d),
                reference.contains(&(t, s, d)),
                "type {} edge ({}, {})", t, s, d
            );
        }
    }

    #[test]
    fn borrowed_index_samples_like_an_owned_one(
        na in 1usize..6, nb in 1usize..6,
        n_ab in 1usize..30, n_aa in 0usize..30, n_bb in 0usize..30,
        seed in any::<u64>(), k in 1usize..6,
    ) {
        let g = wide_graph(na, nb, [n_ab, n_aa, n_bb], seed);
        let index = EdgeIndex::new(&g);
        let owned = LinkSampler::new(&g);
        let borrowed = LinkSampler::with_index(&g, &index);
        let pos = owned.all_positives();
        let a = owned.with_negatives(&pos, k, &mut StdRng::seed_from_u64(seed ^ 3));
        let b = borrowed.with_negatives(&pos, k, &mut StdRng::seed_from_u64(seed ^ 3));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn split_conserves_edge_count(
        na in 2usize..12, nb in 2usize..12,
        n_ab in 0usize..40, n_aa in 0usize..40,
        seed in any::<u64>(), frac in 0.0f64..0.9,
    ) {
        let g = random_graph(na, nb, n_ab, n_aa, seed);
        let split = split::split_edges(&g, frac, &mut StdRng::seed_from_u64(seed ^ 1));
        prop_assert_eq!(split.train.num_edges() + split.test.num_edges(), g.num_edges());
        // splits respect per-type counts too
        for t in 0..2u16 {
            let t = EdgeTypeId(t);
            prop_assert_eq!(
                split.train.edges_of_type(t).len() + split.test.edges_of_type(t).len(),
                g.edges_of_type(t).len()
            );
        }
    }

    #[test]
    fn edge_type_distribution_is_a_distribution(
        na in 2usize..12, nb in 2usize..12,
        n_ab in 1usize..40, n_aa in 0usize..40,
        seed in any::<u64>(),
    ) {
        let g = random_graph(na, nb, n_ab, n_aa, seed);
        let dist = g.edge_type_distribution();
        let sum: f64 = dist.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(dist.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn message_edges_count_matches_formula(
        na in 2usize..10, nb in 2usize..10,
        n_ab in 0usize..30, n_aa in 0usize..30,
        seed in any::<u64>(), self_loops in any::<bool>(),
    ) {
        let g = random_graph(na, nb, n_ab, n_aa, seed);
        let me = g.message_edges(self_loops);
        let self_edges = g
            .edges_of_type(EdgeTypeId(1))
            .iter()
            .filter(|&(s, d)| s == d)
            .count();
        let expected = n_ab + 2 * n_aa - self_edges
            + if self_loops { na + nb } else { 0 };
        prop_assert_eq!(me.len(), expected);
        // every message's endpoints are in range
        let n = g.num_nodes() as u32;
        prop_assert!(me.src.iter().all(|&s| s < n));
        prop_assert!(me.dst.iter().all(|&d| d < n));
    }

    #[test]
    fn negatives_always_respect_dst_type(
        na in 2usize..10, nb in 2usize..10,
        n_ab in 1usize..20, seed in any::<u64>(),
    ) {
        let g = random_graph(na, nb, n_ab, 5, seed);
        let sampler = LinkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let pos = sampler.all_positives();
        let all = sampler.with_negatives(&pos, 2, &mut rng);
        for e in all.iter().filter(|e| !e.label) {
            let expect = g.schema().edge_type(e.etype).dst_type;
            prop_assert_eq!(g.nodes().type_of(e.dst), expect);
        }
    }

    #[test]
    fn in_degrees_sum_to_message_count(
        na in 2usize..10, nb in 2usize..10,
        n_ab in 0usize..30, n_aa in 0usize..30,
        seed in any::<u64>(),
    ) {
        let g = random_graph(na, nb, n_ab, n_aa, seed);
        let me = g.message_edges(true);
        let deg = g.message_in_degrees(true);
        prop_assert_eq!(deg.iter().map(|&d| d as usize).sum::<usize>(), me.len());
    }
}
