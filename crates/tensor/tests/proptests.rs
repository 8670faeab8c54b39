//! Property-based tests over the tensor kernels and autodiff invariants.

use fedda_tensor::{Graph, Matrix, ParamSet, Segments, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// A message-passing edge list over `n` nodes and `n_types` edge types.
struct Edges {
    n: usize,
    n_types: usize,
    src: Arc<Vec<u32>>,
    dst: Arc<Vec<u32>>,
    etype: Arc<Vec<u32>>,
    segs: Arc<Segments>,
}

/// `e` random edges grouped by destination. Node `n - 1` never receives a
/// message (an empty segment), and the list mixes self-loops and exact
/// duplicates of earlier edges in with plain edges.
fn random_edges(e: usize, rng: &mut StdRng) -> Edges {
    let n = rng.gen_range(2usize..8);
    let n_types = rng.gen_range(1usize..4);
    let (mut src, mut dst, mut etype) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..e {
        let t = rng.gen_range(0..n_types as u32);
        let (s, d, t) = match rng.gen_range(0u8..4) {
            0 if i > 0 => {
                let j = rng.gen_range(0..i);
                (src[j], dst[j], etype[j])
            }
            1 => {
                let v = rng.gen_range(0..n as u32 - 1);
                (v, v, t)
            }
            _ => (
                rng.gen_range(0..n as u32),
                rng.gen_range(0..n as u32 - 1),
                t,
            ),
        };
        src.push(s);
        dst.push(d);
        etype.push(t);
    }
    Edges {
        n,
        n_types,
        segs: Arc::new(Segments::new(dst.clone(), n)),
        src: Arc::new(src),
        dst: Arc::new(dst),
        etype: Arc::new(etype),
    }
}

/// A random `[r, c]` matrix; with `non_finite`, about a quarter of the
/// entries are NaN, +inf or -inf.
fn random_matrix(rng: &mut StdRng, r: usize, c: usize, non_finite: bool) -> Matrix {
    let data = (0..r * c)
        .map(|_| {
            if non_finite && rng.gen_range(0u8..4) == 0 {
                [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0usize..3)]
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect();
    Matrix::from_vec(r, c, data)
}

/// Bit pattern of `x`, with every NaN mapped to one canonical NaN: Rust
/// leaves the sign and payload of a NaN result unspecified (the compiler
/// may commute the operands of `+` and `*`, and x86 propagates the first
/// NaN operand), so only "NaN here" is a stable contract. Every other value,
/// ±inf and ±0 included, must match bit for bit.
fn bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn value_bits(g: &Graph, v: Var) -> Vec<u32> {
    g.value(v).as_slice().iter().map(|&x| bits(x)).collect()
}

fn grad_bits(g: &Graph, v: Var) -> Option<Vec<u32>> {
    g.grad(v)
        .map(|m| m.as_slice().iter().map(|&x| bits(x)).collect())
}

/// The primitive chain `Graph::gat_attention` fuses.
fn composed_attention(
    g: &mut Graph,
    s_src: Var,
    s_dst: Var,
    per_type: Option<Var>,
    edges: &Edges,
    slope: f32,
) -> Var {
    let e_src = g.gather_rows(s_src, edges.src.clone());
    let e_dst = g.gather_rows(s_dst, edges.dst.clone());
    let mut score = g.add(e_src, e_dst);
    if let Some(p) = per_type {
        let per_edge = g.gather_rows(p, edges.etype.clone());
        score = g.add(score, per_edge);
    }
    let act = g.leaky_relu(score, slope);
    g.segment_softmax(act, edges.segs.clone())
}

fn fused_attention(
    g: &mut Graph,
    s_src: Var,
    s_dst: Var,
    per_type: Option<Var>,
    edges: &Edges,
    slope: f32,
) -> Var {
    g.gat_attention(
        s_src,
        s_dst,
        per_type,
        edges.src.clone(),
        edges.dst.clone(),
        edges.etype.clone(),
        edges.segs.clone(),
        slope,
    )
}

/// The primitive chain `Graph::gather_scale_scatter` fuses.
fn composed_aggregate(g: &mut Graph, h: Var, alpha: Var, edges: &Edges) -> Var {
    let gathered = g.gather_rows(h, edges.src.clone());
    let weighted = g.mul_col_broadcast(gathered, alpha);
    g.scatter_add_rows(weighted, edges.dst.clone(), edges.n)
}

fn fused_aggregate(g: &mut Graph, h: Var, alpha: Var, edges: &Edges) -> Var {
    g.gather_scale_scatter(h, alpha, edges.src.clone(), edges.dst.clone(), edges.n)
}

const BOTH_FLAGS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

proptest! {
    #[test]
    fn gat_attention_is_bit_identical_to_the_composed_chain(
        e in 0usize..=64, seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = random_edges(e, &mut rng);
        for (with_types, non_finite) in BOTH_FLAGS {
            let s_src = random_matrix(&mut rng, edges.n, 1, non_finite);
            let s_dst = random_matrix(&mut rng, edges.n, 1, non_finite);
            let per_type = random_matrix(&mut rng, edges.n_types, 1, non_finite);
            let upstream = random_matrix(&mut rng, e, 1, false);
            let run = |fused: bool| {
                let mut g = Graph::new();
                let vs = g.leaf(s_src.clone());
                let vd = g.leaf(s_dst.clone());
                let vt = with_types.then(|| g.leaf(per_type.clone()));
                let alpha = if fused {
                    fused_attention(&mut g, vs, vd, vt, &edges, 0.2)
                } else {
                    composed_attention(&mut g, vs, vd, vt, &edges, 0.2)
                };
                let w = g.input(upstream.clone());
                let weighted = g.mul(alpha, w);
                let loss = g.sum_all(weighted);
                g.backward(loss);
                let grads: Vec<_> = [Some(vs), Some(vd), vt]
                    .into_iter()
                    .flatten()
                    .map(|v| grad_bits(&g, v))
                    .collect();
                (value_bits(&g, alpha), grads)
            };
            prop_assert_eq!(run(true), run(false));
        }
    }

    #[test]
    fn gather_scale_scatter_is_bit_identical_to_the_composed_chain(
        e in 0usize..=64, cols in 1usize..6, seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = random_edges(e, &mut rng);
        for (alpha_grad, non_finite) in BOTH_FLAGS {
            let h = random_matrix(&mut rng, edges.n, cols, non_finite);
            let alpha = random_matrix(&mut rng, e, 1, non_finite);
            let upstream = random_matrix(&mut rng, edges.n, cols, false);
            let run = |fused: bool| {
                let mut g = Graph::new();
                let vh = g.leaf(h.clone());
                let va = if alpha_grad {
                    g.leaf(alpha.clone())
                } else {
                    g.input(alpha.clone())
                };
                let out = if fused {
                    fused_aggregate(&mut g, vh, va, &edges)
                } else {
                    composed_aggregate(&mut g, vh, va, &edges)
                };
                let w = g.input(upstream.clone());
                let weighted = g.mul(out, w);
                let loss = g.sum_all(weighted);
                g.backward(loss);
                (value_bits(&g, out), grad_bits(&g, vh), grad_bits(&g, va))
            };
            let (fused, composed) = (run(true), run(false));
            prop_assert_eq!(fused.2.is_some(), alpha_grad);
            prop_assert_eq!(fused, composed);
        }
    }

    #[test]
    fn fused_gat_layer_accumulates_shared_parents_in_composed_order(
        e in 0usize..=64, seed in any::<u64>(),
    ) {
        // `hw` feeds both attention scores and the aggregation, and alpha
        // has a second consumer recorded after the aggregation: each parent
        // gradient sums several contributions, which must arrive in the
        // same order as on the composed tape.
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = random_edges(e, &mut rng);
        let (k, d, de) = (3, 2, 2);
        let leaves = [
            random_matrix(&mut rng, edges.n, k, false),     // h
            random_matrix(&mut rng, k, d, false),           // W
            random_matrix(&mut rng, d, 1, false),           // a_src
            random_matrix(&mut rng, d, 1, false),           // a_dst
            random_matrix(&mut rng, edges.n_types, de, false), // edge embeddings
            random_matrix(&mut rng, de, 1, false),          // a_edge
        ];
        let up_agg = random_matrix(&mut rng, edges.n, d, false);
        let up_alpha = random_matrix(&mut rng, e, 1, false);
        let run = |fused: bool| {
            let mut g = Graph::new();
            let v: Vec<Var> = leaves.iter().map(|m| g.leaf(m.clone())).collect();
            let hw = g.matmul(v[0], v[1]);
            let s_src = g.matmul(hw, v[2]);
            let s_dst = g.matmul(hw, v[3]);
            let per_type = g.matmul(v[4], v[5]);
            let alpha = if fused {
                fused_attention(&mut g, s_src, s_dst, Some(per_type), &edges, 0.2)
            } else {
                composed_attention(&mut g, s_src, s_dst, Some(per_type), &edges, 0.2)
            };
            let agg = if fused {
                fused_aggregate(&mut g, hw, alpha, &edges)
            } else {
                composed_aggregate(&mut g, hw, alpha, &edges)
            };
            let ua = g.input(up_agg.clone());
            let wa = g.mul(agg, ua);
            let la = g.sum_all(wa);
            let ub = g.input(up_alpha.clone());
            let wb = g.mul(alpha, ub);
            let lb = g.sum_all(wb);
            let loss = g.add(la, lb);
            g.backward(loss);
            let grads: Vec<_> = v.iter().map(|&x| grad_bits(&g, x)).collect();
            (value_bits(&g, agg), grads)
        };
        prop_assert_eq!(run(true), run(false));
    }

    #[test]
    fn transpose_is_involution(m in matrix_strategy(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_tn_matches_naive(
        k in 1usize..6, m in 1usize..6, n in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(k, m, (0..k*m).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let b = Matrix::from_vec(k, n, (0..k*n).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let fast = a.matmul_tn(&b);
        let naive = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_nt_matches_naive(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(m, k, (0..m*k).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let b = Matrix::from_vec(n, k, (0..n*k).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let fast = a.matmul_nt(&b);
        let naive = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..20, k in 1usize..20, n in 1usize..20,
        seed in any::<u64>(),
    ) {
        use fedda_tensor::gemm;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fill = |r: usize, c: usize| Matrix::from_vec(r, c, (0..r*c).map(|_| {
            // sprinkle exact zeros so the naive kernel's zero-skip is hit
            if rng.gen_range(0u8..4) == 0 { 0.0 } else { rng.gen_range(-2.0f32..2.0) }
        }).collect());
        let a = fill(m, k);
        let at = fill(k, m); // A stored transposed, for the tn kernel
        let b = fill(k, n);
        let bt = fill(n, k); // B stored transposed, for the nt kernel
        // The blocked kernels replay the naive per-element operation order,
        // so agreement is exact (bitwise), not approximate — below AND above
        // the dispatch threshold.
        prop_assert_eq!(gemm::gemm_nn(&a, &b), a.matmul_naive(&b));
        prop_assert_eq!(gemm::gemm_tn(&at, &b), at.matmul_tn_naive(&b));
        prop_assert_eq!(gemm::gemm_nt(&a, &bt), a.matmul_nt_naive(&bt));
    }

    #[test]
    fn dispatched_matmul_is_exact_above_threshold(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // 65³ > BLOCK_THRESHOLD = 64³, so Matrix::matmul takes the blocked
        // path; the naive reference must still match exactly. (ISSUE asks
        // ≤ 1e-4 relative here — bit-equality is strictly stronger.)
        let d = 65usize;
        let a = Matrix::from_vec(d, d, (0..d*d).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        let b = Matrix::from_vec(d, d, (0..d*d).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        prop_assert_eq!(a.matmul(&b), a.matmul_naive(&b));
    }

    #[test]
    fn add_is_commutative(m in matrix_strategy(6), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (r, c) = m.shape();
        let other = Matrix::from_vec(r, c, (0..r*c).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
        prop_assert_eq!(m.add(&other), other.add(&m));
    }

    #[test]
    fn scatter_of_gather_preserves_mass(rows in 1usize..8, cols in 1usize..5, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Matrix::from_vec(rows, cols,
            (0..rows*cols).map(|_| rng.gen_range(-3.0f32..3.0)).collect());
        // A permutation gather followed by the inverse scatter is identity-sum.
        let mut idx: Vec<u32> = (0..rows as u32).collect();
        for i in (1..idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        let gathered = m.gather_rows(&idx);
        let scattered = gathered.scatter_add_rows(&idx, rows);
        for (x, y) in scattered.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn segment_softmax_rows_sum_to_one(
        n_rows in 1usize..20, n_segs in 1usize..5, seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let seg_of_row: Vec<u32> = (0..n_rows).map(|_| rng.gen_range(0..n_segs as u32)).collect();
        let x = Matrix::col_vector((0..n_rows).map(|_| rng.gen_range(-30.0f32..30.0)).collect());
        let mut g = Graph::new();
        let xv = g.leaf(x);
        let segs = Arc::new(Segments::new(seg_of_row.clone(), n_segs));
        let y = g.segment_softmax(xv, segs);
        let out = g.value(y).as_slice();
        // all outputs are probabilities
        for &v in out {
            prop_assert!((0.0..=1.0 + 1e-5).contains(&v));
        }
        // each non-empty segment sums to 1
        let mut sums = vec![0.0f32; n_segs];
        let mut seen = vec![false; n_segs];
        for (i, &s) in seg_of_row.iter().enumerate() {
            sums[s as usize] += out[i];
            seen[s as usize] = true;
        }
        for (s, &present) in seen.iter().enumerate() {
            if present {
                prop_assert!((sums[s] - 1.0).abs() < 1e-4, "segment {} sums to {}", s, sums[s]);
            }
        }
    }

    #[test]
    fn l2_normalize_output_has_unit_or_zero_rows(m in matrix_strategy(6)) {
        let mut g = Graph::new();
        let v = g.leaf(m);
        let y = g.l2_normalize_rows(v, 1e-12);
        for row in g.value(y).rows_iter() {
            let norm: f32 = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
            prop_assert!(norm < 1.0 + 1e-4);
        }
    }

    #[test]
    fn flatten_load_flat_roundtrip(m in matrix_strategy(6), m2 in matrix_strategy(6)) {
        let mut ps = ParamSet::new();
        ps.add("a", m);
        ps.add("b", m2);
        let flat = ps.flatten();
        let mut ps2 = ps.clone();
        for (_, p) in ps2.iter_mut() {
            p.value_mut().fill(0.0);
        }
        ps2.load_flat(&flat);
        prop_assert_eq!(ps2.flatten(), flat);
    }

    #[test]
    fn unit_l2_distance_to_self_is_zero(m in matrix_strategy(6)) {
        let mut ps = ParamSet::new();
        ps.add("a", m);
        let d = ps.unit_l2_distances(&ps.clone());
        prop_assert!(d.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn bce_loss_is_nonnegative(
        n in 1usize..20, seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let logits = Matrix::row_vector((0..n).map(|_| rng.gen_range(-20.0f32..20.0)).collect());
        let targets: Vec<f32> = (0..n).map(|_| if rng.gen::<bool>() { 1.0 } else { 0.0 }).collect();
        let mut g = Graph::new();
        let x = g.leaf(logits);
        let loss = g.bce_with_logits(x, Arc::new(targets));
        let v = g.value(loss).get(0, 0);
        prop_assert!(v >= 0.0);
        prop_assert!(v.is_finite());
    }

    #[test]
    fn backward_grads_are_finite_for_bounded_inputs(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Matrix::from_vec(3, 3, (0..9).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
        let w = Matrix::from_vec(3, 2, (0..6).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
        let mut g = Graph::new();
        let xv = g.leaf(x);
        let wv = g.leaf(w);
        let y = g.matmul(xv, wv);
        let a = g.elu(y, 1.0);
        let s = g.sigmoid(a);
        let loss = g.mean_all(s);
        g.backward(loss);
        prop_assert!(!g.grad(xv).unwrap().has_non_finite());
        prop_assert!(!g.grad(wv).unwrap().has_non_finite());
    }
}
