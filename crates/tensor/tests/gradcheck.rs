//! Finite-difference gradient checks for every differentiable op on the
//! tape. Each check builds a scalar loss from a set of leaf matrices,
//! compares the analytic gradient against central differences, and fails on
//! relative error above a tolerance.

use fedda_tensor::{Graph, Matrix, Segments, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Build a loss from leaves, return (loss value, analytic grads).
fn run<F>(inputs: &[Matrix], f: F) -> (f32, Vec<Matrix>)
where
    F: Fn(&mut Graph, &[Var]) -> Var,
{
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|m| g.leaf(m.clone())).collect();
    let loss = f(&mut g, &vars);
    assert_eq!(g.shape(loss), (1, 1), "gradcheck loss must be scalar");
    let value = g.value(loss).get(0, 0);
    g.backward(loss);
    let grads = vars
        .iter()
        .map(|&v| {
            g.grad(v).cloned().unwrap_or_else(|| {
                let (r, c) = g.shape(v);
                Matrix::zeros(r, c)
            })
        })
        .collect();
    (value, grads)
}

/// Central-difference check of `f` around `inputs`.
fn gradcheck<F>(inputs: &[Matrix], f: F, tol: f32)
where
    F: Fn(&mut Graph, &[Var]) -> Var + Copy,
{
    let (_, analytic) = run(inputs, f);
    let h = 1e-3f32;
    for (pi, input) in inputs.iter().enumerate() {
        for i in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[pi].as_mut_slice()[i] += h;
            let (lp, _) = run(&plus, f);
            let mut minus = inputs.to_vec();
            minus[pi].as_mut_slice()[i] -= h;
            let (lm, _) = run(&minus, f);
            let numeric = (lp - lm) / (2.0 * h);
            let exact = analytic[pi].as_slice()[i];
            let denom = numeric.abs().max(exact.abs()).max(1.0);
            assert!(
                (numeric - exact).abs() / denom < tol,
                "param {pi} element {i}: numeric {numeric} vs analytic {exact}"
            );
        }
    }
}

fn randn(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    let data = (0..r * c).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Matrix::from_vec(r, c, data)
}

/// Avoid values near a kink (for leaky_relu / elu at 0).
fn randn_away_from_zero(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    let data = (0..r * c)
        .map(|_| {
            let v: f32 = rng.gen_range(0.1f32..1.0);
            if rng.gen::<bool>() {
                v
            } else {
                -v
            }
        })
        .collect();
    Matrix::from_vec(r, c, data)
}

#[test]
fn grad_matmul() {
    let mut rng = StdRng::seed_from_u64(1);
    let a = randn(&mut rng, 3, 4);
    let b = randn(&mut rng, 4, 2);
    gradcheck(
        &[a, b],
        |g, v| {
            let y = g.matmul(v[0], v[1]);
            g.sum_all(y)
        },
        1e-2,
    );
}

#[test]
fn grad_matmul_weighted() {
    // A non-uniform upstream gradient (dY varies per element) exercises the
    // matmul backward paths for real: dA = dY · Bᵀ runs matmul_nt and
    // dB = Aᵀ · dY runs matmul_tn. `sum_all` alone would feed them an
    // all-ones dY, which both transposed kernels pass trivially.
    let mut rng = StdRng::seed_from_u64(21);
    let a = randn(&mut rng, 3, 5);
    let b = randn(&mut rng, 5, 4);
    let w = randn(&mut rng, 3, 4);
    gradcheck(
        &[a, b, w],
        |g, v| {
            let y = g.matmul(v[0], v[1]);
            let weighted = g.mul(y, v[2]);
            let sq = g.mul(weighted, weighted);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_matmul_chain() {
    // Two chained matmuls: the inner product's gradient is itself a matmul
    // output, so matmul_nt/matmul_tn run on non-trivial dY matrices and
    // their results feed further backward steps.
    let mut rng = StdRng::seed_from_u64(22);
    let a = randn(&mut rng, 2, 4);
    let b = randn(&mut rng, 4, 3);
    let c = randn(&mut rng, 3, 2);
    gradcheck(
        &[a, b, c],
        |g, v| {
            let ab = g.matmul(v[0], v[1]);
            let abc = g.matmul(ab, v[2]);
            let sq = g.mul(abc, abc);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_add_sub_mul() {
    let mut rng = StdRng::seed_from_u64(2);
    let a = randn(&mut rng, 2, 3);
    let b = randn(&mut rng, 2, 3);
    gradcheck(
        &[a.clone(), b.clone()],
        |g, v| {
            let s = g.add(v[0], v[1]);
            let d = g.sub(s, v[1]);
            let m = g.mul(d, v[1]);
            let sq = g.mul(m, m);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_add_row_broadcast() {
    let mut rng = StdRng::seed_from_u64(3);
    let a = randn(&mut rng, 3, 4);
    let bias = randn(&mut rng, 1, 4);
    gradcheck(
        &[a, bias],
        |g, v| {
            let y = g.add_row_broadcast(v[0], v[1]);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_mul_col_broadcast() {
    let mut rng = StdRng::seed_from_u64(4);
    let a = randn(&mut rng, 3, 4);
    let c = randn(&mut rng, 3, 1);
    gradcheck(
        &[a, c],
        |g, v| {
            let y = g.mul_col_broadcast(v[0], v[1]);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_mul_row_broadcast() {
    let mut rng = StdRng::seed_from_u64(5);
    let a = randn(&mut rng, 3, 4);
    let r = randn(&mut rng, 1, 4);
    gradcheck(
        &[a, r],
        |g, v| {
            let y = g.mul_row_broadcast(v[0], v[1]);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_scale_and_mean() {
    let mut rng = StdRng::seed_from_u64(6);
    let a = randn(&mut rng, 2, 5);
    gradcheck(
        &[a],
        |g, v| {
            let y = g.scale(v[0], 2.5);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_leaky_relu() {
    let mut rng = StdRng::seed_from_u64(7);
    let a = randn_away_from_zero(&mut rng, 3, 3);
    gradcheck(
        &[a],
        |g, v| {
            let y = g.leaky_relu(v[0], 0.2);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_elu() {
    let mut rng = StdRng::seed_from_u64(8);
    let a = randn_away_from_zero(&mut rng, 3, 3);
    gradcheck(
        &[a],
        |g, v| {
            let y = g.elu(v[0], 1.0);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_sigmoid() {
    let mut rng = StdRng::seed_from_u64(9);
    let a = randn(&mut rng, 2, 4);
    gradcheck(
        &[a],
        |g, v| {
            let y = g.sigmoid(v[0]);
            g.sum_all(y)
        },
        1e-2,
    );
}

#[test]
fn grad_concat_cols() {
    let mut rng = StdRng::seed_from_u64(10);
    let a = randn(&mut rng, 3, 2);
    let b = randn(&mut rng, 3, 3);
    gradcheck(
        &[a, b],
        |g, v| {
            let y = g.concat_cols(&[v[0], v[1]]);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_concat_rows() {
    let mut rng = StdRng::seed_from_u64(18);
    let a = randn(&mut rng, 1, 3);
    let b = randn(&mut rng, 2, 3);
    gradcheck(
        &[a, b],
        |g, v| {
            let y = g.concat_rows(&[v[0], v[1]]);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_gather_scatter() {
    let mut rng = StdRng::seed_from_u64(11);
    let a = randn(&mut rng, 4, 3);
    let idx = Arc::new(vec![0u32, 2, 2, 3, 1]);
    let idx2 = Arc::new(vec![1u32, 1, 0, 2, 2]);
    gradcheck(
        &[a],
        |g, v| {
            let gathered = g.gather_rows(v[0], idx.clone());
            let scattered = g.scatter_add_rows(gathered, idx2.clone(), 3);
            let sq = g.mul(scattered, scattered);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_segment_softmax() {
    let mut rng = StdRng::seed_from_u64(12);
    let a = randn(&mut rng, 6, 1);
    let segs = Arc::new(Segments::new(vec![0, 0, 1, 1, 1, 2], 3));
    // weight the outputs so the gradient is not trivially zero
    let w = randn(&mut rng, 6, 1);
    gradcheck(
        &[a, w],
        |g, v| {
            let sm = g.segment_softmax(v[0], segs.clone());
            let weighted = g.mul(sm, v[1]);
            let sq = g.mul(weighted, weighted);
            g.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_l2_normalize_rows() {
    let mut rng = StdRng::seed_from_u64(13);
    // keep rows away from zero norm
    let mut a = randn(&mut rng, 3, 4);
    for x in a.as_mut_slice() {
        *x += if *x >= 0.0 { 0.5 } else { -0.5 };
    }
    let w = randn(&mut rng, 3, 4);
    gradcheck(
        &[a, w],
        |g, v| {
            let y = g.l2_normalize_rows(v[0], 1e-12);
            let p = g.mul(y, v[1]);
            g.sum_all(p)
        },
        2e-2,
    );
}

#[test]
fn grad_row_sum_and_row_dot() {
    let mut rng = StdRng::seed_from_u64(14);
    let a = randn(&mut rng, 3, 4);
    let b = randn(&mut rng, 3, 4);
    gradcheck(
        &[a, b],
        |g, v| {
            let rs = g.row_sum(v[0]);
            let rd = g.row_dot(v[0], v[1]);
            let both = g.mul(rs, rd);
            g.sum_all(both)
        },
        1e-2,
    );
}

#[test]
fn grad_bce_with_logits() {
    let mut rng = StdRng::seed_from_u64(15);
    let a = randn(&mut rng, 1, 6);
    let targets = Arc::new(vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    gradcheck(&[a], |g, v| g.bce_with_logits(v[0], targets.clone()), 1e-2);
}

#[test]
fn grad_dropout_with_mask() {
    let mut rng = StdRng::seed_from_u64(16);
    let a = randn(&mut rng, 2, 4);
    let mask = Arc::new(vec![2.0, 0.0, 2.0, 2.0, 0.0, 2.0, 0.0, 2.0]);
    gradcheck(
        &[a],
        |g, v| {
            let y = g.dropout_with_mask(v[0], mask.clone());
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        1e-2,
    );
}

#[test]
fn grad_softmax_rows() {
    let mut rng = StdRng::seed_from_u64(19);
    let a = randn(&mut rng, 3, 4);
    let w = randn(&mut rng, 3, 4);
    gradcheck(
        &[a, w],
        |g, v| {
            let sm = g.softmax_rows(v[0]);
            let weighted = g.mul(sm, v[1]);
            let sq = g.mul(weighted, weighted);
            g.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_cross_entropy_rows() {
    let mut rng = StdRng::seed_from_u64(20);
    let a = randn(&mut rng, 4, 3);
    let targets = Arc::new(vec![0u32, 2, 1, 2]);
    gradcheck(
        &[a],
        |g, v| g.cross_entropy_rows(v[0], targets.clone()),
        1e-2,
    );
}

#[test]
fn grad_composite_attention_like_network() {
    // A miniature single-head GAT layer: this exercises the exact op
    // composition Simple-HGN uses, end to end.
    let mut rng = StdRng::seed_from_u64(17);
    let h = randn(&mut rng, 4, 3); // 4 nodes, dim 3
    let w = randn(&mut rng, 3, 2); // projection
    let attn = randn(&mut rng, 2, 1); // attention vector
    let src = Arc::new(vec![0u32, 1, 2, 3, 0]);
    let dst = Arc::new(vec![1u32, 2, 3, 0, 2]);
    let segs = Arc::new(Segments::new(vec![1, 2, 3, 0, 2], 4));
    gradcheck(
        &[h, w, attn],
        |g, v| {
            let wh = g.matmul(v[0], v[1]); // [4,2]
            let hs = g.gather_rows(wh, src.clone()); // [5,2]
            let hd = g.gather_rows(wh, dst.clone()); // [5,2]
            let cat = g.add(hs, hd); // stand-in for a^T[hs||hd]
            let scores = g.matmul(cat, v[2]); // [5,1]
            let act = g.leaky_relu(scores, 0.2);
            let alpha = g.segment_softmax(act, segs.clone());
            let msg = g.mul_col_broadcast(hs, alpha);
            let agg = g.scatter_add_rows(msg, dst.clone(), 4);
            let out = g.elu(agg, 1.0);
            let normed = g.l2_normalize_rows(out, 1e-12);
            let sq = g.mul(normed, normed);
            g.sum_all(sq)
        },
        3e-2,
    );
}

/// Fused twin of `grad_composite_attention_like_network`: the same miniature
/// GAT layer with the edge chain run by `gat_attention` and the aggregation
/// by `gather_scale_scatter`. (The composed test scores `(hs + hd) @ attn`,
/// which is `s[src] + s[dst]` with `s = wh @ attn`.)
#[test]
fn grad_composite_attention_like_network_fused() {
    let mut rng = StdRng::seed_from_u64(17);
    let h = randn(&mut rng, 4, 3);
    let w = randn(&mut rng, 3, 2);
    let attn = randn(&mut rng, 2, 1);
    let src = Arc::new(vec![0u32, 1, 2, 3, 0]);
    let dst = Arc::new(vec![1u32, 2, 3, 0, 2]);
    let etype = Arc::new(vec![0u32; 5]);
    let segs = Arc::new(Segments::new(vec![1, 2, 3, 0, 2], 4));
    gradcheck(
        &[h, w, attn],
        |g, v| {
            let wh = g.matmul(v[0], v[1]); // [4,2]
            let s = g.matmul(wh, v[2]); // [4,1]
            let alpha = g.gat_attention(
                s,
                s,
                None,
                src.clone(),
                dst.clone(),
                etype.clone(),
                segs.clone(),
                0.2,
            );
            let agg = g.gather_scale_scatter(wh, alpha, src.clone(), dst.clone(), 4);
            let out = g.elu(agg, 1.0);
            let normed = g.l2_normalize_rows(out, 1e-12);
            let sq = g.mul(normed, normed);
            g.sum_all(sq)
        },
        3e-2,
    );
}

type Index = Arc<Vec<u32>>;

/// Edge list shared by the fused-op checks: 4 nodes, node 3 receives no
/// message, edge 2 repeats edge 0 and edge 4 is a self-loop.
fn fused_edges() -> (Index, Index, Index, Arc<Segments>) {
    let src = vec![0u32, 1, 0, 2, 2, 3];
    let dst = vec![1u32, 1, 1, 0, 2, 0];
    let etype = vec![0u32, 2, 0, 1, 2, 1];
    let segs = Segments::new(dst.clone(), 4);
    (
        Arc::new(src),
        Arc::new(dst),
        Arc::new(etype),
        Arc::new(segs),
    )
}

#[test]
fn grad_gat_attention() {
    let (src, dst, etype, segs) = fused_edges();
    let mut rng = StdRng::seed_from_u64(21);
    // Redraw until every pre-activation score is clear of the LeakyReLU
    // kink, so central differences never straddle it.
    let (s_src, s_dst, per_type) = loop {
        let (a, b, c) = (
            randn(&mut rng, 4, 1),
            randn(&mut rng, 4, 1),
            randn(&mut rng, 3, 1),
        );
        let clear = (0..src.len()).all(|e| {
            let x =
                a.get(src[e] as usize, 0) + b.get(dst[e] as usize, 0) + c.get(etype[e] as usize, 0);
            x.abs() > 0.05
        });
        if clear {
            break (a, b, c);
        }
    };
    let w = randn(&mut rng, 6, 1);
    gradcheck(
        &[s_src, s_dst, per_type, w],
        |g, v| {
            let alpha = g.gat_attention(
                v[0],
                v[1],
                Some(v[2]),
                src.clone(),
                dst.clone(),
                etype.clone(),
                segs.clone(),
                0.2,
            );
            let weighted = g.mul(alpha, v[3]);
            let sq = g.mul(weighted, weighted);
            g.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_gather_scale_scatter() {
    let (src, dst, _, _) = fused_edges();
    let mut rng = StdRng::seed_from_u64(22);
    let h = randn(&mut rng, 4, 3);
    let alpha = randn(&mut rng, 6, 1);
    gradcheck(
        &[h, alpha],
        |g, v| {
            let out = g.gather_scale_scatter(v[0], v[1], src.clone(), dst.clone(), 4);
            let sq = g.mul(out, out);
            g.sum_all(sq)
        },
        1e-2,
    );
}

/// Run `gat_attention` over 3 nodes and 2 types on one edge `(s, d, t)`.
fn attention_on_edge(s: u32, d: u32, t: u32) {
    let mut g = Graph::new();
    let s_src = g.leaf(Matrix::zeros(3, 1));
    let s_dst = g.leaf(Matrix::zeros(3, 1));
    let per_type = g.leaf(Matrix::zeros(2, 1));
    g.gat_attention(
        s_src,
        s_dst,
        Some(per_type),
        Arc::new(vec![s]),
        Arc::new(vec![d]),
        Arc::new(vec![t]),
        Arc::new(Segments::new(vec![0], 1)),
        0.2,
    );
}

#[test]
#[should_panic(expected = "gat_attention: src index 3 out of 3 rows")]
fn gat_attention_rejects_out_of_range_src() {
    attention_on_edge(3, 0, 0);
}

#[test]
#[should_panic(expected = "gat_attention: dst index 7 out of 3 rows")]
fn gat_attention_rejects_out_of_range_dst() {
    attention_on_edge(0, 7, 0);
}

#[test]
#[should_panic(expected = "gat_attention: etype index 2 out of 2 rows")]
fn gat_attention_rejects_out_of_range_etype() {
    attention_on_edge(0, 0, 2);
}

/// Run `gather_scale_scatter` from 3 rows into 2 on one edge `s -> d`.
fn aggregate_on_edge(s: u32, d: u32) {
    let mut g = Graph::new();
    let h = g.leaf(Matrix::zeros(3, 2));
    let alpha = g.leaf(Matrix::zeros(1, 1));
    g.gather_scale_scatter(h, alpha, Arc::new(vec![s]), Arc::new(vec![d]), 2);
}

#[test]
#[should_panic(expected = "gather_scale_scatter: src index 3 out of 3 rows")]
fn gather_scale_scatter_rejects_out_of_range_src() {
    aggregate_on_edge(3, 0);
}

#[test]
#[should_panic(expected = "gather_scale_scatter: dst index 2 out of 2 rows")]
fn gather_scale_scatter_rejects_out_of_range_dst() {
    aggregate_on_edge(0, 2);
}
