//! Property-style tests for the optimization crate: invariants that must
//! hold for any objective/bounds/seed combination. Cases are generated
//! from a fixed-seed `Rng64` stream (the workspace builds offline, so no
//! proptest), which keeps every run reproducible.

use rfkit_num::rng::Rng64;
use rfkit_opt::pareto::{
    crowding_distance, dominates, hypervolume_2d, nondominated_sort, pareto_front_indices,
};
use rfkit_opt::{
    differential_evolution, nelder_mead, pattern_search, Bounds, DeConfig, GoalProblem,
    NelderMeadConfig, PatternConfig,
};

/// Random box with 1–3 dimensions, lo in [-10, 0), span in [0.1, 10).
fn small_bounds(rng: &mut Rng64) -> Bounds {
    let dim = 1 + rng.index(3);
    let mut lo = Vec::with_capacity(dim);
    let mut hi = Vec::with_capacity(dim);
    for _ in 0..dim {
        let l = rng.uniform(-10.0, 0.0);
        lo.push(l);
        hi.push(l + rng.uniform(0.1, 10.0));
    }
    Bounds::new(lo, hi).expect("constructed valid")
}

/// Random point set: `count` points of dimension `dim` in [lo, hi).
fn point_set(rng: &mut Rng64, count: usize, dim: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| (0..dim).map(|_| rng.uniform(lo, hi)).collect())
        .collect()
}

#[test]
fn optimizers_respect_bounds() {
    let mut rng = Rng64::new(0x0b1d);
    for case in 0..24u64 {
        let bounds = small_bounds(&mut rng);
        // Quadratic with minimum far outside the box: the answer must sit
        // inside anyway.
        let f = |x: &[f64]| x.iter().map(|v| (v - 100.0) * (v - 100.0)).sum::<f64>();
        let de = differential_evolution(
            f,
            &bounds,
            &DeConfig {
                max_evals: 500,
                seed: case,
            },
        );
        assert!(bounds.contains(&de.x), "DE left the box: {:?}", de.x);
        let nm = nelder_mead(
            f,
            &bounds.center(),
            &bounds,
            &NelderMeadConfig { max_evals: 300 },
        );
        assert!(bounds.contains(&nm.x));
        let ps = pattern_search(
            f,
            &bounds.center(),
            &bounds,
            &PatternConfig {
                max_evals: 300,
                ..Default::default()
            },
        );
        assert!(bounds.contains(&ps.x));
    }
}

#[test]
fn optimizer_result_never_worse_than_start() {
    let mut rng = Rng64::new(0x57a7);
    for _ in 0..24 {
        let bounds = small_bounds(&mut rng);
        let f = |x: &[f64]| x.iter().map(|v| v.sin() + v * v * 0.1).sum::<f64>();
        let start = bounds.center();
        let f_start = f(&start);
        let nm = nelder_mead(f, &start, &bounds, &NelderMeadConfig { max_evals: 200 });
        assert!(nm.value <= f_start + 1e-12);
        let ps = pattern_search(
            f,
            &start,
            &bounds,
            &PatternConfig {
                max_evals: 200,
                ..Default::default()
            },
        );
        assert!(ps.value <= f_start + 1e-12);
    }
}

#[test]
fn dominance_is_irreflexive_and_antisymmetric() {
    let mut rng = Rng64::new(0xd0a1);
    for _ in 0..100 {
        let dim = 2 + rng.index(3);
        let a: Vec<f64> = (0..dim).map(|_| rng.uniform(-10.0, 10.0)).collect();
        let b: Vec<f64> = (0..dim).map(|_| rng.uniform(-10.0, 10.0)).collect();
        assert!(!dominates(&a, &a), "no vector dominates itself");
        if dominates(&a, &b) {
            assert!(!dominates(&b, &a), "dominance must be antisymmetric");
        }
    }
}

#[test]
fn pareto_front_members_are_mutually_nondominated() {
    let mut rng = Rng64::new(0xfade);
    for _ in 0..50 {
        let count = 1 + rng.index(19);
        let pts = point_set(&mut rng, count, 2, -5.0, 5.0);
        let front = pareto_front_indices(&pts);
        assert!(!front.is_empty(), "a finite set always has a front");
        for &i in &front {
            for &j in &front {
                if i != j {
                    assert!(!dominates(&pts[i], &pts[j]));
                }
            }
        }
    }
}

#[test]
fn nondominated_sort_partitions_everything() {
    let mut rng = Rng64::new(0x50f7);
    for _ in 0..50 {
        let count = 1 + rng.index(19);
        let pts = point_set(&mut rng, count, 2, -5.0, 5.0);
        let fronts = nondominated_sort(&pts);
        let total: usize = fronts.iter().map(|f| f.len()).sum();
        assert_eq!(total, pts.len(), "every point in exactly one front");
        // Front 0 equals the plain Pareto front.
        let mut f0 = fronts[0].clone();
        let mut reference = pareto_front_indices(&pts);
        f0.sort_unstable();
        reference.sort_unstable();
        assert_eq!(f0, reference);
    }
}

#[test]
fn crowding_distances_nonnegative() {
    let mut rng = Rng64::new(0xc0de);
    for _ in 0..50 {
        let count = 2 + rng.index(13);
        let pts = point_set(&mut rng, count, 2, -5.0, 5.0);
        let front: Vec<usize> = (0..pts.len()).collect();
        let d = crowding_distance(&pts, &front);
        assert!(d.iter().all(|&v| v >= 0.0));
    }
}

#[test]
fn hypervolume_monotone_under_point_addition() {
    let mut rng = Rng64::new(0x6e0);
    for _ in 0..50 {
        let count = 1 + rng.index(9);
        let pts = point_set(&mut rng, count, 2, 0.0, 4.0);
        let extra: Vec<f64> = (0..2).map(|_| rng.uniform(0.0, 4.0)).collect();
        let hv_before = hypervolume_2d(&pts, [5.0, 5.0]);
        let mut bigger = pts.clone();
        bigger.push(extra);
        let hv_after = hypervolume_2d(&bigger, [5.0, 5.0]);
        assert!(hv_after >= hv_before - 1e-12, "{hv_after} < {hv_before}");
    }
}

#[test]
fn attainment_scales_with_weights() {
    let mut rng = Rng64::new(0xa77a);
    let obj = |_: &[f64]| vec![0.0, 0.0];
    for _ in 0..100 {
        let f1 = rng.uniform(-5.0, 5.0);
        let f2 = rng.uniform(-5.0, 5.0);
        let w = rng.uniform(0.1, 10.0);
        let p1 = GoalProblem::new(
            &obj,
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            Bounds::uniform(1, 0.0, 1.0),
        );
        let pw = GoalProblem::new(
            &obj,
            vec![0.0, 0.0],
            vec![w, w],
            Bounds::uniform(1, 0.0, 1.0),
        );
        let g1 = p1.attainment(&[f1, f2]);
        let gw = pw.attainment(&[f1, f2]);
        // Scaling every weight by w divides Γ by w.
        assert!((gw - g1 / w).abs() < 1e-9 * g1.abs().max(1.0));
    }
}

#[test]
fn attainment_monotone_in_objectives() {
    let mut rng = Rng64::new(0x4040);
    let obj = |_: &[f64]| vec![0.0, 0.0];
    for _ in 0..100 {
        let f1 = rng.uniform(-5.0, 5.0);
        let f2 = rng.uniform(-5.0, 5.0);
        let bump = rng.uniform(0.0, 3.0);
        let p = GoalProblem::new(
            &obj,
            vec![0.0, 0.0],
            vec![1.0, 2.0],
            Bounds::uniform(1, 0.0, 1.0),
        );
        // Worsening any objective can only raise Γ.
        assert!(p.attainment(&[f1 + bump, f2]) >= p.attainment(&[f1, f2]) - 1e-12);
        assert!(p.attainment(&[f1, f2 + bump]) >= p.attainment(&[f1, f2]) - 1e-12);
    }
}

#[test]
fn de_is_deterministic_per_seed() {
    let mut rng = Rng64::new(0xde7e);
    for seed in 0..24u64 {
        let bounds = small_bounds(&mut rng);
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let cfg = DeConfig {
            max_evals: 400,
            seed,
        };
        let a = differential_evolution(f, &bounds, &cfg);
        let b = differential_evolution(f, &bounds, &cfg);
        assert_eq!(a.x, b.x);
        assert_eq!(a.evaluations, b.evaluations);
    }
}
