//! Merge-associativity and determinism contract for `QuantileSketch`.
//!
//! The observability layer merges per-worker sketches in whatever order
//! the pool finishes, so the profile artifact is only deterministic if
//! every merge order of every partition of a stream yields an equal
//! sketch. These are seeded-loop property tests in the house style
//! (no external proptest crate): many seeds, adversarial partitions,
//! and a real 1-vs-4-thread run.

use rfkit_num::rng::Rng64;
use rfkit_num::QuantileSketch;

/// Seeded stream of plausible telemetry samples: mixed magnitudes,
/// exact zeros, and occasional garbage (negative / non-finite) that the
/// sketch must drop or clamp identically everywhere.
fn stream(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng64::new(seed);
    (0..n)
        .map(|_| match (rng.next_u64() % 16) as u8 {
            0 => 0.0,
            1 => rng.uniform(-5.0, 0.0),
            2 => f64::NAN,
            3 => rng.uniform(0.0, 1e-6),
            4..=9 => rng.uniform(1.0, 1e3),
            _ => rng.uniform(1e3, 1e9),
        })
        .collect()
}

fn ingest(values: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.record(v);
    }
    s
}

#[test]
fn any_partition_any_merge_order_is_identical() {
    for seed in 0..32u64 {
        let xs = stream(0xdead_0000 + seed, 500);
        let whole = ingest(&xs);

        // Partition into k chunks at seeded cut points, then merge the
        // parts in forward, reverse, and interleaved order.
        let mut rng = Rng64::new(0xbeef ^ seed);
        let k = 2 + (rng.next_u64() % 5) as usize;
        let parts: Vec<QuantileSketch> = xs.chunks(xs.len().div_ceil(k)).map(ingest).collect();

        let mut forward = QuantileSketch::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut reverse = QuantileSketch::new();
        for p in parts.iter().rev() {
            reverse.merge(p);
        }
        // Pairwise tree merge: ((p0+p1) + (p2+p3)) + ...
        let mut level: Vec<QuantileSketch> = parts.clone();
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                let mut m = pair[0].clone();
                if let Some(rhs) = pair.get(1) {
                    m.merge(rhs);
                }
                next.push(m);
            }
            level = next;
        }

        for (label, got) in [
            ("forward", &forward),
            ("reverse", &reverse),
            ("tree", &level[0]),
        ] {
            assert_eq!(
                got, &whole,
                "seed {seed}: {label} merge diverged from whole-stream ingest"
            );
        }
    }
}

#[test]
fn one_vs_four_worker_threads_serialize_identically() {
    let xs = stream(0x51e7c4, 4000);
    let single = ingest(&xs);

    // Four workers each ingest a strided share concurrently, then the
    // collector merges in join order (worker 3 first — deliberately not
    // the spawn order).
    let shares: Vec<Vec<f64>> = (0..4)
        .map(|w| {
            xs.iter()
                .enumerate()
                .filter(|(i, _)| i % 4 == w)
                .map(|(_, &v)| v)
                .collect()
        })
        .collect();
    let handles: Vec<_> = shares
        .into_iter()
        .map(|share| std::thread::spawn(move || ingest(&share)))
        .collect();
    let mut done: Vec<QuantileSketch> = handles
        .into_iter()
        .map(|h| h.join().expect("worker panicked"))
        .collect();
    done.reverse();
    let mut merged = QuantileSketch::new();
    for s in &done {
        merged.merge(s);
    }

    assert_eq!(merged, single);
    assert_eq!(merged.count(), single.count());
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(merged.quantile(q).to_bits(), single.quantile(q).to_bits());
    }
}
