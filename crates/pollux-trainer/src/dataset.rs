//! A synthetic supervised dataset with deterministic generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// A dense supervised dataset: `n` examples of dimension `dim` with
/// scalar targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dim: usize,
    /// Row-major `n × dim` feature matrix.
    features: Vec<f64>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Builds a dataset from raw rows. Returns `None` on shape
    /// mismatch or zero dimension.
    pub fn new(dim: usize, features: Vec<f64>, targets: Vec<f64>) -> Option<Self> {
        if dim == 0 || targets.is_empty() || features.len() != targets.len() * dim {
            None
        } else {
            Some(Self {
                dim,
                features,
                targets,
            })
        }
    }

    /// Synthetic linear-regression data: `y = x·w* + ε`,
    /// `x ~ N(0, I)`, `ε ~ N(0, noise_std²)`.
    ///
    /// Returns the dataset and the true weights `w*`.
    pub fn linear_regression(
        n: usize,
        dim: usize,
        noise_std: f64,
        seed: u64,
    ) -> Option<(Self, Vec<f64>)> {
        if n == 0 || dim == 0 || noise_std < 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let w_star: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let noise = Normal::new(0.0, noise_std.max(1e-12)).ok()?;
        let normal = Normal::new(0.0, 1.0).ok()?;
        let mut features = Vec::with_capacity(n * dim);
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            let mut dot = 0.0;
            for w in w_star.iter().take(dim) {
                let x: f64 = normal.sample(&mut rng);
                features.push(x);
                dot += x * w;
            }
            let eps = if noise_std > 0.0 {
                noise.sample(&mut rng)
            } else {
                0.0
            };
            targets.push(dot + eps);
        }
        Some((
            Self {
                dim,
                features,
                targets,
            },
            w_star,
        ))
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The feature row of example `i`.
    pub fn x(&self, i: usize) -> &[f64] {
        &self.features[i * self.dim..(i + 1) * self.dim]
    }

    /// The target of example `i`.
    pub fn y(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// Samples `count` example indices with replacement.
    pub fn sample_indices<R: Rng>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        (0..count).map(|_| rng.gen_range(0..self.len())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Dataset::new(2, vec![1.0, 2.0], vec![1.0]).is_some());
        assert!(Dataset::new(2, vec![1.0], vec![1.0]).is_none());
        assert!(Dataset::new(0, vec![], vec![]).is_none());
        assert!(Dataset::new(2, vec![], vec![]).is_none());
    }

    #[test]
    fn linear_regression_shapes_and_determinism() {
        let (d1, w1) = Dataset::linear_regression(100, 5, 0.1, 42).unwrap();
        let (d2, w2) = Dataset::linear_regression(100, 5, 0.1, 42).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(w1, w2);
        assert_eq!(d1.len(), 100);
        assert_eq!(d1.dim(), 5);
        assert_eq!(d1.x(7).len(), 5);
        let (d3, _) = Dataset::linear_regression(100, 5, 0.1, 43).unwrap();
        assert_ne!(d1, d3);
    }

    #[test]
    fn linear_regression_targets_follow_weights() {
        let (d, w) = Dataset::linear_regression(2000, 4, 0.0, 1).unwrap();
        // Noiseless: y = x·w exactly.
        for i in 0..d.len() {
            let dot: f64 = d.x(i).iter().zip(&w).map(|(a, b)| a * b).sum();
            assert!((d.y(i) - dot).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_is_in_range() {
        let (d, _) = Dataset::linear_regression(50, 2, 0.1, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let idx = d.sample_indices(200, &mut rng);
        assert_eq!(idx.len(), 200);
        assert!(idx.iter().all(|&i| i < 50));
    }

    #[test]
    fn degenerate_generators_rejected() {
        assert!(Dataset::linear_regression(0, 2, 0.1, 0).is_none());
        assert!(Dataset::linear_regression(10, 0, 0.1, 0).is_none());
        assert!(Dataset::linear_regression(10, 2, -1.0, 0).is_none());
    }
}
