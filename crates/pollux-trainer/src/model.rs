//! The trained model, with an analytic gradient.

use crate::dataset::Dataset;

/// Linear regression with squared loss `½(x·w − y)²`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    w: Vec<f64>,
}

impl LinearModel {
    /// Zero-initialized linear model of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self { w: vec![0.0; dim] }
    }

    /// The prediction `x·w`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        x.iter().zip(&self.w).map(|(a, b)| a * b).sum()
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.w.len()
    }

    /// Read access to the parameter vector.
    pub fn params(&self) -> &[f64] {
        &self.w
    }

    /// Applies `w ← w − η · g`.
    pub fn sgd_step(&mut self, grad: &[f64], lr: f64) {
        for (w, g) in self.w.iter_mut().zip(grad) {
            *w -= lr * g;
        }
    }

    /// Mean gradient over the given examples, written into `out`
    /// (length `num_params`, zeroed here).
    pub fn grad_mean(&self, data: &Dataset, indices: &[usize], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        let scale = 1.0 / indices.len().max(1) as f64;
        for &i in indices {
            let x = data.x(i);
            let err = self.predict(x) - data.y(i);
            for (o, xi) in out.iter_mut().zip(x) {
                *o += scale * err * xi;
            }
        }
    }

    /// Mean loss over the given examples.
    pub fn mean_loss(&self, data: &Dataset, indices: &[usize]) -> f64 {
        let mut acc = 0.0;
        for &i in indices {
            let err = self.predict(data.x(i)) - data.y(i);
            acc += 0.5 * err * err;
        }
        acc / indices.len().max(1) as f64
    }

    /// Mean loss over the full dataset.
    pub fn full_loss(&self, data: &Dataset) -> f64 {
        let all: Vec<usize> = (0..data.len()).collect();
        self.mean_loss(data, &all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_gradcheck() {
        let (data, _) = Dataset::linear_regression(64, 4, 0.3, 11).unwrap();
        let mut model = LinearModel::new(4);
        // Move off the zero point.
        model.sgd_step(&[0.3, -0.2, 0.5, 0.1], 1.0);
        let indices: Vec<usize> = (0..16).collect();
        let mut analytic = vec![0.0; model.num_params()];
        model.grad_mean(&data, &indices, &mut analytic);

        let eps = 1e-6;
        for p in 0..model.num_params() {
            let mut delta = vec![0.0; model.num_params()];
            // sgd_step subtracts lr·grad; with lr = eps, ∓1 moves ±eps.
            delta[p] = -1.0;
            let mut plus = model.clone();
            plus.sgd_step(&delta, eps);
            delta[p] = 1.0;
            let mut minus = model.clone();
            minus.sgd_step(&delta, eps);
            let numeric =
                (plus.mean_loss(&data, &indices) - minus.mean_loss(&data, &indices)) / (2.0 * eps);
            assert!(
                (numeric - analytic[p]).abs() < 1e-4 * analytic[p].abs().max(1.0),
                "param {p}: numeric {numeric} vs analytic {}",
                analytic[p]
            );
        }
    }

    #[test]
    fn linear_sgd_converges_to_truth() {
        let (data, w_star) = Dataset::linear_regression(2000, 5, 0.05, 14).unwrap();
        let mut m = LinearModel::new(5);
        let mut rng = StdRng::seed_from_u64(0);
        let mut grad = vec![0.0; 5];
        for _ in 0..2000 {
            let idx = data.sample_indices(32, &mut rng);
            m.grad_mean(&data, &idx, &mut grad);
            m.sgd_step(&grad, 0.05);
        }
        for (w, t) in m.params().iter().zip(&w_star) {
            assert!((w - t).abs() < 0.05, "{:?} vs {:?}", m.params(), w_star);
        }
    }
}
