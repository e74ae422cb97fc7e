//! Dense and Hadamard-factored layers.

use kr_autodiff::optim::ParamStore;
use kr_autodiff::{Graph, ParamId, VarId};
use kr_linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Activation applied after the affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit (hidden layers).
    #[default]
    Relu,
    /// Identity (embedding and output layers, as in ClustPy's stacks).
    Linear,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    fn apply(self, g: &mut Graph, x: VarId) -> VarId {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Linear => x,
            Activation::Tanh => g.tanh(x),
        }
    }
}

/// How a layer's weight matrix is parameterized.
#[derive(Debug, Clone)]
pub enum WeightParam {
    /// A full `in_dim x out_dim` matrix.
    Dense(ParamId),
    /// Hadamard decomposition (Eq. 6): `W = ⊙_i (A_i B_i)` with
    /// `A_i: in_dim x r_i`, `B_i: r_i x out_dim`.
    Hadamard(Vec<(ParamId, ParamId)>),
}

/// One fully-connected layer `y = act(x W + b)`.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Weight parameterization.
    pub weight: WeightParam,
    /// Bias parameter (`1 x out_dim`).
    pub bias: ParamId,
    /// Activation.
    pub activation: Activation,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl Layer {
    /// Creates a dense layer with He-style initialization.
    pub fn dense(
        store: &mut ParamStore,
        rng: &mut StdRng,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Layer {
        let std = (2.0 / in_dim as f64).sqrt();
        let w = store.add(random_matrix(rng, in_dim, out_dim, std));
        let b = store.add(Matrix::zeros(1, out_dim));
        Layer {
            weight: WeightParam::Dense(w),
            bias: b,
            activation,
            in_dim,
            out_dim,
        }
    }

    /// Creates a Hadamard-factored layer (Eq. 6) with `ranks.len()`
    /// factors. Factors are initialized so the implied `W` starts at
    /// roughly He scale: each factor pair gets std `(he / q)^(1/2)`-ish
    /// via per-factor scaling.
    pub fn hadamard(
        store: &mut ParamStore,
        rng: &mut StdRng,
        in_dim: usize,
        out_dim: usize,
        ranks: &[usize],
        activation: Activation,
    ) -> Layer {
        assert!(!ranks.is_empty(), "need at least one Hadamard factor");
        let q = ranks.len() as f64;
        // Each A_i B_i entry is a sum of r_i products; choose factor std
        // so the elementwise product of q such entries has He-like scale.
        let he = (2.0 / in_dim as f64).sqrt();
        let mut factors = Vec::with_capacity(ranks.len());
        for &r in ranks {
            let target = he.powf(1.0 / q); // scale of each A_i B_i entry
            let factor_std = (target / (r as f64).sqrt()).sqrt();
            let a = store.add(random_matrix(rng, in_dim, r, factor_std));
            let b = store.add(random_matrix(rng, r, out_dim, factor_std));
            factors.push((a, b));
        }
        let bias = store.add(Matrix::zeros(1, out_dim));
        Layer {
            weight: WeightParam::Hadamard(factors),
            bias,
            activation,
            in_dim,
            out_dim,
        }
    }

    /// Builds the layer's forward pass on the tape.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: VarId) -> VarId {
        let w = match &self.weight {
            WeightParam::Dense(w) => g.param(store, *w),
            WeightParam::Hadamard(factors) => {
                let mut acc: Option<VarId> = None;
                for (a, b) in factors {
                    let av = g.param(store, *a);
                    let bv = g.param(store, *b);
                    let prod = g.matmul(av, bv);
                    acc = Some(match acc {
                        None => prod,
                        Some(prev) => g.mul(prev, prod),
                    });
                }
                acc.expect("non-empty factors")
            }
        };
        let xb = g.matmul(x, w);
        let bias = g.param(store, self.bias);
        let affine = g.add_row_broadcast(xb, bias);
        self.activation.apply(g, affine)
    }

    /// Parameter count, resolved through the store (exact for both
    /// weight layouts).
    pub fn n_parameters_with(&self, store: &ParamStore) -> usize {
        let w = match &self.weight {
            WeightParam::Dense(pid) => store.get(*pid).len(),
            WeightParam::Hadamard(factors) => factors
                .iter()
                .map(|(a, b)| store.get(*a).len() + store.get(*b).len())
                .sum(),
        };
        w + self.out_dim
    }
}

pub(crate) fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, std: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| normal(rng) * std)
}

pub(crate) fn normal(rng: &mut StdRng) -> f64 {
    loop {
        let u = rng.gen_range(-1.0..1.0f64);
        let v = rng.gen_range(-1.0..1.0f64);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Layer::dense(&mut store, &mut rng, 4, 3, Activation::Relu);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(5, 4));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (5, 3));
        assert_eq!(layer.n_parameters_with(&store), 4 * 3 + 3);
    }

    #[test]
    fn hadamard_forward_matches_explicit_weight() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Layer::hadamard(&mut store, &mut rng, 4, 3, &[2, 2], Activation::Linear);
        // Explicit W = (A1 B1) ⊙ (A2 B2).
        let WeightParam::Hadamard(f) = &layer.weight else {
            panic!()
        };
        let serial = kr_linalg::ExecCtx::serial();
        let w1 = store
            .get(f[0].0)
            .matmul_with(store.get(f[0].1), &serial)
            .unwrap();
        let w2 = store
            .get(f[1].0)
            .matmul_with(store.get(f[1].1), &serial)
            .unwrap();
        let w = w1.hadamard(&w2).unwrap();
        let x = Matrix::from_fn(2, 4, |i, j| (i + j) as f64 * 0.3);
        let expect = x.matmul_with(&w, &serial).unwrap();
        let mut g = Graph::new();
        let xv = g.input(x);
        let y = layer.forward(&mut g, &store, xv);
        let got = g.value(y);
        assert!(got.sub(&expect).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn hadamard_param_count() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Layer::hadamard(&mut store, &mut rng, 100, 50, &[4, 4], Activation::Relu);
        // 2 * (100*4 + 4*50) + 50 = 2*600 + 50 = 1250 << 100*50+50.
        assert_eq!(layer.n_parameters_with(&store), 1250);
        assert_eq!(
            kr_metrics::params::hadamard_layer_params(100, 50, &[4, 4]),
            1250
        );
    }

    #[test]
    fn activations() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        for act in [Activation::Relu, Activation::Linear, Activation::Tanh] {
            let layer = Layer::dense(&mut store, &mut rng, 2, 2, act);
            let mut g = Graph::new();
            let x = g.input(Matrix::filled(1, 2, 10.0));
            let y = layer.forward(&mut g, &store, x);
            let v = g.value(y);
            match act {
                Activation::Relu => assert!(v.as_slice().iter().all(|&e| e >= 0.0)),
                Activation::Tanh => assert!(v.as_slice().iter().all(|&e| e.abs() <= 1.0)),
                Activation::Linear => {}
            }
        }
    }
}
