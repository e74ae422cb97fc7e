//! Joint deep-clustering training: DKM, IDEC, and their Khatri-Rao
//! variants (paper Sections 3 and 7, evaluated in Table 3).
//!
//! All four algorithms share one loop: encode a batch, materialize the
//! centroid grid, combine the clustering loss with the reconstruction
//! loss (`Q_C = L_cluster + w_rec · L_rec`, Eq. 2), backpropagate, and
//! Adam-step every parameter — autoencoder weights (dense or
//! Hadamard-factored) *and* centroids (free or protocentroid sets).

use crate::autoencoder::{shuffle, Autoencoder};
use crate::centroids::CentroidParam;
use crate::losses::{dkm_loss, idec_loss, idec_soft_assignment, idec_target_distribution};
use crate::{DeepError, Result};
use kr_autodiff::optim::Adam;
use kr_autodiff::Graph;
use kr_core::aggregator::Aggregator;
use kr_core::kmeans::KMeans;
use kr_core::kr_kmeans::KrKMeans;
use kr_linalg::{ExecCtx, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reconstruction weight `w_rec` of Eq. 2 (paper: 1).
const W_REC: f64 = 1.0;

/// Which clustering loss drives the latent space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossKind {
    /// Deep-k-Means (Eq. 3); the paper sets `alpha = 1000`.
    Dkm {
        /// Softmax sharpness `a`.
        alpha: f64,
    },
    /// Improved Deep Embedded Clustering (Eq. 4); `alpha = 1`.
    Idec {
        /// Student-t degrees-of-freedom `a`.
        alpha: f64,
    },
}

/// Centroid structure: free or Khatri-Rao.
#[derive(Debug, Clone)]
enum CentroidKind {
    Full {
        k: usize,
    },
    KhatriRao {
        hs: Vec<usize>,
        aggregator: Aggregator,
    },
}

/// Configurable deep-clustering trainer.
#[derive(Debug, Clone)]
pub struct DeepClustering {
    loss: LossKind,
    centroid_kind: CentroidKind,
    epochs: usize,
    batch_size: usize,
    lr: f64,
    init_n_init: usize,
    seed: u64,
    exec: ExecCtx,
}

/// A fitted deep-clustering model.
pub struct DeepModel {
    /// The (jointly trained) autoencoder, including all parameters.
    pub autoencoder: Autoencoder,
    /// Centroid parameterization (values live in `autoencoder.store`).
    pub centroids: CentroidParam,
    /// Final cluster assignment per training point.
    pub labels: Vec<usize>,
    /// Per-epoch total losses.
    pub epoch_losses: Vec<f64>,
    /// Loss used.
    pub loss: LossKind,
}

impl DeepModel {
    /// Latent centroid values.
    pub fn latent_centroids(&self) -> Matrix {
        self.centroids.values(&self.autoencoder.store)
    }

    /// Total stored parameters: autoencoder + centroid summary.
    pub fn n_parameters(&self) -> usize {
        self.autoencoder.n_parameters() + self.centroids.n_parameters(&self.autoencoder.store)
    }

    /// Assigns new data to the nearest latent centroid.
    pub fn predict(&self, data: &Matrix) -> Vec<usize> {
        let z = self.autoencoder.encode(data);
        kr_metrics::internal::nearest_assignments(&z, &self.latent_centroids())
    }
}

impl DeepClustering {
    /// Deep-k-Means with `k` free centroids (`alpha = 1000`, Eq. 3).
    pub fn dkm(k: usize) -> Self {
        Self::new(LossKind::Dkm { alpha: 1000.0 }, CentroidKind::Full { k })
    }

    /// IDEC with `k` free centroids (`alpha = 1`, Eq. 4).
    pub fn idec(k: usize) -> Self {
        Self::new(LossKind::Idec { alpha: 1.0 }, CentroidKind::Full { k })
    }

    /// Khatri-Rao DKM with protocentroid set sizes `hs` (paper uses the
    /// sum aggregator for all deep experiments).
    pub fn kr_dkm(hs: Vec<usize>, aggregator: Aggregator) -> Self {
        Self::new(
            LossKind::Dkm { alpha: 1000.0 },
            CentroidKind::KhatriRao { hs, aggregator },
        )
    }

    /// Khatri-Rao IDEC with protocentroid set sizes `hs`.
    pub fn kr_idec(hs: Vec<usize>, aggregator: Aggregator) -> Self {
        Self::new(
            LossKind::Idec { alpha: 1.0 },
            CentroidKind::KhatriRao { hs, aggregator },
        )
    }

    fn new(loss: LossKind, centroid_kind: CentroidKind) -> Self {
        DeepClustering {
            loss,
            centroid_kind,
            epochs: 50,
            batch_size: 256,
            lr: 1e-4,
            init_n_init: 5,
            seed: 0,
            exec: ExecCtx::serial(),
        }
    }

    /// Sets the number of clustering epochs (paper: 150).
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the batch size (paper: 512).
    pub fn with_batch_size(mut self, bs: usize) -> Self {
        self.batch_size = bs.max(1);
        self
    }

    /// Sets the clustering-phase learning rate (paper: 1e-4).
    pub fn with_lr(mut self, lr: f64) -> Self {
        self.lr = lr;
        self
    }

    /// Sets the restart count of the (KR-)k-Means initialization.
    pub fn with_init_n_init(mut self, n: usize) -> Self {
        self.init_n_init = n.max(1);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution context used by the (KR-)k-Means latent-space
    /// initialization *and* every training graph's blocked matmul /
    /// pairwise-distance kernels (results are bitwise identical at any
    /// thread count; only wall-clock changes).
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// Jointly trains the (pretrained) autoencoder and the centroids on
    /// `data`, consuming the autoencoder.
    pub fn fit(&self, mut ae: Autoencoder, data: &Matrix) -> Result<DeepModel> {
        if data.nrows() == 0 || data.ncols() != ae.input_dim() {
            return Err(DeepError::InvalidConfig(format!(
                "data is {}x{}, autoencoder expects width {}",
                data.nrows(),
                data.ncols(),
                ae.input_dim()
            )));
        }
        // ---- Initialization: (KR-)k-Means in the latent space (§7).
        let z0 = ae.encode_with(data, &self.exec);
        let centroids = match &self.centroid_kind {
            CentroidKind::Full { k } => {
                let km = KMeans::new(*k)
                    .with_n_init(self.init_n_init)
                    .with_seed(self.seed)
                    .with_exec(self.exec.clone())
                    .fit(&z0)?;
                CentroidParam::full(&mut ae.store, km.centroids)
            }
            CentroidKind::KhatriRao { hs, aggregator } => {
                let kr = KrKMeans::new(hs.clone())
                    .with_aggregator(*aggregator)
                    .with_n_init(self.init_n_init)
                    .with_seed(self.seed)
                    .with_exec(self.exec.clone())
                    .fit(&z0)?;
                CentroidParam::khatri_rao(&mut ae.store, kr.protocentroids, *aggregator)
            }
        };

        // ---- Joint training.
        let mut adam = Adam::new(&ae.store, self.lr);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD00D);
        let n = data.nrows();
        let bs = self.batch_size.min(n);
        let mut order: Vec<usize> = (0..n).collect();
        let mut epoch_losses = Vec::with_capacity(self.epochs);
        for _ in 0..self.epochs {
            // IDEC target distribution: recomputed each epoch over the
            // full dataset and detached (DEC/IDEC practice).
            let target_p = match self.loss {
                LossKind::Idec { alpha } => {
                    let z = ae.encode_with(data, &self.exec);
                    let mut g = Graph::new().with_exec(self.exec.clone());
                    let zv = g.input(z);
                    let cv = centroids.materialize(&mut g, &ae.store);
                    let q = idec_soft_assignment(&mut g, zv, cv, alpha);
                    Some(idec_target_distribution(g.value(q)))
                }
                LossKind::Dkm { .. } => None,
            };
            shuffle(&mut order, &mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(bs) {
                let batch = data.select_rows(chunk);
                let mut g = Graph::new().with_exec(self.exec.clone());
                let x = g.input(batch);
                let z = ae.encode_on(&mut g, x);
                let c = centroids.materialize(&mut g, &ae.store);
                let cluster = match self.loss {
                    LossKind::Dkm { alpha } => dkm_loss(&mut g, z, c, alpha),
                    LossKind::Idec { alpha } => {
                        let q = idec_soft_assignment(&mut g, z, c, alpha);
                        let p = target_p
                            .as_ref()
                            .expect("computed above")
                            .select_rows(chunk);
                        idec_loss(&mut g, q, &p)
                    }
                };
                let xhat = ae.decode_on(&mut g, z);
                let rec = g.mse(xhat, x);
                let rec_w = g.scale(rec, W_REC);
                let total = g.add(cluster, rec_w);
                epoch_loss += g.value(total).get(0, 0);
                batches += 1;
                g.backward(total);
                let grads = g.param_grads();
                adam.step(&mut ae.store, &grads);
            }
            epoch_losses.push(epoch_loss / batches.max(1) as f64);
        }

        // ---- Final hard assignment by nearest latent centroid.
        let z = ae.encode_with(data, &self.exec);
        let labels = kr_metrics::internal::nearest_assignments(&z, &centroids.values(&ae.store));
        Ok(DeepModel {
            autoencoder: ae,
            centroids,
            labels,
            epoch_losses,
            loss: self.loss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::Compression;

    /// Small but clusterable data: 3 blobs embedded in 12 dims.
    fn toy() -> (Matrix, Vec<usize>) {
        let ds = kr_datasets::synthetic::blobs(90, 12, 3, 0.3, 7);
        (ds.data, ds.labels)
    }

    fn pretrained_ae(data: &Matrix, seed: u64) -> Autoencoder {
        let mut ae = Autoencoder::new(&[12, 8, 2], Compression::None, seed).unwrap();
        ae.pretrain(data, 40, 32, 1e-2, seed + 1);
        ae
    }

    #[test]
    fn dkm_recovers_blobs() {
        let (data, truth) = toy();
        let ae = pretrained_ae(&data, 0);
        let model = DeepClustering::dkm(3)
            .with_epochs(30)
            .with_batch_size(32)
            .with_lr(1e-3)
            .with_seed(1)
            .fit(ae, &data)
            .unwrap();
        let ari = kr_metrics::adjusted_rand_index(&model.labels, &truth).unwrap();
        assert!(ari > 0.8, "ari {ari}");
        assert_eq!(model.latent_centroids().nrows(), 3);
    }

    #[test]
    fn idec_trains_and_assigns() {
        let (data, truth) = toy();
        let ae = pretrained_ae(&data, 2);
        let model = DeepClustering::idec(3)
            .with_epochs(20)
            .with_batch_size(32)
            .with_lr(1e-3)
            .with_seed(3)
            .fit(ae, &data)
            .unwrap();
        let ari = kr_metrics::adjusted_rand_index(&model.labels, &truth).unwrap();
        assert!(ari > 0.6, "ari {ari}");
        assert!(model.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn kr_dkm_uses_fewer_centroid_params() {
        let ds = kr_datasets::synthetic::blobs(120, 10, 4, 0.3, 11);
        let mut ae = Autoencoder::new(&[10, 8, 2], Compression::None, 4).unwrap();
        ae.pretrain(&ds.data, 30, 32, 1e-2, 5);
        let model = DeepClustering::kr_dkm(vec![2, 2], Aggregator::Sum)
            .with_epochs(20)
            .with_batch_size(32)
            .with_lr(1e-3)
            .with_seed(6)
            .fit(ae, &ds.data)
            .unwrap();
        // 4 protocentroids of dim 2 = 8 scalars, vs 4 centroids = 8...
        // (2+2 vs 4: equal here; the compression shows on the AE side and
        // for larger grids — check grid size instead.)
        assert_eq!(model.latent_centroids().nrows(), 4);
        let ari = kr_metrics::adjusted_rand_index(&model.labels, &ds.labels).unwrap();
        assert!(ari > 0.5, "ari {ari}");
    }

    #[test]
    fn kr_idec_with_compressed_autoencoder_end_to_end() {
        // The full Khatri-Rao deep clustering stack: Hadamard-compressed
        // autoencoder + protocentroid grid + IDEC loss.
        let ds = kr_datasets::synthetic::blobs(120, 32, 4, 0.3, 21);
        let mut ae =
            Autoencoder::new(&[32, 24, 16, 2], Compression::Hadamard { q: 2, rank: 2 }, 8).unwrap();
        ae.pretrain(&ds.data, 60, 32, 1e-2, 9);
        let model = DeepClustering::kr_idec(vec![2, 2], Aggregator::Sum)
            .with_epochs(20)
            .with_batch_size(32)
            .with_lr(1e-3)
            .with_seed(10)
            .fit(ae, &ds.data)
            .unwrap();
        assert!(model.epoch_losses.iter().all(|l| l.is_finite()));
        // Parameter accounting: compressed stack must undercut the full
        // equivalent.
        let full_ae = Autoencoder::new(&[32, 24, 16, 2], Compression::None, 8).unwrap();
        let full_params = full_ae.n_parameters() + 4 * 2;
        assert!(
            model.n_parameters() < full_params,
            "{} !< {full_params}",
            model.n_parameters()
        );
        let ari = kr_metrics::adjusted_rand_index(&model.labels, &ds.labels).unwrap();
        assert!(ari > 0.4, "ari {ari}");
    }

    #[test]
    fn predict_matches_training_labels() {
        let (data, _) = toy();
        let ae = pretrained_ae(&data, 12);
        let model = DeepClustering::dkm(3)
            .with_epochs(10)
            .with_batch_size(32)
            .with_seed(13)
            .fit(ae, &data)
            .unwrap();
        assert_eq!(model.predict(&data), model.labels);
    }

    #[test]
    fn exec_determinism_deep_training_pool_1_2_8_workers() {
        // Whole-stack determinism: pretraining, latent k-Means init,
        // and joint DKM training must be bitwise identical at any pool
        // size (every graph matmul runs the thread-invariant blocked
        // kernels).
        use kr_linalg::ThreadPool;
        use std::sync::Arc;
        let (data, _) = toy();
        let fit_with = |exec: &ExecCtx| {
            let mut ae = Autoencoder::new(&[12, 8, 2], Compression::None, 9).unwrap();
            ae.pretrain_with(&data, 10, 32, 1e-2, 10, exec);
            DeepClustering::dkm(3)
                .with_epochs(6)
                .with_batch_size(32)
                .with_lr(1e-3)
                .with_seed(11)
                .with_exec(exec.clone())
                .fit(ae, &data)
                .unwrap()
        };
        let reference = fit_with(&ExecCtx::serial());
        for workers in [1usize, 2, 8] {
            let pool = Arc::new(ThreadPool::new(workers));
            let exec = ExecCtx::threaded(workers + 1).with_pool(Arc::clone(&pool));
            let model = fit_with(&exec);
            assert_eq!(model.labels, reference.labels, "workers={workers}");
            for (a, b) in model.epoch_losses.iter().zip(reference.epoch_losses.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
            }
            let (mc, rc) = (model.latent_centroids(), reference.latent_centroids());
            for (x, y) in mc.as_slice().iter().zip(rc.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "workers={workers}");
            }
            assert_eq!(pool.workers(), workers);
        }
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let (data, _) = toy();
        let ae = Autoencoder::new(&[5, 3, 2], Compression::None, 0).unwrap();
        assert!(matches!(
            DeepClustering::dkm(3).fit(ae, &data),
            Err(DeepError::InvalidConfig(_))
        ));
    }

    #[test]
    fn training_reduces_clustering_loss() {
        let (data, _) = toy();
        let ae = pretrained_ae(&data, 14);
        let model = DeepClustering::dkm(3)
            .with_epochs(25)
            .with_batch_size(32)
            .with_lr(1e-3)
            .with_seed(15)
            .fit(ae, &data)
            .unwrap();
        let first = model.epoch_losses.first().unwrap();
        let last = model.epoch_losses.last().unwrap();
        assert!(last <= first, "loss went up: {first} -> {last}");
    }
}
