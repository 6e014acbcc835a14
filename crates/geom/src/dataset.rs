//! Flat, structure-of-arrays point storage.

use std::fmt;

/// Index of a point inside a [`Dataset`].
///
/// `u32` keeps per-point bookkeeping structures (union–find parents, labels,
/// neighbour lists) half the size of `usize` on 64-bit targets; datasets of
/// up to ~4.2 billion points fit, which covers the paper's 1B-point runs.
pub type PointId = u32;

/// An immutable collection of `n` points of dimension `dim`, stored
/// row-major in one flat buffer (`coords[i * dim .. (i + 1) * dim]` is
/// point `i`).
#[derive(Clone, PartialEq)]
pub struct Dataset {
    dim: usize,
    coords: Vec<f64>,
}

impl Dataset {
    /// Build a dataset from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `coords.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, coords: Vec<f64>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            coords.len().is_multiple_of(dim),
            "flat buffer length {} is not a multiple of dim {}",
            coords.len(),
            dim
        );
        Self { dim, coords }
    }

    /// Build a dataset from per-point rows. All rows must share one length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot infer dimension from zero rows");
        let dim = rows[0].len();
        let mut coords = Vec::with_capacity(rows.len() * dim);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), dim, "row {i} has length {} != dim {dim}", r.len());
            coords.extend_from_slice(r);
        }
        Self::from_flat(dim, coords)
    }

    /// An empty dataset of the given dimension.
    pub fn empty(dim: usize) -> Self {
        Self::from_flat(dim, Vec::new())
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// True when the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Point dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow the coordinates of point `id`.
    #[inline]
    pub fn point(&self, id: PointId) -> &[f64] {
        let i = id as usize * self.dim;
        &self.coords[i..i + self.dim]
    }

    /// The full flat coordinate buffer.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Iterate over `(id, coords)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> {
        self.coords.chunks_exact(self.dim).enumerate().map(|(i, c)| (i as PointId, c))
    }

    /// Iterate over all point ids.
    pub fn ids(&self) -> std::ops::Range<PointId> {
        0..self.len() as PointId
    }

    /// Copy the given points into a new dataset (used by the spatial
    /// partitioner to materialise per-rank shards).
    pub fn gather(&self, ids: &[PointId]) -> Dataset {
        let mut coords = Vec::with_capacity(ids.len() * self.dim);
        for &id in ids {
            coords.extend_from_slice(self.point(id));
        }
        Dataset::from_flat(self.dim, coords)
    }

    /// Append one point, returning its id. Only used during construction
    /// (generators, halo exchange); algorithms treat datasets as immutable.
    pub fn push(&mut self, coords: &[f64]) -> PointId {
        assert_eq!(coords.len(), self.dim);
        let id = self.len() as PointId;
        self.coords.extend_from_slice(coords);
        id
    }

    /// Append every point of `other` (same dimension), returning the id the
    /// first appended point received.
    pub fn extend_from(&mut self, other: &Dataset) -> PointId {
        assert_eq!(self.dim, other.dim);
        let first = self.len() as PointId;
        self.coords.extend_from_slice(&other.coords);
        first
    }

    /// Check that every coordinate is finite (no NaN/∞). DBSCAN distances
    /// are undefined on non-finite inputs; callers ingesting external
    /// files (the CLI) should validate before clustering.
    pub fn validate_finite(&self) -> Result<(), String> {
        for (i, x) in self.coords.iter().enumerate() {
            if !x.is_finite() {
                return Err(format!(
                    "non-finite coordinate {x} at point {}, component {}",
                    i / self.dim,
                    i % self.dim
                ));
            }
        }
        Ok(())
    }

    /// Component-wise bounding box of all points, as `(lo, hi)` vectors.
    /// Returns `None` for an empty dataset.
    pub fn bounding_box(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = self.point(0).to_vec();
        let mut hi = lo.clone();
        for (_, p) in self.iter().skip(1) {
            for k in 0..self.dim {
                if p[k] < lo[k] {
                    lo[k] = p[k];
                }
                if p[k] > hi[k] {
                    hi[k] = p[k];
                }
            }
        }
        Some((lo, hi))
    }

    /// All point ids in Z-order (Morton order) over [`Self::bounding_box`].
    ///
    /// Each coordinate is quantised to `⌊64/d⌋` bits (at most 21) over
    /// its axis' extent, and the bits are interleaved into one `u64` key,
    /// most significant level first. A zero-extent axis quantises to 0;
    /// for `d > 64` the key is empty. Equal keys are ordered by their
    /// coordinates (lexicographically), then by id, so the order is a
    /// total, deterministic permutation that depends only on the point
    /// *set*: shuffling the rows maps each point to the same rank (equal
    /// points swap ranks among themselves).
    ///
    /// One pass computes the keys without per-point allocation; the
    /// transient `(key, id)` array costs 16 bytes per point.
    pub fn morton_order(&self) -> Vec<PointId> {
        let Some((lo, hi)) = self.bounding_box() else { return Vec::new() };
        let dim = self.dim;
        let bits = (64 / dim).min(21) as u32;
        let max_q = ((1u64 << bits) - 1) as f64;
        // Per-axis scale into [0, 2^bits − 1]; 0 for a zero-extent axis.
        let scale: Vec<f64> =
            lo.iter().zip(&hi).map(|(&l, &h)| if h > l { max_q / (h - l) } else { 0.0 }).collect();
        let mut keyed: Vec<(u64, PointId)> = Vec::with_capacity(self.len());
        for (id, p) in self.iter() {
            let mut key = 0u64;
            for k in 0..dim {
                // In [0, max_q] up to a rounding error far below 1, which
                // the truncating cast absorbs.
                let q = ((p[k] - lo[k]) * scale[k]) as u64;
                for b in 0..bits {
                    key |= ((q >> b) & 1) << (b as usize * dim + k);
                }
            }
            keyed.push((key, id));
        }
        keyed.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| {
                    let (pa, pb) = (self.point(a.1), self.point(b.1));
                    pa.iter()
                        .zip(pb)
                        .map(|(x, y)| x.total_cmp(y))
                        .find(|o| o.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then(a.1.cmp(&b.1))
        });
        keyed.into_iter().map(|(_, id)| id).collect()
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dataset {{ n: {}, dim: {} }}", self.len(), self.dim)
    }
}

/// Incremental builder that avoids intermediate `Vec<Vec<f64>>` rows.
pub struct DatasetBuilder {
    dim: usize,
    coords: Vec<f64>,
}

impl DatasetBuilder {
    /// Start a builder for points of dimension `dim`, reserving room for
    /// `capacity` points.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0);
        Self { dim, coords: Vec::with_capacity(capacity * dim) }
    }

    /// Append one point.
    #[inline]
    pub fn push(&mut self, coords: &[f64]) {
        debug_assert_eq!(coords.len(), self.dim);
        self.coords.extend_from_slice(coords);
    }

    /// Number of points appended so far.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// True if no point has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Finish, producing the immutable [`Dataset`].
    pub fn build(self) -> Dataset {
        Dataset::from_flat(self.dim, self.coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 2.0], vec![-3.0, 4.5]])
    }

    #[test]
    fn from_rows_roundtrip() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.point(1), &[1.0, 2.0]);
        assert_eq!(d.point(2), &[-3.0, 4.5]);
    }

    #[test]
    fn iter_matches_point() {
        let d = sample();
        for (id, p) in d.iter() {
            assert_eq!(p, d.point(id));
        }
        assert_eq!(d.iter().count(), 3);
    }

    #[test]
    fn gather_subset() {
        let d = sample();
        let g = d.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.point(0), d.point(2));
        assert_eq!(g.point(1), d.point(0));
    }

    #[test]
    fn bounding_box_covers_all() {
        let d = sample();
        let (lo, hi) = d.bounding_box().unwrap();
        assert_eq!(lo, vec![-3.0, 0.0]);
        assert_eq!(hi, vec![1.0, 4.5]);
        assert!(Dataset::empty(2).bounding_box().is_none());
    }

    #[test]
    fn builder_matches_from_rows() {
        let mut b = DatasetBuilder::with_capacity(2, 3);
        assert!(b.is_empty());
        b.push(&[0.0, 0.0]);
        b.push(&[1.0, 2.0]);
        b.push(&[-3.0, 4.5]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.build(), sample());
    }

    #[test]
    fn push_and_extend() {
        let mut d = Dataset::empty(2);
        assert_eq!(d.push(&[1.0, 1.0]), 0);
        assert_eq!(d.push(&[2.0, 2.0]), 1);
        let other = sample();
        let first = d.extend_from(&other);
        assert_eq!(first, 2);
        assert_eq!(d.len(), 5);
        assert_eq!(d.point(3), other.point(1));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_validates_len() {
        Dataset::from_flat(3, vec![1.0, 2.0]);
    }

    /// Deterministic pseudo-random rows in `[-10, 10)^dim`.
    fn lcg_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut s = seed;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
        };
        (0..n).map(|_| (0..dim).map(|_| r()).collect()).collect()
    }

    fn assert_permutation(order: &[PointId], n: usize) {
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n as PointId).collect::<Vec<_>>(), "not a permutation");
    }

    /// Ids sorted lexicographically by coordinates, then by id.
    fn lexicographic(d: &Dataset) -> Vec<PointId> {
        let mut ids: Vec<PointId> = d.ids().collect();
        ids.sort_by(|&a, &b| d.point(a).partial_cmp(d.point(b)).expect("finite").then(a.cmp(&b)));
        ids
    }

    #[test]
    fn morton_order_is_a_deterministic_permutation() {
        let d = Dataset::from_rows(&lcg_rows(500, 3, 11));
        let order = d.morton_order();
        assert_permutation(&order, d.len());
        assert_eq!(order, d.morton_order(), "two calls disagree");
    }

    #[test]
    fn morton_order_of_tiny_datasets() {
        assert!(Dataset::empty(3).morton_order().is_empty());
        assert_eq!(Dataset::from_rows(&[vec![4.0, -1.0]]).morton_order(), vec![0]);
    }

    #[test]
    fn morton_order_of_identical_points_is_id_order() {
        let d = Dataset::from_rows(&vec![vec![2.5, -1.0, 7.0]; 9]);
        assert_eq!(d.morton_order(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn morton_order_traces_the_z_curve() {
        // Axis 0 is the low bit of each level: (0,0) (1,0) (0,1) (1,1).
        let d =
            Dataset::from_rows(&[vec![1.0, 1.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![0.0, 0.0]]);
        assert_eq!(d.morton_order(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn morton_order_with_a_zero_extent_axis() {
        // y is constant: the key reduces to x alone, so the order is the
        // x order (with coordinate and id tie-breaks).
        let mut rows = lcg_rows(200, 1, 5);
        rows.extend(rows.clone()); // duplicates exercise the id tie-break
        let rows: Vec<Vec<f64>> = rows.into_iter().map(|r| vec![r[0], 3.0]).collect();
        let d = Dataset::from_rows(&rows);
        assert_eq!(d.morton_order(), lexicographic(&d));
    }

    #[test]
    fn morton_order_in_one_dimension_sorts_by_value() {
        let mut rows = lcg_rows(300, 1, 9);
        rows.push(rows[17].clone());
        let d = Dataset::from_rows(&rows);
        assert_eq!(d.morton_order(), lexicographic(&d));
    }

    #[test]
    fn morton_order_in_22_dimensions_groups_clusters() {
        // ⌊64/22⌋ = 2 bits per axis. Two blobs hugging opposite corners
        // of the bounding box fall in disjoint top-level cells, so the
        // order visits one blob entirely before the other.
        let mut rows: Vec<Vec<f64>> =
            lcg_rows(40, 22, 3).into_iter().map(|r| r.iter().map(|x| x * 0.01).collect()).collect();
        let far: Vec<Vec<f64>> = lcg_rows(40, 22, 4)
            .into_iter()
            .map(|r| r.iter().map(|x| 100.0 + x * 0.01).collect())
            .collect();
        for (i, r) in far.into_iter().enumerate() {
            rows.insert(2 * i + 1, r); // interleave the blobs by id
        }
        let d = Dataset::from_rows(&rows);
        let order = d.morton_order();
        assert_permutation(&order, d.len());
        let near: Vec<bool> = order.iter().map(|&id| d.point(id)[0] < 50.0).collect();
        assert!(near[..40].iter().all(|&b| b), "the near blob must come first");
        assert!(near[40..].iter().all(|&b| !b), "then the far blob");
    }

    #[test]
    fn morton_order_beyond_64_dimensions_is_lexicographic() {
        // ⌊64/65⌋ = 0 bits: every key is empty and the tie-breaks decide.
        let mut rows = lcg_rows(60, 65, 21);
        rows.push(rows[3].clone());
        let d = Dataset::from_rows(&rows);
        assert_eq!(d.morton_order(), lexicographic(&d));
    }

    #[test]
    fn validate_finite_catches_bad_values() {
        assert!(sample().validate_finite().is_ok());
        let bad = Dataset::from_rows(&[vec![1.0, f64::NAN]]);
        let err = bad.validate_finite().unwrap_err();
        assert!(err.contains("point 0"), "{err}");
        let inf = Dataset::from_rows(&[vec![1.0, 2.0], vec![f64::INFINITY, 0.0]]);
        assert!(inf.validate_finite().unwrap_err().contains("point 1"));
    }
}
