//! Output verification, always run outside the timed regions.
//!
//! [`is_exact`] applies the paper's exactness definition — the one
//! `mudbscan_core::check_exact` implements — against a reference from an
//! independent exact implementation: same core set, same core partition
//! (up to renumbering), same noise set, and every border point in the
//! cluster of a core point strictly within ε. `check_exact` scans every
//! point for each border point, which costs 16 s at 10⁶ points; this
//! version finds the border's witnesses through a hash grid of ε-sized
//! cells, so it can run after every timed run. A test pins the two to
//! the same verdicts.

use geom::{within_sq, Dataset, DbscanParams};
use mudbscan_core::{Clustering, NOISE};
use std::collections::HashMap;

/// Running count of attempted and failed operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed verification.
    pub failed: u64,
}

impl Tally {
    /// Count one operation that passed when `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Flip the core flag of the first point: the deliberate corruption the
/// tests use to show a wrong clustering is caught.
pub fn corrupt(c: &mut Clustering) {
    if let Some(f) = c.is_core.first_mut() {
        *f = !*f;
    }
}

/// True when `candidate` is an exact DBSCAN clustering of `data`, judged
/// against the exact `reference`.
pub fn is_exact(
    candidate: &Clustering,
    reference: &Clustering,
    data: &Dataset,
    params: &DbscanParams,
) -> bool {
    let n = data.len();
    if candidate.labels.len() != n
        || reference.labels.len() != n
        || candidate.is_core != reference.is_core
        || candidate.n_clusters != reference.n_clusters
    {
        return false;
    }
    let k = candidate.n_clusters;
    let (mut fwd, mut bwd) = (vec![NOISE; k], vec![NOISE; k]);
    for p in 0..n {
        let (a, b) = (candidate.labels[p], reference.labels[p]);
        if (a == NOISE) != (b == NOISE) || (a != NOISE && (a as usize >= k || b as usize >= k)) {
            return false;
        }
        if !candidate.is_core[p] {
            continue;
        }
        if a == NOISE {
            return false; // a core point must be clustered
        }
        for (map, from, to) in [(&mut fwd, a, b), (&mut bwd, b, a)] {
            match map[from as usize] {
                NOISE => map[from as usize] = to,
                seen if seen != to => return false,
                _ => {}
            }
        }
    }
    borders_valid(candidate, data, params)
}

/// Every non-core clustered point has a core point of its own cluster
/// strictly within ε.
fn borders_valid(c: &Clustering, data: &Dataset, params: &DbscanParams) -> bool {
    let eps = params.eps;
    let cell = |p: &[f64]| -> Vec<i64> { p.iter().map(|&x| (x / eps).floor() as i64).collect() };
    let mut grid: HashMap<Vec<i64>, Vec<u32>> = HashMap::new();
    for p in 0..data.len() {
        if c.is_core[p] {
            grid.entry(cell(data.point(p as u32))).or_default().push(p as u32);
        }
    }
    let dim = data.dim();
    let offsets = 3usize.pow(dim as u32);
    let mut key = vec![0i64; dim];
    (0..data.len()).all(|p| {
        if c.is_core[p] || c.labels[p] == NOISE {
            return true;
        }
        let pc = data.point(p as u32);
        let home = cell(pc);
        (0..offsets).any(|mut o| {
            for (k, h) in key.iter_mut().zip(&home) {
                *k = h + (o % 3) as i64 - 1;
                o /= 3;
            }
            grid.get(&key).is_some_and(|qs| {
                qs.iter().any(|&q| {
                    c.labels[q as usize] == c.labels[p]
                        && within_sq(pc, data.point(q), params.eps_sq())
                })
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudbscan_core::{check_exact, naive_dbscan, MuDbscan};

    fn sample() -> (Dataset, DbscanParams) {
        (data::generators::galaxy(1_500, 3, 11), DbscanParams::new(0.8, 5))
    }

    #[test]
    fn agrees_with_check_exact() {
        let (data, params) = sample();
        let reference = naive_dbscan(&data, &params);
        let good = MuDbscan::from_params(params).run(&data).clustering;
        assert!(check_exact(&good, &reference, &data, &params).is_exact());
        assert!(is_exact(&good, &reference, &data, &params));

        // Move border points to another cluster: the two checkers must
        // give the same verdict on each.
        let borders = (0..data.len()).filter(|&p| good.is_border(p as u32)).take(50);
        for b in borders.filter(|_| good.n_clusters > 1) {
            let mut moved = good.clone();
            moved.labels[b] = (moved.labels[b] + 1) % moved.n_clusters as u32;
            assert_eq!(
                check_exact(&moved, &reference, &data, &params).is_exact(),
                is_exact(&moved, &reference, &data, &params)
            );
        }
        let mut flipped = good.clone();
        corrupt(&mut flipped);
        assert!(!check_exact(&flipped, &reference, &data, &params).is_exact());
        assert!(!is_exact(&flipped, &reference, &data, &params));
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
