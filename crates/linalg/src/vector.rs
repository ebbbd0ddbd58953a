//! Dense vectors of `f64` with the small set of operations used by the
//! queueing-network solvers.
//!
//! [`DVector`] is a thin newtype over `Vec<f64>` so that vector semantics
//! (dot products, norms, normalization to a probability
//! vector) live in one place and are tested once.

use crate::{LinalgError, Result};

/// A dense column vector of `f64` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DVector {
    data: Vec<f64>,
}

impl DVector {
    /// Creates a vector from raw data.
    #[must_use]
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self { data }
    }

    /// Creates a vector of `len` zeros.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` ones.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        Self {
            data: vec![1.0; len],
        }
    }

    /// Creates a vector of `len` entries all equal to `value`.
    #[must_use]
    pub fn constant(len: usize, value: f64) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn dot(&self, other: &DVector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "dot product",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Multiplies every entry by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Sum of all entries.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute entry (infinity norm). Zero for an empty vector.
    #[must_use]
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Largest absolute difference between corresponding entries of `self`
    /// and `other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn max_abs_diff(&self, other: &DVector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "max_abs_diff",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs())))
    }

    /// Normalizes the entries so that they sum to one, returning the original
    /// sum. Useful when the vector represents an (unnormalized) probability
    /// distribution.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] if the sum is zero or not
    /// finite, in which case the vector is left untouched.
    pub fn normalize_sum(&mut self) -> Result<f64> {
        let s = self.sum();
        if s == 0.0 || !s.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "cannot normalize vector with zero or non-finite sum",
            ));
        }
        self.scale(1.0 / s);
        Ok(s)
    }

    /// Returns `true` if every entry is non-negative within `-tol`.
    #[must_use]
    pub fn is_nonnegative(&self, tol: f64) -> bool {
        self.data.iter().all(|&x| x >= -tol)
    }

    /// Clamps tiny negative entries (down to `-tol`) to zero; larger negative
    /// entries are left untouched so that genuine sign errors stay visible.
    pub fn clamp_small_negatives(&mut self, tol: f64) {
        for x in &mut self.data {
            if *x < 0.0 && *x >= -tol {
                *x = 0.0;
            }
        }
    }
}

impl std::ops::Index<usize> for DVector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for DVector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for DVector {
    fn from(v: Vec<f64>) -> Self {
        Self::from_vec(v)
    }
}

impl From<&[f64]> for DVector {
    fn from(v: &[f64]) -> Self {
        Self::from_vec(v.to_vec())
    }
}

impl FromIterator<f64> for DVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn constructors_have_expected_contents() {
        assert_eq!(DVector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(DVector::ones(2).as_slice(), &[1.0, 1.0]);
        assert_eq!(DVector::constant(2, 3.5).as_slice(), &[3.5, 3.5]);
    }

    #[test]
    fn dot_product_matches_hand_computation() {
        let a = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = DVector::from_vec(vec![4.0, -5.0, 6.0]);
        assert!(approx_eq(a.dot(&b).unwrap(), 4.0 - 10.0 + 18.0, 1e-12));
    }

    #[test]
    fn dot_dimension_mismatch_errors() {
        let a = DVector::zeros(2);
        let b = DVector::zeros(3);
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn norms_are_consistent() {
        let v = DVector::from_vec(vec![3.0, -4.0]);
        assert!(approx_eq(v.norm_inf(), 4.0, 1e-12));
        assert!(approx_eq(v.sum(), -1.0, 1e-12));
    }

    #[test]
    fn normalize_sum_produces_probability_vector() {
        let mut v = DVector::from_vec(vec![1.0, 3.0]);
        let s = v.normalize_sum().unwrap();
        assert!(approx_eq(s, 4.0, 1e-12));
        assert!(approx_eq(v[0], 0.25, 1e-12));
        assert!(approx_eq(v[1], 0.75, 1e-12));
    }

    #[test]
    fn normalize_sum_rejects_zero_sum() {
        let mut v = DVector::from_vec(vec![1.0, -1.0]);
        assert!(v.normalize_sum().is_err());
    }

    #[test]
    fn clamp_small_negatives_only_touches_round_off() {
        let mut v = DVector::from_vec(vec![-1e-14, -0.5, 0.3]);
        v.clamp_small_negatives(1e-12);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], -0.5);
        assert_eq!(v[2], 0.3);
        assert!(!v.is_nonnegative(1e-12));
    }

    #[test]
    fn max_abs_diff_is_the_largest_entrywise_gap() {
        let a = DVector::from_vec(vec![1.0, 2.0]);
        let b = DVector::from_vec(vec![3.0, -1.0]);
        assert!(approx_eq(a.max_abs_diff(&b).unwrap(), 3.0, 1e-12));
    }

    #[test]
    fn conversions_round_trip() {
        let v: DVector = vec![1.0, 2.0].into();
        assert_eq!(v.len(), 2);
        let v2: DVector = [3.0, 4.0].as_slice().into();
        assert_eq!(v2.into_vec(), vec![3.0, 4.0]);
        let v3: DVector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v3.as_slice(), &[0.0, 1.0, 2.0]);
        assert!(!v3.is_empty());
    }
}
