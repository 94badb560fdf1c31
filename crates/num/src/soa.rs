//! Structure-of-arrays storage for complex grids.
//!
//! Batched AC sweeps produce one complex number per (frequency point,
//! matrix entry). Storing the grid as `Vec<Complex>` interleaves real
//! and imaginary parts; splitting them into two parallel `f64` buffers
//! keeps each stream contiguous, which is what the auto-vectorizer
//! wants for the component-wise inner loops of the sweep engine, and is
//! the layout the batched engine hands back to plotting / JSON export
//! without any further copying.

use crate::complex::Complex;

/// A growable complex buffer held as split re/im (structure-of-arrays)
/// storage.
///
/// # Examples
///
/// ```
/// use rfkit_num::{soa::SoaComplex, Complex};
///
/// let mut buf = SoaComplex::new();
/// buf.push(Complex::new(1.0, -2.0));
/// buf.push(Complex::I);
/// assert_eq!(buf.len(), 2);
/// assert_eq!(buf.get(0), Complex::new(1.0, -2.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoaComplex {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SoaComplex {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        SoaComplex::default()
    }

    /// Creates an empty buffer with room for `n` values in both streams.
    pub fn with_capacity(n: usize) -> Self {
        SoaComplex {
            re: Vec::with_capacity(n),
            im: Vec::with_capacity(n),
        }
    }

    /// Number of complex values stored.
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Clears both streams, keeping their allocations for reuse.
    pub fn clear(&mut self) {
        self.re.clear();
        self.im.clear();
    }

    /// Ensures room for `n` additional values without reallocation.
    pub fn reserve(&mut self, n: usize) {
        self.re.reserve(n);
        self.im.reserve(n);
    }

    /// Appends a value.
    #[inline]
    pub fn push(&mut self, z: Complex) {
        self.re.push(z.re);
        self.im.push(z.im);
    }

    /// Reads the value at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Complex {
        Complex::new(self.re[i], self.im[i])
    }

    /// Overwrites the value at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, z: Complex) {
        self.re[i] = z.re;
        self.im[i] = z.im;
    }

    /// Grows (or shrinks) to exactly `n` values, filling new slots with
    /// zero.
    pub fn resize_zeroed(&mut self, n: usize) {
        self.re.resize(n, 0.0);
        self.im.resize(n, 0.0);
    }

    /// Copies the buffer out as interleaved complex values.
    pub fn to_vec(&self) -> Vec<Complex> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&re, &im)| Complex::new(re, im))
            .collect()
    }
}

impl FromIterator<Complex> for SoaComplex {
    fn from_iter<I: IntoIterator<Item = Complex>>(iter: I) -> Self {
        let mut buf = SoaComplex::new();
        for z in iter {
            buf.push(z);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut buf = SoaComplex::with_capacity(4);
        assert!(buf.is_empty());
        for i in 0..4 {
            buf.push(Complex::new(i as f64, -(i as f64)));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.get(2), Complex::new(2.0, -2.0));
        buf.set(2, Complex::I);
        assert_eq!(buf.get(2), Complex::I);
        assert_eq!(buf.to_vec()[3], Complex::new(3.0, -3.0));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut buf: SoaComplex = (0..100).map(|i| Complex::real(i as f64)).collect();
        let cap = buf.re.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.re.capacity(), cap);
        buf.reserve(50);
        assert!(buf.re.capacity() >= 50);
    }

    #[test]
    fn resize_zeroed_fills_with_zero() {
        let mut buf = SoaComplex::new();
        buf.push(Complex::ONE);
        buf.resize_zeroed(3);
        assert_eq!(buf.len(), 3);
        assert!(buf.get(1).is_exact_zero());
        assert!(buf.get(2).is_exact_zero());
        buf.resize_zeroed(1);
        assert_eq!(buf.to_vec(), vec![Complex::ONE]);
    }

    #[test]
    fn slices_are_parallel() {
        let buf: SoaComplex = [Complex::new(1.0, 2.0), Complex::new(3.0, 4.0)]
            .into_iter()
            .collect();
        assert_eq!(buf.re, [1.0, 3.0]);
        assert_eq!(buf.im, [2.0, 4.0]);
    }
}
