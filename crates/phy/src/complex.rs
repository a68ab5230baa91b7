//! Minimal complex arithmetic for channel modelling.
//!
//! The fading model works with complex baseband channel gains; rather than
//! pull in an external numerics crate, this module implements the small set
//! of operations required: addition, multiplication, scaling, magnitude,
//! and `e^{jθ}`.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number in rectangular form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cplx {
    /// Zero.
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };

    /// Constructs from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Cplx { re, im }
    }

    /// `e^{jθ}` — the unit phasor with phase `theta` radians.
    ///
    /// Uses the in-repo [`crate::fastmath::sincos`] kernel: one fused
    /// reduction instead of two libm calls, and bit-identical phasors on
    /// every host.
    #[inline]
    pub fn from_phase(theta: f64) -> Self {
        let (im, re) = crate::fastmath::sincos(theta);
        Cplx { re, im }
    }

    /// Squared magnitude `|z|²`.
    #[inline(always)]
    pub fn abs2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.abs2().sqrt()
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Cplx {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn add(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cplx {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Cplx) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    #[inline]
    fn sub(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn mul(self, rhs: Cplx) -> Cplx {
        Cplx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    #[inline]
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic() {
        let a = Cplx::new(1.0, 2.0);
        let b = Cplx::new(3.0, -1.0);
        assert_eq!(a + b, Cplx::new(4.0, 1.0));
        assert_eq!(a - b, Cplx::new(-2.0, 3.0));
        // (1+2j)(3-1j) = 3 - j + 6j - 2j^2 = 5 + 5j
        assert_eq!(a * b, Cplx::new(5.0, 5.0));
        assert_eq!(-a, Cplx::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Cplx::new(4.0, 1.0));
    }

    #[test]
    fn magnitude_and_phase() {
        let z = Cplx::new(3.0, 4.0);
        assert!(close(z.abs2(), 25.0));
        assert!(close(z.abs(), 5.0));
        let p = Cplx::from_phase(PI / 2.0);
        assert!(close(p.re, 0.0) || p.re.abs() < 1e-15);
        assert!(close(p.im, 1.0));
    }

    #[test]
    fn conjugate_multiplication_gives_power() {
        let z = Cplx::new(1.5, -2.5);
        let p = z * Cplx::new(z.re, -z.im);
        assert!(close(p.re, z.abs2()));
        assert!(p.im.abs() < 1e-12);
    }

    #[test]
    fn unit_phasor_has_unit_magnitude() {
        for i in 0..64 {
            let theta = i as f64 * PI / 32.0;
            assert!((Cplx::from_phase(theta).abs() - 1.0).abs() < 1e-12);
        }
    }
}
