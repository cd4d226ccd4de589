//! Minimal fixed-size linear algebra: 3-vectors and 3×3 rotation matrices.
//!
//! Deliberately small and dependency-free (in the spirit of smoltcp's
//! "simplicity over cleverness"): only the operations the rest of the
//! workspace needs, all `f64`, all `#[inline]`-friendly value types.

use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-dimensional vector of `f64` components.
///
/// Units are contextual (km for positions, km/s for velocities, unitless for
/// directions); operations never change units implicitly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// Unit vector along +X (the tests' reference axis).
    #[cfg(test)]
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit vector along +Y (the tests' reference axis).
    #[cfg(test)]
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit vector along +Z.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Constructs a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (avoids the square root).
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Returns the unit vector in this direction.
    ///
    /// Returns `None` for vectors with norm below `1e-300` to avoid
    /// producing NaNs from near-zero input.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Angle between two vectors in radians, in `[0, π]`.
    ///
    /// Numerically robust near 0 and π (uses `atan2` of cross/dot rather
    /// than `acos` of the clamped dot product).
    #[inline]
    pub fn angle_to(self, rhs: Vec3) -> f64 {
        self.cross(rhs).norm().atan2(self.dot(rhs))
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A 3×3 matrix stored row-major, used for frame rotations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows of the matrix.
    pub rows: [Vec3; 3],
}

impl Mat3 {
    /// Builds a matrix from three rows.
    #[inline]
    const fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Mat3 {
        Mat3 { rows: [r0, r1, r2] }
    }

    /// Rotation about the X axis by `angle` radians (passive/frame
    /// rotation convention, Vallado's ROT1).
    pub fn rot_x(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, c, s), Vec3::new(0.0, -s, c))
    }

    /// Rotation about the Z axis by `angle` radians (ROT3).
    pub fn rot_z(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows(Vec3::new(c, s, 0.0), Vec3::new(-s, c, 0.0), Vec3::new(0.0, 0.0, 1.0))
    }

    /// Matrix transpose (= inverse for rotation matrices).
    pub fn transpose(self) -> Mat3 {
        let [a, b, c] = self.rows;
        Mat3::from_rows(
            Vec3::new(a.x, b.x, c.x),
            Vec3::new(a.y, b.y, c.y),
            Vec3::new(a.z, b.z, c.z),
        )
    }

    /// Matrix-matrix product.
    pub fn mul_mat(self, rhs: Mat3) -> Mat3 {
        let t = rhs.transpose();
        Mat3::from_rows(
            Vec3::new(
                self.rows[0].dot(t.rows[0]),
                self.rows[0].dot(t.rows[1]),
                self.rows[0].dot(t.rows[2]),
            ),
            Vec3::new(
                self.rows[1].dot(t.rows[0]),
                self.rows[1].dot(t.rows[1]),
                self.rows[1].dot(t.rows[2]),
            ),
            Vec3::new(
                self.rows[2].dot(t.rows[0]),
                self.rows[2].dot(t.rows[1]),
                self.rows[2].dot(t.rows[2]),
            ),
        )
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.rows[0].dot(v), self.rows[1].dot(v), self.rows[2].dot(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::{FRAC_PI_2, PI};

    fn approx(a: Vec3, b: Vec3, tol: f64) -> bool {
        (a - b).norm() < tol
    }

    #[test]
    fn cross_product_right_handed() {
        assert!(approx(Vec3::X.cross(Vec3::Y), Vec3::Z, 1e-15));
        assert!(approx(Vec3::Y.cross(Vec3::Z), Vec3::X, 1e-15));
        assert!(approx(Vec3::Z.cross(Vec3::X), Vec3::Y, 1e-15));
    }

    #[test]
    fn angle_to_is_robust_at_extremes() {
        assert!((Vec3::X.angle_to(Vec3::X)).abs() < 1e-12);
        assert!((Vec3::X.angle_to(-Vec3::X) - PI).abs() < 1e-12);
        assert!((Vec3::X.angle_to(Vec3::Y) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn rot_z_passive_convention() {
        // A frame rotation by +90° about Z maps the +X axis vector onto the
        // new frame's -Y... i.e. expresses an inertial +X vector as +(-Y)?
        // Concretely: rot_z(90°) * X = (cos90·1, -sin90·1, 0) = (0,-1,0)?
        // With ROT3 rows ((c,s,0),(-s,c,0),(0,0,1)): M*X = (c,-s,0).
        let m = Mat3::rot_z(FRAC_PI_2);
        let v = m * Vec3::X;
        assert!(approx(v, -Vec3::Y, 1e-12), "{v:?}");
        // And the transpose undoes it.
        assert!(approx(m.transpose() * v, Vec3::X, 1e-12));
    }

    #[test]
    fn rotation_preserves_norm() {
        let v = Vec3::new(1.3, -2.7, 0.4);
        let m = Mat3::rot_x(0.3).mul_mat(Mat3::rot_z(-1.1)).mul_mat(Mat3::rot_x(2.2));
        assert!(((m * v).norm() - v.norm()).abs() < 1e-12);
    }

    #[test]
    fn normalized_rejects_zero() {
        assert!(Vec3::ZERO.normalized().is_none());
        let u = Vec3::new(3.0, 4.0, 0.0).normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-15);
    }
}
