//! Plane geometry primitives shared by the propagation, array and tracking
//! layers: points, vectors, rigid transforms and segment intersection.
//!
//! RIM is a 2-D system (paper §2: "RIM estimates all these parameters for
//! 2D motions"), so all geometry is planar.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A 2-D point in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// x-coordinate in metres.
    pub x: f64,
    /// y-coordinate in metres.
    pub y: f64,
}

/// A 2-D displacement vector in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// x-component in metres.
    pub x: f64,
    /// y-component in metres.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Vector from this point to `other`.
    pub fn to(self, other: Point2) -> Vec2 {
        other - self
    }

    /// Midpoint of the segment to `other`.
    pub fn midpoint(self, other: Point2) -> Point2 {
        Point2::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }
}

impl Vec2 {
    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Unit vector at angle `theta` (radians, counter-clockwise from +x).
    pub fn from_angle(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::new(c, s)
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared norm.
    pub fn norm_sqr(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Angle of the vector, `atan2(y, x)` in `(-π, π]`.
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Unit vector in the same direction, or zero for the zero vector.
    pub fn normalize(self) -> Vec2 {
        let n = self.norm();
        if n == 0.0 {
            Vec2::ZERO
        } else {
            self * (1.0 / n)
        }
    }

    /// Rotates the vector counter-clockwise by `theta` radians.
    pub fn rotate(self, theta: f64) -> Vec2 {
        let (s, c) = theta.sin_cos();
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }
}

impl Add<Vec2> for Point2 {
    type Output = Point2;
    fn add(self, v: Vec2) -> Point2 {
        Point2::new(self.x + v.x, self.y + v.y)
    }
}

impl AddAssign<Vec2> for Point2 {
    fn add_assign(&mut self, v: Vec2) {
        self.x += v.x;
        self.y += v.y;
    }
}

impl Sub for Point2 {
    type Output = Vec2;
    fn sub(self, other: Point2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x + other.x, self.y + other.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    fn mul(self, v: Vec2) -> Vec2 {
        v * self
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// A directed line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point2,
    /// End point.
    pub b: Point2,
}

impl Segment {
    /// Creates a segment from endpoints.
    pub const fn new(a: Point2, b: Point2) -> Self {
        Self { a, b }
    }

    /// Segment length.
    pub fn length(self) -> f64 {
        self.a.distance(self.b)
    }

    /// Direction vector (not normalised).
    pub fn dir(self) -> Vec2 {
        self.b - self.a
    }

    /// Proper intersection test between two segments, returning the
    /// intersection point if the open interiors cross. Collinear overlap
    /// and shared endpoints return `None` — the particle filter only needs
    /// "does this step cross a wall", and grazing contact is not a crossing.
    pub fn intersect(self, other: Segment) -> Option<Point2> {
        let r = self.dir();
        let s = other.dir();
        let denom = r.cross(s);
        if denom.abs() < 1e-12 {
            return None; // Parallel or collinear.
        }
        let qp = other.a - self.a;
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        let eps = 1e-12;
        if t > eps && t < 1.0 - eps && u > eps && u < 1.0 - eps {
            Some(self.a + r * t)
        } else {
            None
        }
    }

    /// Reflects a point across the infinite line through this segment —
    /// the "image" operation of the image-method ray tracer.
    pub fn mirror_point(self, p: Point2) -> Point2 {
        let d = self.dir().normalize();
        if d == Vec2::ZERO {
            return p; // Degenerate wall; no reflection defined.
        }
        let ap = p - self.a;
        let proj = d * ap.dot(d);
        let foot = self.a + proj;
        let offset = p - foot;
        foot + (-offset)
    }

    /// Distance from a point to this segment (not the infinite line).
    pub fn distance_to_point(self, p: Point2) -> f64 {
        let d = self.dir();
        let len2 = d.norm_sqr();
        if len2 == 0.0 {
            return self.a.distance(p);
        }
        let t = ((p - self.a).dot(d) / len2).clamp(0.0, 1.0);
        (self.a + d * t).distance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn point_vector_algebra() {
        let p = Point2::new(1.0, 2.0);
        let v = Vec2::new(3.0, -1.0);
        let q = p + v;
        assert_eq!(q, Point2::new(4.0, 1.0));
        assert_eq!(q - p, v);
        assert_eq!(p.to(q), v);
        assert_eq!(p.midpoint(q), Point2::new(2.5, 1.5));
    }

    #[test]
    fn vec_norm_and_angle() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sqr(), 25.0);
        assert!((Vec2::new(0.0, 2.0).angle() - FRAC_PI_2).abs() < 1e-12);
        assert_eq!(Vec2::ZERO.normalize(), Vec2::ZERO);
        assert!((v.normalize().norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_quarter_turn() {
        let v = Vec2::new(1.0, 0.0);
        let r = v.rotate(FRAC_PI_2);
        assert!((r.x).abs() < 1e-12 && (r.y - 1.0).abs() < 1e-12);
        let full = v.rotate(2.0 * PI);
        assert!((full.x - 1.0).abs() < 1e-12 && full.y.abs() < 1e-12);
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn from_angle_unit() {
        for k in 0..12 {
            let t = k as f64 * PI / 6.0;
            let v = Vec2::from_angle(t);
            assert!((v.norm() - 1.0).abs() < 1e-12);
            assert!(crate::stats::angle_diff(v.angle(), t) < 1e-12);
        }
    }

    #[test]
    fn segments_crossing() {
        let s1 = Segment::new(Point2::new(0.0, 0.0), Point2::new(2.0, 2.0));
        let s2 = Segment::new(Point2::new(0.0, 2.0), Point2::new(2.0, 0.0));
        let p = s1.intersect(s2).expect("segments cross");
        assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segments_not_crossing() {
        let s1 = Segment::new(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0));
        let s2 = Segment::new(Point2::new(0.0, 1.0), Point2::new(1.0, 1.0));
        assert!(s1.intersect(s2).is_none()); // Parallel.
        let s3 = Segment::new(Point2::new(5.0, -1.0), Point2::new(5.0, 1.0));
        assert!(s1.intersect(s3).is_none()); // Out of range.
    }

    #[test]
    fn shared_endpoint_is_not_crossing() {
        let s1 = Segment::new(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0));
        let s2 = Segment::new(Point2::new(1.0, 0.0), Point2::new(1.0, 1.0));
        assert!(s1.intersect(s2).is_none());
    }

    #[test]
    fn mirror_point_across_axis() {
        let wall = Segment::new(Point2::new(0.0, 0.0), Point2::new(10.0, 0.0));
        let m = wall.mirror_point(Point2::new(3.0, 2.0));
        assert!((m.x - 3.0).abs() < 1e-12 && (m.y + 2.0).abs() < 1e-12);
        // Mirroring twice is the identity.
        let mm = wall.mirror_point(m);
        assert!((mm.x - 3.0).abs() < 1e-12 && (mm.y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mirror_point_on_line_is_fixed() {
        let wall = Segment::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
        let p = Point2::new(0.5, 0.5);
        let m = wall.mirror_point(p);
        assert!(m.distance(p) < 1e-12);
    }

    #[test]
    fn distance_to_segment() {
        let s = Segment::new(Point2::new(0.0, 0.0), Point2::new(10.0, 0.0));
        assert!((s.distance_to_point(Point2::new(5.0, 3.0)) - 3.0).abs() < 1e-12);
        assert!((s.distance_to_point(Point2::new(-3.0, 4.0)) - 5.0).abs() < 1e-12);
        let degenerate = Segment::new(Point2::ORIGIN, Point2::ORIGIN);
        assert!((degenerate.distance_to_point(Point2::new(0.0, 2.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn segment_length_and_dir() {
        let s = Segment::new(Point2::new(1.0, 1.0), Point2::new(4.0, 5.0));
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.dir(), Vec2::new(3.0, 4.0));
    }
}
