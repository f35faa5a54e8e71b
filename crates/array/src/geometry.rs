//! Array geometries and geometric queries.

use crate::pairs::{AntennaPair, PairGeometry};
use rim_dsp::geom::Vec2;
use rim_dsp::stats::{angle_diff, wrap_angle};

/// Tolerance for treating two directions as equal (radians) and two
/// lengths as equal (relative).
const DIR_TOL: f64 = 1e-6;
const LEN_TOL: f64 = 1e-6;

/// An antenna array: device-frame offsets plus the NIC grouping (antennas
/// on one NIC share clocks and lose packets together).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayGeometry {
    offsets: Vec<Vec2>,
    nic_groups: Vec<Vec<usize>>,
}

impl ArrayGeometry {
    /// Builds a custom array.
    ///
    /// # Panics
    /// Panics if the NIC grouping does not partition `0..offsets.len()`.
    pub fn custom(offsets: Vec<Vec2>, nic_groups: Vec<Vec<usize>>) -> Self {
        let mut seen = vec![false; offsets.len()];
        for g in &nic_groups {
            for &a in g {
                assert!(a < offsets.len(), "antenna index out of range");
                assert!(!seen[a], "antenna assigned to two NICs");
                seen[a] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "every antenna must belong to a NIC"
        );
        Self {
            offsets,
            nic_groups,
        }
    }

    /// Uniform linear array of `n` antennas along the device x-axis,
    /// centred on the origin — the COTS 3-antenna NIC when `n = 3`.
    ///
    /// # Panics
    /// Panics for `n < 2` or non-positive spacing.
    pub fn linear(n: usize, spacing: f64) -> Self {
        assert!(n >= 2, "a linear array needs at least two antennas");
        assert!(spacing > 0.0, "spacing must be positive");
        let mid = (n as f64 - 1.0) / 2.0;
        let offsets = (0..n)
            .map(|k| Vec2::new((k as f64 - mid) * spacing, 0.0))
            .collect();
        Self {
            offsets,
            nic_groups: vec![(0..n).collect()],
        }
    }

    /// The paper's 6-element hexagonal array (Fig. 2): two 3-antenna NICs
    /// placed together on a circle of radius `spacing` (adjacent antennas
    /// then sit `spacing` apart, the hexagon side equalling its
    /// circumradius). Antenna numbering matches the paper: antennas 1–3
    /// (indices 0–2) are NIC 1 on the upper arc at 150°/90°/30°, antennas
    /// 4–6 (indices 3–5) are NIC 2 on the lower arc at 210°/270°/330°, so
    /// that (1,4) ∥ (3,6) and (2,4) ∥ (3,5) as §4.2 states.
    ///
    /// ```
    /// use rim_array::{ArrayGeometry, HALF_WAVELENGTH};
    ///
    /// let hex = ArrayGeometry::hexagonal(HALF_WAVELENGTH);
    /// assert_eq!(hex.n_antennas(), 6);
    /// assert_eq!(hex.directions().len(), 12); // 30° resolution (§3.1)
    /// assert_eq!(hex.nic_groups().len(), 2);  // two unsynchronised NICs
    /// ```
    ///
    /// # Panics
    /// Panics for non-positive spacing.
    pub fn hexagonal(spacing: f64) -> Self {
        assert!(spacing > 0.0, "spacing must be positive");
        let deg = |d: f64| d.to_radians();
        let at = |ang: f64| Vec2::from_angle(ang) * spacing;
        let offsets = vec![
            at(deg(150.0)),
            at(deg(90.0)),
            at(deg(30.0)),
            at(deg(210.0)),
            at(deg(270.0)),
            at(deg(330.0)),
        ];
        Self {
            offsets,
            nic_groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
        }
    }

    /// The L-shaped 3-antenna pointer unit of the gesture application
    /// (§6.3.2): origin, +x and +y.
    ///
    /// # Panics
    /// Panics for non-positive spacing.
    pub fn l_shape(spacing: f64) -> Self {
        assert!(spacing > 0.0, "spacing must be positive");
        Self {
            offsets: vec![Vec2::ZERO, Vec2::new(spacing, 0.0), Vec2::new(0.0, spacing)],
            nic_groups: vec![vec![0, 1, 2]],
        }
    }

    /// Equilateral-triangle array (paper Fig. 3b).
    ///
    /// # Panics
    /// Panics for non-positive spacing.
    pub fn triangle(spacing: f64) -> Self {
        assert!(spacing > 0.0, "spacing must be positive");
        let h = spacing * 3f64.sqrt() / 2.0;
        Self {
            offsets: vec![
                Vec2::new(-spacing / 2.0, -h / 3.0),
                Vec2::new(spacing / 2.0, -h / 3.0),
                Vec2::new(0.0, 2.0 * h / 3.0),
            ],
            nic_groups: vec![vec![0, 1, 2]],
        }
    }

    /// Square array (a quadrangle per paper Fig. 3c, with two parallel
    /// side pairs).
    ///
    /// # Panics
    /// Panics for non-positive spacing.
    pub fn square(spacing: f64) -> Self {
        assert!(spacing > 0.0, "spacing must be positive");
        let h = spacing / 2.0;
        Self {
            offsets: vec![
                Vec2::new(-h, -h),
                Vec2::new(h, -h),
                Vec2::new(h, h),
                Vec2::new(-h, h),
            ],
            nic_groups: vec![vec![0, 1, 2, 3]],
        }
    }

    /// Number of antennas.
    pub fn n_antennas(&self) -> usize {
        self.offsets.len()
    }

    /// Device-frame antenna offsets.
    pub fn offsets(&self) -> &[Vec2] {
        &self.offsets
    }

    /// NIC grouping (each inner vec lists the antenna indices of one NIC).
    pub fn nic_groups(&self) -> &[Vec<usize>] {
        &self.nic_groups
    }

    /// All unordered pairs, each reported once in the orientation whose
    /// direction lies in `(-π/2, π/2]` (canonical form).
    pub fn pairs(&self) -> Vec<PairGeometry> {
        let mut out = Vec::new();
        for i in 0..self.offsets.len() {
            for j in i + 1..self.offsets.len() {
                let v = self.offsets[j] - self.offsets[i];
                let sep = v.norm();
                if sep < 1e-12 {
                    continue; // Coincident antennas form no usable pair.
                }
                let ang = v.angle();
                // Canonicalise to (-π/2, π/2].
                let (pair, direction) = if ang > std::f64::consts::FRAC_PI_2 + DIR_TOL
                    || ang <= -std::f64::consts::FRAC_PI_2 + DIR_TOL
                {
                    (
                        AntennaPair::new(j, i),
                        wrap_angle(ang + std::f64::consts::PI),
                    )
                } else {
                    (AntennaPair::new(i, j), ang)
                };
                out.push(PairGeometry {
                    pair,
                    separation: sep,
                    direction,
                });
            }
        }
        out
    }

    /// Separation vector from antenna `i` to antenna `j` (device frame).
    pub fn separation(&self, pair: AntennaPair) -> Vec2 {
        self.offsets[pair.j] - self.offsets[pair.i]
    }

    /// All device-frame heading directions the array can resolve: for
    /// every pair, both the `i→j` and `j→i` directions, deduplicated and
    /// sorted into `(-π, π]`.
    pub fn directions(&self) -> Vec<f64> {
        let mut dirs: Vec<f64> = Vec::new();
        for p in self.pairs() {
            for d in [p.direction, wrap_angle(p.direction + std::f64::consts::PI)] {
                if !dirs.iter().any(|&e| angle_diff(e, d) < DIR_TOL) {
                    dirs.push(d);
                }
            }
        }
        dirs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        dirs
    }

    /// Worst-case angular gap between adjacent resolvable directions —
    /// 30° for the hexagonal array (paper §3.1).
    pub fn orientation_resolution(&self) -> f64 {
        let dirs = self.directions();
        if dirs.len() < 2 {
            return std::f64::consts::TAU;
        }
        let mut max_gap: f64 = 0.0;
        for k in 0..dirs.len() {
            let next = if k + 1 < dirs.len() {
                dirs[k + 1]
            } else {
                dirs[0] + std::f64::consts::TAU
            };
            max_gap = max_gap.max(next - dirs[k]);
        }
        max_gap
    }

    /// Groups pairs that are parallel *and* isometric (same separation
    /// vector up to sign): their alignment matrices share the same delays
    /// and are averaged for robustness (§4.2). Each group's pairs are
    /// oriented consistently (same canonical direction).
    pub fn parallel_groups(&self) -> Vec<Vec<PairGeometry>> {
        let mut groups: Vec<Vec<PairGeometry>> = Vec::new();
        for p in self.pairs() {
            match groups.iter_mut().find(|g| {
                let r = &g[0];
                angle_diff(r.direction, p.direction) < DIR_TOL
                    && (r.separation - p.separation).abs()
                        <= LEN_TOL * r.separation.max(p.separation)
            }) {
                Some(g) => g.push(p),
                None => groups.push(vec![p]),
            }
        }
        groups
    }

    /// For circular arrays: the antennas ordered around the ring, or
    /// `None` when the antennas are not equidistant from their centroid.
    pub fn ring_order(&self) -> Option<Vec<usize>> {
        let n = self.offsets.len();
        if n < 3 {
            return None;
        }
        let centroid = self.offsets.iter().fold(Vec2::ZERO, |a, &b| a + b) * (1.0 / n as f64);
        let radii: Vec<f64> = self
            .offsets
            .iter()
            .map(|&o| (o - centroid).norm())
            .collect();
        let r0 = radii[0];
        if r0 < 1e-12 || radii.iter().any(|&r| (r - r0).abs() > 1e-9 * r0.max(1e-9)) {
            return None;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            (self.offsets[a] - centroid)
                .angle()
                .partial_cmp(&(self.offsets[b] - centroid).angle())
                .unwrap()
        });
        Some(order)
    }

    /// Ring radius (distance of antennas from the centroid), or `None`
    /// for non-circular arrays.
    pub fn ring_radius(&self) -> Option<f64> {
        self.ring_order()?;
        let n = self.offsets.len() as f64;
        let centroid = self.offsets.iter().fold(Vec2::ZERO, |a, &b| a + b) * (1.0 / n);
        Some((self.offsets[0] - centroid).norm())
    }

    /// Adjacent pairs around the ring, oriented in ring order
    /// (counter-clockwise): during an in-place CCW rotation each listed
    /// pair's *following* antenna sweeps onto its *leading* antenna.
    pub fn adjacent_ring_pairs(&self) -> Option<Vec<AntennaPair>> {
        let order = self.ring_order()?;
        let n = order.len();
        Some(
            (0..n)
                .map(|k| AntennaPair::new(order[k], order[(k + 1) % n]))
                .collect(),
        )
    }

    /// Arc length an antenna travels during in-place rotation before it
    /// reaches its ring neighbour's previous position — the *effective*
    /// separation for rotation speed (π/3 · Δd for the hexagon, §4.4).
    pub fn rotation_arc_separation(&self) -> Option<f64> {
        let r = self.ring_radius()?;
        let n = self.offsets.len() as f64;
        Some(std::f64::consts::TAU / n * r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HALF_WAVELENGTH;

    #[test]
    fn linear_array_geometry() {
        let a = ArrayGeometry::linear(3, 0.0258);
        assert_eq!(a.n_antennas(), 3);
        let pairs = a.pairs();
        assert_eq!(pairs.len(), 3);
        // 2 resolvable directions (±x) — paper Fig. 3a.
        assert_eq!(a.directions().len(), 2);
        // Separations: d, d, 2d.
        let mut seps: Vec<f64> = pairs.iter().map(|p| p.separation).collect();
        seps.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((seps[0] - 0.0258).abs() < 1e-12);
        assert!((seps[2] - 0.0516).abs() < 1e-12);
        assert!(a.ring_order().is_none(), "a line is not a ring");
    }

    #[test]
    fn triangle_directions() {
        let a = ArrayGeometry::triangle(0.03);
        // 3 pairs → 6 directions (paper Fig. 3b).
        assert_eq!(a.pairs().len(), 3);
        assert_eq!(a.directions().len(), 6);
    }

    #[test]
    fn square_has_8_directions() {
        let a = ArrayGeometry::square(0.03);
        // 6 pairs → 12 rays, but two side pairs are parallel: 8 unique
        // directions (paper §3.1).
        assert_eq!(a.pairs().len(), 6);
        assert_eq!(a.directions().len(), 8);
        // Two parallel-isometric groups of two (the opposite sides).
        let doubled = a
            .parallel_groups()
            .into_iter()
            .filter(|g| g.len() == 2)
            .count();
        assert_eq!(doubled, 2);
    }

    #[test]
    fn hexagon_basic_shape() {
        let a = ArrayGeometry::hexagonal(HALF_WAVELENGTH);
        assert_eq!(a.n_antennas(), 6);
        assert_eq!(a.pairs().len(), 15);
        // 12 directions, 30° resolution (paper §3.1).
        assert_eq!(a.directions().len(), 12);
        assert!((a.orientation_resolution().to_degrees() - 30.0).abs() < 1e-6);
        // Adjacent antennas are spaced by the circumradius.
        let ring = a.adjacent_ring_pairs().unwrap();
        assert_eq!(ring.len(), 6);
        for p in &ring {
            assert!((a.separation(*p).norm() - HALF_WAVELENGTH).abs() < 1e-9);
        }
        assert!((a.ring_radius().unwrap() - HALF_WAVELENGTH).abs() < 1e-12);
        assert!(
            (a.rotation_arc_separation().unwrap() - std::f64::consts::FRAC_PI_3 * HALF_WAVELENGTH)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn hexagon_paper_parallel_pairs() {
        // §4.2: (1,4) ∥ (3,6) and (2,4) ∥ (3,5), 1-based.
        let a = ArrayGeometry::hexagonal(HALF_WAVELENGTH);
        let v14 = a.separation(AntennaPair::new(0, 3));
        let v36 = a.separation(AntennaPair::new(2, 5));
        assert!(
            (v14 - v36).norm() < 1e-9,
            "(1,4) ∥ (3,6): {v14:?} vs {v36:?}"
        );
        let v24 = a.separation(AntennaPair::new(1, 3));
        let v35 = a.separation(AntennaPair::new(2, 4));
        assert!((v24 - v35).norm() < 1e-9, "(2,4) ∥ (3,5)");
        // And the grouping discovers them.
        let groups = a.parallel_groups();
        let find = |i: usize, j: usize| {
            groups
                .iter()
                .find(|g| {
                    g.iter().any(|p| {
                        (p.pair.i == i && p.pair.j == j) || (p.pair.i == j && p.pair.j == i)
                    })
                })
                .expect("pair in some group")
        };
        let g14 = find(0, 3);
        assert!(g14
            .iter()
            .any(|p| { (p.pair.i == 2 && p.pair.j == 5) || (p.pair.i == 5 && p.pair.j == 2) }));
    }

    #[test]
    fn hexagon_every_direction_has_multiple_pairs() {
        // §3.1: "For each possible direction, there will be at least two
        // pairs of antennas being aligned."
        let a = ArrayGeometry::hexagonal(HALF_WAVELENGTH);
        let multi = a.parallel_groups().iter().filter(|g| g.len() >= 2).count();
        assert!(multi >= 3, "several augmented groups exist, got {multi}");
    }

    #[test]
    fn hexagon_nic_split() {
        let a = ArrayGeometry::hexagonal(HALF_WAVELENGTH);
        assert_eq!(a.nic_groups().len(), 2);
        assert_eq!(a.nic_groups()[0].len(), 3);
        // NIC 1 antennas all on the upper half-plane.
        let y = |nic: usize| a.nic_groups()[nic].iter().map(|&i| a.offsets()[i].y);
        assert!(y(0).all(|y| y > 0.0));
        assert!(y(1).all(|y| y < 0.0));
    }

    #[test]
    fn l_shape_directions() {
        let a = ArrayGeometry::l_shape(0.02);
        // 3 pairs, none parallel: 6 directions, including ±x and ±y.
        let dirs = a.directions();
        assert_eq!(dirs.len(), 6);
        assert!(dirs.iter().any(|&d| angle_diff(d, 0.0) < 1e-9));
        assert!(dirs
            .iter()
            .any(|&d| angle_diff(d, std::f64::consts::FRAC_PI_2) < 1e-9));
    }

    #[test]
    fn ring_order_is_ccw() {
        let a = ArrayGeometry::hexagonal(1.0);
        let order = a.ring_order().unwrap();
        // Angles must increase around the circle.
        let angles: Vec<f64> = order.iter().map(|&i| a.offsets()[i].angle()).collect();
        for w in angles.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn custom_validation() {
        let offs = vec![Vec2::ZERO, Vec2::new(1.0, 0.0)];
        let ok = ArrayGeometry::custom(offs.clone(), vec![vec![0, 1]]);
        assert_eq!(ok.n_antennas(), 2);
        assert!(std::panic::catch_unwind(|| {
            ArrayGeometry::custom(offs.clone(), vec![vec![0]])
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            ArrayGeometry::custom(offs.clone(), vec![vec![0, 0], vec![1]])
        })
        .is_err());
    }

    #[test]
    fn pair_canonical_direction_range() {
        for a in [
            ArrayGeometry::linear(3, 0.02),
            ArrayGeometry::hexagonal(0.0258),
            ArrayGeometry::square(0.03),
            ArrayGeometry::l_shape(0.02),
        ] {
            for p in a.pairs() {
                assert!(
                    p.direction > -std::f64::consts::FRAC_PI_2 - 1e-9
                        && p.direction <= std::f64::consts::FRAC_PI_2 + 1e-9,
                    "canonical direction in (-π/2, π/2]: {}",
                    p.direction
                );
                assert!(p.separation > 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linear_needs_two() {
        let _ = ArrayGeometry::linear(1, 0.02);
    }
}
