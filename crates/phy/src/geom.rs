//! Testbed geometry: positions, the roadside AP array, and the road itself.
//!
//! The paper's deployment (Fig 9) places eight APs on the third floor of an
//! office building overlooking a side road, spaced 7.5 m apart, each with a
//! directional antenna aimed at its patch of road. We model the world in a
//! right-handed coordinate frame:
//!
//! * `x` — distance **along** the road (metres),
//! * `y` — distance **across** the road, away from the building,
//! * `z` — height above road level.
//!
//! Cars drive parallel to the x-axis in lanes of constant `y`.

use serde::Serialize;

/// A point in the 3-D world frame (metres).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct Position {
    /// Along-road coordinate.
    pub x: f64,
    /// Across-road coordinate.
    pub y: f64,
    /// Height.
    pub z: f64,
}

impl Position {
    /// Constructs a position.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Position { x, y, z }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Unit vector from `self` toward `other`. Returns `None` if the two
    /// points coincide.
    pub fn direction_to(&self, other: &Position) -> Option<[f64; 3]> {
        let d = self.distance(other);
        if d < 1e-9 {
            return None;
        }
        Some([
            (other.x - self.x) / d,
            (other.y - self.y) / d,
            (other.z - self.z) / d,
        ])
    }

    /// Angle (radians) at `self` between directions to `a` and to `b`.
    /// Returns `0.0` if either direction is degenerate.
    pub fn angle_between(&self, a: &Position, b: &Position) -> f64 {
        match (self.direction_to(a), self.direction_to(b)) {
            (Some(u), Some(v)) => {
                let dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2];
                dot.clamp(-1.0, 1.0).acos()
            }
            _ => 0.0,
        }
    }
}

/// One AP site: where the radio is and where its antenna boresight points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ApSite {
    /// Antenna location.
    pub position: Position,
    /// A point the boresight passes through (typically the AP's patch of
    /// road); the off-boresight angle toward a client is measured against
    /// the `position → boresight_target` ray.
    pub boresight_target: Position,
}

impl ApSite {
    /// Off-boresight angle (radians) from this AP toward `client`.
    pub fn off_boresight(&self, client: &Position) -> f64 {
        self.position.angle_between(&self.boresight_target, client)
    }

    /// Distance from the antenna to `client`.
    pub fn distance_to(&self, client: &Position) -> f64 {
        self.position.distance(client)
    }
}

/// The roadside deployment: AP sites plus road reference geometry.
#[derive(Debug, Clone, Serialize)]
pub struct Deployment {
    /// AP sites, ordered along the road (index = AP id).
    pub aps: Vec<ApSite>,
    /// `y` coordinate of the near traffic lane.
    pub lane_near_y: f64,
    /// `y` coordinate of the far traffic lane (for opposing-direction
    /// experiments).
    pub lane_far_y: f64,
}

/// Parameters for the paper's regular eight-AP roadside array.
#[derive(Debug, Clone, Serialize)]
pub struct DeploymentConfig {
    /// Number of AP sites.
    pub num_aps: usize,
    /// Spacing between adjacent APs along the road (paper: 7.5 m).
    pub ap_spacing_m: f64,
    /// AP mounting height (third floor ≈ 10 m).
    pub ap_height_m: f64,
    /// Lateral distance from the building face to the near lane.
    pub lane_near_y_m: f64,
    /// Lateral distance to the far lane.
    pub lane_far_y_m: f64,
    /// Along-road position of AP 0.
    pub first_ap_x_m: f64,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            num_aps: 8,
            ap_spacing_m: 7.5,
            ap_height_m: 10.0,
            lane_near_y_m: 6.0,
            lane_far_y_m: 10.0,
            first_ap_x_m: 0.0,
        }
    }
}

impl DeploymentConfig {
    /// Builds the deployment: APs on the building face (`y = 0`) at height,
    /// each aimed at the patch of near-lane road directly opposite it.
    pub fn build(&self) -> Deployment {
        let aps = (0..self.num_aps)
            .map(|i| {
                let x = self.first_ap_x_m + i as f64 * self.ap_spacing_m;
                ApSite {
                    position: Position::new(x, 0.0, self.ap_height_m),
                    boresight_target: Position::new(x, self.lane_near_y_m, 0.0),
                }
            })
            .collect();
        Deployment {
            aps,
            lane_near_y: self.lane_near_y_m,
            lane_far_y: self.lane_far_y_m,
        }
    }

    /// Builds a deployment with *irregular* spacing — used by the AP-density
    /// experiment (Fig 23), which compares a sparse and a dense segment.
    /// `spacings_m[i]` is the gap between AP `i` and AP `i+1`.
    pub fn build_irregular(&self, spacings_m: &[f64]) -> Deployment {
        let mut x = self.first_ap_x_m;
        let mut aps = Vec::with_capacity(spacings_m.len() + 1);
        for i in 0..=spacings_m.len() {
            aps.push(ApSite {
                position: Position::new(x, 0.0, self.ap_height_m),
                boresight_target: Position::new(x, self.lane_near_y_m, 0.0),
            });
            if i < spacings_m.len() {
                x += spacings_m[i];
            }
        }
        Deployment {
            aps,
            lane_near_y: self.lane_near_y_m,
            lane_far_y: self.lane_far_y_m,
        }
    }
}

impl Deployment {
    /// Along-road extent `(min_x, max_x)` covered by the AP array.
    pub fn extent(&self) -> (f64, f64) {
        let xs: Vec<f64> = self.aps.iter().map(|a| a.position.x).collect();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (min, max)
    }

    /// Number of AP sites.
    pub fn num_aps(&self) -> usize {
        self.aps.len()
    }
}

/// Converts miles per hour to metres per second.
pub fn mph_to_mps(mph: f64) -> f64 {
    mph * 0.44704
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_3d() {
        let a = Position::new(0.0, 0.0, 0.0);
        let b = Position::new(3.0, 4.0, 12.0);
        assert!((a.distance(&b) - 13.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn direction_and_angle() {
        let o = Position::new(0.0, 0.0, 0.0);
        let px = Position::new(5.0, 0.0, 0.0);
        let py = Position::new(0.0, 2.0, 0.0);
        let d = o.direction_to(&px).unwrap();
        assert!((d[0] - 1.0).abs() < 1e-12 && d[1].abs() < 1e-12);
        assert!((o.angle_between(&px, &py) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!(o.direction_to(&o).is_none());
        // Degenerate angle is 0.
        assert_eq!(o.angle_between(&o, &px), 0.0);
    }

    #[test]
    fn default_deployment_matches_paper() {
        let d = DeploymentConfig::default().build();
        assert_eq!(d.num_aps(), 8);
        // 7.5 m spacing.
        let gap = d.aps[1].position.x - d.aps[0].position.x;
        assert!((gap - 7.5).abs() < 1e-12);
        let (lo, hi) = d.extent();
        assert!((hi - lo - 52.5).abs() < 1e-12);
        // Boresight points down at the road: off-boresight angle at the
        // aimed patch is zero.
        let aimed = d.aps[3].boresight_target;
        assert!(d.aps[3].off_boresight(&aimed) < 1e-6);
    }

    #[test]
    fn off_boresight_grows_along_road() {
        let d = DeploymentConfig::default().build();
        let ap = &d.aps[0];
        let on_axis = Position::new(ap.position.x, d.lane_near_y, 0.0);
        let off_axis = Position::new(ap.position.x + 10.0, d.lane_near_y, 0.0);
        assert!(ap.off_boresight(&off_axis) > ap.off_boresight(&on_axis));
    }

    #[test]
    fn irregular_deployment() {
        let cfg = DeploymentConfig::default();
        let d = cfg.build_irregular(&[5.0, 5.0, 15.0, 15.0]);
        assert_eq!(d.num_aps(), 5);
        let xs: Vec<f64> = d.aps.iter().map(|a| a.position.x).collect();
        assert_eq!(xs, vec![0.0, 5.0, 10.0, 25.0, 40.0]);
    }

    #[test]
    fn mph_conversion() {
        // A mile is 1 609.344 m, an hour 3 600 s.
        for mph in [5.0, 15.0, 25.0, 35.0] {
            assert!((mph_to_mps(mph) - mph * 1609.344 / 3600.0).abs() < 1e-12);
        }
        // 25 mph ≈ 11.2 m/s: the paper's 460 ms dwell in a 5.2 m cell.
        let v = mph_to_mps(25.0);
        assert!((5.2 / v - 0.465).abs() < 0.01);
    }
}
