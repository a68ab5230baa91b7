//! Client mobility models.
//!
//! A [`Trajectory`] maps simulated time to a client position and speed.
//! The paper's experiments need stationary clients and constant-speed
//! transits past the AP array at 5–35 mph, in either lane and direction.

use crate::geom::{mph_to_mps, Deployment, Position};
use wgtt_sim::SimTime;

/// A deterministic motion plan for one client.
pub trait Trajectory: Send + Sync {
    /// Client position at time `t`.
    fn position(&self, t: SimTime) -> Position;

    /// Instantaneous speed (m/s) at time `t`; drives the Doppler spread of
    /// the fading process.
    fn speed_mps(&self, t: SimTime) -> f64;
}

/// A client that never moves.
#[derive(Debug, Clone)]
pub struct Stationary {
    /// Fixed position.
    pub position: Position,
}

impl Trajectory for Stationary {
    fn position(&self, _t: SimTime) -> Position {
        self.position
    }
    fn speed_mps(&self, _t: SimTime) -> f64 {
        0.0
    }
}

/// Constant-velocity motion along the road (the x-axis).
///
/// Positive `speed_mps` drives in +x; negative drives in −x (the opposing
/// direction).
#[derive(Debug, Clone)]
pub struct ConstantSpeed {
    /// Position at `t = 0`.
    pub start: Position,
    /// Signed speed along the x-axis, m/s.
    pub speed_mps: f64,
}

impl ConstantSpeed {
    /// A drive past the given deployment: starts `lead_in_m` before the
    /// first AP, in the near lane, at `mph` miles per hour, antenna height
    /// `z = 1.5 m` (roof-mounted client device).
    pub fn drive_by(deployment: &Deployment, mph: f64, lead_in_m: f64) -> Self {
        let (min_x, _) = deployment.extent();
        ConstantSpeed {
            start: Position::new(min_x - lead_in_m, deployment.lane_near_y, 1.5),
            speed_mps: mph_to_mps(mph),
        }
    }

    /// Same as [`ConstantSpeed::drive_by`] but in the far lane driving the
    /// opposite direction, starting `lead_in_m` beyond the last AP.
    pub fn drive_by_opposing(deployment: &Deployment, mph: f64, lead_in_m: f64) -> Self {
        let (_, max_x) = deployment.extent();
        ConstantSpeed {
            start: Position::new(max_x + lead_in_m, deployment.lane_far_y, 1.5),
            speed_mps: -mph_to_mps(mph),
        }
    }

    /// Time for this trajectory to traverse the full deployment plus lead-in
    /// and lead-out margins — the natural experiment duration.
    pub fn transit_time(&self, deployment: &Deployment, margin_m: f64) -> SimTime {
        let (min_x, max_x) = deployment.extent();
        let total = (max_x - min_x) + 2.0 * margin_m;
        SimTime::from_secs_f64(total / self.speed_mps.abs().max(1e-9))
    }
}

impl Trajectory for ConstantSpeed {
    fn position(&self, t: SimTime) -> Position {
        Position::new(
            self.start.x + self.speed_mps * t.as_secs_f64(),
            self.start.y,
            self.start.z,
        )
    }
    fn speed_mps(&self, _t: SimTime) -> f64 {
        self.speed_mps.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::DeploymentConfig;

    #[test]
    fn stationary_stays_put() {
        let s = Stationary {
            position: Position::new(1.0, 2.0, 3.0),
        };
        assert_eq!(s.position(SimTime::from_secs(100)), s.position);
        assert_eq!(s.speed_mps(SimTime::ZERO), 0.0);
    }

    #[test]
    fn constant_speed_advances_linearly() {
        let c = ConstantSpeed {
            start: Position::new(0.0, 5.0, 1.5),
            speed_mps: 10.0,
        };
        let p = c.position(SimTime::from_millis(2500));
        assert!((p.x - 25.0).abs() < 1e-9);
        assert_eq!(p.y, 5.0);
    }

    #[test]
    fn drive_by_starts_before_array() {
        let d = DeploymentConfig::default().build();
        let c = ConstantSpeed::drive_by(&d, 15.0, 10.0);
        assert!(c.position(SimTime::ZERO).x < d.extent().0);
        assert!(c.speed_mps > 0.0);
        assert_eq!(c.position(SimTime::ZERO).y, d.lane_near_y);
        // 15 mph over 52.5 m + 20 m margins ≈ 10.8 s.
        let t = c.transit_time(&d, 10.0);
        assert!((t.as_secs_f64() - 72.5 / mph_to_mps(15.0)).abs() < 1e-9);
    }

    #[test]
    fn opposing_drives_negative_x() {
        let d = DeploymentConfig::default().build();
        let c = ConstantSpeed::drive_by_opposing(&d, 15.0, 10.0);
        assert!(c.position(SimTime::ZERO).x > d.extent().1);
        let later = c.position(SimTime::from_secs(2));
        assert!(later.x < c.position(SimTime::ZERO).x);
        // Speed is reported unsigned (it feeds Doppler).
        assert!(c.speed_mps(SimTime::ZERO) > 0.0);
    }

    #[test]
    fn opposing_cars_separate_over_time() {
        let d = DeploymentConfig::default().build();
        let o = [
            ConstantSpeed::drive_by(&d, 15.0, 10.0),
            ConstantSpeed::drive_by_opposing(&d, 15.0, 10.0),
        ];
        // They approach, meet near the middle, then separate.
        let dist = |t: SimTime| o[0].position(t).distance(&o[1].position(t));
        let t_mid = SimTime::from_secs_f64(72.5 / (2.0 * mph_to_mps(15.0)));
        assert!(dist(t_mid) < dist(SimTime::ZERO));
        assert!(dist(t_mid + wgtt_sim::SimDuration::from_secs(20)) > dist(t_mid));
    }
}
