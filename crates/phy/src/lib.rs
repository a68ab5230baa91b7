//! # wgtt-phy — the 802.11n physical-layer substrate
//!
//! Everything between "a car is at position x moving at v" and "this frame
//! was delivered / this CSI was measured":
//!
//! * [`geom`] — testbed geometry: the roadside AP array of the paper's
//!   Fig 9, positions, boresights;
//! * [`mobility`] — client trajectories (drive-bys at 5–35 mph, the
//!   two-car patterns of Fig 19);
//! * [`antenna`] — the 14 dBi / 21° parabolic pattern and isotropic
//!   clients;
//! * [`pathloss`] — log-distance large-scale loss and the link budget;
//! * [`fading`] — tapped-delay-line Rician fast fading with Doppler from
//!   vehicle speed: the *vehicular picocell regime* generator;
//! * [`fastmath`] — deterministic in-repo sin/cos/exp/ln kernels so channel
//!   realizations, BERs and dB conversions do not depend on the host libm;
//! * [`csi`] — 56-subcarrier channel state snapshots;
//! * [`esnr`] — Effective SNR (Halperin et al.) from one BER table per
//!   modulation, read forwards and backwards;
//! * [`mcs`] — the HT20 single-stream rate table;
//! * [`error`] — ESNR→PER waterfall model and instantaneous capacity;
//! * [`ratectl`] — Minstrel-style rate adaptation;
//! * [`shadowing`] — optional spatially correlated log-normal shadowing;
//! * [`link`] — the composed per-(AP, client) wireless link.
//!
//! All randomness flows from forked [`wgtt_sim::SimRng`] streams, so every
//! channel trace is reproducible and independent per link.

// `unsafe` appears once in this crate, under its own `allow`: the call
// `fastmath::at_host_width!` makes to a lane kernel's AVX2 copy after
// detecting AVX2.
#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]

pub mod antenna;
pub mod complex;
pub mod csi;
pub mod error;
pub mod esnr;
pub mod fading;
pub mod fastmath;
pub mod geom;
pub mod link;
pub mod mcs;
pub mod mobility;
pub mod pathloss;
pub mod ratectl;
pub mod shadowing;

pub use antenna::{Antenna, Isotropic, ParabolicAntenna};
pub use complex::Cplx;
pub use csi::{Csi, NUM_SUBCARRIERS};
pub use error::PerModel;
pub use esnr::{controller_esnr_db, esnr_db, esnr_from_csi, EsnrMemo, Modulation};
pub use fading::{coherence_time_s, doppler_hz, FadingConfig, TappedDelayLine};
pub use geom::{mph_to_mps, mps_to_mph, ApSite, Deployment, DeploymentConfig, Position};
pub use link::{LinkConfig, WirelessLink};
pub use mcs::{GuardInterval, Mcs};
pub use mobility::{pattern_trajectories, ConstantSpeed, DrivePattern, Stationary, Trajectory};
pub use pathloss::{db_to_linear, linear_to_db, LinkBudget, PathLoss};
pub use ratectl::MinstrelLite;
pub use shadowing::{ShadowingConfig, ShadowingProcess};
