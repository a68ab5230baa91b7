//! # wgtt-workloads — application workload models
//!
//! The paper's §5.4 case studies as replayable QoE models over the
//! simulator's delivery timelines:
//!
//! * [`video`] — buffered video streaming and the rebuffer ratio (Table 4);
//! * [`conference`] — two-party video calls and per-second delivered fps
//!   (Fig 24);
//! * [`web`] — fixed-weight page loads and page-load time (Table 5).

#![forbid(unsafe_code)]

pub mod conference;
pub mod video;
pub mod web;

pub use conference::{per_second_fps, ConferenceConfig};
pub use video::{replay_video, VideoConfig, VideoQoe};
pub use web::{page_load_scenario, PageLoad, WebConfig};
