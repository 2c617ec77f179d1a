//! # fiveg-apps
//!
//! Application workload models for the paper's Sec. 5 QoE study:
//!
//! * [`web`] — mobile web browsing: five page categories and an
//!   image-size sweep, with the download/render split of Figs. 16–17.
//!   The headline finding this reproduces: 5G's 5× throughput buys only
//!   ≈5 % PLT because rendering is device-bound and short flows finish
//!   before TCP converges.
//! * [`video`] — the 360TEL UHD panoramic video-telephony system:
//!   resolution-dependent frame-rate processes (static vs dynamic
//!   scenes), the H.264 pipeline latencies the paper measured (encode
//!   160 ms, decode 50 ms, capture/splice/render ≈440 ms), uplink
//!   streaming over the calibrated paths, freeze detection and
//!   stopwatch frame delay (Figs. 18–20).

pub mod video;
pub mod web;

pub use video::{Resolution, SceneKind, VideoResult, VideoSession};
pub use web::{ImagePage, PageCategory, PageLoadResult, WebPage};
