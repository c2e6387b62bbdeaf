#![warn(missing_docs)]

//! Virtual-time queueing substrate for the LITE reproduction.
//!
//! The LITE paper ran on a 10-machine InfiniBand cluster and reports
//! wall-clock latencies and throughputs. This repository replaces the
//! hardware with a *conservative virtual-time queueing simulation*:
//!
//! * Every client of the simulated stack carries a logical clock
//!   ([`VClock`], nanoseconds) inside a [`Ctx`]. Performing an operation
//!   advances the clock by the modeled cost of that operation.
//! * Every shared piece of hardware (a NIC request engine, a DMA engine, a
//!   link, a polling thread) is a fluid FCFS server ([`Fluid`]), behind
//!   its own lock as a [`Resource`] or under its owner's (a NIC keeps
//!   its engine and links under the one lock a post takes). Waiting in
//!   a queue therefore shows up as clock advancement, and contention
//!   between concurrent clients emerges from execution rather than from a
//!   closed-form formula.
//! * Messages between simulated nodes carry their arrival stamp; a
//!   receiver joins (`max`) its clock with the stamp on delivery.
//!
//! Latency experiments read a single clock before and after an operation;
//! throughput experiments divide completed operations by the virtual
//! makespan across all worker clocks. Everything is deterministic given a
//! seed, and runs orders of magnitude faster than real time because nobody
//! actually sleeps.
//!
//! The crate also hosts the generic building blocks used by the RNIC model
//! and the workload generators: [`Lru`] caches (the on-NIC SRAM model),
//! [`TokenBucket`] rate limiters (LITE's SW-Pri QoS), [`CpuMeter`]s
//! (CPU-utilization accounting for Fig 13), the gauges a context owns
//! ([`ledger`]), streaming [`stats`],
//! deterministic samplers ([`rng`]), and the one way a thread blocks
//! ([`wait`]).

pub mod cpu;
pub mod ctx;
pub mod inline;
pub mod ledger;
pub mod lru;
pub mod ratelimit;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod turn;
pub mod wait;

pub use cpu::CpuMeter;
pub use ctx::Ctx;
pub use inline::{InlineVec, CHAIN_INLINE};
pub use ledger::Book;
pub use lru::{KeyHasher, KeyMap, Lru};
pub use ratelimit::TokenBucket;
pub use resource::{Fluid, Grant, Resource, ResourcePool};
pub use rng::{DiscreteSampler, Zipf};
pub use stats::{bucket_floor, bucket_of, Histogram, Summary, TimeSeries, HIST_BUCKETS};
pub use time::{transfer_time, Nanos, VClock, GIGA, MICROS, MILLIS, SECONDS};
