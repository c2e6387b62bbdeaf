#![warn(missing_docs)]

//! RPC baselines from the LITE evaluation (§5.3, Figs 10–13).
//!
//! * [`farm`] — FaRM-style messaging: an RPC emulated with two one-sided
//!   RDMA writes into rings the receiver polls (the paper's "2 Verbs
//!   writes" lower bound).
//! * [`herd`] — HERD RPC: request by RDMA write into a per-client region
//!   busy-polled by the server, reply by UD send. Fast, but the server
//!   burns CPU scanning one region *per client*.
//! * [`fasst`] — FaSST RPC: UD send both ways; a master "coroutine"
//!   thread polls the CQ and executes handlers inline.
//! * [`send_rpc`] — send/recv-based RPC memory accounting for Figure 12:
//!   pre-posted worst-case receive buffers vs LITE's packed ring.
//!
//! A client's call is a `send` and a `recv`, and a server serves one
//! request per `serve_one` with a user handler, so one thread can step
//! clients and servers in virtual-time order, as the Fig 10/11/13
//! harnesses do (HERD's and FaSST's `peek_request` / `peek_reply` say when
//! a side is next due).

pub mod common;
pub mod farm;
pub mod fasst;
pub mod herd;
pub mod send_rpc;

pub use farm::FarmPair;
pub use fasst::{FasstClient, FasstServer};
pub use herd::{HerdClient, HerdServer};
pub use send_rpc::{RingAccounting, SendRpcAccounting};
