//! One module per reproduced figure (see DESIGN.md §4 for the index).

pub mod ablation;
pub mod apps;
pub mod chaos;
pub mod kvbench;
pub mod latency;
pub mod mempressure;
pub mod micro;
pub mod regcost;
pub mod rpc;
pub mod scale;
pub mod scale_qos;
pub mod txnbench;
