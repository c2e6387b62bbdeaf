//! Shared experiment environments.

use std::sync::Arc;

use lite::{LiteCluster, LiteConfig};
use parking_lot::Mutex;
use rnic::{IbConfig, IbFabric};
use smem::{AddrSpace, PhysAllocator};

/// A raw-verbs environment: a fabric plus one process address space per
/// node, ready for MR registration (the "native RDMA" baselines).
pub struct VerbsEnv {
    /// The fabric.
    pub fabric: Arc<IbFabric>,
    /// One address space per node.
    pub spaces: Vec<Arc<AddrSpace>>,
}

impl VerbsEnv {
    /// Builds an environment with `nodes` nodes.
    pub fn new(nodes: usize) -> VerbsEnv {
        let fabric = IbFabric::new(IbConfig::with_nodes(nodes));
        let spaces = (0..nodes)
            .map(|_| {
                Arc::new(AddrSpace::new(Arc::new(Mutex::new(PhysAllocator::new(
                    0,
                    8 << 30,
                )))))
            })
            .collect();
        VerbsEnv { fabric, spaces }
    }
}

/// A LITE environment (cluster with default or custom config).
pub struct LiteEnv {
    /// The running cluster.
    pub cluster: Arc<LiteCluster>,
}

impl LiteEnv {
    /// Default-config cluster of `nodes` nodes.
    pub fn new(nodes: usize) -> LiteEnv {
        LiteEnv {
            cluster: LiteCluster::start(nodes).expect("cluster start"),
        }
    }

    /// Custom-config cluster.
    pub fn with_config(nodes: usize, config: LiteConfig) -> LiteEnv {
        LiteEnv {
            cluster: LiteCluster::start_with(IbConfig::with_nodes(nodes), config)
                .expect("cluster start"),
        }
    }
}
