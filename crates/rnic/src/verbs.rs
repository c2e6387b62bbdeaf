//! Verbs wire-level types: scatter/gather entries, remote addresses,
//! access flags, and work completions.

use simnet::Nanos;
use smem::Chunk;

use crate::fabric::NodeId;
use crate::qp::QpId;

/// MR access flags (subset of `ibv_access_flags`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Remote peers may RDMA-read.
    pub remote_read: bool,
    /// Remote peers may RDMA-write.
    pub remote_write: bool,
    /// Remote peers may execute atomics.
    pub remote_atomic: bool,
}

impl Access {
    /// Read-only remote access.
    pub const RO: Access = Access {
        remote_read: true,
        remote_write: false,
        remote_atomic: false,
    };
    /// Full remote access.
    pub const RW: Access = Access {
        remote_read: true,
        remote_write: true,
        remote_atomic: true,
    };
    /// No remote access (local-only MR).
    pub const LOCAL: Access = Access {
        remote_read: false,
        remote_write: false,
        remote_atomic: false,
    };
}

/// A local buffer reference in a work request.
///
/// `Virt` is the native user-space path: the NIC resolves the virtual
/// address through the MR's address space, touching its PTE cache.
/// `Phys` is the kernel path LITE uses (§4.1): the caller supplies
/// physically-consecutive chunks under the node's *global physical MR*,
/// so no PTE traffic occurs at all.
#[derive(Debug, Clone)]
pub enum Sge {
    /// Virtual-address buffer inside a registered user MR.
    Virt {
        /// lkey of the MR the buffer lives in.
        lkey: u32,
        /// Starting virtual address.
        addr: u64,
        /// Length in bytes.
        len: usize,
    },
    /// Physical chunk list under a physical MR (kernel/LITE path).
    Phys {
        /// lkey of the physical MR (LITE's global MR).
        lkey: u32,
        /// Physically-consecutive fragments, in order.
        chunks: Vec<Chunk>,
    },
}

impl Sge {
    /// Total byte length of the buffer.
    pub fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This buffer, borrowed.
    pub fn as_ref(&self) -> SgeRef<'_> {
        match self {
            Sge::Virt { lkey, addr, len } => SgeRef::Virt {
                lkey: *lkey,
                addr: *addr,
                len: *len,
            },
            Sge::Phys { lkey, chunks } => SgeRef::Phys {
                lkey: *lkey,
                chunks,
            },
        }
    }
}

/// A borrowed [`Sge`] — what a chained work request ([`crate::Wr`])
/// carries, so posting from a chunk list someone else owns (LITE's
/// datapath descriptors) never copies the list.
#[derive(Debug, Clone, Copy)]
pub enum SgeRef<'a> {
    /// See [`Sge::Virt`].
    Virt {
        /// lkey of the MR the buffer lives in.
        lkey: u32,
        /// Starting virtual address.
        addr: u64,
        /// Length in bytes.
        len: usize,
    },
    /// See [`Sge::Phys`].
    Phys {
        /// lkey of the physical MR.
        lkey: u32,
        /// Physically-consecutive fragments, in order.
        chunks: &'a [Chunk],
    },
}

impl SgeRef<'_> {
    /// Total byte length of the buffer.
    pub fn len(&self) -> usize {
        match self {
            SgeRef::Virt { len, .. } => *len,
            SgeRef::Phys { chunks, .. } => chunks.iter().map(|c| c.len as usize).sum(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The remote half of a one-sided operation.
///
/// For user MRs `addr` is a virtual address in the remote process; for a
/// physical (global) MR it is a remote physical address — exactly the
/// distinction LITE exploits.
#[derive(Debug, Clone, Copy)]
pub struct RemoteAddr {
    /// rkey of the target MR on the remote NIC.
    pub rkey: u32,
    /// Address within the MR (virtual or physical, per MR kind).
    pub addr: u64,
}

/// Completion opcode (subset of `ibv_wc_opcode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcOpcode {
    /// One-sided write completed.
    RdmaWrite,
    /// One-sided read completed (data is in the local buffer).
    RdmaRead,
    /// Two-sided send completed locally.
    Send,
    /// Incoming send consumed a posted receive.
    Recv,
    /// Incoming write-with-immediate consumed a receive credit.
    RecvRdmaWithImm,
    /// Atomic completed (old value in `atomic_old`).
    Atomic,
}

/// A work completion.
#[derive(Debug, Clone)]
pub struct Wc {
    /// Caller-chosen work-request id (or receive id).
    pub wr_id: u64,
    /// What completed.
    pub opcode: WcOpcode,
    /// Payload length in bytes.
    pub byte_len: usize,
    /// Immediate data, for [`WcOpcode::RecvRdmaWithImm`] (and sends that
    /// carried immediates).
    pub imm: Option<u32>,
    /// Originating (node, qp) for receive-side completions.
    pub src: Option<(NodeId, QpId)>,
    /// Virtual time at which this completion became observable.
    pub ready_at: Nanos,
    /// Old value returned by an atomic.
    pub atomic_old: Option<u64>,
}

impl Wc {
    /// Builds a minimal completion.
    pub fn new(wr_id: u64, opcode: WcOpcode, byte_len: usize, ready_at: Nanos) -> Self {
        Wc {
            wr_id,
            opcode,
            byte_len,
            imm: None,
            src: None,
            ready_at,
            atomic_old: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sge_lengths() {
        let v = Sge::Virt {
            lkey: 1,
            addr: 0x1000,
            len: 64,
        };
        assert_eq!(v.len(), 64);
        let p = Sge::Phys {
            lkey: 2,
            chunks: vec![
                Chunk { addr: 0, len: 100 },
                Chunk {
                    addr: 4096,
                    len: 28,
                },
            ],
        };
        assert_eq!(p.len(), 128);
        assert!(!p.is_empty());
        let e = Sge::Phys {
            lkey: 2,
            chunks: vec![],
        };
        assert!(e.is_empty());
    }
}
