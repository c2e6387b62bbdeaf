#![warn(missing_docs)]

//! Simulated host memory for the LITE reproduction.
//!
//! Each simulated node owns one [`PhysMem`]: a sparse, page-granular,
//! thread-safe physical address space. Pages materialize (zero-filled) on
//! first touch, so a node can expose a multi-GB physical range while only
//! the pages an experiment actually touches consume host memory. The
//! pages hang off a three-level table of write-once slots (1 GiB → 2 MiB
//! → 4 KiB), each level boxed on first touch: an untouched 16 GiB node
//! costs sixteen empty slots, and every byte a verb moves is found with
//! three acquire loads, no hash and no reference count.
//!
//! On top of physical memory sit:
//!
//! * [`PhysAllocator`] — a first-fit free-list allocator handing out
//!   physically-consecutive ranges, plus the *chunked* allocation mode LITE
//!   uses for large LMRs (§4.1: large LMRs are split into smaller
//!   physically-consecutive chunks to avoid external fragmentation).
//! * [`AddrSpace`] — a per-process virtual address space with a page table.
//!   Native Verbs registers memory regions by *virtual* address, which is
//!   why the RNIC model has to walk/cache PTEs; LITE bypasses the page
//!   table by registering one global MR over physical memory.
//!
//! Pinning is modeled explicitly: registering a Verbs MR pins every page
//! (a per-page virtual-time cost — the dominant term in the paper's
//! Figure 8), and unpinning happens on deregistration.

pub mod addrspace;
pub mod alloc;
pub mod error;
pub mod phys;
pub mod pin;

pub use addrspace::{AddrSpace, VirtAddr};
pub use alloc::{Chunk, PhysAllocator};
pub use error::MemError;
pub use phys::{PhysAddr, PhysMem, PAGE_SHIFT, PAGE_SIZE};
pub use pin::PinTable;
