//! LITE Memory Regions (LMRs), handles (lh), permissions, and masters.
//!
//! §4.1: an LMR is a virtualized memory region of arbitrary size that can
//! map to one or more physical ranges, possibly on several machines. Users
//! only ever see an opaque *LITE handle* (`lh`), a capability carrying
//! permission and address mapping, local to one process on one node.

use std::collections::HashMap;

use rnic::NodeId;
use smem::Chunk;

use crate::error::{LiteError, LiteResult};

/// Cluster-unique LMR identity: (master node, local index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LmrId {
    /// Node that created the LMR (its first master).
    pub node: u32,
    /// Index within that node's master table.
    pub idx: u32,
}

/// Permission carried by an lh (§4.1: read, write, master).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perm {
    /// May LT_read.
    pub read: bool,
    /// May LT_write (and memset/memcpy into it).
    pub write: bool,
    /// May manage: move, free, grant.
    pub master: bool,
}

impl Perm {
    /// Read-only permission.
    pub const RO: Perm = Perm {
        read: true,
        write: false,
        master: false,
    };
    /// Read-write permission.
    pub const RW: Perm = Perm {
        read: true,
        write: true,
        master: false,
    };
    /// Full master permission.
    pub const MASTER: Perm = Perm {
        read: true,
        write: true,
        master: true,
    };

    /// Whether `self` covers everything `need` asks for.
    pub fn covers(&self, need: Perm) -> bool {
        (!need.read || self.read) && (!need.write || self.write) && (!need.master || self.master)
    }
}

/// Where an LMR's bytes live: an ordered list of physical extents, each on
/// some node. A single-node LMR has all extents on one node; LITE also
/// allows LMRs spread across machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    /// Ordered physical extents.
    pub extents: Vec<(NodeId, Chunk)>,
}

impl Location {
    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        self.extents.iter().map(|(_, c)| c.len).sum()
    }

    /// Whether the location is empty.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Splits the byte range `[offset, offset+len)` into per-extent
    /// physical pieces `(node, phys_addr, len)`.
    pub fn slice(&self, offset: u64, len: u64) -> LiteResult<Vec<(NodeId, Chunk)>> {
        let mut out = Vec::new();
        self.slice_into(offset, len, &mut out)?;
        Ok(out)
    }

    /// [`Self::slice`], appending the pieces to `out`: they cover the
    /// range exactly, none of them empty (none at all when `len` is 0).
    pub(crate) fn slice_into(
        &self,
        offset: u64,
        len: u64,
        out: &mut impl Extend<(NodeId, Chunk)>,
    ) -> LiteResult<()> {
        if len == 0 {
            return Ok(());
        }
        let out_of_bounds = LiteError::OutOfBounds {
            offset,
            len: len as usize,
        };
        // `offset` is the caller's: near `u64::MAX` the sum wraps.
        if offset.checked_add(len).is_none_or(|end| end > self.len()) {
            return Err(out_of_bounds);
        }
        let mut cur = 0u64;
        let (mut remaining, mut pos) = (len, offset);
        for (node, c) in &self.extents {
            let ext_end = cur + c.len;
            if pos < ext_end && remaining > 0 {
                let in_ext = pos - cur;
                let take = (c.len - in_ext).min(remaining);
                let piece = Chunk {
                    addr: c.addr + in_ext,
                    len: take,
                };
                out.extend([(*node, piece)]);
                pos += take;
                remaining -= take;
            }
            cur = ext_end;
            if remaining == 0 {
                break;
            }
        }
        if remaining != 0 {
            return Err(out_of_bounds);
        }
        Ok(())
    }
}

/// The master-side record of an LMR, kept on its master node (§4.1:
/// "Master maintains a list of nodes that have mapped the LMR").
pub struct MasterRecord {
    /// Identity.
    pub id: LmrId,
    /// Physical location.
    pub location: Location,
    /// Name registered with the cluster manager, if any.
    pub name: Option<String>,
    /// Permission handed to non-master mappers by default.
    pub default_perm: Perm,
    /// Extra grants: node -> permission (a master can grant master).
    pub grants: HashMap<NodeId, Perm>,
    /// Nodes that currently map the LMR (for free/move notification).
    pub mapped_by: Vec<NodeId>,
}

impl MasterRecord {
    /// Permission a mapper from `node` receives.
    pub fn perm_for(&self, node: NodeId) -> Perm {
        self.grants.get(&node).copied().unwrap_or(self.default_perm)
    }
}

/// A process-local lh table entry: everything needed to use the LMR
/// without talking to the master again (§4.1: "LITE stores all the
/// metadata of an lh at the requesting node to avoid extra RTTs").
#[derive(Debug, Clone)]
pub struct LhEntry {
    /// Which LMR this handle maps.
    pub id: LmrId,
    /// The LMR's cluster-wide name (used for master-side operations).
    pub name: String,
    /// Cached physical location.
    pub location: Location,
    /// The permission this handle carries.
    pub perm: Perm,
    /// Set when the master freed/moved the LMR under us.
    pub stale: bool,
    /// Set when the memory manager migrated chunks under us (eviction,
    /// fetch-back). Unlike `stale`, the handle is still good —
    /// the API layer transparently re-fetches the location from the
    /// master and clears this flag.
    pub relocated: bool,
}

impl LhEntry {
    /// Validates an access of `len` bytes at `offset` with permission
    /// `need`, returning the physical pieces to operate on.
    pub fn check(&self, offset: u64, len: usize, need: Perm) -> LiteResult<Vec<(NodeId, Chunk)>> {
        let mut out = Vec::new();
        self.check_into(offset, len, need, &mut out)?;
        Ok(out)
    }

    /// [`Self::check`], appending the pieces to `out`
    /// ([`Location::slice_into`]).
    pub(crate) fn check_into(
        &self,
        offset: u64,
        len: usize,
        need: Perm,
        out: &mut impl Extend<(NodeId, Chunk)>,
    ) -> LiteResult<()> {
        if self.stale {
            return Err(LiteError::BadLh { lh: 0 });
        }
        if self.relocated {
            return Err(LiteError::Relocated);
        }
        if !self.perm.covers(need) {
            return Err(LiteError::PermissionDenied);
        }
        self.location.slice_into(offset, len as u64, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc() -> Location {
        Location {
            extents: vec![
                (
                    0,
                    Chunk {
                        addr: 1000,
                        len: 100,
                    },
                ),
                (
                    1,
                    Chunk {
                        addr: 5000,
                        len: 50,
                    },
                ),
                (
                    0,
                    Chunk {
                        addr: 9000,
                        len: 200,
                    },
                ),
            ],
        }
    }

    #[test]
    fn perm_covering() {
        assert!(Perm::MASTER.covers(Perm::RW));
        assert!(Perm::RW.covers(Perm::RO));
        assert!(!Perm::RO.covers(Perm::RW));
        assert!(!Perm::RW.covers(Perm::MASTER));
    }

    #[test]
    fn slice_within_one_extent() {
        let l = loc();
        assert_eq!(l.len(), 350);
        let s = l.slice(10, 20).unwrap();
        assert_eq!(
            s,
            vec![(
                0,
                Chunk {
                    addr: 1010,
                    len: 20
                }
            )]
        );
    }

    #[test]
    fn slice_across_extents() {
        let l = loc();
        let s = l.slice(90, 70).unwrap();
        assert_eq!(
            s,
            vec![
                (
                    0,
                    Chunk {
                        addr: 1090,
                        len: 10
                    }
                ),
                (
                    1,
                    Chunk {
                        addr: 5000,
                        len: 50
                    }
                ),
                (
                    0,
                    Chunk {
                        addr: 9000,
                        len: 10
                    }
                ),
            ]
        );
    }

    #[test]
    fn slice_bounds() {
        let l = loc();
        assert!(l.slice(300, 51).is_err());
        assert!(l.slice(350, 1).is_err());
        assert!(l.slice(0, 350).is_ok());
        assert!(l.slice(349, 1).is_ok());
        assert!(l.slice(10, 0).unwrap().is_empty());
        // An offset whose end wraps past zero is out of bounds, not in.
        for (offset, len) in [(u64::MAX - 3, 8), (u64::MAX, 1), (8, u64::MAX)] {
            let len_out = len as usize;
            assert_eq!(
                l.slice(offset, len),
                Err(LiteError::OutOfBounds {
                    offset,
                    len: len_out
                })
            );
        }
    }

    #[test]
    fn lh_entry_checks() {
        let e = LhEntry {
            id: LmrId { node: 0, idx: 1 },
            name: "x".to_string(),
            location: loc(),
            perm: Perm::RO,
            stale: false,
            relocated: false,
        };
        assert!(e.check(0, 10, Perm::RO).is_ok());
        assert_eq!(e.check(0, 10, Perm::RW), Err(LiteError::PermissionDenied));
        let mut stale = e.clone();
        stale.stale = true;
        assert!(matches!(
            stale.check(0, 10, Perm::RO),
            Err(LiteError::BadLh { .. })
        ));
    }

    #[test]
    fn master_record_grants() {
        let mut r = MasterRecord {
            id: LmrId { node: 0, idx: 0 },
            location: loc(),
            name: None,
            default_perm: Perm::RO,
            grants: HashMap::new(),
            mapped_by: Vec::new(),
        };
        assert_eq!(r.perm_for(5), Perm::RO);
        r.grants.insert(5, Perm::MASTER);
        assert_eq!(r.perm_for(5), Perm::MASTER);
        assert_eq!(r.perm_for(6), Perm::RO);
    }
}
