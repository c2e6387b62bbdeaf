//! LITE's RPC wire format: the ring-message header and the 32-bit IMM
//! encoding (§5.1: "LITE uses the IMM value to include the RPC function ID
//! and the offset where the data starts in the LMR").

use rnic::NodeId;
use smem::Chunk;

use crate::error::{LiteError, LiteResult};

/// Ring messages are rounded up to this granule; IMM offsets are in
/// granules, so 30 bits of offset cover 64 GB of ring.
pub const RING_GRANULE: u64 = 64;

/// Serialized size of [`MsgHeader`].
pub const HEADER_BYTES: usize = 40;

/// Magic tag at the start of every ring message.
pub const MAGIC: u32 = 0x4C49_5445; // "LITE"

/// Kind of an immediate value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Imm {
    /// A request landed in the server's ring at `granule * RING_GRANULE`.
    Request {
        /// Ring offset in granules.
        granule: u32,
    },
    /// A reply landed in the buffer registered under `slot`.
    Reply {
        /// The completion slot id.
        slot: u32,
    },
    /// The RPC failed remotely (no handler bound, bad function id, ...).
    ReplyErr {
        /// The completion slot id.
        slot: u32,
    },
}

const KIND_REQUEST: u32 = 0;
const KIND_REPLY: u32 = 1;
/// Reserved: was the pushed ring-head update, before clients pulled the
/// head cell instead ([`crate::ring`]). Never sent; decodes to `None`.
const KIND_RESERVED: u32 = 2;
const KIND_REPLY_ERR: u32 = 3;
const PAYLOAD_MASK: u32 = (1 << 30) - 1;

impl Imm {
    /// Encodes into the 32-bit immediate.
    pub fn encode(self) -> u32 {
        match self {
            Imm::Request { granule } => (KIND_REQUEST << 30) | (granule & PAYLOAD_MASK),
            Imm::Reply { slot } => (KIND_REPLY << 30) | (slot & PAYLOAD_MASK),
            Imm::ReplyErr { slot } => (KIND_REPLY_ERR << 30) | (slot & PAYLOAD_MASK),
        }
    }

    /// Decodes from the 32-bit immediate (total); `None` for the
    /// reserved kind, which the poller ignores.
    pub fn decode(v: u32) -> Option<Imm> {
        let payload = v & PAYLOAD_MASK;
        match v >> 30 {
            KIND_REQUEST => Some(Imm::Request { granule: payload }),
            KIND_REPLY => Some(Imm::Reply { slot: payload }),
            KIND_RESERVED => None,
            _ => Some(Imm::ReplyErr { slot: payload }),
        }
    }
}

/// Header written at the front of every ring message.
///
/// Carries what the IMM cannot: payload length, the *reply route* (the
/// physical address at the client where the server should RDMA-write the
/// return value — §5.1 step 2), and the caller's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgHeader {
    /// RPC function id (0..16 reserved for the kernel).
    pub func: u8,
    /// Completion slot at the client; 0 for one-way messages.
    pub slot: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// Physical address of the client's reply buffer (global-MR address).
    pub reply_addr: u64,
    /// Capacity of the reply buffer.
    pub reply_max: u32,
    /// Client node id.
    pub src_node: u32,
    /// Client process id.
    pub src_pid: u32,
    /// Bytes the client skipped at the ring wrap just before this message
    /// (lets the server reclaim the skipped span).
    pub skip: u32,
}

impl MsgHeader {
    /// Serializes to exactly [`HEADER_BYTES`] bytes.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut b = [0u8; HEADER_BYTES];
        b[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        b[4] = self.func;
        b[8..12].copy_from_slice(&self.slot.to_le_bytes());
        b[12..16].copy_from_slice(&self.len.to_le_bytes());
        b[16..24].copy_from_slice(&self.reply_addr.to_le_bytes());
        b[24..28].copy_from_slice(&self.reply_max.to_le_bytes());
        b[28..32].copy_from_slice(&self.src_node.to_le_bytes());
        b[32..36].copy_from_slice(&self.src_pid.to_le_bytes());
        b[36..40].copy_from_slice(&self.skip.to_le_bytes());
        b
    }

    /// Deserializes, verifying the magic.
    pub fn decode(b: &[u8]) -> LiteResult<MsgHeader> {
        if b.len() < HEADER_BYTES {
            return Err(LiteError::Remote(0xFE));
        }
        let magic = u32::from_le_bytes(b[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(LiteError::Remote(0xFD));
        }
        Ok(MsgHeader {
            func: b[4],
            slot: u32::from_le_bytes(b[8..12].try_into().expect("4")),
            len: u32::from_le_bytes(b[12..16].try_into().expect("4")),
            reply_addr: u64::from_le_bytes(b[16..24].try_into().expect("8")),
            reply_max: u32::from_le_bytes(b[24..28].try_into().expect("4")),
            src_node: u32::from_le_bytes(b[28..32].try_into().expect("4")),
            src_pid: u32::from_le_bytes(b[32..36].try_into().expect("4")),
            skip: u32::from_le_bytes(b[36..40].try_into().expect("4")),
        })
    }
}

/// Rounds a ring message length up to the granule.
pub fn round_granule(len: u64) -> u64 {
    len.div_ceil(RING_GRANULE) * RING_GRANULE
}

// ---------------------------------------------------------------------
// Little-endian payload codec for kernel-service messages.
// ---------------------------------------------------------------------

/// Incremental little-endian writer for kernel-service payloads.
///
/// Builder-style: each method consumes and returns `self`, so payloads
/// read as one chained expression ending in [`Enc::done`].
#[derive(Default)]
pub struct Enc(pub Vec<u8>);

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc(Vec::new())
    }
    /// Appends one byte.
    pub fn u8(mut self, v: u8) -> Self {
        self.0.push(v);
        self
    }
    /// Appends a little-endian u32.
    pub fn u32(mut self, v: u32) -> Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    /// Appends a little-endian u64.
    pub fn u64(mut self, v: u64) -> Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    /// Appends a length-prefixed byte string.
    pub fn bytes(mut self, v: &[u8]) -> Self {
        self = self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
        self
    }
    /// Appends a count-prefixed extent list, `(node, addr, len)` each.
    pub fn extents(mut self, v: &[(NodeId, Chunk)]) -> Self {
        self = self.u32(v.len() as u32);
        for (node, c) in v {
            self = self.u32(*node as u32).u64(c.addr).u64(c.len);
        }
        self
    }
    /// Finishes, returning the encoded payload.
    pub fn done(self) -> Vec<u8> {
        self.0
    }
}

/// Incremental reader matching [`Enc`]. Truncated input surfaces as
/// `LiteError::Remote(0xFC)` — the same error a remote decoder raises.
pub struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `b`.
    pub fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> LiteResult<&'a [u8]> {
        if self.pos + n > self.b.len() {
            return Err(LiteError::Remote(0xFC));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Reads one byte.
    pub fn u8(&mut self) -> LiteResult<u8> {
        Ok(self.take(1)?[0])
    }
    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> LiteResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> LiteResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> LiteResult<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    /// Reads an extent list written by [`Enc::extents`].
    pub fn extents(&mut self) -> LiteResult<Vec<(NodeId, Chunk)>> {
        let n = self.u32()? as usize;
        // A count the remaining bytes cannot hold is truncated input, not
        // an allocation size.
        if n > (self.b.len() - self.pos) / EXTENT_BYTES {
            return Err(LiteError::Remote(0xFC));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let node = self.u32()? as NodeId;
            let (addr, len) = (self.u64()?, self.u64()?);
            out.push((node, Chunk { addr, len }));
        }
        Ok(out)
    }
}

/// Encoded size of one extent: u32 node, u64 address, u64 length.
const EXTENT_BYTES: usize = 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imm_roundtrip() {
        for imm in [
            Imm::Request { granule: 0 },
            Imm::Request { granule: 123_456 },
            Imm::Reply {
                slot: (1 << 30) - 1,
            },
            Imm::ReplyErr { slot: 7 },
        ] {
            assert_eq!(Imm::decode(imm.encode()), Some(imm));
        }
        assert_eq!(Imm::decode((2 << 30) | 42), None, "reserved kind");
    }

    #[test]
    fn header_roundtrip() {
        let h = MsgHeader {
            func: 200,
            slot: 0x3FFF_FFFF,
            len: 4096,
            reply_addr: 0xDEAD_BEEF_0000,
            reply_max: 1 << 20,
            src_node: 7,
            src_pid: 99,
            skip: 64,
        };
        let enc = h.encode();
        assert_eq!(MsgHeader::decode(&enc).unwrap(), h);
        // Corrupt magic is rejected.
        let mut bad = enc;
        bad[0] ^= 1;
        assert!(MsgHeader::decode(&bad).is_err());
        assert!(MsgHeader::decode(&enc[..10]).is_err());
    }

    #[test]
    fn granule_rounding() {
        assert_eq!(round_granule(1), 64);
        assert_eq!(round_granule(64), 64);
        assert_eq!(round_granule(65), 128);
        assert_eq!(round_granule(0), 0);
    }

    #[test]
    fn codec_roundtrip() {
        let v = Enc::new()
            .u8(7)
            .u32(0xAABBCCDD)
            .u64(0x1122334455667788)
            .bytes(b"hello")
            .done();
        let mut d = Dec::new(&v);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xAABBCCDD);
        assert_eq!(d.u64().unwrap(), 0x1122334455667788);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert!(d.u8().is_err(), "exhausted");
    }

    #[test]
    fn extents_roundtrip_and_reject_a_count_the_input_cannot_hold() {
        let chunk = |addr, len| Chunk { addr, len };
        let list = vec![(3, chunk(0x1000, 64)), (0, chunk(u64::MAX - 7, 8))];
        let v = Enc::new().extents(&list).u8(9).done();
        let mut d = Dec::new(&v);
        assert_eq!(d.extents().unwrap(), list);
        assert_eq!(d.u8().unwrap(), 9);
        assert_eq!(
            Dec::new(&Enc::new().extents(&[]).done()).extents(),
            Ok(vec![])
        );
        // One extent short of its count, and a count with nothing behind it.
        assert!(Dec::new(&v[..v.len() - 2]).extents().is_err());
        assert!(Dec::new(&u32::MAX.to_le_bytes()).extents().is_err());
    }
}
