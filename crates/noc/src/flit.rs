//! Flits: the atomic flow-control units that traverse the network.
//!
//! A [`Flit`] is a small, non-generic `Copy` record (~56 bytes): payloads
//! live in the network's [`crate::pool::PayloadPool`] and head flits carry
//! only a generational [`crate::pool::PayloadRef`], while the per-flit
//! flags (`kind`/`class`/`vnet`/`vc`/`corrupted`/`protected`) are packed
//! into one `u32` meta word and `src`/`dst` are `u16` node indices
//! (bounded by [`crate::ConfigError::MeshTooLarge`]). Moving a flit
//! through a VC buffer therefore copies two cache lines worst-case,
//! independent of the payload type.

use crate::packet::PacketId;
use crate::pool::PayloadRef;
use crate::topology::NodeId;
use std::fmt;

/// Position of a flit within its packet, for wormhole switching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries routing info and payload.
    Head,
    /// Middle flit.
    Body,
    /// Last flit; departure frees the packet's virtual channels.
    Tail,
    /// A single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit opens a packet (carries the route/payload).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit closes a packet (frees the VC on departure).
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    fn bits(self) -> u32 {
        match self {
            FlitKind::Head => 0,
            FlitKind::Body => 1,
            FlitKind::Tail => 2,
            FlitKind::HeadTail => 3,
        }
    }

    fn from_bits(bits: u32) -> FlitKind {
        match bits & 0b11 {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            _ => FlitKind::HeadTail,
        }
    }
}

/// The traffic class of a flit, used by the priority arbiters and the
/// statistics machinery.
///
/// `Communication` is baseline CMP traffic (cache/memory messages).
/// `SnackInstruction` and `SnackData` are the two SnackNoC token types
/// (§III-A of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TrafficClass {
    /// Baseline CMP communication traffic — always wins priority arbitration.
    Communication,
    /// A SnackNoC instruction token en route from the CPM to an RCU.
    SnackInstruction,
    /// A SnackNoC transient data token circulating on the static ring.
    SnackData,
}

impl TrafficClass {
    /// Whether this class belongs to the SnackNoC computation layer (loses
    /// priority arbitration to communication traffic).
    pub fn is_snack(self) -> bool {
        !matches!(self, TrafficClass::Communication)
    }

    /// Stable small-integer encoding for structured trace events
    /// (0 = communication, 1 = snack instruction, 2 = snack data).
    pub fn code(self) -> u8 {
        match self {
            TrafficClass::Communication => 0,
            TrafficClass::SnackInstruction => 1,
            TrafficClass::SnackData => 2,
        }
    }

    fn from_bits(bits: u32) -> TrafficClass {
        match bits & 0b11 {
            0 => TrafficClass::Communication,
            1 => TrafficClass::SnackInstruction,
            _ => TrafficClass::SnackData,
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::Communication => "comm",
            TrafficClass::SnackInstruction => "snack-instr",
            TrafficClass::SnackData => "snack-data",
        };
        f.write_str(s)
    }
}

// Meta-word layout. Everything mutable in flight (vc, corrupted) shares
// the word with the immutable identity bits; setters mask-and-or.
const KIND_SHIFT: u32 = 0;
const CLASS_SHIFT: u32 = 2;
const CORRUPTED_BIT: u32 = 1 << 4;
const PROTECTED_BIT: u32 = 1 << 5;
const VNET_SHIFT: u32 = 8;
const VC_SHIFT: u32 = 16;

/// A flit in flight — a flat `Copy` record; see the module docs for the
/// layout rationale.
#[derive(Clone, Copy, Debug)]
pub struct Flit {
    /// Unique flit id (monotone per network).
    pub id: u64,
    /// Id of the packet this flit belongs to.
    pub packet_id: PacketId,
    /// Cycle at which the packet was queued at the source NI.
    pub queued_at: u64,
    /// Cycle the flit was written into the current router's input buffer;
    /// gates switch allocation to model pipeline depth.
    pub(crate) buffered_at: u64,
    /// Pool handle for the packet payload; `NONE` on body/tail flits.
    pub(crate) payload: PayloadRef,
    /// Packed kind/class/corrupted/protected/vnet/vc flags.
    meta: u32,
    /// Router hops taken so far (saturating; see `Router::hops_saturations`).
    pub(crate) hops: u32,
    /// Source node index.
    src: u16,
    /// Destination node index.
    dst: u16,
}

impl Flit {
    /// Filler for empty router buffer slots; never read as a live flit.
    pub(crate) const VACANT: Flit = Flit {
        id: 0,
        packet_id: 0,
        queued_at: 0,
        buffered_at: 0,
        payload: PayloadRef::NONE,
        meta: 0,
        hops: 0,
        src: 0,
        dst: 0,
    };

    /// Builds a fresh flit at the injection boundary.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: u64,
        packet_id: PacketId,
        kind: FlitKind,
        class: TrafficClass,
        vnet: u8,
        src: NodeId,
        dst: NodeId,
        queued_at: u64,
        payload: PayloadRef,
        protected: bool,
    ) -> Flit {
        debug_assert!(src.index() <= u16::MAX as usize && dst.index() <= u16::MAX as usize);
        let meta = (kind.bits() << KIND_SHIFT)
            | (u32::from(class.code()) << CLASS_SHIFT)
            | (u32::from(vnet) << VNET_SHIFT)
            | if protected { PROTECTED_BIT } else { 0 };
        Flit {
            id,
            packet_id,
            queued_at,
            buffered_at: 0,
            payload,
            meta,
            hops: 0,
            src: src.index() as u16,
            dst: dst.index() as u16,
        }
    }

    /// Head/body/tail position.
    pub fn kind(&self) -> FlitKind {
        FlitKind::from_bits(self.meta >> KIND_SHIFT)
    }

    /// Traffic class (communication vs. snack instruction/data).
    pub fn class(&self) -> TrafficClass {
        TrafficClass::from_bits(self.meta >> CLASS_SHIFT)
    }

    /// Virtual network index.
    pub fn vnet(&self) -> u8 {
        (self.meta >> VNET_SHIFT) as u8
    }

    /// Input virtual channel (within the port) this flit occupies/targets.
    pub(crate) fn vc(&self) -> u8 {
        (self.meta >> VC_SHIFT) as u8
    }

    pub(crate) fn set_vc(&mut self, vc: u8) {
        self.meta = (self.meta & !(0xFF << VC_SHIFT)) | (u32::from(vc) << VC_SHIFT);
    }

    /// Whether a `Corrupt` fault hit this packet's head flit; surfaces as
    /// [`crate::Packet::corrupted`] on delivery.
    pub fn corrupted(&self) -> bool {
        self.meta & CORRUPTED_BIT != 0
    }

    pub(crate) fn mark_corrupted(&mut self) {
        self.meta |= CORRUPTED_BIT;
    }

    /// Mirror of [`crate::PacketSpec::protected`]: exempt from random
    /// faults when the plan respects protection.
    pub fn protected(&self) -> bool {
        self.meta & PROTECTED_BIT != 0
    }

    /// Source node.
    pub fn src(&self) -> NodeId {
        NodeId::new(self.src as usize)
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        NodeId::new(self.dst as usize)
    }

    /// Router hops taken so far.
    pub fn hops(&self) -> u32 {
        self.hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Tail.is_head());
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
    }

    #[test]
    fn class_predicates() {
        assert!(!TrafficClass::Communication.is_snack());
        assert!(TrafficClass::SnackInstruction.is_snack());
        assert!(TrafficClass::SnackData.is_snack());
        assert_eq!(TrafficClass::Communication.to_string(), "comm");
    }

    #[test]
    fn meta_word_round_trips_every_field() {
        let kinds = [FlitKind::Head, FlitKind::Body, FlitKind::Tail, FlitKind::HeadTail];
        let classes =
            [TrafficClass::Communication, TrafficClass::SnackInstruction, TrafficClass::SnackData];
        for kind in kinds {
            for class in classes {
                for vnet in [0u8, 2, 255] {
                    for protected in [false, true] {
                        let mut f = Flit::new(
                            1,
                            2,
                            kind,
                            class,
                            vnet,
                            NodeId::new(3),
                            NodeId::new(65_535),
                            9,
                            PayloadRef::NONE,
                            protected,
                        );
                        assert_eq!(f.kind(), kind);
                        assert_eq!(f.class(), class);
                        assert_eq!(f.vnet(), vnet);
                        assert_eq!(f.protected(), protected);
                        assert_eq!(f.src(), NodeId::new(3));
                        assert_eq!(f.dst(), NodeId::new(65_535));
                        assert!(!f.corrupted());
                        assert_eq!(f.vc(), 0);
                        f.set_vc(63);
                        f.mark_corrupted();
                        assert_eq!(f.vc(), 63);
                        assert!(f.corrupted());
                        assert_eq!((f.kind(), f.class(), f.vnet()), (kind, class, vnet));
                        f.set_vc(1);
                        assert_eq!(f.vc(), 1, "vc setter clears old bits");
                        assert!(f.corrupted(), "vc setter leaves flags alone");
                    }
                }
            }
        }
    }

    #[test]
    fn flit_is_small() {
        assert!(
            std::mem::size_of::<Flit>() <= 64,
            "a flit must stay within one cache line of plain data; got {}",
            std::mem::size_of::<Flit>()
        );
    }
}
