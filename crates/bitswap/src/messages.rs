//! Bitswap wire messages.
//!
//! The subset of the Bitswap 1.2 protocol the paper's monitoring relies on:
//! wantlist entries (`WantHave` / `WantBlock`, with cancel and
//! `send_dont_have` flags), block transfers, and block-presence responses.
//! A wantlist travels in one of two framings: [`BitswapMessage::Want`], the
//! single entry the engine sends and which carries no heap allocation, or
//! [`BitswapMessage::Wantlist`], a list of entries that may replace the
//! peer's whole view. A receiver treats both the same, entry by entry.
//!
//! The local 1-hop broadcast of `WantHave` entries to all connected
//! neighbours is the traffic the monitoring nodes log (§3 "Bitswap logs").
//! That broadcast is opportunistic: it does not ask for `DontHave`, so a
//! neighbour lacking the block stays silent and the fetcher falls through
//! to the DHT on a timer (Trautwein et al., "Design and Evaluation of
//! IPFS"). Only a targeted `WantBlock` asks for a negative answer.

use ipfs_types::Cid;

/// A data block. We carry sizes, not payload bytes: every analysis in the
/// paper counts messages/requests, never payload contents (and the monitors
/// deliberately do not fetch content, §A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Content identifier (binds the virtual payload).
    pub cid: Cid,
    /// Payload size in bytes.
    pub size: u32,
}

/// Kind of want.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WantType {
    /// "Do you have this block?" — used for the discovery broadcast.
    Have,
    /// "Send me this block."
    Block,
}

/// One wantlist entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WantEntry {
    /// The desired content.
    pub cid: Cid,
    /// Have-probe or full block request.
    pub ty: WantType,
    /// Retract a previous entry instead of adding one.
    pub cancel: bool,
    /// Ask the peer to answer `DontHave` when it misses the block.
    pub send_dont_have: bool,
}

impl WantEntry {
    /// A discovery probe: `WantHave` without `send_dont_have`. A peer that
    /// lacks the block registers the want and answers only once the block
    /// arrives (or never, if a `Cancel` comes first).
    pub fn have(cid: Cid) -> WantEntry {
        WantEntry {
            cid,
            ty: WantType::Have,
            cancel: false,
            send_dont_have: false,
        }
    }

    /// A block request (`WantBlock` + `send_dont_have`).
    pub fn block(cid: Cid) -> WantEntry {
        WantEntry {
            cid,
            ty: WantType::Block,
            cancel: false,
            send_dont_have: true,
        }
    }

    /// A cancellation.
    pub fn cancel(cid: Cid) -> WantEntry {
        WantEntry {
            cid,
            ty: WantType::Block,
            cancel: true,
            send_dont_have: false,
        }
    }
}

/// A Bitswap message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BitswapMessage {
    /// One wantlist entry — a broadcast `WantHave`, a targeted `WantBlock`
    /// or a `Cancel`. The only wantlist framing the engine sends.
    Want(WantEntry),
    /// Wantlist update: any number of entries, optionally replacing the
    /// peer's whole view. The engine accepts it and never sends it.
    Wantlist {
        /// Entries (adds and cancels).
        entries: Vec<WantEntry>,
        /// Whether this replaces the peer's view of our wantlist.
        full: bool,
    },
    /// Block delivery.
    Blocks {
        /// The delivered blocks.
        blocks: Vec<Block>,
    },
    /// Presence information (`Have` / `DontHave`).
    Presence {
        /// Blocks we hold.
        have: Vec<Cid>,
        /// Blocks we were asked about but miss.
        dont_have: Vec<Cid>,
    },
}

impl BitswapMessage {
    /// The wantlist entries this message carries, cancels included: one
    /// for [`BitswapMessage::Want`], the list for
    /// [`BitswapMessage::Wantlist`], none for blocks and presences.
    pub fn want_entries(&self) -> &[WantEntry] {
        match self {
            BitswapMessage::Want(entry) => std::slice::from_ref(entry),
            BitswapMessage::Wantlist { entries, .. } => entries,
            BitswapMessage::Blocks { .. } | BitswapMessage::Presence { .. } => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_constructors() {
        let cid = Cid::from_seed(1);
        assert_eq!(WantEntry::have(cid).ty, WantType::Have);
        assert!(!WantEntry::have(cid).cancel);
        assert!(!WantEntry::have(cid).send_dont_have);
        assert_eq!(WantEntry::block(cid).ty, WantType::Block);
        assert!(WantEntry::block(cid).send_dont_have);
        assert!(WantEntry::cancel(cid).cancel);
    }

    #[test]
    fn want_entries_of_each_framing() {
        let (a, b) = (Cid::from_seed(1), Cid::from_seed(2));
        let list = vec![WantEntry::have(a), WantEntry::cancel(b)];
        let m = BitswapMessage::Wantlist {
            entries: list.clone(),
            full: false,
        };
        assert_eq!(m.want_entries(), &list[..]);
        let m = BitswapMessage::Want(WantEntry::cancel(b));
        assert_eq!(m.want_entries(), &[WantEntry::cancel(b)]);
        let m = BitswapMessage::Blocks {
            blocks: vec![Block { cid: a, size: 1 }],
        };
        assert!(m.want_entries().is_empty());
        let m = BitswapMessage::Presence {
            have: vec![a],
            dont_have: vec![b],
        };
        assert!(m.want_entries().is_empty());
    }
}
