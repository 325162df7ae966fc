//! The Bitswap engine: fetch sessions and one want table.
//!
//! Sans-io. The owner feeds in messages and pulls out `(peer, message)`
//! sends. Content retrieval starts with a 1-hop `WantHave` broadcast to all
//! connected neighbours (§2 "Content Retrieval" step 5); peers answering
//! `Have` get a `WantBlock`; received blocks cancel outstanding wants. The
//! broadcast does not ask for `DontHave`: a neighbour lacking the block
//! stays silent, and the owner's phase timer, not a negative answer, moves
//! the fetch on to the DHT. `DontHave` is answered to targeted `WantBlock`s
//! only, and nothing here acts on it.
//!
//! Every want, block request and cancel goes out as a one-entry
//! [`BitswapMessage::Want`] frame, so sending one allocates nothing.
//!
//! Other peers' wants for blocks we lack live in exactly one structure,
//! `Cid → wanters`, and are served from it the moment the block arrives —
//! the mechanism that lets gateways satisfy most requests without touching
//! the DHT (§5 "ID centralization"). A CID's wanters keep the first one
//! inline and only further ones in a `Vec`. A fetch's broadcast registers
//! and, when the fetch ends, cancels a want at every neighbour, and at a
//! neighbour that is usually the CID's only wanter: one map insert and one
//! map removal, no allocation, nothing per peer.

use crate::messages::{BitswapMessage, Block, WantEntry, WantType};
use crate::store::MemoryBlockstore;
use ipfs_types::FxHashMap as HashMap;
use ipfs_types::{Cid, PeerId};
use simnet::SimTime;
use std::collections::hash_map::Entry;

/// State of one content fetch.
#[derive(Clone, Debug)]
pub struct FetchSession {
    /// The wanted content.
    pub cid: Cid,
    /// When the fetch started.
    pub started: SimTime,
    /// Peers we sent a want to and owe a `Cancel`: sorted, no duplicates.
    /// Emptied when the fetch completes (the cancels have gone out).
    pub asked: Vec<PeerId>,
    /// Peer we requested the full block from: the first to answer `Have`,
    /// or the provider a DHT walk named.
    pub requested_from: Option<PeerId>,
    /// Fetch finished. The session stays as a tombstone so that a late
    /// [`Bitswap::request_block_from`] does not ask for the block again.
    pub done: bool,
}

impl FetchSession {
    fn new(cid: Cid, started: SimTime, asked: Vec<PeerId>) -> FetchSession {
        FetchSession {
            cid,
            started,
            asked,
            requested_from: None,
            done: false,
        }
    }
}

/// Output of feeding a message into the engine.
#[derive(Clone, Debug, Default)]
pub struct BsOutput {
    /// Messages to transmit.
    pub sends: Vec<(PeerId, BitswapMessage)>,
    /// Blocks newly received for our own wants `(cid, from)` — the node
    /// layer completes retrieval pipelines and re-provides from here.
    pub received: Vec<(Cid, PeerId)>,
}

impl BsOutput {
    fn push(&mut self, to: PeerId, msg: BitswapMessage) {
        self.sends.push((to, msg));
    }

    fn push_want(&mut self, to: PeerId, entry: WantEntry) {
        self.push(to, BitswapMessage::Want(entry));
    }
}

/// The peers that registered a want for one CID: never empty, each peer at
/// most once, in no particular order. Most CIDs have a single wanter (the
/// neighbour whose broadcast reached us), so the first is kept inline and
/// registering it allocates nothing.
#[derive(Clone, Debug)]
struct Wanters {
    first: (PeerId, WantType),
    more: Vec<(PeerId, WantType)>,
}

impl Wanters {
    fn new(peer: PeerId, ty: WantType) -> Wanters {
        Wanters {
            first: (peer, ty),
            more: Vec::new(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &(PeerId, WantType)> {
        std::iter::once(&self.first).chain(&self.more)
    }

    /// Register `peer`'s want, or change the type of the one it has.
    fn set(&mut self, peer: PeerId, ty: WantType) {
        let mut all = std::iter::once(&mut self.first).chain(&mut self.more);
        match all.find(|(p, _)| *p == peer) {
            Some(want) => want.1 = ty,
            None => self.more.push((peer, ty)),
        }
    }

    /// Drop `peer`'s want, if it has one. Returns `false` when that was the
    /// last want: the caller removes the whole entry.
    fn remove(&mut self, peer: &PeerId) -> bool {
        if self.first.0 == *peer {
            match self.more.pop() {
                Some(next) => self.first = next,
                None => return false,
            }
        } else if let Some(at) = self.more.iter().position(|(p, _)| p == peer) {
            self.more.swap_remove(at);
        }
        true
    }
}

/// The Bitswap engine of one node.
#[derive(Clone, Debug, Default)]
pub struct Bitswap {
    sessions: HashMap<Cid, FetchSession>,
    /// Other peers' registered wants for blocks we lack — the only record
    /// of them. A CID holds one or two wanters in practice, so membership
    /// is a scan.
    wants: HashMap<Cid, Wanters>,
}

impl Bitswap {
    /// Fresh engine.
    pub fn new() -> Bitswap {
        Bitswap::default()
    }

    /// Fetch session for `cid`, finished ones included.
    pub fn session(&self, cid: &Cid) -> Option<&FetchSession> {
        self.sessions.get(cid)
    }

    /// Whether a fetch for `cid` is in progress.
    pub fn is_fetching(&self, cid: &Cid) -> bool {
        self.sessions.get(cid).map(|s| !s.done).unwrap_or(false)
    }

    /// The wants `peer` has registered with us, in no particular order
    /// (a scan of the whole table: for tests, not for the message path).
    pub fn wants_of(&self, peer: &PeerId) -> impl Iterator<Item = (Cid, WantType)> + '_ {
        let peer = *peer;
        self.wants.iter().filter_map(move |(cid, wanters)| {
            let (_, ty) = wanters.iter().find(|(p, _)| *p == peer)?;
            Some((*cid, *ty))
        })
    }

    /// Start fetching `cid`: broadcast `WantHave` to `neighbors` (1-hop
    /// discovery). Returns the messages to send. No-op empty result if a
    /// session already exists.
    pub fn start_fetch(&mut self, cid: Cid, neighbors: &[PeerId], now: SimTime) -> BsOutput {
        let mut out = BsOutput::default();
        if self.sessions.contains_key(&cid) {
            return out;
        }
        out.sends.reserve(neighbors.len());
        for &p in neighbors {
            out.push_want(p, WantEntry::have(cid));
        }
        let mut asked = neighbors.to_vec();
        if !asked.windows(2).all(|w| w[0] < w[1]) {
            asked.sort();
            asked.dedup();
        }
        self.sessions
            .insert(cid, FetchSession::new(cid, now, asked));
        out
    }

    /// Directly request the block from a specific peer (used after DHT
    /// provider resolution, when the provider was just dialed).
    pub fn request_block_from(&mut self, cid: Cid, peer: PeerId, now: SimTime) -> BsOutput {
        let mut out = BsOutput::default();
        let session = self
            .sessions
            .entry(cid)
            .or_insert_with(|| FetchSession::new(cid, now, Vec::new()));
        if session.done {
            return out;
        }
        if let Err(at) = session.asked.binary_search(&peer) {
            session.asked.insert(at, peer);
        }
        session.requested_from = Some(peer);
        out.push_want(peer, WantEntry::block(cid));
        out
    }

    /// Abandon a fetch, cancelling outstanding wants.
    pub fn cancel_fetch(&mut self, cid: &Cid) -> BsOutput {
        let mut out = BsOutput::default();
        if let Some(s) = self.sessions.remove(cid) {
            for p in s.asked {
                out.push_want(p, WantEntry::cancel(*cid));
            }
        }
        out
    }

    /// Forget a disconnected peer's wants, so that a block arriving later
    /// is not served to it.
    pub fn peer_disconnected(&mut self, peer: &PeerId) {
        self.wants.retain(|_, wanters| wanters.remove(peer));
    }

    /// Debugging/test oracle: panic if a CID's wanters name a peer twice
    /// (they cannot be empty: the first is inline).
    pub fn assert_wants_consistent(&self) {
        for (cid, wanters) in &self.wants {
            let mut peers: Vec<PeerId> = wanters.iter().map(|(p, _)| *p).collect();
            peers.sort();
            peers.dedup();
            assert_eq!(
                peers.len(),
                1 + wanters.more.len(),
                "duplicate wanter of {cid:?}"
            );
        }
    }

    /// Feed an incoming message. `store` is consulted to serve wants and
    /// extended with received blocks.
    pub fn handle_message(
        &mut self,
        now: SimTime,
        from: PeerId,
        msg: BitswapMessage,
        store: &mut MemoryBlockstore,
    ) -> BsOutput {
        match msg {
            BitswapMessage::Want(entry) => self.on_wantlist(from, &[entry], false, store),
            BitswapMessage::Wantlist { entries, full } => {
                self.on_wantlist(from, &entries, full, store)
            }
            BitswapMessage::Blocks { blocks } => self.on_blocks(now, from, blocks, store),
            // No fetch decision reads a `DontHave`: the phase timer does.
            BitswapMessage::Presence { have, .. } => self.on_presence(from, have),
        }
    }

    fn on_wantlist(
        &mut self,
        from: PeerId,
        entries: &[WantEntry],
        full: bool,
        store: &MemoryBlockstore,
    ) -> BsOutput {
        let mut out = BsOutput::default();
        if full {
            // A replacement list: first the same purge as a disconnect.
            self.peer_disconnected(&from);
        }
        let mut have = Vec::new();
        let mut dont_have = Vec::new();
        let mut blocks = Vec::new();
        for e in entries {
            if e.cancel {
                if let Entry::Occupied(mut wanters) = self.wants.entry(e.cid) {
                    if !wanters.get_mut().remove(&from) {
                        wanters.remove();
                    }
                }
                continue;
            }
            match (store.get(&e.cid), e.ty) {
                (Some(_), WantType::Have) => have.push(e.cid),
                (Some(b), WantType::Block) => blocks.push(b),
                (None, ty) => {
                    if e.send_dont_have {
                        dont_have.push(e.cid);
                    }
                    match self.wants.entry(e.cid) {
                        Entry::Occupied(mut wanters) => wanters.get_mut().set(from, ty),
                        Entry::Vacant(slot) => {
                            slot.insert(Wanters::new(from, ty));
                        }
                    }
                }
            }
        }
        if !have.is_empty() || !dont_have.is_empty() {
            out.push(from, BitswapMessage::Presence { have, dont_have });
        }
        if !blocks.is_empty() {
            out.push(from, BitswapMessage::Blocks { blocks });
        }
        out
    }

    fn on_blocks(
        &mut self,
        now: SimTime,
        from: PeerId,
        blocks: Vec<Block>,
        store: &mut MemoryBlockstore,
    ) -> BsOutput {
        let mut out = BsOutput::default();
        for b in blocks {
            store.put(b);
            // Complete our own fetch, cancelling elsewhere.
            if let Some(s) = self.sessions.get_mut(&b.cid) {
                if !s.done {
                    s.done = true;
                    telemetry::count(telemetry::Counter::BitswapFetchesResolved, 1);
                    telemetry::observe(
                        telemetry::Metric::WantResolutionNs,
                        now.0.saturating_sub(s.started.0),
                    );
                    out.received.push((b.cid, from));
                    for p in std::mem::take(&mut s.asked) {
                        if p != from {
                            out.push_want(p, WantEntry::cancel(b.cid));
                        }
                    }
                }
            }
            // Serve the peers that registered a want for this block, in
            // `PeerId` order (the wanters are in no order). The sender's own
            // want, if any, stays registered.
            let Some(Wanters { first, mut more }) = self.wants.remove(&b.cid) else {
                continue;
            };
            let own = if more.is_empty() {
                if first.0 == from {
                    Some(first)
                } else {
                    serve(&mut out, first, b);
                    None
                }
            } else {
                more.push(first);
                let own = more.iter().position(|(p, _)| *p == from);
                let own = own.map(|at| more.swap_remove(at));
                more.sort_by_key(|(p, _)| *p);
                for want in more.drain(..) {
                    serve(&mut out, want, b);
                }
                own
            };
            if let Some(first) = own {
                self.wants.insert(b.cid, Wanters { first, more });
            }
        }
        out
    }

    fn on_presence(&mut self, from: PeerId, have: Vec<Cid>) -> BsOutput {
        let mut out = BsOutput::default();
        for cid in have {
            // First Have wins: request the block from that peer.
            if let Some(s) = self.sessions.get_mut(&cid) {
                if !s.done && s.requested_from.is_none() {
                    s.requested_from = Some(from);
                    out.push_want(from, WantEntry::block(cid));
                }
            }
        }
        out
    }
}

/// Answer a registered want now that block `b` is here.
fn serve(out: &mut BsOutput, (peer, ty): (PeerId, WantType), b: Block) {
    match ty {
        WantType::Block => out.push(peer, BitswapMessage::Blocks { blocks: vec![b] }),
        WantType::Have => out.push(
            peer,
            BitswapMessage::Presence {
                have: vec![b.cid],
                dont_have: vec![],
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(n: u64) -> Cid {
        Cid::from_seed(n)
    }

    fn peer(n: u64) -> PeerId {
        PeerId::from_seed(n)
    }

    #[test]
    fn fetch_happy_path_two_nodes() {
        // A wants a block B has: WantHave → Have → WantBlock → Blocks.
        let mut a = Bitswap::new();
        let mut b = Bitswap::new();
        let mut store_a = MemoryBlockstore::new();
        let mut store_b = MemoryBlockstore::new();
        let c = cid(1);
        store_b.put(Block { cid: c, size: 100 });

        let out = a.start_fetch(c, &[peer(2)], SimTime::ZERO);
        assert_eq!(out.sends.len(), 1);
        let (_, want_have) = &out.sends[0];

        let out = b.handle_message(SimTime::ZERO, peer(1), want_have.clone(), &mut store_b);
        assert_eq!(out.sends.len(), 1);
        let (_, presence) = &out.sends[0];
        assert!(matches!(presence, BitswapMessage::Presence { have, .. } if have == &vec![c]));

        let out = a.handle_message(SimTime::ZERO, peer(2), presence.clone(), &mut store_a);
        assert_eq!(out.sends.len(), 1);
        let (_, want_block) = &out.sends[0];

        let out = b.handle_message(SimTime::ZERO, peer(1), want_block.clone(), &mut store_b);
        let (_, blocks) = &out.sends[0];
        assert!(matches!(blocks, BitswapMessage::Blocks { .. }));

        let out = a.handle_message(SimTime::ZERO, peer(2), blocks.clone(), &mut store_a);
        assert_eq!(out.received, vec![(c, peer(2))]);
        assert!(store_a.has(&c));
        assert!(!a.is_fetching(&c));
    }

    #[test]
    fn broadcast_probe_for_a_missing_block_gets_no_reply() {
        // The discovery broadcast asks for no `DontHave`: a neighbour that
        // lacks the block registers the want and says nothing until the
        // block arrives.
        let mut a = Bitswap::new();
        let mut b = Bitswap::new();
        let mut store_b = MemoryBlockstore::new();
        let c = cid(1);
        let out = a.start_fetch(c, &[peer(2)], SimTime::ZERO);
        let (_, probe) = &out.sends[0];
        let out_b = b.handle_message(SimTime::ZERO, peer(1), probe.clone(), &mut store_b);
        assert!(out_b.sends.is_empty(), "no reply: {:?}", out_b.sends);
        assert_eq!(
            b.wants_of(&peer(1)).collect::<Vec<_>>(),
            vec![(c, WantType::Have)]
        );
        let blocks = BitswapMessage::Blocks {
            blocks: vec![Block { cid: c, size: 10 }],
        };
        let out_b = b.handle_message(SimTime::ZERO, peer(3), blocks, &mut store_b);
        let have = BitswapMessage::Presence {
            have: vec![c],
            dont_have: vec![],
        };
        assert_eq!(out_b.sends, vec![(peer(1), have)]);
        assert!(a.is_fetching(&c));
    }

    #[test]
    fn targeted_want_block_still_gets_dont_have() {
        let mut a = Bitswap::new();
        let mut b = Bitswap::new();
        let mut store_a = MemoryBlockstore::new();
        let mut store_b = MemoryBlockstore::new();
        let c = cid(1);
        let out = a.request_block_from(c, peer(2), SimTime::ZERO);
        let (_, want_block) = &out.sends[0];
        let out_b = b.handle_message(SimTime::ZERO, peer(1), want_block.clone(), &mut store_b);
        let dont_have = BitswapMessage::Presence {
            have: vec![],
            dont_have: vec![c],
        };
        assert_eq!(out_b.sends, vec![(peer(1), dont_have.clone())]);
        assert_eq!(
            b.wants_of(&peer(1)).collect::<Vec<_>>(),
            vec![(c, WantType::Block)]
        );
        // The answer changes nothing at the fetcher: it waits on.
        let out_a = a.handle_message(SimTime::ZERO, peer(2), dont_have, &mut store_a);
        assert!(out_a.sends.is_empty());
        assert!(a.is_fetching(&c));
        assert_eq!(a.session(&c).unwrap().requested_from, Some(peer(2)));
    }

    #[test]
    fn registered_want_served_when_block_arrives() {
        // B wants c from A; A lacks it; A later receives c from C and must
        // forward it to B.
        let mut a = Bitswap::new();
        let mut store_a = MemoryBlockstore::new();
        let c = cid(1);
        let want = BitswapMessage::Wantlist {
            entries: vec![WantEntry::block(c)],
            full: false,
        };
        let out = a.handle_message(SimTime::ZERO, peer(2), want, &mut store_a);
        // DontHave response, want registered.
        assert_eq!(out.sends.len(), 1);
        let blocks = BitswapMessage::Blocks {
            blocks: vec![Block { cid: c, size: 10 }],
        };
        let out = a.handle_message(SimTime::ZERO, peer(3), blocks, &mut store_a);
        let forwarded: Vec<&PeerId> = out
            .sends
            .iter()
            .filter(|(p, m)| matches!(m, BitswapMessage::Blocks { .. }) && *p == peer(2))
            .map(|(p, _)| p)
            .collect();
        assert_eq!(forwarded.len(), 1, "block forwarded to registered wanter");
    }

    #[test]
    fn want_have_registered_and_notified() {
        let mut a = Bitswap::new();
        let mut store_a = MemoryBlockstore::new();
        let c = cid(1);
        let probe = BitswapMessage::Wantlist {
            entries: vec![WantEntry::have(c)],
            full: false,
        };
        a.handle_message(SimTime::ZERO, peer(2), probe, &mut store_a);
        let blocks = BitswapMessage::Blocks {
            blocks: vec![Block { cid: c, size: 10 }],
        };
        let out = a.handle_message(SimTime::ZERO, peer(3), blocks, &mut store_a);
        assert!(out.sends.iter().any(|(p, m)| {
            *p == peer(2) && matches!(m, BitswapMessage::Presence { have, .. } if have == &vec![c])
        }));
    }

    #[test]
    fn duplicate_block_deliveries_complete_once() {
        let mut a = Bitswap::new();
        let mut store_a = MemoryBlockstore::new();
        let c = cid(1);
        a.start_fetch(c, &[peer(2), peer(3)], SimTime::ZERO);
        let blocks = BitswapMessage::Blocks {
            blocks: vec![Block { cid: c, size: 10 }],
        };
        let out1 = a.handle_message(SimTime::ZERO, peer(2), blocks.clone(), &mut store_a);
        let out2 = a.handle_message(SimTime::ZERO, peer(3), blocks, &mut store_a);
        assert_eq!(out1.received.len(), 1);
        assert!(
            out2.received.is_empty(),
            "second delivery must not re-complete"
        );
        // Cancel sent to the other asked peer.
        let cancel = BitswapMessage::Want(WantEntry::cancel(c));
        assert_eq!(out1.sends, vec![(peer(3), cancel)]);
    }

    #[test]
    fn finished_session_is_a_bare_tombstone() {
        // A completed fetch stays in `sessions` so that a late
        // `request_block_from` is a no-op, but without the peers it asked.
        let mut a = Bitswap::new();
        let mut store_a = MemoryBlockstore::new();
        let c = cid(1);
        // Unsorted, with a duplicate: WantHaves go out as given, the
        // cancels once per peer in `PeerId` order.
        let neighbors = [peer(4), peer(2), peer(3), peer(2)];
        assert_eq!(a.start_fetch(c, &neighbors, SimTime::ZERO).sends.len(), 4);
        let have = BitswapMessage::Presence {
            have: vec![c],
            dont_have: vec![],
        };
        let out = a.handle_message(SimTime::ZERO, peer(3), have, &mut store_a);
        let want_block = BitswapMessage::Want(WantEntry::block(c));
        assert_eq!(out.sends, vec![(peer(3), want_block)]);
        let s = a.session(&c).unwrap();
        let mut sorted = vec![peer(2), peer(3), peer(4)];
        sorted.sort();
        assert_eq!(s.asked.len(), 3, "the duplicate neighbour is asked once");
        assert_eq!(s.requested_from, Some(peer(3)));
        let blocks = BitswapMessage::Blocks {
            blocks: vec![Block { cid: c, size: 10 }],
        };
        let out = a.handle_message(SimTime::ZERO, peer(3), blocks.clone(), &mut store_a);
        assert_eq!(out.received, vec![(c, peer(3))]);
        let cancelled: Vec<PeerId> = out.sends.iter().map(|(p, _)| *p).collect();
        sorted.retain(|p| *p != peer(3));
        assert_eq!(cancelled, sorted, "one cancel per other asked peer");
        let s = a.session(&c).unwrap();
        assert!(s.done && s.asked.is_empty());
        assert_eq!(s.asked.capacity(), 0);
        let again = a.handle_message(SimTime::ZERO, peer(2), blocks, &mut store_a);
        assert!(again.received.is_empty() && again.sends.is_empty());
        assert!(a
            .request_block_from(c, peer(5), SimTime::ZERO)
            .sends
            .is_empty());
        assert!(a.session(&c).unwrap().asked.is_empty());
    }

    #[test]
    fn cancel_fetch_sends_cancels() {
        let mut a = Bitswap::new();
        let c = cid(1);
        a.start_fetch(c, &[peer(2), peer(3)], SimTime::ZERO);
        let out = a.cancel_fetch(&c);
        assert_eq!(out.sends.len(), 2);
        assert!(!a.is_fetching(&c));
    }

    #[test]
    fn first_have_wins_block_request() {
        let mut a = Bitswap::new();
        let mut store_a = MemoryBlockstore::new();
        let c = cid(1);
        a.start_fetch(c, &[peer(2), peer(3)], SimTime::ZERO);
        let have = BitswapMessage::Presence {
            have: vec![c],
            dont_have: vec![],
        };
        let out1 = a.handle_message(SimTime::ZERO, peer(3), have.clone(), &mut store_a);
        let want_block = BitswapMessage::Want(WantEntry::block(c));
        assert_eq!(
            out1.sends,
            vec![(peer(3), want_block)],
            "WantBlock to first responder"
        );
        let out2 = a.handle_message(SimTime::ZERO, peer(2), have, &mut store_a);
        assert!(
            out2.sends.is_empty(),
            "second Have does not trigger another request"
        );
        assert_eq!(a.session(&c).unwrap().requested_from, Some(peer(3)));
    }

    #[test]
    fn want_table_consistent_through_cancel() {
        // Registering, cancelling and re-registering wants never leaves an
        // empty bucket or a peer named twice, and only live wants are served.
        let mut a = Bitswap::new();
        let mut store = MemoryBlockstore::new();
        let (c1, c2) = (cid(1), cid(2));
        for (p, entries) in [
            (peer(2), vec![WantEntry::block(c1), WantEntry::have(c2)]),
            (peer(3), vec![WantEntry::block(c1)]),
        ] {
            a.handle_message(
                SimTime::ZERO,
                p,
                BitswapMessage::Wantlist {
                    entries,
                    full: false,
                },
                &mut store,
            );
            a.assert_wants_consistent();
        }
        let probe = BitswapMessage::Want(WantEntry::have(c1));
        a.handle_message(SimTime::ZERO, peer(4), probe, &mut store);
        a.assert_wants_consistent();
        // Cancel the first of three wanters of c1 (the inline one).
        let cancel = BitswapMessage::Want(WantEntry::cancel(c1));
        a.handle_message(SimTime::ZERO, peer(2), cancel, &mut store);
        a.assert_wants_consistent();
        assert!(a.wants_of(&peer(2)).all(|(c, _)| c != c1));
        assert_eq!(
            a.wants_of(&peer(3)).collect::<Vec<_>>(),
            vec![(c1, WantType::Block)]
        );
        assert_eq!(
            a.wants_of(&peer(4)).collect::<Vec<_>>(),
            vec![(c1, WantType::Have)]
        );
        // Cancelling an unregistered want is a no-op.
        a.handle_message(
            SimTime::ZERO,
            peer(9),
            BitswapMessage::Wantlist {
                entries: vec![WantEntry::cancel(c1)],
                full: false,
            },
            &mut store,
        );
        a.assert_wants_consistent();
        // The cancelled peer must not be served; the remaining wanter must.
        let out = a.handle_message(
            SimTime::ZERO,
            peer(7),
            BitswapMessage::Blocks {
                blocks: vec![Block { cid: c1, size: 8 }],
            },
            &mut store,
        );
        let served: Vec<PeerId> = out
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, BitswapMessage::Blocks { .. }))
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(served, vec![peer(3)], "only the live wanters are served");
        let told: Vec<PeerId> = out
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, BitswapMessage::Presence { .. }))
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(told, vec![peer(4)]);
        a.assert_wants_consistent();
        // Full-replace and disconnect purge through the same table.
        a.handle_message(
            SimTime::ZERO,
            peer(2),
            BitswapMessage::Wantlist {
                entries: vec![WantEntry::block(cid(3))],
                full: true,
            },
            &mut store,
        );
        a.assert_wants_consistent();
        assert_eq!(
            a.wants_of(&peer(2)).collect::<Vec<_>>(),
            vec![(cid(3), WantType::Block)],
            "full wantlist replaced the Have for c2"
        );
        a.peer_disconnected(&peer(2));
        a.assert_wants_consistent();
        assert!(
            a.wants_of(&peer(2)).next().is_none(),
            "disconnect clears wants"
        );
    }

    #[test]
    fn peer_disconnected_purges_every_want_bucket() {
        // A peer that leaves takes its wants in every CID's bucket with it,
        // so a later block receipt does not try to serve the gone peer.
        let mut a = Bitswap::new();
        let mut store = MemoryBlockstore::new();
        let (c1, c2) = (cid(1), cid(2));
        for (p, entries) in [
            (peer(2), vec![WantEntry::block(c1), WantEntry::block(c2)]),
            (peer(3), vec![WantEntry::block(c1)]),
        ] {
            a.handle_message(
                SimTime::ZERO,
                p,
                BitswapMessage::Wantlist {
                    entries,
                    full: false,
                },
                &mut store,
            );
        }
        a.peer_disconnected(&peer(2));
        assert!(
            a.wants_of(&peer(2)).next().is_none(),
            "no stale wants remain"
        );
        a.assert_wants_consistent();
        // A block arriving now is served only to the surviving wanter.
        let out = a.handle_message(
            SimTime::ZERO,
            peer(7),
            BitswapMessage::Blocks {
                blocks: vec![Block { cid: c1, size: 8 }],
            },
            &mut store,
        );
        let served: Vec<PeerId> = out
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, BitswapMessage::Blocks { .. }))
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(served, vec![peer(3)]);
        a.assert_wants_consistent();
        // Disconnecting an unknown peer is a no-op.
        a.peer_disconnected(&peer(42));
        a.assert_wants_consistent();
    }

    #[test]
    fn full_wantlist_replaces() {
        let mut a = Bitswap::new();
        let mut store = MemoryBlockstore::new();
        let (c1, c2) = (cid(1), cid(2));
        a.handle_message(
            SimTime::ZERO,
            peer(2),
            BitswapMessage::Wantlist {
                entries: vec![WantEntry::block(c1)],
                full: false,
            },
            &mut store,
        );
        a.handle_message(
            SimTime::ZERO,
            peer(2),
            BitswapMessage::Wantlist {
                entries: vec![WantEntry::block(c2)],
                full: true,
            },
            &mut store,
        );
        let wants: Vec<Cid> = a.wants_of(&peer(2)).map(|(c, _)| c).collect();
        assert_eq!(wants, vec![c2]);
    }
}
