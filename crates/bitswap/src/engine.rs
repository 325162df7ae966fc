//! The Bitswap engine: wantlists, per-peer ledgers, fetch sessions.
//!
//! Sans-io. The owner feeds in messages and pulls out `(peer, message)`
//! sends. Content retrieval starts with a 1-hop `WantHave` broadcast to all
//! connected neighbours (§2 "Content Retrieval" step 5); peers answering
//! `Have` get a `WantBlock`; received blocks cancel outstanding wants.
//! Registered wants from other peers are remembered in ledgers and served
//! as soon as the block arrives — the mechanism that lets gateways satisfy
//! most requests without touching the DHT (§5 "ID centralization").

use crate::messages::{BitswapMessage, Block, WantEntry, WantType};
use crate::store::MemoryBlockstore;
use ipfs_types::{Cid, PeerId};
use ipfs_types::{FxHashMap as HashMap, FxHashSet as HashSet};
use simnet::SimTime;

/// Per-peer accounting, as in the go-bitswap ledger.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Blocks sent to this peer.
    pub blocks_sent: u64,
    /// Blocks received from this peer.
    pub blocks_received: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// The peer's outstanding wants against us.
    wants: HashMap<Cid, WantType>,
}

impl Ledger {
    /// The peer's outstanding wants.
    pub fn wants(&self) -> impl Iterator<Item = (&Cid, &WantType)> {
        self.wants.iter()
    }
}

/// State of one content fetch.
#[derive(Clone, Debug)]
pub struct FetchSession {
    /// The wanted content.
    pub cid: Cid,
    /// When the fetch started.
    pub started: SimTime,
    /// Peers we probed with `WantHave`.
    pub asked: HashSet<PeerId>,
    /// Peers that answered `Have`.
    pub haves: Vec<PeerId>,
    /// Peers that answered `DontHave`.
    pub dont_haves: usize,
    /// Peer we requested the full block from.
    pub requested_from: Option<PeerId>,
    /// Fetch finished.
    pub done: bool,
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
}

/// The Bitswap engine of one node.
#[derive(Clone, Debug, Default)]
pub struct Bitswap {
    sessions: HashMap<Cid, FetchSession>,
    ledgers: HashMap<PeerId, Ledger>,
    /// Reverse index of registered wants: `Cid → peers wanting it`, kept
    /// exactly consistent with the per-ledger want maps. Serving a received
    /// block is a single index lookup instead of a scan over every ledger
    /// (monitors and gateways hold thousands).
    want_index: HashMap<Cid, Vec<PeerId>>,
}

impl Bitswap {
    /// Fresh engine.
    pub fn new() -> Bitswap {
        Bitswap::default()
    }

    /// Ledger for a peer, if any traffic was exchanged.
    pub fn ledger(&self, peer: &PeerId) -> Option<&Ledger> {
        self.ledgers.get(peer)
    }

    /// Active fetch session for `cid`.
    pub fn session(&self, cid: &Cid) -> Option<&FetchSession> {
        self.sessions.get(cid)
    }

    /// Whether a fetch for `cid` is in progress.
    pub fn is_fetching(&self, cid: &Cid) -> bool {
        self.sessions.get(cid).map(|s| !s.done).unwrap_or(false)
    }

    /// Number of ledgers (distinct peers exchanged with).
    pub fn peer_count(&self) -> usize {
        self.ledgers.len()
    }

    /// Start fetching `cid`: broadcast `WantHave` to `neighbors` (1-hop
    /// discovery). Returns the messages to send. No-op empty result if a
    /// session already exists.
    pub fn start_fetch(&mut self, cid: Cid, neighbors: &[PeerId], now: SimTime) -> BsOutput {
        let mut out = BsOutput::default();
        if self.sessions.contains_key(&cid) {
            return out;
        }
        let mut session = FetchSession {
            cid,
            started: now,
            asked: HashSet::default(),
            haves: Vec::new(),
            dont_haves: 0,
            requested_from: None,
            done: false,
        };
        for &p in neighbors {
            session.asked.insert(p);
            out.push(
                p,
                BitswapMessage::Wantlist {
                    entries: vec![WantEntry::have(cid)],
                    full: false,
                },
            );
        }
        self.sessions.insert(cid, session);
        out
    }

    /// Directly request the block from a specific peer (used after DHT
    /// provider resolution, when the provider was just dialed).
    pub fn request_block_from(&mut self, cid: Cid, peer: PeerId, now: SimTime) -> BsOutput {
        let mut out = BsOutput::default();
        let session = self.sessions.entry(cid).or_insert_with(|| FetchSession {
            cid,
            started: now,
            asked: HashSet::default(),
            haves: Vec::new(),
            dont_haves: 0,
            requested_from: None,
            done: false,
        });
        if session.done {
            return out;
        }
        session.asked.insert(peer);
        session.requested_from = Some(peer);
        out.push(
            peer,
            BitswapMessage::Wantlist {
                entries: vec![WantEntry::block(cid)],
                full: false,
            },
        );
        out
    }

    /// Abandon a fetch, cancelling outstanding wants.
    pub fn cancel_fetch(&mut self, cid: &Cid) -> BsOutput {
        let mut out = BsOutput::default();
        if let Some(s) = self.sessions.remove(cid) {
            let mut asked: Vec<PeerId> = s.asked.iter().copied().collect();
            asked.sort();
            for p in &asked {
                out.push(
                    *p,
                    BitswapMessage::Wantlist {
                        entries: vec![WantEntry::cancel(*cid)],
                        full: false,
                    },
                );
            }
        }
        out
    }

    /// Forget a disconnected peer's ledger wants (keep counters).
    pub fn peer_disconnected(&mut self, peer: &PeerId) {
        let Bitswap {
            ledgers,
            want_index,
            ..
        } = self;
        if let Some(l) = ledgers.get_mut(peer) {
            for cid in l.wants.keys() {
                index_remove(want_index, cid, peer);
            }
            l.wants.clear();
        }
        debug_assert!(
            !self.peer_indexed(peer),
            "want_index retained entries for disconnected peer"
        );
    }

    /// Drop a peer entirely: unregister its wants from every `want_index`
    /// bucket *and* discard its ledger, counters included. Where
    /// [`Bitswap::peer_disconnected`] keeps the counters for a peer that
    /// may reconnect, this is the full-removal path the owner uses to
    /// bound ledger memory (under sustained request load every fetch
    /// broadcast seeds ledgers on ephemeral peers that never return).
    /// Purging the index here is what keeps a later block receipt from
    /// trying to serve the gone peer.
    pub fn forget_peer(&mut self, peer: &PeerId) {
        let Bitswap {
            ledgers,
            want_index,
            ..
        } = self;
        if let Some(l) = ledgers.remove(peer) {
            for cid in l.wants.keys() {
                index_remove(want_index, cid, peer);
            }
        }
        debug_assert!(
            !self.peer_indexed(peer),
            "want_index retained entries for forgotten peer"
        );
    }

    /// Whether any `want_index` bucket still names `peer` (cheap oracle
    /// for the disconnect/forget paths; the full mirror check is
    /// [`Bitswap::assert_want_index_consistent`]).
    pub fn peer_indexed(&self, peer: &PeerId) -> bool {
        self.want_index.values().any(|peers| peers.contains(peer))
    }

    /// Peers whose ledgers carry no outstanding wants and are not in
    /// `keep` — the candidates a periodic connection-manager sweep feeds
    /// to [`Bitswap::forget_peer`]. Sorted for deterministic iteration.
    pub fn prunable_peers(&self, keep: impl Fn(&PeerId) -> bool) -> Vec<PeerId> {
        let mut out: Vec<PeerId> = self
            .ledgers
            .iter()
            .filter(|(p, l)| l.wants.is_empty() && !keep(p))
            .map(|(p, _)| *p)
            .collect();
        out.sort();
        out
    }

    /// Debugging/test oracle: panic unless the want-index mirrors the
    /// per-ledger want maps exactly (every registered want indexed, no
    /// stale index entries, no duplicates).
    pub fn assert_want_index_consistent(&self) {
        let mut expected: std::collections::BTreeMap<Cid, Vec<PeerId>> = Default::default();
        for (peer, l) in &self.ledgers {
            for cid in l.wants.keys() {
                expected.entry(*cid).or_default().push(*peer);
            }
        }
        for v in expected.values_mut() {
            v.sort();
        }
        let mut actual: std::collections::BTreeMap<Cid, Vec<PeerId>> = Default::default();
        for (cid, peers) in &self.want_index {
            assert!(!peers.is_empty(), "empty index bucket for {cid:?}");
            let mut v = peers.clone();
            v.sort();
            let n = v.len();
            v.dedup();
            assert_eq!(n, v.len(), "duplicate index entries for {cid:?}");
            actual.insert(*cid, v);
        }
        assert_eq!(expected, actual, "want-index diverged from ledgers");
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
            BitswapMessage::Wantlist { entries, full } => {
                self.on_wantlist(from, entries, full, store)
            }
            BitswapMessage::Blocks { blocks } => self.on_blocks(now, from, blocks, store),
            BitswapMessage::Presence { have, dont_have } => self.on_presence(from, have, dont_have),
        }
    }

    fn on_wantlist(
        &mut self,
        from: PeerId,
        entries: Vec<WantEntry>,
        full: bool,
        store: &MemoryBlockstore,
    ) -> BsOutput {
        let mut out = BsOutput::default();
        let Bitswap {
            ledgers,
            want_index,
            ..
        } = self;
        let ledger = ledgers.entry(from).or_default();
        if full {
            for cid in ledger.wants.keys() {
                index_remove(want_index, cid, &from);
            }
            ledger.wants.clear();
        }
        let mut have = Vec::new();
        let mut dont_have = Vec::new();
        let mut blocks = Vec::new();
        for e in entries {
            if e.cancel {
                if ledger.wants.remove(&e.cid).is_some() {
                    index_remove(want_index, &e.cid, &from);
                }
                continue;
            }
            match e.ty {
                WantType::Have => {
                    if let Some(_b) = store.get(&e.cid) {
                        have.push(e.cid);
                    } else {
                        if e.send_dont_have {
                            dont_have.push(e.cid);
                        }
                        if ledger.wants.insert(e.cid, WantType::Have).is_none() {
                            index_add(want_index, e.cid, from);
                        }
                    }
                }
                WantType::Block => {
                    if let Some(b) = store.get(&e.cid) {
                        blocks.push(b);
                        ledger.blocks_sent += 1;
                        ledger.bytes_sent += b.size as u64;
                    } else {
                        if e.send_dont_have {
                            dont_have.push(e.cid);
                        }
                        if ledger.wants.insert(e.cid, WantType::Block).is_none() {
                            index_add(want_index, e.cid, from);
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
        {
            let ledger = self.ledgers.entry(from).or_default();
            for b in &blocks {
                ledger.blocks_received += 1;
                ledger.bytes_received += b.size as u64;
            }
        }
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
                    let mut asked: Vec<PeerId> = s.asked.iter().copied().collect();
                    asked.sort();
                    for p in asked {
                        if p != from {
                            out.push(
                                p,
                                BitswapMessage::Wantlist {
                                    entries: vec![WantEntry::cancel(b.cid)],
                                    full: false,
                                },
                            );
                        }
                    }
                }
            }
            // Serve peers that registered wants for this block: one index
            // lookup instead of a scan over every ledger.
            let mut wanters: Vec<(PeerId, WantType)> = self
                .want_index
                .get(&b.cid)
                .map(|peers| {
                    peers
                        .iter()
                        .filter(|p| **p != from)
                        .map(|p| {
                            let t = self
                                .ledgers
                                .get(p)
                                .and_then(|l| l.wants.get(&b.cid))
                                .expect("want-index entry backed by ledger want");
                            (*p, *t)
                        })
                        .collect()
                })
                .unwrap_or_default();
            // Deterministic service order (index order is insertion-driven).
            wanters.sort_by_key(|(p, _)| *p);
            for (p, t) in wanters {
                index_remove(&mut self.want_index, &b.cid, &p);
                match t {
                    WantType::Block => {
                        let l = self.ledgers.get_mut(&p).expect("wanter has ledger");
                        l.wants.remove(&b.cid);
                        l.blocks_sent += 1;
                        l.bytes_sent += b.size as u64;
                        out.push(p, BitswapMessage::Blocks { blocks: vec![b] });
                    }
                    WantType::Have => {
                        let l = self.ledgers.get_mut(&p).expect("wanter has ledger");
                        l.wants.remove(&b.cid);
                        out.push(
                            p,
                            BitswapMessage::Presence {
                                have: vec![b.cid],
                                dont_have: vec![],
                            },
                        );
                    }
                }
            }
        }
        out
    }

    fn on_presence(&mut self, from: PeerId, have: Vec<Cid>, dont_have: Vec<Cid>) -> BsOutput {
        let mut out = BsOutput::default();
        for cid in have {
            if let Some(s) = self.sessions.get_mut(&cid) {
                if s.done {
                    continue;
                }
                s.haves.push(from);
                // First Have wins: request the block from that peer.
                if s.requested_from.is_none() {
                    s.requested_from = Some(from);
                    out.push(
                        from,
                        BitswapMessage::Wantlist {
                            entries: vec![WantEntry::block(cid)],
                            full: false,
                        },
                    );
                }
            }
        }
        for cid in dont_have {
            if let Some(s) = self.sessions.get_mut(&cid) {
                s.dont_haves += 1;
            }
        }
        out
    }
}

/// Register `peer` as a wanter of `cid`. Callers add only on a fresh
/// ledger-want insert, so the bucket never holds duplicates.
fn index_add(index: &mut HashMap<Cid, Vec<PeerId>>, cid: Cid, peer: PeerId) {
    index.entry(cid).or_default().push(peer);
}

/// Drop `peer` from `cid`'s wanter bucket (no-op when absent), pruning the
/// bucket when it empties.
fn index_remove(index: &mut HashMap<Cid, Vec<PeerId>>, cid: &Cid, peer: &PeerId) {
    if let Some(peers) = index.get_mut(cid) {
        if let Some(pos) = peers.iter().position(|p| p == peer) {
            peers.swap_remove(pos);
        }
        if peers.is_empty() {
            index.remove(cid);
        }
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
        assert_eq!(a.ledger(&peer(2)).unwrap().blocks_received, 1);
        assert_eq!(b.ledger(&peer(1)).unwrap().blocks_sent, 1);
    }

    #[test]
    fn dont_have_recorded() {
        let mut a = Bitswap::new();
        let mut b = Bitswap::new();
        let mut store_a = MemoryBlockstore::new();
        let mut store_b = MemoryBlockstore::new();
        let c = cid(1);
        let out = a.start_fetch(c, &[peer(2)], SimTime::ZERO);
        let out_b = b.handle_message(SimTime::ZERO, peer(1), out.sends[0].1.clone(), &mut store_b);
        let (_, presence) = &out_b.sends[0];
        assert!(
            matches!(presence, BitswapMessage::Presence { dont_have, .. } if dont_have == &vec![c])
        );
        a.handle_message(SimTime::ZERO, peer(2), presence.clone(), &mut store_a);
        assert_eq!(a.session(&c).unwrap().dont_haves, 1);
        assert!(a.is_fetching(&c));
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
        assert!(out1.sends.iter().any(|(p, m)| {
            *p == peer(3)
                && matches!(m, BitswapMessage::Wantlist { entries, .. } if entries[0].cancel)
        }));
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
        assert_eq!(out1.sends.len(), 1, "WantBlock to first responder");
        let out2 = a.handle_message(SimTime::ZERO, peer(2), have, &mut store_a);
        assert!(
            out2.sends.is_empty(),
            "second Have does not trigger another request"
        );
        assert_eq!(a.session(&c).unwrap().haves.len(), 2);
    }

    #[test]
    fn want_index_consistent_through_cancel() {
        // The satellite invariant: registering, cancelling and re-registering
        // wants keeps the Cid→wanters index exactly in sync with the ledgers.
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
            a.assert_want_index_consistent();
        }
        // Cancel one of two wanters of c1.
        a.handle_message(
            SimTime::ZERO,
            peer(2),
            BitswapMessage::Wantlist {
                entries: vec![WantEntry::cancel(c1)],
                full: false,
            },
            &mut store,
        );
        a.assert_want_index_consistent();
        // Cancelling an unregistered want is a no-op for the index too.
        a.handle_message(
            SimTime::ZERO,
            peer(9),
            BitswapMessage::Wantlist {
                entries: vec![WantEntry::cancel(c1)],
                full: false,
            },
            &mut store,
        );
        a.assert_want_index_consistent();
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
        assert_eq!(served, vec![peer(3)], "only the live wanter is served");
        a.assert_want_index_consistent();
        // Full-replace and disconnect also keep the index in sync.
        a.handle_message(
            SimTime::ZERO,
            peer(2),
            BitswapMessage::Wantlist {
                entries: vec![WantEntry::block(c1)],
                full: true,
            },
            &mut store,
        );
        a.assert_want_index_consistent();
        a.peer_disconnected(&peer(2));
        a.assert_want_index_consistent();
        assert!(
            a.ledger(&peer(2)).unwrap().wants().next().is_none(),
            "disconnect clears wants"
        );
    }

    #[test]
    fn forget_peer_purges_every_want_index_bucket() {
        // Regression: forgetting a peer used to drop only the ledger,
        // leaving its entries in `want_index`, so a later block receipt
        // tried to serve the gone peer.
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
        a.forget_peer(&peer(2));
        assert!(a.ledger(&peer(2)).is_none(), "ledger fully discarded");
        assert!(!a.peer_indexed(&peer(2)), "no stale index entries remain");
        a.assert_want_index_consistent();
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
        a.assert_want_index_consistent();
        // Forgetting an unknown peer is a no-op.
        a.forget_peer(&peer(42));
        a.assert_want_index_consistent();
    }

    #[test]
    fn prunable_peers_skips_wants_and_kept() {
        let mut a = Bitswap::new();
        let mut store = MemoryBlockstore::new();
        // peer 2 has an outstanding want, peers 3 and 4 only counters.
        a.handle_message(
            SimTime::ZERO,
            peer(2),
            BitswapMessage::Wantlist {
                entries: vec![WantEntry::block(cid(1))],
                full: false,
            },
            &mut store,
        );
        for p in [peer(3), peer(4)] {
            a.handle_message(
                SimTime::ZERO,
                p,
                BitswapMessage::Blocks {
                    blocks: vec![Block {
                        cid: cid(9),
                        size: 4,
                    }],
                },
                &mut store,
            );
        }
        let keep3 = peer(3);
        assert_eq!(a.prunable_peers(|p| *p == keep3), vec![peer(4)]);
        a.forget_peer(&peer(4));
        a.assert_want_index_consistent();
        assert_eq!(a.peer_count(), 2);
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
        let wants: Vec<Cid> = a
            .ledger(&peer(2))
            .unwrap()
            .wants()
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(wants, vec![c2]);
    }
}
