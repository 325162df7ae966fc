//! Differential property test: the engine's one want table against the
//! bookkeeping it replaced — a want map per peer plus a hand-mirrored
//! `Cid → peers` index, and a hash set of asked peers per
//! fetch — kept here, and only here, as the reference model.

use bitswap::{Bitswap, BitswapMessage, Block, BsOutput, MemoryBlockstore, WantEntry, WantType};
use ipfs_types::{Cid, PeerId};
use proptest::prelude::*;
use simnet::SimTime;
use std::collections::{HashMap, HashSet};

/// The engine before its one want table, minus telemetry and accessors.
mod reference {
    use super::*;

    pub struct RefSession {
        pub asked: HashSet<PeerId>,
        pub requested_from: Option<PeerId>,
        pub done: bool,
    }

    #[derive(Default)]
    pub struct RefEngine {
        pub sessions: HashMap<Cid, RefSession>,
        pub peer_wants: HashMap<PeerId, HashMap<Cid, WantType>>,
        want_index: HashMap<Cid, Vec<PeerId>>,
    }

    fn want(out: &mut BsOutput, to: PeerId, entry: WantEntry) {
        out.sends.push((to, BitswapMessage::Want(entry)));
    }

    fn sorted(asked: &HashSet<PeerId>) -> Vec<PeerId> {
        let mut asked: Vec<PeerId> = asked.iter().copied().collect();
        asked.sort();
        asked
    }

    impl RefEngine {
        pub fn start_fetch(&mut self, cid: Cid, neighbors: &[PeerId]) -> BsOutput {
            let mut out = BsOutput::default();
            if self.sessions.contains_key(&cid) {
                return out;
            }
            let mut asked = HashSet::new();
            for &p in neighbors {
                asked.insert(p);
                want(&mut out, p, WantEntry::have(cid));
            }
            let session = RefSession {
                asked,
                requested_from: None,
                done: false,
            };
            self.sessions.insert(cid, session);
            out
        }

        pub fn request_block_from(&mut self, cid: Cid, peer: PeerId) -> BsOutput {
            let mut out = BsOutput::default();
            let session = self.sessions.entry(cid).or_insert_with(|| RefSession {
                asked: HashSet::new(),
                requested_from: None,
                done: false,
            });
            if session.done {
                return out;
            }
            session.asked.insert(peer);
            session.requested_from = Some(peer);
            want(&mut out, peer, WantEntry::block(cid));
            out
        }

        pub fn cancel_fetch(&mut self, cid: &Cid) -> BsOutput {
            let mut out = BsOutput::default();
            if let Some(s) = self.sessions.remove(cid) {
                for p in sorted(&s.asked) {
                    want(&mut out, p, WantEntry::cancel(*cid));
                }
            }
            out
        }

        pub fn peer_disconnected(&mut self, peer: &PeerId) {
            if let Some(wants) = self.peer_wants.get_mut(peer) {
                for cid in wants.keys() {
                    index_remove(&mut self.want_index, cid, peer);
                }
                wants.clear();
            }
        }

        pub fn handle_message(
            &mut self,
            from: PeerId,
            msg: BitswapMessage,
            store: &mut MemoryBlockstore,
        ) -> BsOutput {
            match msg {
                BitswapMessage::Want(entry) => self.on_wantlist(from, vec![entry], false, store),
                BitswapMessage::Wantlist { entries, full } => {
                    self.on_wantlist(from, entries, full, store)
                }
                BitswapMessage::Blocks { blocks } => self.on_blocks(from, blocks, store),
                BitswapMessage::Presence { have, .. } => self.on_presence(from, have),
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
            let want_index = &mut self.want_index;
            let wants = self.peer_wants.entry(from).or_default();
            if full {
                for cid in wants.keys() {
                    index_remove(want_index, cid, &from);
                }
                wants.clear();
            }
            let (mut have, mut dont_have, mut blocks) = (Vec::new(), Vec::new(), Vec::new());
            for e in entries {
                if e.cancel {
                    if wants.remove(&e.cid).is_some() {
                        index_remove(want_index, &e.cid, &from);
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
                        if wants.insert(e.cid, ty).is_none() {
                            want_index.entry(e.cid).or_default().push(from);
                        }
                    }
                }
            }
            if !have.is_empty() || !dont_have.is_empty() {
                let msg = BitswapMessage::Presence { have, dont_have };
                out.sends.push((from, msg));
            }
            if !blocks.is_empty() {
                out.sends.push((from, BitswapMessage::Blocks { blocks }));
            }
            out
        }

        fn on_blocks(
            &mut self,
            from: PeerId,
            blocks: Vec<Block>,
            store: &mut MemoryBlockstore,
        ) -> BsOutput {
            let mut out = BsOutput::default();
            for b in blocks {
                store.put(b);
                if let Some(s) = self.sessions.get_mut(&b.cid).filter(|s| !s.done) {
                    s.done = true;
                    out.received.push((b.cid, from));
                    for p in sorted(&s.asked).into_iter().filter(|p| *p != from) {
                        want(&mut out, p, WantEntry::cancel(b.cid));
                    }
                    // The one deliberate departure from the parent, which
                    // kept the set and so cancelled a second time when a
                    // finished fetch was `cancel_fetch`ed (no caller does).
                    s.asked.clear();
                }
                let indexed = self.want_index.get(&b.cid).cloned().unwrap_or_default();
                let mut wanters: Vec<PeerId> = indexed.into_iter().filter(|p| *p != from).collect();
                wanters.sort();
                for p in wanters {
                    index_remove(&mut self.want_index, &b.cid, &p);
                    let wants = self.peer_wants.get_mut(&p).expect("wanter has a want map");
                    match wants.remove(&b.cid).expect("index backed by want map") {
                        WantType::Block => {
                            out.sends
                                .push((p, BitswapMessage::Blocks { blocks: vec![b] }));
                        }
                        WantType::Have => {
                            let (have, dont_have) = (vec![b.cid], vec![]);
                            let msg = BitswapMessage::Presence { have, dont_have };
                            out.sends.push((p, msg));
                        }
                    }
                }
            }
            out
        }

        fn on_presence(&mut self, from: PeerId, have: Vec<Cid>) -> BsOutput {
            let mut out = BsOutput::default();
            for cid in have {
                let Some(s) = self.sessions.get_mut(&cid).filter(|s| !s.done) else {
                    continue;
                };
                if s.requested_from.is_none() {
                    s.requested_from = Some(from);
                    want(&mut out, from, WantEntry::block(cid));
                }
            }
            out
        }
    }

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
}

/// Two bits of `bits` at a time, as an index below 4.
fn take2(bits: &mut u64) -> usize {
    let v = (*bits & 3) as usize;
    *bits >>= 2;
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn one_want_table_behaves_like_ledger_maps_plus_index(
        // (operation, peer, bits the operation's arguments are cut from)
        ops in proptest::collection::vec((0u8..16, 0usize..4, any::<u64>()), 1..120),
    ) {
        let peers: Vec<PeerId> = (0..4).map(|i| PeerId::from_seed(100 + i)).collect();
        let cids: Vec<Cid> = (0..4).map(Cid::from_seed).collect();
        let mut engine = Bitswap::new();
        let mut reference = reference::RefEngine::default();
        let (mut store, mut ref_store) = (MemoryBlockstore::new(), MemoryBlockstore::new());
        for (step, (op, peer, mut bits)) in ops.into_iter().enumerate() {
            let now = SimTime(step as u64);
            let from = peers[peer];
            let bits = &mut bits;
            let cid = cids[take2(bits)];
            let message = match op {
                // One entry, add or cancel, Have or Block, in the frame the
                // engine sends.
                0..=2 => Some(BitswapMessage::Want(WantEntry {
                    cid: cids[take2(bits)],
                    ty: [WantType::Have, WantType::Block][take2(bits) % 2],
                    cancel: take2(bits) == 0,
                    send_dont_have: take2(bits) != 0,
                })),
                // Wantlist: 1–3 entries, each as above; one in eight
                // replaces the sender's whole list.
                3..=5 => Some(BitswapMessage::Wantlist {
                    entries: (0..1 + take2(bits) % 3)
                        .map(|_| WantEntry {
                            cid: cids[take2(bits)],
                            ty: [WantType::Have, WantType::Block][take2(bits) % 2],
                            cancel: take2(bits) == 0,
                            send_dont_have: take2(bits) != 0,
                        })
                        .collect(),
                    full: take2(bits) == 0 && take2(bits) < 2,
                }),
                6 | 7 => Some(BitswapMessage::Blocks {
                    blocks: (0..take2(bits) % 3)
                        .map(|_| take2(bits))
                        .map(|i| Block { cid: cids[i], size: 10 + i as u32 })
                        .collect(),
                }),
                8 | 9 => Some(BitswapMessage::Presence {
                    have: (0..take2(bits) % 3).map(|_| cids[take2(bits)]).collect(),
                    dont_have: (0..take2(bits) % 3).map(|_| cids[take2(bits)]).collect(),
                }),
                _ => None,
            };
            let (out, ref_out) = match (message, op) {
                (Some(msg), _) => (
                    engine.handle_message(now, from, msg.clone(), &mut store),
                    reference.handle_message(from, msg, &mut ref_store),
                ),
                // A peer leaves: twice the weight of the other operations.
                (None, 10 | 11) => {
                    engine.peer_disconnected(&from);
                    reference.peer_disconnected(&from);
                    Default::default()
                }
                // Unsorted neighbour lists with repeats, as a caller may pass.
                (None, 12) => {
                    let neighbors: Vec<PeerId> =
                        (0..take2(bits) + 1).map(|_| peers[take2(bits)]).collect();
                    (engine.start_fetch(cid, &neighbors, now), reference.start_fetch(cid, &neighbors))
                }
                (None, 13) => (
                    engine.request_block_from(cid, from, now),
                    reference.request_block_from(cid, from),
                ),
                (None, 14) => (engine.cancel_fetch(&cid), reference.cancel_fetch(&cid)),
                // Cache eviction: a block we served once is wanted again.
                (None, _) => {
                    prop_assert_eq!(store.remove(&cid), ref_store.remove(&cid));
                    Default::default()
                }
            };
            prop_assert_eq!(&out.sends, &ref_out.sends, "step {}: sends", step);
            prop_assert_eq!(&out.received, &ref_out.received, "step {}: received", step);

            engine.assert_wants_consistent();
            for p in &peers {
                let mut wants: Vec<(Cid, WantType)> = engine.wants_of(p).collect();
                wants.sort_by_key(|(c, _)| *c);
                let mut ref_wants: Vec<(Cid, WantType)> = reference
                    .peer_wants
                    .get(p)
                    .map(|w| w.iter().map(|(c, t)| (*c, *t)).collect())
                    .unwrap_or_default();
                ref_wants.sort_by_key(|(c, _)| *c);
                prop_assert_eq!(wants, ref_wants, "step {}: wants of {:?}", step, p);
            }

            for c in &cids {
                let (s, r) = (engine.session(c), reference.sessions.get(c));
                prop_assert_eq!(s.is_some(), r.is_some(), "step {}: session", step);
                let (Some(s), Some(r)) = (s, r) else { continue };
                prop_assert_eq!((s.done, s.requested_from), (r.done, r.requested_from));
                let mut asked: Vec<PeerId> = r.asked.iter().copied().collect();
                asked.sort();
                prop_assert_eq!(&s.asked, &asked, "step {}: asked", step);
            }
        }
    }
}
