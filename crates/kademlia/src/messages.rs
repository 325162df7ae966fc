//! DHT wire messages.
//!
//! Mirrors the go-libp2p-kad-dht RPC surface the paper's tools speak:
//! `FIND_NODE`, `GET_PROVIDERS`, `ADD_PROVIDER` and `PING`. Each request
//! carries the sender's [`PeerInfo`] (in the real protocol this arrives via
//! the identify exchange on connection setup) plus a flag telling whether the
//! sender operates in DHT *server* mode — only servers are eligible for
//! routing tables. A response carries only its `req_id` and answer: the
//! requester knows whom it asked.
//!
//! Every queued simulator event holds its message by value, so the framed
//! [`DhtMessage`] is kept small: the sender's info is one shared
//! allocation, and a request travels as a [`WireRequest`], which boxes the
//! rare `AddProvider` record instead of holding it inline.

use ipfs_types::{Cid, Key256, Multiaddr, PeerId};
use simnet::{Dur, NodeId, SimTime};
use std::sync::Arc;

/// How long a requester waits for an answer before it counts the peer as
/// failed: go-libp2p-kad-dht's per-RPC timeout, the same for every actor.
pub const RPC_TIMEOUT: Dur = Dur::from_secs(10);

/// A shared, immutable list of advertised multiaddresses.
///
/// Every routing-table response clones ~20 peer infos and every provider
/// record carries its provider's addresses; behind an `Arc` those clones
/// are refcount bumps instead of per-message heap copies — the single
/// biggest allocation source in a campaign before this change.
pub type AddrList = std::sync::Arc<[Multiaddr]>;

/// The shared empty address list (no per-call allocation).
pub fn no_addrs() -> AddrList {
    static EMPTY: std::sync::OnceLock<AddrList> = std::sync::OnceLock::new();
    EMPTY.get_or_init(|| Vec::new().into()).clone()
}

/// What a node knows about a peer: identity, advertised addresses, and the
/// simulation endpoint handle used to dial it (stand-in for "the IP inside
/// the multiaddr", see DESIGN.md §4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerInfo {
    /// The peer's identity.
    pub id: PeerId,
    /// Advertised multiaddresses (relay addresses for NAT-ed providers).
    pub addrs: AddrList,
    /// Simulation endpoint for dialing.
    pub endpoint: NodeId,
}

/// A provider record: the DHT value mapping a CID to a provider's contact
/// information (§2 "Content Advertisement").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProviderRecord {
    /// The advertised content.
    pub cid: Cid,
    /// The providing peer.
    pub provider: PeerId,
    /// The provider's advertised addresses; a `/p2p-circuit` address here
    /// means the provider is NAT-ed and reachable via its relay.
    pub addrs: AddrList,
    /// Endpoint handle of the provider itself.
    pub endpoint: NodeId,
    /// For NAT-ed providers publishing a `/p2p-circuit` address: the relay's
    /// endpoint, which the downloader must dial through.
    pub relay_endpoint: Option<NodeId>,
    /// When the record was stored (receiver-side bookkeeping).
    pub stored_at: SimTime,
}

/// DHT request bodies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DhtRequest {
    /// Liveness probe.
    Ping,
    /// Return the k closest known peers to `target`.
    FindNode {
        /// Lookup target key.
        target: Key256,
    },
    /// Return provider records for `cid` plus closer peers.
    GetProviders {
        /// The content being resolved.
        cid: Cid,
    },
    /// Store a provider record (no response in the real protocol).
    AddProvider {
        /// The record to store.
        record: ProviderRecord,
    },
}

impl DhtRequest {
    /// The keyspace target this request routes towards.
    pub fn target(&self) -> Option<Key256> {
        match self {
            DhtRequest::Ping => None,
            DhtRequest::FindNode { target } => Some(*target),
            DhtRequest::GetProviders { cid } => Some(cid.dht_key()),
            DhtRequest::AddProvider { record } => Some(record.cid.dht_key()),
        }
    }

    /// Traffic classification used throughout §5 of the paper.
    pub fn traffic_class(&self) -> TrafficClass {
        match self {
            DhtRequest::Ping => TrafficClass::Other,
            DhtRequest::FindNode { .. } => TrafficClass::Other,
            DhtRequest::GetProviders { .. } => TrafficClass::Download,
            DhtRequest::AddProvider { .. } => TrafficClass::Advertise,
        }
    }
}

/// The wire form of a [`DhtRequest`]: the same requests, with the
/// `AddProvider` record behind a `Box` so the common requests do not pay
/// for its size in every queued message. Senders convert with `into()`;
/// receivers convert back on arrival, moving the record out of the box.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireRequest {
    /// Liveness probe.
    Ping,
    /// Return the k closest known peers to `target`.
    FindNode {
        /// Lookup target key.
        target: Key256,
    },
    /// Return provider records for `cid` plus closer peers.
    GetProviders {
        /// The content being resolved.
        cid: Cid,
    },
    /// Store a provider record.
    AddProvider {
        /// The record to store.
        record: Box<ProviderRecord>,
    },
}

impl From<DhtRequest> for WireRequest {
    fn from(req: DhtRequest) -> WireRequest {
        match req {
            DhtRequest::Ping => WireRequest::Ping,
            DhtRequest::FindNode { target } => WireRequest::FindNode { target },
            DhtRequest::GetProviders { cid } => WireRequest::GetProviders { cid },
            DhtRequest::AddProvider { record } => WireRequest::AddProvider {
                record: Box::new(record),
            },
        }
    }
}

impl From<WireRequest> for DhtRequest {
    fn from(req: WireRequest) -> DhtRequest {
        match req {
            WireRequest::Ping => DhtRequest::Ping,
            WireRequest::FindNode { target } => DhtRequest::FindNode { target },
            WireRequest::GetProviders { cid } => DhtRequest::GetProviders { cid },
            WireRequest::AddProvider { record } => DhtRequest::AddProvider { record: *record },
        }
    }
}

/// The paper's §5 classification of DHT traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Content-related downloads (provider resolution).
    Download,
    /// Content advertisement.
    Advertise,
    /// Everything else (joins, pings, FindNode walks).
    Other,
}

/// DHT response bodies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DhtResponse {
    /// Ping reply.
    Pong,
    /// Closest known peers to the requested target.
    Nodes {
        /// Peers closer to the target, from the responder's table.
        closer: Vec<PeerInfo>,
    },
    /// Provider records plus closer peers.
    Providers {
        /// Matching provider records (may be empty).
        providers: Vec<ProviderRecord>,
        /// Peers closer to the target, for continuing the walk.
        closer: Vec<PeerInfo>,
    },
}

impl DhtResponse {
    /// The answer as `(closer, providers)`, what a walk consumes. A `Pong`
    /// carries neither: a wrong-typed answer still answers, counted as
    /// empty, so the asked peer stops waiting and the walk goes on.
    pub fn into_parts(self) -> (Vec<PeerInfo>, Vec<ProviderRecord>) {
        match self {
            DhtResponse::Pong => (Vec::new(), Vec::new()),
            DhtResponse::Nodes { closer } => (closer, Vec::new()),
            DhtResponse::Providers { providers, closer } => (closer, providers),
        }
    }
}

/// A framed DHT message as delivered by the simulator.
#[derive(Clone, Debug)]
pub enum DhtMessage {
    /// A request expecting a response (except `AddProvider`).
    Request {
        /// Request/response correlation id (unique per sender).
        req_id: u64,
        /// The sender's self-description (identify exchange), shared: a
        /// sender builds it once and every request it sends holds the
        /// same allocation, so a clone is a refcount bump.
        sender: Arc<PeerInfo>,
        /// Whether the sender runs in DHT server mode.
        sender_is_server: bool,
        /// The request, in its wire form.
        req: WireRequest,
    },
    /// A response to an earlier request. It names no sender: the requester
    /// matches `req_id` to the peer it asked.
    Response {
        /// The `req_id` of the request this answers.
        req_id: u64,
        /// The answer.
        resp: DhtResponse,
    },
}

impl DhtMessage {
    /// Frame request `req` from `sender`, converting it to its wire form.
    pub fn request(
        req_id: u64,
        sender: Arc<PeerInfo>,
        sender_is_server: bool,
        req: DhtRequest,
    ) -> DhtMessage {
        DhtMessage::Request {
            req_id,
            sender,
            sender_is_server,
            req: req.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_types::Codec;

    #[test]
    fn traffic_classes_match_paper_taxonomy() {
        let cid = Cid::new_v1(Codec::Raw, b"x");
        let rec = ProviderRecord {
            cid,
            provider: PeerId::from_seed(1),
            addrs: crate::messages::no_addrs(),
            endpoint: NodeId(0),
            relay_endpoint: None,
            stored_at: SimTime::ZERO,
        };
        assert_eq!(
            DhtRequest::GetProviders { cid }.traffic_class(),
            TrafficClass::Download
        );
        assert_eq!(
            DhtRequest::AddProvider { record: rec }.traffic_class(),
            TrafficClass::Advertise
        );
        assert_eq!(DhtRequest::Ping.traffic_class(), TrafficClass::Other);
        assert_eq!(
            DhtRequest::FindNode {
                target: Key256::ZERO
            }
            .traffic_class(),
            TrafficClass::Other
        );
    }

    #[test]
    fn wire_requests_round_trip_and_box_only_the_record() {
        let cid = Cid::new_v1(Codec::Raw, b"z");
        let record = ProviderRecord {
            cid,
            provider: PeerId::from_seed(2),
            addrs: crate::messages::no_addrs(),
            endpoint: NodeId(3),
            relay_endpoint: Some(NodeId(4)),
            stored_at: SimTime(5),
        };
        for req in [
            DhtRequest::Ping,
            DhtRequest::FindNode {
                target: Key256::from_seed(1),
            },
            DhtRequest::GetProviders { cid },
            DhtRequest::AddProvider { record },
        ] {
            assert_eq!(DhtRequest::from(WireRequest::from(req.clone())), req);
        }
        assert!(std::mem::size_of::<WireRequest>() < std::mem::size_of::<DhtRequest>());
        assert!(std::mem::size_of::<DhtResponse>() <= 48);
    }

    #[test]
    fn responses_split_into_closer_and_providers() {
        let info = PeerInfo {
            id: PeerId::from_seed(1),
            addrs: no_addrs(),
            endpoint: NodeId(1),
        };
        let record = ProviderRecord {
            cid: Cid::new_v1(Codec::Raw, b"p"),
            provider: PeerId::from_seed(2),
            addrs: no_addrs(),
            endpoint: NodeId(2),
            relay_endpoint: None,
            stored_at: SimTime::ZERO,
        };
        assert_eq!(DhtResponse::Pong.into_parts(), (vec![], vec![]));
        let nodes = DhtResponse::Nodes {
            closer: vec![info.clone()],
        };
        assert_eq!(nodes.into_parts(), (vec![info.clone()], vec![]));
        let providers = DhtResponse::Providers {
            providers: vec![record.clone()],
            closer: vec![info.clone()],
        };
        assert_eq!(providers.into_parts(), (vec![info], vec![record]));
    }

    #[test]
    fn request_targets() {
        let cid = Cid::new_v1(Codec::Raw, b"y");
        assert_eq!(
            DhtRequest::GetProviders { cid }.target(),
            Some(cid.dht_key())
        );
        assert_eq!(DhtRequest::Ping.target(), None);
        let t = Key256::from_seed(9);
        assert_eq!(DhtRequest::FindNode { target: t }.target(), Some(t));
    }
}
