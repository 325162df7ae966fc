//! The ecosystem wire-message and command types.
//!
//! Every actor in the simulated network — regular nodes, platforms,
//! monitors, Hydra boosters, crawlers, gateway frontends, HTTP clients —
//! exchanges [`WireMsg`]s. Identity information rides along exactly where
//! the real stack provides it (identify exchange, authenticated streams).

use bitswap::BitswapMessage;
use ipfs_types::{Cid, PeerId};
use kademlia::{AddrList, DhtMessage};
use simnet::{NodeId, SimTime};
use std::net::SocketAddrV4;

/// Messages on the simulated wire.
#[derive(Clone, Debug)]
pub enum WireMsg {
    /// Identify exchange: sent by both sides right after connection setup.
    Identify {
        /// Sender's identity.
        id: PeerId,
        /// Sender's advertised addresses (shared, immutable).
        addrs: AddrList,
        /// Whether the sender is a DHT server.
        dht_server: bool,
        /// Agent string (`go-ipfs/0.11`, `hydra-booster/0.7`, …) — the
        /// crawler records it, like the real one does. Shared with the
        /// sender's configuration: an identify costs no allocation.
        agent: std::sync::Arc<str>,
    },
    /// A DHT RPC (request or response).
    Dht(DhtMessage),
    /// A Bitswap message; `from` is the authenticated stream identity.
    Bitswap {
        /// Sender identity.
        from: PeerId,
        /// Payload.
        msg: BitswapMessage,
    },
    /// Ask the receiving public node for a circuit-relay reservation.
    RelayReserve {
        /// The NAT-ed requester.
        from: PeerId,
    },
    /// Reservation answer.
    RelayReserveOk {
        /// Granted or refused.
        accepted: bool,
    },
    /// HTTP GET against a gateway (frontend → overlay node, or client →
    /// frontend).
    HttpRequest {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Requested content.
        cid: Cid,
    },
    /// HTTP response.
    HttpResponse {
        /// Correlation id.
        req_id: u64,
        /// 200 vs 404/504.
        found: bool,
    },
}

/// Harness commands driving a node's workload.
#[derive(Clone, Debug)]
pub enum NodeCmd {
    /// Join the network via bootstrap peers.
    Bootstrap {
        /// Known entry points `(peer, endpoint)`.
        seeds: Vec<(PeerId, NodeId)>,
    },
    /// Create content locally and advertise it on the DHT.
    Publish {
        /// The content identifier.
        cid: Cid,
        /// Payload size.
        size: u32,
    },
    /// (Re-)advertise an already-stored CID.
    Provide {
        /// The content identifier.
        cid: Cid,
    },
    /// Retrieve content (Bitswap broadcast, then DHT fallback).
    Fetch {
        /// The content identifier.
        cid: Cid,
    },
    /// Issue an HTTP GET to a gateway frontend (HTTP-client behaviour).
    HttpGet {
        /// The frontend endpoint to contact.
        frontend: NodeId,
        /// Requested content.
        cid: Cid,
    },
    /// Adopt a fresh identity (fresh install / single-interaction user).
    AdoptIdentity {
        /// Seed for the new keypair.
        seed: u64,
    },
    /// Resolve provider records for a CID without downloading (the paper's
    /// provider-record searcher; `exhaustive` = the modified termination).
    ResolveProviders {
        /// The content to resolve.
        cid: Cid,
        /// Query all resolvers instead of stopping at 20 providers.
        exhaustive: bool,
    },
}

/// One entry of a monitor's Bitswap log (§3 "Bitswap logs").
#[derive(Clone, Debug)]
pub struct BitswapLogEntry {
    /// Virtual timestamp.
    pub ts: SimTime,
    /// Sender peer ID.
    pub peer: PeerId,
    /// Sender socket address as observed on the connection.
    pub addr: SocketAddrV4,
    /// Requested CIDs (non-cancel wantlist entries).
    pub cids: Vec<Cid>,
    /// True for `WantBlock` entries, false for `WantHave` probes.
    pub want_block: bool,
}

/// Node-level events recorded for tests and experiments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeEvent {
    /// Bootstrap completed (self-lookup finished).
    Bootstrapped,
    /// A fetch completed successfully.
    FetchCompleted {
        /// The fetched content.
        cid: Cid,
        /// Where the block came from.
        from: PeerId,
        /// Whether the DHT was needed (false = Bitswap 1-hop was enough).
        via_dht: bool,
    },
    /// A fetch gave up.
    FetchFailed {
        /// The content that could not be retrieved.
        cid: Cid,
    },
    /// A provide operation finished.
    Provided {
        /// The advertised content.
        cid: Cid,
        /// Resolvers that received the record.
        resolvers: usize,
    },
    /// A relay reservation was obtained.
    RelayAcquired {
        /// The relay peer.
        relay: PeerId,
    },
    /// A provider resolution finished (measurement tooling).
    ProvidersResolved {
        /// The resolved content.
        cid: Cid,
        /// Collected provider records.
        records: Vec<kademlia::ProviderRecord>,
        /// Peers contacted during the walk.
        contacted: usize,
        /// Virtual time from command to completion (lookup latency — the
        /// resilience experiments track its degradation under cloud exit).
        elapsed: simnet::Dur,
    },
    /// An HTTP request was answered (gateway side).
    HttpServed {
        /// Correlation id.
        req_id: u64,
        /// Success flag.
        found: bool,
        /// Served from local cache without touching the network.
        cache_hit: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn bitswap_frames_do_not_grow_the_wire_message() {
        // Every queued event carries a `WireMsg` by value. A DHT request
        // holds its sender behind an `Arc` and boxes the rare
        // `AddProvider` record, and a response holds no sender, so the DHT
        // message is 64 B and the Bitswap frame with its sender id is the
        // largest payload (80 B). A frame or a DHT message that grew past
        // these bounds would make every event of every workload larger.
        assert!(size_of::<WireMsg>() <= 88, "{} B", size_of::<WireMsg>());
        assert!(
            size_of::<DhtMessage>() <= 64,
            "{} B",
            size_of::<DhtMessage>()
        );
    }
}
