//! Multiaddresses — libp2p's self-describing network addresses.
//!
//! Provider records store multiaddrs such as
//! `/ip4/1.10.20.30/tcp/29087/p2p/Qm…` or, for NAT-ed providers publishing
//! through a relay, `/ip4/<relay ip>/tcp/4001/p2p/<relay id>/p2p-circuit/p2p/<peer id>`.
//! The measurement pipeline parses these to classify providers (§6 of the
//! paper), so the codec here is a faithful text-form implementation.

use crate::base::DecodeError;
use crate::peer::PeerId;
use std::net::{Ipv4Addr, Ipv6Addr};

/// One protocol component of a multiaddr.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Proto {
    /// `/ip4/a.b.c.d`
    Ip4(Ipv4Addr),
    /// `/ip6/::1`
    Ip6(Ipv6Addr),
    /// `/dns4/example.com`
    Dns4(String),
    /// `/tcp/4001`
    Tcp(u16),
    /// `/udp/4001`
    Udp(u16),
    /// `/quic-v1`
    QuicV1,
    /// `/p2p/<peer id>` (also accepts the legacy `ipfs` label when parsing)
    P2p(PeerId),
    /// `/p2p-circuit` — relayed hop marker
    P2pCircuit,
}

/// A parsed multiaddress: a non-empty stack of protocol components.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Multiaddr(pub Vec<Proto>);

impl Multiaddr {
    /// Shorthand for the common `/ip4/<ip>/tcp/<port>` shape.
    pub fn ip4_tcp(ip: Ipv4Addr, port: u16) -> Multiaddr {
        Multiaddr(vec![Proto::Ip4(ip), Proto::Tcp(port)])
    }

    /// Shorthand for `/ip4/<ip>/tcp/<port>/p2p/<id>`.
    pub fn ip4_tcp_p2p(ip: Ipv4Addr, port: u16, id: PeerId) -> Multiaddr {
        Multiaddr(vec![Proto::Ip4(ip), Proto::Tcp(port), Proto::P2p(id)])
    }

    /// A circuit-relay address: `/ip4/<relay ip>/tcp/<port>/p2p/<relay>/p2p-circuit/p2p/<target>`.
    pub fn circuit(relay_ip: Ipv4Addr, port: u16, relay: PeerId, target: PeerId) -> Multiaddr {
        Multiaddr(vec![
            Proto::Ip4(relay_ip),
            Proto::Tcp(port),
            Proto::P2p(relay),
            Proto::P2pCircuit,
            Proto::P2p(target),
        ])
    }

    /// First IPv4 component, if any. For circuit addresses this is the
    /// *relay's* IP — exactly the subtlety the paper's provider
    /// classification has to deal with.
    pub fn ip4(&self) -> Option<Ipv4Addr> {
        self.0.iter().find_map(|p| match p {
            Proto::Ip4(ip) => Some(*ip),
            _ => None,
        })
    }

    /// Whether this address goes through a relay.
    pub fn is_circuit(&self) -> bool {
        self.0.iter().any(|p| matches!(p, Proto::P2pCircuit))
    }

    /// The relay peer for a circuit address: the `p2p` component *before* the
    /// `p2p-circuit` marker.
    pub fn relay_peer(&self) -> Option<PeerId> {
        let pos = self.0.iter().position(|p| matches!(p, Proto::P2pCircuit))?;
        self.0[..pos].iter().rev().find_map(|p| match p {
            Proto::P2p(id) => Some(*id),
            _ => None,
        })
    }

    /// The terminal peer this address points at (last `p2p` component).
    pub fn target_peer(&self) -> Option<PeerId> {
        self.0.iter().rev().find_map(|p| match p {
            Proto::P2p(id) => Some(*id),
            _ => None,
        })
    }

    /// Append a component.
    pub fn with(mut self, p: Proto) -> Multiaddr {
        self.0.push(p);
        self
    }

    /// Parse a text multiaddr.
    pub fn parse(s: &str) -> Result<Multiaddr, DecodeError> {
        let mut parts = s.split('/');
        match parts.next() {
            Some("") => {}
            _ => return Err(DecodeError::InvalidLength),
        }
        let mut protos = Vec::new();
        while let Some(label) = parts.next() {
            if label.is_empty() {
                return Err(DecodeError::InvalidLength);
            }
            let mut arg = |tag: char| parts.next().ok_or(DecodeError::InvalidChar(tag));
            match label {
                "ip4" => {
                    let a = arg('4')?;
                    protos.push(Proto::Ip4(
                        a.parse().map_err(|_| DecodeError::InvalidChar('4'))?,
                    ));
                }
                "ip6" => {
                    let a = arg('6')?;
                    protos.push(Proto::Ip6(
                        a.parse().map_err(|_| DecodeError::InvalidChar('6'))?,
                    ));
                }
                "dns4" => protos.push(Proto::Dns4(arg('d')?.to_string())),
                "tcp" => {
                    let a = arg('t')?;
                    protos.push(Proto::Tcp(
                        a.parse().map_err(|_| DecodeError::InvalidChar('t'))?,
                    ));
                }
                "udp" => {
                    let a = arg('u')?;
                    protos.push(Proto::Udp(
                        a.parse().map_err(|_| DecodeError::InvalidChar('u'))?,
                    ));
                }
                "quic-v1" => protos.push(Proto::QuicV1),
                "p2p" | "ipfs" => {
                    let a = arg('p')?;
                    let bytes = crate::base::base58btc_decode(a)?;
                    let mh = crate::cid::Multihash::from_bytes(&bytes)?;
                    protos.push(Proto::P2p(PeerId(crate::key::Key256(mh.0))));
                }
                "p2p-circuit" => protos.push(Proto::P2pCircuit),
                _ => return Err(DecodeError::InvalidChar('?')),
            }
        }
        if protos.is_empty() {
            return Err(DecodeError::InvalidLength);
        }
        Ok(Multiaddr(protos))
    }
}

impl std::fmt::Display for Multiaddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for p in &self.0 {
            match p {
                Proto::Ip4(ip) => write!(f, "/ip4/{ip}")?,
                Proto::Ip6(ip) => write!(f, "/ip6/{ip}")?,
                Proto::Dns4(d) => write!(f, "/dns4/{d}")?,
                Proto::Tcp(p) => write!(f, "/tcp/{p}")?,
                Proto::Udp(p) => write!(f, "/udp/{p}")?,
                Proto::QuicV1 => write!(f, "/quic-v1")?,
                Proto::P2p(id) => write!(f, "/p2p/{}", id.to_base58())?,
                Proto::P2pCircuit => write!(f, "/p2p-circuit")?,
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Multiaddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Multiaddr({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_plain() {
        let s = "/ip4/1.10.20.30/tcp/29087";
        let ma = Multiaddr::parse(s).unwrap();
        assert_eq!(ma.to_string(), s);
        assert_eq!(ma.ip4(), Some(Ipv4Addr::new(1, 10, 20, 30)));
        assert!(!ma.is_circuit());
    }

    #[test]
    fn parse_roundtrip_p2p() {
        let id = PeerId::from_seed(3);
        let s = format!("/ip4/10.0.0.1/tcp/4001/p2p/{}", id.to_base58());
        let ma = Multiaddr::parse(&s).unwrap();
        assert_eq!(ma.to_string(), s);
        assert_eq!(ma.target_peer(), Some(id));
    }

    #[test]
    fn legacy_ipfs_label_accepted() {
        let id = PeerId::from_seed(4);
        let s = format!("/ip4/10.0.0.1/tcp/4001/ipfs/{}", id.to_base58());
        let ma = Multiaddr::parse(&s).unwrap();
        assert_eq!(ma.target_peer(), Some(id));
        // Canonical form re-serializes with the modern label.
        assert!(ma.to_string().contains("/p2p/"));
    }

    #[test]
    fn circuit_semantics() {
        let relay = PeerId::from_seed(10);
        let target = PeerId::from_seed(11);
        let ma = Multiaddr::circuit(Ipv4Addr::new(5, 6, 7, 8), 4001, relay, target);
        assert!(ma.is_circuit());
        assert_eq!(ma.relay_peer(), Some(relay));
        assert_eq!(ma.target_peer(), Some(target));
        // The only IP visible in the record is the relay's.
        assert_eq!(ma.ip4(), Some(Ipv4Addr::new(5, 6, 7, 8)));
        let back = Multiaddr::parse(&ma.to_string()).unwrap();
        assert_eq!(back, ma);
    }

    #[test]
    fn parse_errors() {
        assert!(Multiaddr::parse("").is_err());
        assert!(Multiaddr::parse("ip4/1.2.3.4").is_err());
        assert!(Multiaddr::parse("/ip4/999.2.3.4").is_err());
        assert!(Multiaddr::parse("/tcp/notaport").is_err());
        assert!(Multiaddr::parse("/frobnicate/1").is_err());
        assert!(Multiaddr::parse("/ip4").is_err());
    }

    #[test]
    fn quic_and_dns() {
        let s = "/dns4/gateway.ipfs.example/udp/443/quic-v1";
        let ma = Multiaddr::parse(s).unwrap();
        assert_eq!(ma.to_string(), s);
        assert_eq!(ma.ip4(), None);
    }
}
