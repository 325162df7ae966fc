//! # dnslink — DNS substrate and DNSLink measurement pipeline
//!
//! A faithful miniature of the paper's §3 DNS methodology: an authoritative
//! zone database with NXDOMAIN/NODATA semantics and CNAME/ALIAS chasing, a
//! zdns-style scanner (SOA filter → `_dnslink` TXT probe → A follow-up),
//! RFC-1464 DNSLink parsing, and a passive-DNS observation feed standing in
//! for SIE Europe.

#![forbid(unsafe_code)]

pub mod link;
pub mod records;
pub mod scanner;

pub use link::{format_ipfs_dnslink, parse_dnslink, DnslinkEntry};
pub use records::{DnsAnswer, DnsRecord, DnsZoneDb, RecordType};
pub use scanner::{
    root_domain, DnslinkFinding, PassiveDnsFeed, PdnsObservation, ScanStats, ZdnsScanner,
    PUBLIC_SUFFIXES,
};
