//! The concrete IP-metadata databases used by the measurement pipeline.
//!
//! * [`CloudDb`] — maps IPs to hosting/cloud providers, with the same
//!   semantics as the Udger database the paper used: longest-prefix match,
//!   and *absence means non-cloud*;
//! * [`GeoDb`] — maps IPs to ISO country codes (GeoLite2 stand-in);
//! * [`AsnDb`] — maps IPs to autonomous systems;
//! * [`ReverseDnsDb`] — PTR records, used for platform attribution (Fig. 13).

use crate::trie::{Cidr, PrefixTrie};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Interned cloud-provider identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProviderId(pub u16);

/// IP → cloud provider database (Udger stand-in).
#[derive(Clone, Debug, Default)]
pub struct CloudDb {
    trie: PrefixTrie<ProviderId>,
    names: Vec<String>,
    by_name: HashMap<String, ProviderId>,
}

impl CloudDb {
    /// Empty database.
    pub fn new() -> CloudDb {
        CloudDb::default()
    }

    /// Intern a provider name, returning its stable id.
    pub fn intern(&mut self, name: &str) -> ProviderId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = ProviderId(self.names.len() as u16);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Register a CIDR block as belonging to `provider`.
    pub fn add_block(&mut self, provider: &str, cidr: Cidr) -> ProviderId {
        let id = self.intern(provider);
        self.trie.insert(cidr, id);
        id
    }

    /// Longest-prefix lookup. `None` ⇒ the paper's "non-cloud" label.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<ProviderId> {
        self.trie.lookup(ip).copied()
    }

    /// Provider name lookup by interned id.
    pub fn name(&self, id: ProviderId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Provider id for a name, if known.
    pub fn id_of(&self, name: &str) -> Option<ProviderId> {
        self.by_name.get(name).copied()
    }

    /// Number of distinct providers.
    pub fn provider_count(&self) -> usize {
        self.names.len()
    }

    /// Number of registered prefixes.
    pub fn prefix_count(&self) -> usize {
        self.trie.len()
    }
}

/// Two-letter ISO country code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode(pub [u8; 2]);

impl CountryCode {
    /// From a 2-character ASCII code, e.g. `"US"`.
    pub fn new(code: &str) -> CountryCode {
        let b = code.as_bytes();
        assert!(b.len() == 2, "country code must be 2 chars: {code:?}");
        CountryCode([b[0], b[1]])
    }

    /// As a `&str`.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).unwrap_or("??")
    }
}

impl std::fmt::Debug for CountryCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl std::fmt::Display for CountryCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// IP → country database (GeoLite2 stand-in).
#[derive(Clone, Debug, Default)]
pub struct GeoDb {
    trie: PrefixTrie<CountryCode>,
}

impl GeoDb {
    /// Empty database.
    pub fn new() -> GeoDb {
        GeoDb::default()
    }

    /// Register a block as geolocated in `country`.
    pub fn add_block(&mut self, country: CountryCode, cidr: Cidr) {
        self.trie.insert(cidr, country);
    }

    /// Longest-prefix lookup.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<CountryCode> {
        self.trie.lookup(ip).copied()
    }

    /// Number of registered prefixes.
    pub fn prefix_count(&self) -> usize {
        self.trie.len()
    }
}

/// Autonomous system number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

/// IP → ASN database.
#[derive(Clone, Debug, Default)]
pub struct AsnDb {
    trie: PrefixTrie<Asn>,
    orgs: HashMap<Asn, String>,
}

impl AsnDb {
    /// Empty database.
    pub fn new() -> AsnDb {
        AsnDb::default()
    }

    /// Register a block as announced by `asn` / `org`.
    pub fn add_block(&mut self, asn: Asn, org: &str, cidr: Cidr) {
        self.trie.insert(cidr, asn);
        self.orgs.entry(asn).or_insert_with(|| org.to_string());
    }

    /// Longest-prefix lookup.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.trie.lookup(ip).copied()
    }

    /// Organization name for an ASN.
    pub fn org(&self, asn: Asn) -> Option<&str> {
        self.orgs.get(&asn).map(|s| s.as_str())
    }

    /// Number of distinct ASNs.
    pub fn asn_count(&self) -> usize {
        self.orgs.len()
    }
}

/// PTR-record database for reverse DNS lookups.
#[derive(Clone, Debug, Default)]
pub struct ReverseDnsDb {
    records: HashMap<Ipv4Addr, String>,
}

impl ReverseDnsDb {
    /// Empty database.
    pub fn new() -> ReverseDnsDb {
        ReverseDnsDb::default()
    }

    /// Set the PTR record for `ip`.
    pub fn insert(&mut self, ip: Ipv4Addr, hostname: &str) {
        self.records.insert(ip, hostname.to_string());
    }

    /// Look up the hostname for `ip`. Many hosts have no PTR record — the
    /// paper's Fig. 13 has a large "unknown" bucket for exactly this reason.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<&str> {
        self.records.get(&ip).map(|s| s.as_str())
    }

    /// Number of PTR records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// All IP-metadata databases bundled, as handed to the analysis stage.
#[derive(Clone, Debug, Default)]
pub struct IpDatabases {
    /// Cloud provider attribution.
    pub cloud: CloudDb,
    /// Country attribution.
    pub geo: GeoDb,
    /// AS attribution.
    pub asn: AsnDb,
    /// PTR records.
    pub rdns: ReverseDnsDb,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn cloud_lookup_and_absence() {
        let mut db = CloudDb::new();
        let aws = db.add_block("amazon_aws", Cidr::parse("52.0.0.0/8").unwrap());
        db.add_block("choopa", Cidr::parse("45.76.0.0/14").unwrap());
        assert_eq!(db.lookup(ip("52.1.2.3")), Some(aws));
        assert_eq!(db.name(db.lookup(ip("45.77.0.1")).unwrap()), "choopa");
        // Absence from the DB means "non-cloud" downstream.
        assert_eq!(db.lookup(ip("89.0.0.1")), None);
        assert_eq!(db.provider_count(), 2);
        assert_eq!(db.prefix_count(), 2);
    }

    #[test]
    fn interning_is_stable() {
        let mut db = CloudDb::new();
        let a = db.intern("vultr");
        let b = db.intern("vultr");
        assert_eq!(a, b);
        assert_eq!(db.id_of("vultr"), Some(a));
        assert_eq!(db.id_of("nope"), None);
    }

    #[test]
    fn geo_lookup() {
        let mut db = GeoDb::new();
        db.add_block(CountryCode::new("DE"), Cidr::parse("88.0.0.0/8").unwrap());
        db.add_block(CountryCode::new("US"), Cidr::parse("8.0.0.0/8").unwrap());
        assert_eq!(db.lookup(ip("88.1.1.1")).unwrap().as_str(), "DE");
        assert_eq!(db.lookup(ip("8.8.8.8")).unwrap().as_str(), "US");
        assert_eq!(db.lookup(ip("200.1.1.1")), None);
    }

    #[test]
    fn asn_lookup() {
        let mut db = AsnDb::new();
        db.add_block(
            Asn(13335),
            "CLOUDFLARENET",
            Cidr::parse("104.16.0.0/13").unwrap(),
        );
        let got = db.lookup(ip("104.17.1.1")).unwrap();
        assert_eq!(got, Asn(13335));
        assert_eq!(db.org(got), Some("CLOUDFLARENET"));
        assert_eq!(db.asn_count(), 1);
    }

    #[test]
    fn rdns_lookup() {
        let mut db = ReverseDnsDb::new();
        db.insert(ip("52.1.2.3"), "ec2-52-1-2-3.compute-1.amazonaws.com");
        assert!(db
            .lookup(ip("52.1.2.3"))
            .unwrap()
            .ends_with("amazonaws.com"));
        assert_eq!(db.lookup(ip("52.1.2.4")), None);
    }

    #[test]
    fn more_specific_provider_block_wins() {
        // A reseller inside a larger allocation — LPM must pick the reseller.
        let mut db = CloudDb::new();
        db.add_block("big_isp", Cidr::parse("100.0.0.0/8").unwrap());
        let sub = db.add_block("packet_host", Cidr::parse("100.64.0.0/16").unwrap());
        assert_eq!(db.lookup(ip("100.64.3.3")), Some(sub));
        assert_eq!(db.name(db.lookup(ip("100.65.0.1")).unwrap()), "big_isp");
    }
}
