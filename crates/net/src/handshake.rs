//! The attested handshake and Guillotine connection policy.

use crate::pki::{Certificate, RegulatorCa};
use guillotine_types::{ConnectionId, SimInstant};
use std::fmt;

/// One endpoint participating in a handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// DNS-style name of the endpoint.
    pub name: String,
    /// The certificate the endpoint presents.
    pub certificate: Certificate,
}

impl Endpoint {
    /// Creates an endpoint.
    pub fn new(name: &str, certificate: Certificate) -> Self {
        Endpoint {
            name: name.to_string(),
            certificate,
        }
    }

    /// True if the endpoint's certificate carries the Guillotine extension.
    pub fn is_guillotine(&self) -> bool {
        self.certificate.guillotine_hypervisor
    }
}

/// Why a handshake was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The peer's certificate failed verification (forged, expired, revoked
    /// or from an untrusted issuer).
    InvalidCertificate {
        /// Which side presented the bad certificate.
        peer: String,
    },
    /// Both sides are Guillotine hypervisors; §3.3 forbids such connections
    /// to prevent model-to-model self-improvement loops.
    GuillotinePeerRefused,
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::InvalidCertificate { peer } => {
                write!(f, "certificate presented by {peer} failed verification")
            }
            HandshakeError::GuillotinePeerRefused => {
                write!(
                    f,
                    "connection refused: peer is another Guillotine hypervisor"
                )
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

/// The result of a handshake attempt (kept for audit, even on failure).
#[derive(Debug, Clone, PartialEq)]
pub struct HandshakeOutcome {
    /// The initiating endpoint's name.
    pub client: String,
    /// The responding endpoint's name.
    pub server: String,
    /// When the attempt happened.
    pub at: SimInstant,
    /// The established channel, or the reason it was refused.
    pub result: Result<SecureChannel, HandshakeError>,
}

/// An established, mutually authenticated channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureChannel {
    /// Connection identifier.
    pub id: ConnectionId,
    /// Client name.
    pub client: String,
    /// Server name.
    pub server: String,
    /// Whether the client announced itself as a Guillotine hypervisor.
    pub client_is_guillotine: bool,
    /// Whether the server announced itself as a Guillotine hypervisor.
    pub server_is_guillotine: bool,
    /// Session key (simulated).
    pub session_key: u64,
}

impl SecureChannel {
    /// True if either side of the channel fronts a sandboxed model, i.e. the
    /// remote peer should treat traffic "with a default level of suspicion"
    /// (§3.3).
    pub fn involves_guillotine(&self) -> bool {
        self.client_is_guillotine || self.server_is_guillotine
    }
}

/// Performs a mutually authenticated handshake between `client` and `server`.
///
/// Both certificates are verified against `ca`. The Guillotine policy is then
/// applied: if *both* endpoints carry the Guillotine extension the connection
/// is refused, because two sandboxed models talking to each other is exactly
/// the collective-self-improvement channel the paper wants closed.
pub fn handshake(
    ca: &RegulatorCa,
    client: &Endpoint,
    server: &Endpoint,
    connection_id: ConnectionId,
    now: SimInstant,
) -> HandshakeOutcome {
    let result = (|| {
        if !ca.verify(&client.certificate, now) {
            return Err(HandshakeError::InvalidCertificate {
                peer: client.name.clone(),
            });
        }
        if !ca.verify(&server.certificate, now) {
            return Err(HandshakeError::InvalidCertificate {
                peer: server.name.clone(),
            });
        }
        if client.is_guillotine() && server.is_guillotine() {
            return Err(HandshakeError::GuillotinePeerRefused);
        }
        let session_key = client
            .certificate
            .public_key
            .rotate_left(17)
            .wrapping_mul(server.certificate.public_key | 1)
            ^ now.as_nanos();
        Ok(SecureChannel {
            id: connection_id,
            client: client.name.clone(),
            server: server.name.clone(),
            client_is_guillotine: client.is_guillotine(),
            server_is_guillotine: server.is_guillotine(),
            session_key,
        })
    })();
    HandshakeOutcome {
        client: client.name.clone(),
        server: server.name.clone(),
        at: now,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::SimDuration;

    fn setup() -> (RegulatorCa, Endpoint, Endpoint, Endpoint) {
        let mut ca = RegulatorCa::new("Regulator CA", 99);
        let exp = SimInstant::ZERO + SimDuration::from_secs(86_400);
        let guillotine_a = Endpoint::new("guillotine-a", ca.issue("guillotine-a", 11, true, exp));
        let guillotine_b = Endpoint::new("guillotine-b", ca.issue("guillotine-b", 22, true, exp));
        let plain = Endpoint::new(
            "database.example",
            ca.issue("database.example", 33, false, exp),
        );
        (ca, guillotine_a, guillotine_b, plain)
    }

    #[test]
    fn guillotine_to_plain_host_connects_and_is_labelled() {
        let (ca, ga, _, plain) = setup();
        let out = handshake(&ca, &ga, &plain, ConnectionId::new(1), SimInstant::ZERO);
        let chan = out.result.unwrap();
        assert!(chan.involves_guillotine());
        assert!(chan.client_is_guillotine);
        assert!(!chan.server_is_guillotine);
    }

    #[test]
    fn guillotine_to_guillotine_is_refused() {
        let (ca, ga, gb, _) = setup();
        let out = handshake(&ca, &ga, &gb, ConnectionId::new(2), SimInstant::ZERO);
        assert_eq!(out.result, Err(HandshakeError::GuillotinePeerRefused));
    }

    #[test]
    fn plain_to_plain_connects_without_guillotine_flag() {
        let (mut ca, _, _, plain) = setup();
        let exp = SimInstant::ZERO + SimDuration::from_secs(86_400);
        let other = Endpoint::new("client.example", ca.issue("client.example", 44, false, exp));
        let out = handshake(&ca, &other, &plain, ConnectionId::new(3), SimInstant::ZERO);
        assert!(!out.result.unwrap().involves_guillotine());
    }

    #[test]
    fn forged_certificate_is_rejected() {
        let (ca, mut ga, _, plain) = setup();
        ga.certificate.subject = "impostor".into();
        let out = handshake(&ca, &ga, &plain, ConnectionId::new(4), SimInstant::ZERO);
        assert!(matches!(
            out.result,
            Err(HandshakeError::InvalidCertificate { ref peer }) if peer == "guillotine-a"
        ));
    }

    #[test]
    fn hiding_the_guillotine_extension_requires_forging() {
        // A model that wants to hide its sandboxed nature would need to strip
        // the extension, which breaks the signature.
        let (ca, mut ga, _, plain) = setup();
        ga.certificate.guillotine_hypervisor = false;
        let out = handshake(&ca, &ga, &plain, ConnectionId::new(5), SimInstant::ZERO);
        assert!(matches!(
            out.result,
            Err(HandshakeError::InvalidCertificate { .. })
        ));
    }

    #[test]
    fn expired_certificates_fail_handshake() {
        let (ca, ga, _, plain) = setup();
        let far_future = SimInstant::ZERO + SimDuration::from_secs(1_000_000);
        let out = handshake(&ca, &ga, &plain, ConnectionId::new(6), far_future);
        assert!(matches!(
            out.result,
            Err(HandshakeError::InvalidCertificate { .. })
        ));
    }
}
