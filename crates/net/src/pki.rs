//! The regulator-operated PKI and Guillotine-extension certificates.
//!
//! Certificates are deliberately simple: a subject, a validity window, a
//! boolean "this holder is a Guillotine hypervisor" extension (the paper's
//! §3.3 X.509 extension field) and a signature by the issuing regulator. The
//! signature is the same non-cryptographic mixing hash used by the
//! attestation module — sufficient to model forgery detection in the
//! simulator without pulling in a cryptography dependency.

use guillotine_types::{CertId, SimInstant};

fn mix(mut state: u64, data: &[u8]) -> u64 {
    for &b in data {
        state ^= b as u64;
        state = state.wrapping_mul(0x100_0000_01b3);
        state ^= state >> 31;
        state = state.wrapping_mul(0x94d0_49bb_1331_11eb);
        state ^= state >> 27;
    }
    state
}

/// An X.509-style certificate with the Guillotine extension field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Certificate serial number.
    pub id: CertId,
    /// Subject name (e.g. `"guillotine-hv.datacenter-7.example"`).
    pub subject: String,
    /// Issuer name (the regulator CA).
    pub issuer: String,
    /// Subject public key (simulated).
    pub public_key: u64,
    /// The Guillotine extension: true iff the holder is a Guillotine
    /// hypervisor fronting a sandboxed model.
    pub guillotine_hypervisor: bool,
    /// Not-after time.
    pub expires: SimInstant,
    /// Issuer signature over all the above.
    pub signature: u64,
}

impl Certificate {
    fn to_be_signed(&self) -> Vec<u8> {
        format!(
            "{}|{}|{}|{}|{}|{}",
            self.id,
            self.subject,
            self.issuer,
            self.public_key,
            self.guillotine_hypervisor,
            self.expires.as_nanos()
        )
        .into_bytes()
    }
}

/// The AI-regulator certificate authority (§3.5): it issues certificates and
/// marks which holders are Guillotine hypervisors.
#[derive(Debug, Clone)]
pub struct RegulatorCa {
    name: String,
    signing_key: u64,
    next_serial: u32,
    issued: Vec<CertId>,
    revoked: Vec<CertId>,
}

impl RegulatorCa {
    /// Creates a CA with a private signing key.
    pub fn new(name: &str, signing_key: u64) -> Self {
        RegulatorCa {
            name: name.to_string(),
            signing_key,
            next_serial: 1,
            issued: Vec::new(),
            revoked: Vec::new(),
        }
    }

    /// The CA's distinguished name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Issues a certificate for `subject`.
    pub fn issue(
        &mut self,
        subject: &str,
        public_key: u64,
        guillotine_hypervisor: bool,
        expires: SimInstant,
    ) -> Certificate {
        let id = CertId::new(self.next_serial);
        self.next_serial += 1;
        let mut cert = Certificate {
            id,
            subject: subject.to_string(),
            issuer: self.name.clone(),
            public_key,
            guillotine_hypervisor,
            expires,
            signature: 0,
        };
        cert.signature = mix(self.signing_key, &cert.to_be_signed());
        self.issued.push(id);
        cert
    }

    /// Revokes a previously issued certificate.
    pub fn revoke(&mut self, id: CertId) {
        if !self.revoked.contains(&id) {
            self.revoked.push(id);
        }
    }

    /// Returns true if the certificate was issued by this CA, is unexpired at
    /// `now`, is not revoked and its signature verifies.
    pub fn verify(&self, cert: &Certificate, now: SimInstant) -> bool {
        if cert.issuer != self.name {
            return false;
        }
        if self.revoked.contains(&cert.id) {
            return false;
        }
        if now > cert.expires {
            return false;
        }
        mix(self.signing_key, &cert.to_be_signed()) == cert.signature
    }

    /// Number of certificates issued so far.
    pub fn issued_count(&self) -> usize {
        self.issued.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::SimDuration;

    fn later() -> SimInstant {
        SimInstant::ZERO + SimDuration::from_secs(3600)
    }

    #[test]
    fn issued_certificates_verify() {
        let mut ca = RegulatorCa::new("EU AI Office CA", 42);
        let cert = ca.issue("guillotine-hv.dc1", 7, true, later());
        assert!(ca.verify(&cert, SimInstant::ZERO));
        assert!(cert.guillotine_hypervisor);
        assert_eq!(ca.issued_count(), 1);
    }

    #[test]
    fn tampered_certificates_fail() {
        let mut ca = RegulatorCa::new("EU AI Office CA", 42);
        let mut cert = ca.issue("host.example", 7, false, later());
        // An attacker flips the Guillotine bit to masquerade as a plain host.
        cert.guillotine_hypervisor = true;
        assert!(!ca.verify(&cert, SimInstant::ZERO));
    }

    #[test]
    fn certificates_from_other_cas_fail() {
        let mut ca1 = RegulatorCa::new("CA-1", 1);
        let ca2 = RegulatorCa::new("CA-2", 2);
        let cert = ca1.issue("host", 7, false, later());
        assert!(!ca2.verify(&cert, SimInstant::ZERO));
    }

    #[test]
    fn expired_and_revoked_certificates_fail() {
        let mut ca = RegulatorCa::new("CA", 1);
        let cert = ca.issue("host", 7, false, SimInstant::from_nanos(10));
        assert!(!ca.verify(&cert, SimInstant::from_nanos(20)));
        let cert2 = ca.issue("host2", 8, false, later());
        assert!(ca.verify(&cert2, SimInstant::ZERO));
        ca.revoke(cert2.id);
        assert!(!ca.verify(&cert2, SimInstant::ZERO));
    }

    #[test]
    fn forged_signature_fails() {
        let mut ca = RegulatorCa::new("CA", 1);
        let mut cert = ca.issue("host", 7, true, later());
        cert.signature ^= 0xFF;
        assert!(!ca.verify(&cert, SimInstant::ZERO));
    }
}
