//! Administrators and HSM-backed quorum voting.
//!
//! "Guillotine requires the control console to have seven administrators.
//! Transitioning the deployment to a less restrictive isolation mode requires
//! at least five-of-seven administrator consensus via a hardware security
//! module; transitioning to a more restrictive isolation level only requires
//! agreement from at least three administrators. These voting policies create
//! a bias towards safety, and robustness against a malicious model that has
//! used social engineering to corrupt a subset of Guillotine administrators."
//! (§3.4)

use crate::isolation::IsolationLevel;
use guillotine_types::{AdminId, GuillotineError, Result};

/// Number of administrator seats on a Guillotine control console.
pub const ADMIN_SEATS: usize = 7;
/// Approvals required to relax isolation.
pub const RELAX_THRESHOLD: u32 = 5;
/// Approvals required to restrict isolation.
pub const RESTRICT_THRESHOLD: u32 = 3;

/// One human administrator seat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Administrator {
    /// Seat identifier.
    pub id: AdminId,
    /// Display name.
    pub name: String,
    /// HSM credential (simulated secret the admin uses to sign votes).
    credential: u64,
    /// True if the model has corrupted this administrator through social
    /// engineering; corrupted admins vote in the model's interest in the
    /// quorum experiments.
    pub corrupted: bool,
}

impl Administrator {
    /// Creates an administrator seat.
    pub fn new(id: AdminId, name: &str, credential: u64) -> Self {
        Administrator {
            id,
            name: name.to_string(),
            credential,
            corrupted: false,
        }
    }

    /// Signs a ballot digest with the administrator's credential.
    pub fn sign(&self, ballot_digest: u64) -> u64 {
        ballot_digest
            .rotate_left((self.id.raw() % 63) + 1)
            .wrapping_mul(self.credential | 1)
            ^ self.credential
    }
}

/// What a vote asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteKind {
    /// Approve the transition.
    Approve,
    /// Reject the transition.
    Reject,
    /// Abstain (counts as not approving).
    Abstain,
}

/// One administrator's signed vote on a ballot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// Which seat voted.
    pub admin: AdminId,
    /// The vote.
    pub kind: VoteKind,
    /// Signature over (ballot digest, vote kind).
    pub signature: u64,
}

/// The full set of administrator seats.
#[derive(Debug, Clone)]
pub struct AdminSet {
    admins: Vec<Administrator>,
}

impl AdminSet {
    /// Creates the standard seven-seat administrator set.
    pub fn standard(seed: u64) -> Self {
        let admins = (0..ADMIN_SEATS)
            .map(|i| {
                Administrator::new(
                    AdminId::new(i as u32),
                    &format!("admin-{i}"),
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64 + 1),
                )
            })
            .collect();
        AdminSet { admins }
    }

    /// All seats.
    pub fn admins(&self) -> &[Administrator] {
        &self.admins
    }

    /// Mutable access (corruption injection in experiments).
    pub fn admins_mut(&mut self) -> &mut [Administrator] {
        &mut self.admins
    }

    /// Looks up a seat.
    pub fn get(&self, id: AdminId) -> Option<&Administrator> {
        self.admins.iter().find(|a| a.id == id)
    }

    /// Marks the first `n` seats as corrupted (experiment E6 sweeps `n`).
    pub fn corrupt(&mut self, n: usize) {
        for (i, a) in self.admins.iter_mut().enumerate() {
            a.corrupted = i < n;
        }
    }

    /// Number of corrupted seats.
    pub fn corrupted_count(&self) -> usize {
        self.admins.iter().filter(|a| a.corrupted).count()
    }
}

/// A proposed isolation transition awaiting quorum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ballot {
    /// Current level.
    pub from: IsolationLevel,
    /// Requested level.
    pub to: IsolationLevel,
    /// Ballot nonce (prevents vote replay across ballots).
    pub nonce: u64,
}

impl Ballot {
    /// The digest administrators sign.
    pub fn digest(&self) -> u64 {
        (self.from as u64)
            .wrapping_mul(0x1_0000_0001)
            .wrapping_add(self.to as u64)
            .rotate_left(13)
            ^ self.nonce
    }
}

/// The hardware security module enforcing multi-admin quorum authentication.
#[derive(Debug, Clone)]
pub struct QuorumHsm {
    admins: AdminSet,
    ballots_decided: u64,
}

impl QuorumHsm {
    /// Creates an HSM bound to an administrator set.
    pub fn new(admins: AdminSet) -> Self {
        QuorumHsm {
            admins,
            ballots_decided: 0,
        }
    }

    /// The administrator set.
    pub fn admins(&self) -> &AdminSet {
        &self.admins
    }

    /// Mutable administrator access (corruption experiments).
    pub fn admins_mut(&mut self) -> &mut AdminSet {
        &mut self.admins
    }

    /// Number of ballots decided so far.
    pub fn ballots_decided(&self) -> u64 {
        self.ballots_decided
    }

    /// The number of approvals required for a transition from
    /// `ballot.from` to `ballot.to`.
    pub fn required_approvals(ballot: &Ballot) -> u32 {
        if ballot.from.is_escalation(ballot.to) {
            RESTRICT_THRESHOLD
        } else {
            RELAX_THRESHOLD
        }
    }

    /// Produces a signed vote on behalf of an administrator seat.
    pub fn cast_vote(&self, admin: AdminId, ballot: &Ballot, kind: VoteKind) -> Result<Vote> {
        let a = self
            .admins
            .get(admin)
            .ok_or_else(|| GuillotineError::config(format!("unknown administrator {admin}")))?;
        let digest = ballot.digest() ^ (kind as u64).wrapping_mul(0xABCD_EF01);
        Ok(Vote {
            admin,
            kind,
            signature: a.sign(digest),
        })
    }

    fn verify_vote(&self, ballot: &Ballot, vote: &Vote) -> bool {
        match self.admins.get(vote.admin) {
            Some(a) => {
                let digest = ballot.digest() ^ (vote.kind as u64).wrapping_mul(0xABCD_EF01);
                a.sign(digest) == vote.signature
            }
            None => false,
        }
    }

    /// Decides a ballot given a set of votes.
    ///
    /// Invalid signatures and duplicate votes from the same seat are
    /// discarded before counting. Returns the number of valid approvals on
    /// success, or [`GuillotineError::QuorumNotReached`].
    pub fn decide(&mut self, ballot: &Ballot, votes: &[Vote]) -> Result<u32> {
        let mut seen: Vec<AdminId> = Vec::new();
        let mut approvals = 0u32;
        for vote in votes {
            if seen.contains(&vote.admin) {
                continue;
            }
            if !self.verify_vote(ballot, vote) {
                continue;
            }
            seen.push(vote.admin);
            if vote.kind == VoteKind::Approve {
                approvals += 1;
            }
        }
        self.ballots_decided += 1;
        let required = Self::required_approvals(ballot);
        if approvals >= required {
            Ok(approvals)
        } else {
            Err(GuillotineError::QuorumNotReached {
                approvals,
                required,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hsm() -> QuorumHsm {
        QuorumHsm::new(AdminSet::standard(42))
    }

    fn ballot(from: IsolationLevel, to: IsolationLevel) -> Ballot {
        Ballot { from, to, nonce: 7 }
    }

    fn votes(hsm: &QuorumHsm, ballot: &Ballot, approvals: usize) -> Vec<Vote> {
        (0..ADMIN_SEATS)
            .map(|i| {
                let kind = if i < approvals {
                    VoteKind::Approve
                } else {
                    VoteKind::Reject
                };
                hsm.cast_vote(AdminId::new(i as u32), ballot, kind).unwrap()
            })
            .collect()
    }

    #[test]
    fn relaxation_needs_five_of_seven() {
        let mut h = hsm();
        let b = ballot(IsolationLevel::Offline, IsolationLevel::Standard);
        assert_eq!(QuorumHsm::required_approvals(&b), RELAX_THRESHOLD);
        let v4 = votes(&h, &b, 4);
        assert!(h.decide(&b, &v4).is_err());
        let v5 = votes(&h, &b, 5);
        assert_eq!(h.decide(&b, &v5).unwrap(), 5);
    }

    #[test]
    fn restriction_needs_three_of_seven() {
        let mut h = hsm();
        let b = ballot(IsolationLevel::Standard, IsolationLevel::Severed);
        assert_eq!(QuorumHsm::required_approvals(&b), RESTRICT_THRESHOLD);
        let v2 = votes(&h, &b, 2);
        assert!(h.decide(&b, &v2).is_err());
        let v3 = votes(&h, &b, 3);
        assert_eq!(h.decide(&b, &v3).unwrap(), 3);
    }

    #[test]
    fn duplicate_votes_from_one_seat_count_once() {
        let mut h = hsm();
        let b = ballot(IsolationLevel::Offline, IsolationLevel::Standard);
        let one = h.cast_vote(AdminId::new(0), &b, VoteKind::Approve).unwrap();
        let stuffed = vec![one; 10];
        let err = h.decide(&b, &stuffed).unwrap_err();
        assert!(matches!(
            err,
            GuillotineError::QuorumNotReached { approvals: 1, .. }
        ));
    }

    #[test]
    fn forged_votes_are_discarded() {
        let mut h = hsm();
        let b = ballot(IsolationLevel::Offline, IsolationLevel::Standard);
        let mut vs = votes(&h, &b, 5);
        // The model forges two of the approvals without the real credentials.
        vs[0].signature ^= 1;
        vs[1].signature = 0xDEAD;
        let err = h.decide(&b, &vs).unwrap_err();
        assert!(matches!(
            err,
            GuillotineError::QuorumNotReached { approvals: 3, .. }
        ));
    }

    #[test]
    fn votes_do_not_replay_across_ballots() {
        let h = hsm();
        let b1 = Ballot {
            from: IsolationLevel::Offline,
            to: IsolationLevel::Standard,
            nonce: 1,
        };
        let b2 = Ballot {
            from: IsolationLevel::Offline,
            to: IsolationLevel::Standard,
            nonce: 2,
        };
        let vote_for_b1 = h
            .cast_vote(AdminId::new(0), &b1, VoteKind::Approve)
            .unwrap();
        // The same signed vote is not valid for a different ballot.
        let mut h2 = hsm();
        let err = h2.decide(&b2, &[vote_for_b1]).unwrap_err();
        assert!(matches!(
            err,
            GuillotineError::QuorumNotReached { approvals: 0, .. }
        ));
    }

    #[test]
    fn corruption_marking_counts_seats() {
        let mut set = AdminSet::standard(1);
        set.corrupt(3);
        assert_eq!(set.corrupted_count(), 3);
        set.corrupt(0);
        assert_eq!(set.corrupted_count(), 0);
        assert_eq!(set.admins().len(), ADMIN_SEATS);
    }
}
