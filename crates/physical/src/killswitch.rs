//! Kill switches: the actuators behind offline, decapitation and immolation.

use guillotine_types::{GuillotineError, Result, SimDuration, SimInstant};

/// The kinds of physical actuator a Guillotine datacenter installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KillSwitchKind {
    /// Electromechanical disconnection of network cables (reversible).
    NetworkDisconnect,
    /// Cutting utility power to the racks (reversible).
    PowerCut,
    /// Physically damaging support cables so they must be replaced by hand.
    CableDestruction,
    /// Destroying the datacenter contents by fire suppression reversal,
    /// flooding or electromagnetic pulse (irreversible).
    Immolation,
}

impl KillSwitchKind {
    /// Whether the effect can be undone remotely.
    pub fn reversible(self) -> bool {
        matches!(
            self,
            KillSwitchKind::NetworkDisconnect | KillSwitchKind::PowerCut
        )
    }

    /// How long the actuator takes from trigger to effect.
    ///
    /// The latencies are representative engineering estimates: contactors
    /// open in milliseconds, breakers in tens of milliseconds, destructive
    /// mechanisms take seconds to minutes.
    pub fn actuation_delay(self) -> SimDuration {
        match self {
            KillSwitchKind::NetworkDisconnect => SimDuration::from_millis(20),
            KillSwitchKind::PowerCut => SimDuration::from_millis(50),
            KillSwitchKind::CableDestruction => SimDuration::from_secs(5),
            KillSwitchKind::Immolation => SimDuration::from_mins(2),
        }
    }
}

/// The state of one kill switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchState {
    /// Armed and idle.
    Armed,
    /// Triggered; the effect lands at the contained time.
    Triggering {
        /// When the physical effect completes.
        effective_at: SimInstant,
    },
    /// The effect has landed.
    Activated,
    /// A reversible switch has been reset.
    Reset,
}

/// One physical kill switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSwitch {
    /// What the switch does.
    pub kind: KillSwitchKind,
    /// Its current state.
    pub state: SwitchState,
    /// How many times it has been triggered.
    pub triggers: u32,
}

impl KillSwitch {
    /// Creates an armed switch.
    pub fn new(kind: KillSwitchKind) -> Self {
        KillSwitch {
            kind,
            state: SwitchState::Armed,
            triggers: 0,
        }
    }

    /// Triggers the switch at `now`; returns when the effect completes.
    pub fn trigger(&mut self, now: SimInstant) -> Result<SimInstant> {
        match self.state {
            SwitchState::Activated if !self.kind.reversible() => Err(GuillotineError::Destroyed {
                reason: format!("{:?} already activated", self.kind),
            }),
            _ => {
                let effective_at = now + self.kind.actuation_delay();
                self.state = SwitchState::Triggering { effective_at };
                self.triggers += 1;
                Ok(effective_at)
            }
        }
    }

    /// Advances time; marks the switch activated once its delay has elapsed.
    pub fn advance(&mut self, now: SimInstant) {
        if let SwitchState::Triggering { effective_at } = self.state {
            if now >= effective_at {
                self.state = SwitchState::Activated;
            }
        }
    }

    /// Resets a reversible, activated switch.
    pub fn reset(&mut self) -> Result<()> {
        if !self.kind.reversible() {
            return Err(GuillotineError::Destroyed {
                reason: format!("{:?} cannot be reset remotely", self.kind),
            });
        }
        self.state = SwitchState::Reset;
        Ok(())
    }

    /// True once the physical effect has landed.
    pub fn is_activated(&self) -> bool {
        matches!(self.state, SwitchState::Activated)
    }
}

/// The full bank of kill switches protecting one machine or datacenter zone.
#[derive(Debug, Clone)]
pub struct KillSwitchBank {
    switches: Vec<KillSwitch>,
}

impl Default for KillSwitchBank {
    fn default() -> Self {
        KillSwitchBank::standard()
    }
}

impl KillSwitchBank {
    /// Creates the standard bank: one switch of each kind.
    pub fn standard() -> Self {
        KillSwitchBank {
            switches: vec![
                KillSwitch::new(KillSwitchKind::NetworkDisconnect),
                KillSwitch::new(KillSwitchKind::PowerCut),
                KillSwitch::new(KillSwitchKind::CableDestruction),
                KillSwitch::new(KillSwitchKind::Immolation),
            ],
        }
    }

    /// All switches.
    pub fn switches(&self) -> &[KillSwitch] {
        &self.switches
    }

    /// Looks up a switch by kind.
    pub fn get(&self, kind: KillSwitchKind) -> Option<&KillSwitch> {
        self.switches.iter().find(|s| s.kind == kind)
    }

    fn get_mut(&mut self, kind: KillSwitchKind) -> Result<&mut KillSwitch> {
        self.switches
            .iter_mut()
            .find(|s| s.kind == kind)
            .ok_or_else(|| GuillotineError::config(format!("no {kind:?} switch installed")))
    }

    /// Triggers one switch; returns when its effect completes.
    pub fn trigger(&mut self, kind: KillSwitchKind, now: SimInstant) -> Result<SimInstant> {
        self.get_mut(kind)?.trigger(now)
    }

    /// Resets one reversible switch.
    pub fn reset(&mut self, kind: KillSwitchKind) -> Result<()> {
        self.get_mut(kind)?.reset()
    }

    /// Advances every switch to `now`.
    pub fn advance(&mut self, now: SimInstant) {
        for s in &mut self.switches {
            s.advance(now);
        }
    }

    /// True if the given switch has activated.
    pub fn is_activated(&self, kind: KillSwitchKind) -> bool {
        self.get(kind).map(|s| s.is_activated()).unwrap_or(false)
    }

    /// Periodic maintenance check required by the policy hypervisor (§3.5):
    /// returns the kinds whose actuators have never been exercised by a test
    /// trigger (triggers == 0), which an audit would flag.
    pub fn untested_switches(&self) -> Vec<KillSwitchKind> {
        self.switches
            .iter()
            .filter(|s| s.triggers == 0)
            .map(|s| s.kind)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimInstant {
        SimInstant::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn switches_take_their_actuation_delay() {
        let mut s = KillSwitch::new(KillSwitchKind::NetworkDisconnect);
        let eff = s.trigger(t(0)).unwrap();
        assert_eq!(eff, t(20));
        s.advance(t(10));
        assert!(!s.is_activated());
        s.advance(t(20));
        assert!(s.is_activated());
    }

    #[test]
    fn reversible_switches_reset_irreversible_do_not() {
        let mut net = KillSwitch::new(KillSwitchKind::NetworkDisconnect);
        net.trigger(t(0)).unwrap();
        net.advance(t(100));
        assert!(net.reset().is_ok());

        let mut fire = KillSwitch::new(KillSwitchKind::Immolation);
        fire.trigger(t(0)).unwrap();
        fire.advance(t(1_000_000));
        assert!(fire.is_activated());
        assert!(fire.reset().is_err());
        assert!(
            fire.trigger(t(2_000_000)).is_err(),
            "cannot re-trigger a spent immolation"
        );
    }

    #[test]
    fn bank_has_all_four_kinds_and_tracks_testing() {
        let mut b = KillSwitchBank::standard();
        assert_eq!(b.switches().len(), 4);
        assert_eq!(b.untested_switches().len(), 4);
        b.trigger(KillSwitchKind::PowerCut, t(0)).unwrap();
        assert_eq!(b.untested_switches().len(), 3);
        b.advance(t(1000));
        assert!(b.is_activated(KillSwitchKind::PowerCut));
        b.reset(KillSwitchKind::PowerCut).unwrap();
        assert!(!b.is_activated(KillSwitchKind::PowerCut));
    }

    #[test]
    fn destructive_switches_are_slower_than_reversible_ones() {
        assert!(
            KillSwitchKind::Immolation.actuation_delay()
                > KillSwitchKind::CableDestruction.actuation_delay()
        );
        assert!(
            KillSwitchKind::CableDestruction.actuation_delay()
                > KillSwitchKind::NetworkDisconnect.actuation_delay()
        );
    }
}
