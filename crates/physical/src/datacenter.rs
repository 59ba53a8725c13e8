//! The datacenter's physical support inventory.
//!
//! Figure 1 of the paper places the whole Guillotine deployment inside a
//! datacenter with "physical support (electricity, HVAC, etc.)" and physical
//! support cables. The datacenter model tracks that inventory so that
//! immolation has something concrete to destroy and so the policy layer's
//! in-person audits (§3.5) have something concrete to inspect.

use guillotine_types::{GuillotineError, MachineId, Result, SimInstant};
use std::collections::BTreeMap;

/// The operational status of the datacenter (or one of its zones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatacenterStatus {
    /// Everything nominal.
    Operational,
    /// Utility power has been cut (reversible).
    PowerCut,
    /// The zone has been flooded; equipment is destroyed.
    Flooded,
    /// The zone has been burned; equipment is destroyed.
    Burned,
    /// The zone was hit with an electromagnetic pulse; electronics destroyed.
    Pulsed,
}

impl DatacenterStatus {
    /// True if the equipment in the zone still exists.
    pub fn equipment_intact(self) -> bool {
        matches!(
            self,
            DatacenterStatus::Operational | DatacenterStatus::PowerCut
        )
    }
}

/// Per-machine physical plant records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachinePlant {
    /// Number of network cables to the machine.
    pub network_cables: u32,
    /// Number of power feeds.
    pub power_feeds: u32,
    /// Whether the cables are currently intact.
    pub cables_intact: bool,
    /// Whether the machine hardware is intact.
    pub hardware_intact: bool,
}

impl Default for MachinePlant {
    fn default() -> Self {
        MachinePlant {
            network_cables: 2,
            power_feeds: 2,
            cables_intact: true,
            hardware_intact: true,
        }
    }
}

/// The physical datacenter hosting a Guillotine deployment.
#[derive(Debug, Clone)]
pub struct Datacenter {
    name: String,
    status: DatacenterStatus,
    hvac_operational: bool,
    machines: BTreeMap<MachineId, MachinePlant>,
    destruction_time: Option<SimInstant>,
}

impl Datacenter {
    /// Creates an operational datacenter.
    pub fn new(name: &str) -> Self {
        Datacenter {
            name: name.to_string(),
            status: DatacenterStatus::Operational,
            hvac_operational: true,
            machines: BTreeMap::new(),
            destruction_time: None,
        }
    }

    /// The datacenter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The overall status.
    pub fn status(&self) -> DatacenterStatus {
        self.status
    }

    /// Whether HVAC is running (models overheat-forced shutdown paths).
    pub fn hvac_operational(&self) -> bool {
        self.hvac_operational
    }

    /// Adds a machine's plant records.
    pub fn add_machine(&mut self, machine: MachineId) {
        self.machines.entry(machine).or_default();
    }

    /// Hosts a machine with the given plant records (replacing any it had):
    /// how a multi-machine view is assembled from plants managed elsewhere.
    pub fn host(&mut self, machine: MachineId, plant: MachinePlant) {
        self.machines.insert(machine, plant);
    }

    /// The plant records for one machine.
    pub fn plant(&self, machine: MachineId) -> Option<&MachinePlant> {
        self.machines.get(&machine)
    }

    /// Number of machines hosted.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Iterates over every hosted machine and its plant records, in machine
    /// order (multi-machine fleets aggregate physical state through this).
    pub fn machines(&self) -> impl Iterator<Item = (MachineId, &MachinePlant)> + '_ {
        self.machines.iter().map(|(id, plant)| (*id, plant))
    }

    /// Number of hosted machines whose cables and hardware are both intact.
    pub fn intact_machine_count(&self) -> usize {
        self.machines
            .values()
            .filter(|p| p.cables_intact && p.hardware_intact)
            .count()
    }

    /// Cuts utility power (reversible).
    pub fn cut_power(&mut self) -> Result<()> {
        if !self.status.equipment_intact() {
            return Err(GuillotineError::Destroyed {
                reason: "datacenter equipment already destroyed".into(),
            });
        }
        self.status = DatacenterStatus::PowerCut;
        Ok(())
    }

    /// Restores utility power.
    pub fn restore_power(&mut self) -> Result<()> {
        match self.status {
            DatacenterStatus::PowerCut | DatacenterStatus::Operational => {
                self.status = DatacenterStatus::Operational;
                Ok(())
            }
            _ => Err(GuillotineError::Destroyed {
                reason: "cannot restore power to a destroyed datacenter".into(),
            }),
        }
    }

    /// Destroys one machine's support cables (decapitation).
    pub fn destroy_cables(&mut self, machine: MachineId) -> Result<()> {
        let plant = self
            .machines
            .get_mut(&machine)
            .ok_or_else(|| GuillotineError::config(format!("unknown machine {machine}")))?;
        plant.cables_intact = false;
        Ok(())
    }

    /// Replaces a machine's destroyed cables (manual intervention).
    pub fn replace_cables(&mut self, machine: MachineId) -> Result<()> {
        let plant = self
            .machines
            .get_mut(&machine)
            .ok_or_else(|| GuillotineError::config(format!("unknown machine {machine}")))?;
        if !plant.hardware_intact {
            return Err(GuillotineError::Destroyed {
                reason: "machine hardware is destroyed; cables cannot help".into(),
            });
        }
        plant.cables_intact = true;
        Ok(())
    }

    /// Destroys the datacenter zone by the chosen mechanism (immolation).
    pub fn destroy(&mut self, mechanism: DatacenterStatus, at: SimInstant) -> Result<()> {
        if !matches!(
            mechanism,
            DatacenterStatus::Flooded | DatacenterStatus::Burned | DatacenterStatus::Pulsed
        ) {
            return Err(GuillotineError::config(
                "destruction mechanism must be flood, fire or EMP",
            ));
        }
        self.status = mechanism;
        self.hvac_operational = false;
        self.destruction_time = Some(at);
        for plant in self.machines.values_mut() {
            plant.cables_intact = false;
            plant.hardware_intact = false;
        }
        Ok(())
    }

    /// When the datacenter was destroyed, if it was.
    pub fn destroyed_at(&self) -> Option<SimInstant> {
        self.destruction_time
    }

    /// The integrity summary an in-person audit (§3.5) would check: true only
    /// if equipment is intact, HVAC runs and every machine's cables and
    /// hardware are whole.
    pub fn physical_integrity_ok(&self) -> bool {
        self.status.equipment_intact()
            && self.hvac_operational
            && self
                .machines
                .values()
                .all(|p| p.cables_intact && p.hardware_intact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc() -> Datacenter {
        let mut d = Datacenter::new("dc-east");
        d.add_machine(MachineId::new(0));
        d.add_machine(MachineId::new(1));
        d
    }

    #[test]
    fn new_datacenter_is_intact() {
        let d = dc();
        assert!(d.physical_integrity_ok());
        assert_eq!(d.machine_count(), 2);
        assert_eq!(d.status(), DatacenterStatus::Operational);
    }

    #[test]
    fn power_cut_is_reversible() {
        let mut d = dc();
        d.cut_power().unwrap();
        assert_eq!(d.status(), DatacenterStatus::PowerCut);
        assert!(d.status().equipment_intact());
        d.restore_power().unwrap();
        assert_eq!(d.status(), DatacenterStatus::Operational);
    }

    #[test]
    fn cable_destruction_and_replacement() {
        let mut d = dc();
        let m = MachineId::new(0);
        d.destroy_cables(m).unwrap();
        assert!(!d.plant(m).unwrap().cables_intact);
        assert!(!d.physical_integrity_ok());
        d.replace_cables(m).unwrap();
        assert!(d.physical_integrity_ok());
    }

    #[test]
    fn immolation_destroys_everything_permanently() {
        let mut d = dc();
        d.destroy(DatacenterStatus::Flooded, SimInstant::from_nanos(5))
            .unwrap();
        assert!(!d.physical_integrity_ok());
        assert!(!d.status().equipment_intact());
        assert_eq!(d.destroyed_at(), Some(SimInstant::from_nanos(5)));
        assert!(d.restore_power().is_err());
        assert!(d.replace_cables(MachineId::new(0)).is_err());
        assert!(d.cut_power().is_err());
    }

    #[test]
    fn destruction_mechanism_must_be_destructive() {
        let mut d = dc();
        assert!(d
            .destroy(DatacenterStatus::Operational, SimInstant::ZERO)
            .is_err());
    }
}
