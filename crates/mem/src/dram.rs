//! Flat DRAM storage with a fixed access latency.

use guillotine_types::{GuillotineError, Result};

/// A byte-addressable DRAM module.
///
/// Every machine in the simulator instantiates at least three of these:
/// model DRAM, hypervisor DRAM and the shared IO DRAM region (§3.2). The
/// module itself knows nothing about who is allowed to touch it; physical
/// reachability is enforced by the bus wiring in `guillotine-hw`.
#[derive(Debug, Clone)]
pub struct Dram {
    /// The module's contents up to the highest byte ever written; the rest,
    /// up to `size`, has never been written and reads as zero. Nothing is
    /// allocated until the first write, so building a machine does not pay
    /// for zeroing (or reserving) DRAM it never writes.
    bytes: Vec<u8>,
    size: usize,
    access_latency: u64,
    reads: u64,
    writes: u64,
}

impl Dram {
    /// Default DRAM access latency in cycles.
    pub const DEFAULT_LATENCY: u64 = 200;

    /// Creates a zero-filled DRAM of `size` bytes with the default latency.
    pub fn new(size: usize) -> Self {
        Dram::with_latency(size, Self::DEFAULT_LATENCY)
    }

    /// Creates a zero-filled DRAM of `size` bytes with a specific latency.
    pub fn with_latency(size: usize, access_latency: u64) -> Self {
        Dram {
            bytes: Vec::new(),
            size,
            access_latency,
            reads: 0,
            writes: 0,
        }
    }

    /// Capacity in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The per-access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.access_latency
    }

    /// Number of read accesses served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write accesses served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<(usize, usize)> {
        let start = addr as usize;
        let end = start.checked_add(len).ok_or(GuillotineError::MemoryFault {
            addr,
            reason: "address range wraps".into(),
        })?;
        if end > self.size {
            return Err(GuillotineError::MemoryFault {
                addr,
                reason: format!("access of {len} bytes beyond DRAM size {}", self.size),
            });
        }
        Ok((start, end))
    }

    /// The part of `start..end` that has been written so far; the bytes of
    /// the range past it are zero.
    fn written(&self, start: usize, end: usize) -> &[u8] {
        let written = self.bytes.len();
        &self.bytes[start.min(written)..end.min(written)]
    }

    /// [`Dram::check_range`] for a write: the stored contents are
    /// zero-extended to cover the range.
    fn check_write_range(&mut self, addr: u64, len: usize) -> Result<(usize, usize)> {
        let (start, end) = self.check_range(addr, len)?;
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        Ok((start, end))
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>> {
        let (start, end) = self.check_range(addr, len)?;
        self.reads += 1;
        let mut data = self.written(start, end).to_vec();
        data.resize(len, 0);
        Ok(data)
    }

    /// Reads up to 8 bytes at `addr`, zero-extended, little-endian.
    pub fn read_u64(&mut self, addr: u64, size: u8) -> Result<u64> {
        let (start, end) = self.check_range(addr, size as usize)?;
        self.reads += 1;
        let mut v = 0u64;
        for (i, b) in self.written(start, end).iter().enumerate() {
            v |= (*b as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Writes `data` starting at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<()> {
        let (start, end) = self.check_write_range(addr, data.len())?;
        self.writes += 1;
        self.bytes[start..end].copy_from_slice(data);
        Ok(())
    }

    /// Writes the low `size` bytes of `value` at `addr`, little-endian.
    pub fn write_u64(&mut self, addr: u64, size: u8, value: u64) -> Result<()> {
        let (start, _) = self.check_write_range(addr, size as usize)?;
        self.writes += 1;
        for i in 0..size as usize {
            self.bytes[start + i] = ((value >> (8 * i)) & 0xFF) as u8;
        }
        Ok(())
    }

    /// Reads without mutating counters (used by the hypervisor's private
    /// inspection bus, which should not perturb the model's own statistics).
    pub fn peek(&self, addr: u64, len: usize) -> Result<Vec<u8>> {
        let (start, end) = self.check_range(addr, len)?;
        let mut data = self.written(start, end).to_vec();
        data.resize(len, 0);
        Ok(data)
    }

    /// Fills the whole module with zeroes (used when a core is powered down
    /// or a model is destroyed).
    pub fn wipe(&mut self) {
        self.bytes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut d = Dram::new(1024);
        d.write(100, &[1, 2, 3, 4]).unwrap();
        assert_eq!(d.read(100, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
    }

    #[test]
    fn u64_accessors_are_little_endian() {
        let mut d = Dram::new(64);
        d.write_u64(8, 8, 0x0102030405060708).unwrap();
        assert_eq!(d.read_u64(8, 8).unwrap(), 0x0102030405060708);
        assert_eq!(d.read_u64(8, 1).unwrap(), 0x08);
        assert_eq!(d.read(8, 2).unwrap(), vec![0x08, 0x07]);
    }

    #[test]
    fn out_of_range_accesses_fault() {
        let mut d = Dram::new(16);
        assert!(d.read(12, 8).is_err());
        assert!(d.write(16, &[1]).is_err());
        assert!(d.read_u64(u64::MAX, 8).is_err());
    }

    #[test]
    fn peek_does_not_count() {
        let mut d = Dram::new(16);
        d.write(0, &[9]).unwrap();
        let _ = d.peek(0, 1).unwrap();
        assert_eq!(d.reads(), 0);
    }

    #[test]
    fn unwritten_memory_reads_as_zero_up_to_the_full_size() {
        let mut d = Dram::new(1 << 20);
        assert_eq!(d.size(), 1 << 20);
        // Nothing written yet: every read is zeros, at either end.
        assert_eq!(d.read(0, 8).unwrap(), vec![0; 8]);
        assert_eq!(d.read((1 << 20) - 4, 4).unwrap(), vec![0; 4]);
        assert_eq!(d.read_u64(4096, 8).unwrap(), 0);
        // A read that straddles the written prefix sees both halves.
        d.write(10, &[1, 2, 3]).unwrap();
        assert_eq!(d.read(8, 8).unwrap(), vec![0, 0, 1, 2, 3, 0, 0, 0]);
        assert_eq!(d.peek(11, 4).unwrap(), vec![2, 3, 0, 0]);
        assert_eq!(d.read_u64(12, 4).unwrap(), 3);
        // A write far above the prefix leaves the gap zero.
        d.write_u64(5000, 2, 0xBEEF).unwrap();
        assert_eq!(d.read(4998, 6).unwrap(), vec![0, 0, 0xEF, 0xBE, 0, 0]);
        assert_eq!(d.read(13, 3).unwrap(), vec![0; 3]);
        assert_eq!(d.size(), 1 << 20);
    }

    #[test]
    fn wipe_clears_contents() {
        let mut d = Dram::new(16);
        d.write(0, &[0xFF; 16]).unwrap();
        d.wipe();
        assert_eq!(d.peek(0, 16).unwrap(), vec![0; 16]);
    }
}
