//! A single set-associative, write-back, LRU cache level.
//!
//! The cache tracks which *security domain* installed each line (the model,
//! the hypervisor, or a device). In a traditional hypervisor the two domains
//! share cache levels and evict each other's lines — the root cause of
//! prime+probe style side channels. Guillotine machines instantiate separate
//! caches per domain, so cross-domain evictions cannot happen; the baseline
//! machine shares them so experiment E1 can measure the resulting leakage.

/// The security domain that installed a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Sandboxed model code.
    Model,
    /// Guillotine hypervisor code.
    Hypervisor,
    /// DMA or device-initiated traffic.
    Device,
}

/// Geometry and latency parameters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_size: usize,
    /// Latency of a hit in this level, in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// A small L1 data cache: 64 sets × 8 ways × 64 B = 32 KiB, 2-cycle hits.
    pub fn l1() -> Self {
        CacheConfig {
            sets: 64,
            ways: 8,
            line_size: 64,
            hit_latency: 2,
        }
    }

    /// A 256 KiB L2: 512 sets × 8 ways × 64 B, 12-cycle hits.
    pub fn l2() -> Self {
        CacheConfig {
            sets: 512,
            ways: 8,
            line_size: 64,
            hit_latency: 12,
        }
    }

    /// A 2 MiB L3: 2048 sets × 16 ways × 64 B, 40-cycle hits.
    pub fn l3() -> Self {
        CacheConfig {
            sets: 2048,
            ways: 16,
            line_size: 64,
            hit_latency: 40,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * self.line_size
    }
}

/// Hit/miss/eviction statistics for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Evictions where the evicted line belonged to a different domain than
    /// the access that caused the eviction — the raw material of a
    /// cache-contention side channel.
    pub cross_domain_evictions: u64,
    /// Lines invalidated by explicit flushes.
    pub flushed: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 if no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    domain: Domain,
    last_used: u64,
}

/// One set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
}

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit in this level.
    pub hit: bool,
    /// Whether the access evicted a valid line.
    pub evicted: bool,
    /// Whether the evicted line belonged to a different domain.
    pub cross_domain_eviction: bool,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let empty = Line {
            tag: 0,
            valid: false,
            dirty: false,
            domain: Domain::Model,
            last_used: 0,
        };
        Cache {
            config,
            lines: vec![empty; config.sets * config.ways],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_size as u64;
        let set = (line % self.config.sets as u64) as usize;
        let tag = line / self.config.sets as u64;
        (set, tag)
    }

    fn set_slice(&mut self, set: usize) -> &mut [Line] {
        let start = set * self.config.ways;
        &mut self.lines[start..start + self.config.ways]
    }

    /// Accesses `addr` on behalf of `domain`, installing the line on a miss.
    ///
    /// `write` marks the line dirty. The caller (the hierarchy) is
    /// responsible for adding miss latency from the next level.
    pub fn access(&mut self, addr: u64, domain: Domain, write: bool) -> AccessResult {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.set_slice(set);

        // Hit path.
        for line in ways.iter_mut() {
            if line.valid && line.tag == tag {
                line.last_used = tick;
                line.dirty |= write;
                self.stats.hits += 1;
                return AccessResult {
                    hit: true,
                    evicted: false,
                    cross_domain_eviction: false,
                };
            }
        }

        // Miss: find a victim (invalid first, else LRU).
        let victim_idx = {
            let mut idx = 0;
            let mut best = u64::MAX;
            let mut found_invalid = false;
            for (i, line) in ways.iter().enumerate() {
                if !line.valid {
                    idx = i;
                    found_invalid = true;
                    break;
                }
                if line.last_used < best {
                    best = line.last_used;
                    idx = i;
                }
            }
            let _ = found_invalid;
            idx
        };
        let victim = ways[victim_idx];
        let evicted = victim.valid;
        let cross = evicted && victim.domain != domain;
        ways[victim_idx] = Line {
            tag,
            valid: true,
            dirty: write,
            domain,
            last_used: tick,
        };
        self.stats.misses += 1;
        if evicted {
            self.stats.evictions += 1;
            if cross {
                self.stats.cross_domain_evictions += 1;
            }
        }
        AccessResult {
            hit: false,
            evicted,
            cross_domain_eviction: cross,
        }
    }

    /// Returns true if `addr` is currently cached (without updating LRU or
    /// statistics) — used by tests and by the microarchitectural flush
    /// verification.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let start = set * self.config.ways;
        self.lines[start..start + self.config.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates every line, returning how many valid lines were dropped.
    ///
    /// This is the per-level piece of the paper's "forcibly clear all
    /// microarchitectural state" affordance (§3.2).
    pub fn flush(&mut self) -> usize {
        let mut dropped = 0;
        for line in &mut self.lines {
            if line.valid {
                dropped += 1;
                line.valid = false;
                line.dirty = false;
            }
        }
        self.stats.flushed += dropped as u64;
        dropped
    }

    /// Invalidates all lines belonging to `domain`.
    pub fn flush_domain(&mut self, domain: Domain) -> usize {
        let mut dropped = 0;
        for line in &mut self.lines {
            if line.valid && line.domain == domain {
                dropped += 1;
                line.valid = false;
                line.dirty = false;
            }
        }
        self.stats.flushed += dropped as u64;
        dropped
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_size: 64,
            hit_latency: 2,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        let r1 = c.access(0x1000, Domain::Model, false);
        assert!(!r1.hit);
        let r2 = c.access(0x1000, Domain::Model, false);
        assert!(r2.hit);
        let r3 = c.access(0x1038, Domain::Model, false);
        assert!(r3.hit, "same 64-byte line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = sets*line = 256).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, Domain::Model, false);
        c.access(b, Domain::Model, false);
        c.access(a, Domain::Model, false); // A is now MRU.
        let r = c.access(d, Domain::Model, false); // Evicts B.
        assert!(r.evicted);
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn cross_domain_evictions_are_counted() {
        let mut c = tiny();
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, Domain::Hypervisor, false);
        c.access(b, Domain::Hypervisor, false);
        let r = c.access(d, Domain::Model, false);
        assert!(r.cross_domain_eviction);
        assert_eq!(c.stats().cross_domain_evictions, 1);
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.access(i * 64, Domain::Model, true);
        }
        assert!(c.occupancy() > 0);
        let dropped = c.flush();
        assert_eq!(dropped, 8.min(c.config().sets * c.config().ways));
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(0));
    }

    #[test]
    fn flush_domain_is_selective() {
        let mut c = tiny();
        c.access(0x0000, Domain::Model, false);
        c.access(0x0040, Domain::Hypervisor, false);
        let dropped = c.flush_domain(Domain::Model);
        assert_eq!(dropped, 1);
        assert!(!c.contains(0x0000));
        assert!(c.contains(0x0040));
    }

    #[test]
    fn hit_rate_reflects_behaviour() {
        let mut c = tiny();
        c.access(0, Domain::Model, false);
        c.access(0, Domain::Model, false);
        c.access(0, Domain::Model, false);
        c.access(0, Domain::Model, false);
        let s = c.stats();
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn standard_configs_have_expected_capacity() {
        assert_eq!(CacheConfig::l1().capacity(), 32 * 1024);
        assert_eq!(CacheConfig::l2().capacity(), 256 * 1024);
        assert_eq!(CacheConfig::l3().capacity(), 2 * 1024 * 1024);
    }
}
