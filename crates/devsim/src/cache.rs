//! Set-associative cache model with true-LRU replacement and write-back /
//! write-allocate policy.

/// Static cache parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: u64,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Construct a configuration.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: u64, latency: u64) -> CacheConfig {
        CacheConfig {
            size_bytes,
            line_bytes,
            ways,
            latency,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses served by this level.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Valid lines displaced.
    pub evictions: u64,
    /// Dirty lines displaced.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction (0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// A precomputed divisor for the repeated `x / d`, `x % d` of address
/// decomposition: a shift and a mask when `d` is a power of two.
#[derive(Clone, Copy, Debug)]
struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    fn new(d: u64) -> Divisor {
        Divisor {
            d,
            shift: d.is_power_of_two().then(|| d.trailing_zeros()),
        }
    }

    /// `(x / d, x % d)`.
    #[inline]
    fn div_rem(self, x: u64) -> (u64, u64) {
        match self.shift {
            Some(s) => (x >> s, x & (self.d - 1)),
            None => (x / self.d, x % self.d),
        }
    }
}

/// A single cache level.
///
/// Storage is flat and set-major: way `w` of set `s` lives at index
/// `s * ways + w` of each array. The arrays start zeroed (one
/// `alloc_zeroed` each, so untouched sets cost no pages) and a stamp of 0
/// marks an invalid way; live stamps start at 1.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    line: Divisor,
    sets: Divisor,
    ways: usize,
    tags: Vec<u64>,
    /// LRU timestamp per way (higher = more recent, 0 = invalid).
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    clock: u64,
    /// Running statistics.
    pub stats: CacheStats,
}

/// Result of probing a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The line was present.
    Hit,
    /// Miss; `writeback` says whether a dirty line was evicted.
    Miss {
        /// A dirty victim was displaced.
        writeback: bool,
    },
}

impl Cache {
    /// An empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let ways = config.ways as usize;
        let lines = config.num_sets() as usize * ways;
        Cache {
            config,
            line: Divisor::new(config.line_bytes),
            sets: Divisor::new(config.num_sets()),
            ways,
            tags: vec![0; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access one byte address. Accesses spanning multiple lines should be
    /// split by the caller (see [`Cache::access_range`]).
    pub fn access(&mut self, addr: u64, is_write: bool) -> Probe {
        self.clock += 1;
        let (line_addr, _) = self.line.div_rem(addr);
        let (tag, set_idx) = self.sets.div_rem(line_addr);
        let base = set_idx as usize * self.ways;
        let set = base..base + self.ways;
        let (tags, stamps, dirty) = (
            &mut self.tags[set.clone()],
            &mut self.stamps[set.clone()],
            &mut self.dirty[set],
        );

        // One pass finds a hit or the victim: the first way with the
        // smallest stamp, which is the first invalid way if any (stamp 0),
        // else the least recently used.
        let mut victim = 0;
        for w in 0..tags.len() {
            if stamps[w] != 0 && tags[w] == tag {
                stamps[w] = self.clock;
                dirty[w] |= is_write;
                self.stats.hits += 1;
                return Probe::Hit;
            }
            if stamps[w] < stamps[victim] {
                victim = w;
            }
        }
        self.stats.misses += 1;
        let valid = stamps[victim] != 0;
        if valid {
            self.stats.evictions += 1;
        }
        let writeback = valid && dirty[victim];
        if writeback {
            self.stats.writebacks += 1;
        }
        tags[victim] = tag;
        stamps[victim] = self.clock;
        dirty[victim] = is_write;
        Probe::Miss { writeback }
    }

    /// Access `[addr, addr+bytes)`, splitting across lines. Returns the
    /// number of line-level misses.
    pub fn access_range(&mut self, addr: u64, bytes: u64, is_write: bool) -> u64 {
        let lb = self.config.line_bytes;
        let first = addr / lb;
        let last = (addr + bytes.max(1) - 1) / lb;
        let mut misses = 0;
        for line in first..=last {
            if matches!(self.access(line * lb, is_write), Probe::Miss { .. }) {
                misses += 1;
            }
        }
        misses
    }

    /// Drop all contents (e.g. between benchmark repetitions).
    pub fn flush(&mut self) {
        self.stamps.fill(0);
        self.dirty.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::llc_slice;
    use crate::profiles::{fermi, kepler, mic, nehalem, snb, tahiti};

    /// The original nested-`Vec` true-LRU cache, kept as the reference
    /// model the flat storage must reproduce probe for probe.
    struct RefCache {
        config: CacheConfig,
        sets: Vec<Vec<RefLine>>,
        clock: u64,
        stats: CacheStats,
    }

    #[derive(Clone, Copy)]
    struct RefLine {
        tag: u64,
        valid: bool,
        dirty: bool,
        stamp: u64,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> RefCache {
            let line = RefLine {
                tag: 0,
                valid: false,
                dirty: false,
                stamp: 0,
            };
            RefCache {
                config,
                sets: vec![vec![line; config.ways as usize]; config.num_sets() as usize],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64, is_write: bool) -> Probe {
            self.clock += 1;
            let line_addr = addr / self.config.line_bytes;
            let set_idx = (line_addr % self.config.num_sets()) as usize;
            let tag = line_addr / self.config.num_sets();
            let set = &mut self.sets[set_idx];
            if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                l.stamp = self.clock;
                l.dirty |= is_write;
                self.stats.hits += 1;
                return Probe::Hit;
            }
            self.stats.misses += 1;
            let victim = match set.iter().position(|l| !l.valid) {
                Some(i) => i,
                None => {
                    self.stats.evictions += 1;
                    set.iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.stamp)
                        .map(|(i, _)| i)
                        .expect("nonempty set")
                }
            };
            let writeback = set[victim].valid && set[victim].dirty;
            if writeback {
                self.stats.writebacks += 1;
            }
            set[victim] = RefLine {
                tag,
                valid: true,
                dirty: is_write,
                stamp: self.clock,
            };
            Probe::Miss { writeback }
        }

        fn flush(&mut self) {
            for l in self.sets.iter_mut().flatten() {
                l.valid = false;
                l.dirty = false;
            }
        }
    }

    /// SplitMix64: a seeded stream for the differential test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Every distinct cache geometry the device profiles build: each CPU's
    /// L1, L2 and LLC (MIC's as one distributed slice) and each GPU's L2.
    fn profile_configs() -> Vec<CacheConfig> {
        let cpus = [snb(), nehalem(), mic()];
        let cpu_levels = cpus.iter().flat_map(|p| [p.l1, p.l2, llc_slice(p)]);
        let gpu_l2s = [fermi().l2, kepler().l2, tahiti().l2];
        let mut out: Vec<CacheConfig> = Vec::new();
        for c in cpu_levels.chain(gpu_l2s) {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// The flat cache and the reference, driven in lockstep.
    struct Twin {
        flat: Cache,
        reference: RefCache,
    }

    impl Twin {
        fn access(&mut self, addr: u64, is_write: bool) {
            let got = self.flat.access(addr, is_write);
            let want = self.reference.access(addr, is_write);
            assert_eq!(
                got, want,
                "{:?}: access {addr:#x} write={is_write}",
                self.flat.config
            );
        }

        fn flush(&mut self) {
            self.flat.flush();
            self.reference.flush();
        }
    }

    #[test]
    fn flat_cache_matches_nested_reference_on_every_profile_geometry() {
        let configs = profile_configs();
        // SNB's and Nehalem's L1s coincide.
        assert_eq!(configs.len(), 11);
        for (i, config) in configs.into_iter().enumerate() {
            let mut rng = Rng(0x5EED ^ i as u64);
            let mut twin = Twin {
                flat: Cache::new(config),
                reference: RefCache::new(config),
            };
            let sets = config.num_sets();
            let line = config.line_bytes;
            let capacity = config.size_bytes;
            // Uniform over twice the capacity: cold misses, hits, evictions.
            for _ in 0..20_000 {
                let addr = rng.below(2 * capacity);
                twin.access(addr, rng.below(3) == 0);
            }
            twin.flush();
            // Conflict-heavy: a handful of sets, tags around the
            // associativity, so LRU order and dirty victims decide every
            // probe.
            for _ in 0..20_000 {
                let set = rng.below(4.min(sets)) * (sets / 4).max(1);
                let tag = rng.below(2 * config.ways);
                let addr = (tag * sets + set) * line + rng.below(line);
                twin.access(addr, rng.below(3) == 0);
            }
            twin.flush();
            // Sequential 4-byte accesses, then a set-sized stride that
            // lands every access in one set.
            let start = rng.below(capacity);
            for k in 0..20_000 {
                twin.access(start + 4 * k, rng.below(3) == 0);
            }
            for k in 0..4 * config.ways {
                twin.access(start + k * sets * line, rng.below(3) == 0);
            }
            twin.flush();
            // Strided by one and a half lines over four times the capacity.
            for k in 0..20_000 {
                twin.access((k * (line + line / 2)) % (4 * capacity), rng.below(3) == 0);
            }
            assert_eq!(twin.flat.stats, twin.reference.stats, "{config:?}");
            assert!(twin.flat.stats.evictions > 0, "{config:?}");
            assert!(twin.flat.stats.writebacks > 0, "{config:?}");
        }
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B
        Cache::new(CacheConfig::new(128, 16, 2, 1))
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(matches!(c.access(0x40, false), Probe::Miss { .. }));
        assert_eq!(c.access(0x44, false), Probe::Hit); // same line
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_replacement() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = num_sets * line = 64).
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // touch 0 -> 64 is LRU
        c.access(128, false); // evicts 64
        assert_eq!(c.access(0, false), Probe::Hit);
        assert!(matches!(c.access(64, false), Probe::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(64, false);
        c.access(128, false); // evicts line 0 (LRU), dirty -> writeback
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn range_access_spans_lines() {
        let mut c = tiny();
        // 16-byte vector at offset 8 touches two lines.
        let misses = c.access_range(8, 16, false);
        assert_eq!(misses, 2);
        assert_eq!(c.access_range(8, 16, false), 0);
    }

    #[test]
    fn hit_plus_miss_equals_accesses() {
        let mut c = tiny();
        for i in 0..1000u64 {
            c.access(i * 8, i % 3 == 0);
        }
        assert_eq!(c.stats.hits + c.stats.misses, c.stats.accesses());
        assert_eq!(c.stats.accesses(), 1000);
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0, false);
        assert_eq!(c.access(0, false), Probe::Hit);
        c.flush();
        assert!(matches!(c.access(0, false), Probe::Miss { .. }));
    }

    #[test]
    fn sequential_stream_mostly_hits() {
        // 4-byte sequential accesses over 16-byte lines: 1 miss + 3 hits.
        let mut c = Cache::new(CacheConfig::new(1 << 16, 16, 4, 1));
        for i in 0..256u64 {
            c.access(i * 4, false);
        }
        assert_eq!(c.stats.misses, 64);
        assert_eq!(c.stats.hits, 192);
    }

    #[test]
    fn strided_stream_misses() {
        // Stride 256 over a 1 KiB direct-ish cache: every access misses
        // after warmup wraps.
        let mut c = Cache::new(CacheConfig::new(1024, 64, 2, 1));
        let mut misses = 0;
        for rep in 0..4u64 {
            for i in 0..64u64 {
                if matches!(c.access(i * 256, false), Probe::Miss { .. }) {
                    misses += 1;
                }
            }
            let _ = rep;
        }
        // 64 distinct lines, only 16 fit: high miss count.
        assert!(misses > 200, "misses = {misses}");
    }
}
