//! The fleet-shared KV/prefix cache tier.
//!
//! Real LLM serving amortizes multi-turn sessions through KV reuse: the
//! attention keys/values computed while prefilling a prompt prefix are kept,
//! and the next turn — whose prompt extends the same conversation — only
//! prefills the tokens past the cached prefix. The simulator reproduces that
//! shape with a block-hash prefix cache in the style of production paged-KV
//! servers: a prompt is split into fixed-size token blocks, each block is
//! keyed by the hash *chain* of the conversation up to and including it
//! (plus the session and its invalidation generation), and a lookup walks
//! the chain until the first missing block. Everything before that point is
//! served from cache; everything after is prefilled and inserted.
//!
//! The tier is deliberately a **cost model**, not a correctness shortcut:
//! answers are always generated from the full prompt, so serving is
//! byte-identical with the cache on or off — only the prefill work (real
//! sweep words in [`crate::forward::BatchedForwardPass`], and simulated
//! latency) shrinks. `tests/kv_cache.rs` holds the property test.
//!
//! * [`KvCache`] — the single-owner cache: token-budgeted capacity, true
//!   LRU eviction (a hit refreshes recency), per-session generations for
//!   invalidation, shard tags so a quarantined shard's entries can be
//!   dropped, and hit/miss/eviction statistics.
//! * [`KvTier`] — the shared tier: a [`KvCache`] behind a mutex, handed to
//!   every shard of a `GuillotineFleet` behind an `Arc`, so a session
//!   re-homed after a quarantine keeps its cache locality (unless the fleet
//!   is configured to invalidate the poisoned shard's entries —
//!   containment beats locality).
//!
//! Determinism: lookups never interleave. A fleet performs every shard's
//! lookups on its one control thread — all of a batch's, in shard-index
//! then priority order, before any shard's forward sweep is collected — so
//! hits, misses and eviction order are a function of the request trace
//! alone, at any core count, under capacity pressure, and when one session
//! is split across two shards. (The mutex is what makes the tier shareable
//! behind an `Arc`, not an ordering device: were whole shards ever served
//! on threads of their own, disjoint sessions would still agree — block
//! keys include the session id — but eviction order would not.)

use guillotine_types::SessionId;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Simulated tokenizer granularity: one token per this many prompt bytes.
pub const BYTES_PER_TOKEN: u32 = 4;

/// Number of tokens in one cache block (64 bytes at the default tokenizer).
/// A lookup reuses whole leading blocks only.
pub const BLOCK_TOKENS: u32 = 16;

/// Number of simulated tokens in `bytes` prompt bytes (ceiling division at
/// the default [`BYTES_PER_TOKEN`] granularity).
pub fn tokens_for_bytes(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(BYTES_PER_TOKEN as u64)
}

/// Sizing of a KV cache tier.
///
/// Neither the block size ([`BLOCK_TOKENS`]) nor the tokenizer granularity
/// is configurable: every token count in the simulator — cache accounting
/// here, prefill pricing in [`crate::forward`] — uses the one global
/// [`BYTES_PER_TOKEN`], so a tier can only ever *remove* prefill work, never
/// change its cost basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvCacheConfig {
    /// Total token budget; inserting past it evicts least-recently-used
    /// blocks (the simulated analogue of GPU KV memory).
    pub capacity_tokens: u64,
}

impl Default for KvCacheConfig {
    fn default() -> Self {
        KvCacheConfig {
            capacity_tokens: 1 << 16,
        }
    }
}

impl KvCacheConfig {
    /// A config sized to `capacity_tokens`.
    pub fn with_capacity(capacity_tokens: u64) -> Self {
        KvCacheConfig { capacity_tokens }
    }
}

/// Aggregate statistics of a KV cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvTierStats {
    /// Lookups performed (one per sequence entering a forward pass).
    pub lookups: u64,
    /// Lookups that reused at least one cached block.
    pub request_hits: u64,
    /// Blocks served from cache.
    pub block_hits: u64,
    /// Blocks that had to be prefilled.
    pub block_misses: u64,
    /// Tokens served from cache across all lookups.
    pub cached_tokens: u64,
    /// Tokens prefilled (uncached) across all lookups.
    pub prefilled_tokens: u64,
    /// Blocks evicted by the LRU policy under capacity pressure.
    pub evictions: u64,
    /// Blocks dropped by session or shard invalidation.
    pub invalidated: u64,
}

impl KvTierStats {
    /// Fraction of lookups that reused at least one cached block.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.request_hits as f64 / self.lookups as f64
        }
    }

    /// Fraction of prompt tokens served from cache instead of prefilled.
    pub fn token_reuse_rate(&self) -> f64 {
        let total = self.cached_tokens + self.prefilled_tokens;
        if total == 0 {
            0.0
        } else {
            self.cached_tokens as f64 / total as f64
        }
    }
}

/// The result of one [`KvCache::lookup_insert`]: how much of the prompt's
/// prefix was served from cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvLookup {
    /// Tokens of the leading prefix served from cache.
    pub cached_tokens: u64,
    /// Total prompt tokens.
    pub total_tokens: u64,
}

impl KvLookup {
    /// A lookup that found nothing cached (also the cache-off result).
    pub fn uncached(total_tokens: u64) -> Self {
        KvLookup {
            cached_tokens: 0,
            total_tokens,
        }
    }

    /// Tokens that must be prefilled.
    pub fn uncached_tokens(&self) -> u64 {
        self.total_tokens - self.cached_tokens
    }

    /// True when at least one block was reused.
    pub fn hit(&self) -> bool {
        self.cached_tokens > 0
    }

    /// True when the entire prompt was served from cache.
    pub fn full_hit(&self) -> bool {
        self.total_tokens > 0 && self.cached_tokens == self.total_tokens
    }
}

/// Key of one cached block: session, the session's invalidation generation,
/// and the hash chain of the conversation up to and including the block.
type BlockKey = (u32, u32, u64);

#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    /// Tokens this block accounts for against the capacity budget.
    tokens: u32,
    /// Tag of the shard that prefilled the block (for quarantine
    /// invalidation).
    shard: u32,
    /// Recency stamp; only the queue entry carrying this exact stamp is
    /// authoritative, older queue entries for the key are stale.
    last_used: u64,
}

/// A session/prefix-keyed KV cache with a token budget and LRU eviction.
///
/// Single-owner form; serving shares one instance across a fleet through
/// [`KvTier`]. See the [module docs](self) for the block-chain model.
#[derive(Debug, Clone)]
pub struct KvCache {
    config: KvCacheConfig,
    blocks: HashMap<BlockKey, BlockEntry>,
    /// Lazily-compacted LRU order: `(key, stamp)` pairs, oldest first. An
    /// entry is live only while the map's `last_used` equals its stamp.
    order: VecDeque<(BlockKey, u64)>,
    generations: HashMap<u32, u32>,
    used_tokens: u64,
    tick: u64,
    stats: KvTierStats,
}

impl KvCache {
    /// Creates an empty cache.
    pub fn new(config: KvCacheConfig) -> Self {
        KvCache {
            config,
            blocks: HashMap::new(),
            order: VecDeque::new(),
            generations: HashMap::new(),
            used_tokens: 0,
            tick: 0,
            stats: KvTierStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> KvCacheConfig {
        self.config
    }

    /// Statistics since construction.
    pub fn stats(&self) -> KvTierStats {
        self.stats
    }

    /// Tokens currently held against the capacity budget.
    pub fn used_tokens(&self) -> u64 {
        self.used_tokens
    }

    /// Number of live cached blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Looks up the prompt's cached prefix and inserts every block the
    /// forward pass will now prefill, tagging new blocks with `shard`.
    ///
    /// The walk stops *counting* at the first missing block (KV reuse only
    /// works for a contiguous prefix) but keeps inserting: the forward pass
    /// computes KV for the whole prompt, so the whole chain becomes
    /// available to the next turn.
    pub fn lookup_insert(&mut self, session: SessionId, shard: u32, prompt: &str) -> KvLookup {
        let bytes = prompt.as_bytes();
        let bytes_per_token = u64::from(BYTES_PER_TOKEN);
        let block_bytes = (BLOCK_TOKENS * BYTES_PER_TOKEN) as usize;
        let total_tokens = tokens_for_bytes(bytes.len());
        let generation = self
            .generations
            .get(&session.raw())
            .copied()
            .unwrap_or_default();

        let mut chain: u64 = 0xcbf2_9ce4_8422_2325;
        let mut cached_tokens = 0u64;
        let mut prefix_intact = true;
        for chunk in bytes.chunks(block_bytes) {
            for &b in chunk {
                chain ^= u64::from(b);
                chain = chain.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let key = (session.raw(), generation, chain);
            let chunk_tokens = (chunk.len() as u64).div_ceil(bytes_per_token) as u32;
            if self.blocks.contains_key(&key) {
                self.touch(key);
                if prefix_intact {
                    cached_tokens += u64::from(chunk_tokens);
                    self.stats.block_hits += 1;
                } else {
                    // Present but unusable (the prefix before it was
                    // missing): prefilled anyway, so it counts as a miss.
                    self.stats.block_misses += 1;
                }
            } else {
                prefix_intact = false;
                self.stats.block_misses += 1;
                self.insert(key, chunk_tokens, shard);
            }
        }

        self.stats.lookups += 1;
        if cached_tokens > 0 {
            self.stats.request_hits += 1;
        }
        self.stats.cached_tokens += cached_tokens;
        self.stats.prefilled_tokens += total_tokens - cached_tokens;
        KvLookup {
            cached_tokens,
            total_tokens,
        }
    }

    /// Bumps the session's generation and drops its live blocks, so its next
    /// turn starts from a cold cache.
    ///
    /// The generation is part of every cache key, so blocks cached before
    /// the bump can never satisfy a later lookup even if a drop were
    /// missed — the mechanism behind `guillotine-audit`'s model-checked
    /// `no-kv-from-invalidated-generation` invariant.
    pub fn invalidate_session(&mut self, session: SessionId) -> u64 {
        *self.generations.entry(session.raw()).or_default() += 1;
        self.remove_where(|key, _| key.0 == session.raw())
    }

    /// Drops every block prefilled by `shard` (quarantine containment: the
    /// poisoned shard's KV state must not be reused, wherever the session
    /// lands next).
    pub fn invalidate_shard(&mut self, shard: u32) -> u64 {
        self.remove_where(|_, entry| entry.shard == shard)
    }

    fn remove_where(&mut self, mut drop: impl FnMut(&BlockKey, &BlockEntry) -> bool) -> u64 {
        let mut removed = 0u64;
        let mut freed = 0u64;
        self.blocks.retain(|key, entry| {
            if drop(key, entry) {
                removed += 1;
                freed += u64::from(entry.tokens);
                false
            } else {
                true
            }
        });
        self.used_tokens -= freed;
        self.stats.invalidated += removed;
        removed
    }

    /// Refreshes a block's recency (the LRU fix: a hit must move the block
    /// to the back of the eviction order, not leave it at its insertion
    /// position).
    fn touch(&mut self, key: BlockKey) {
        self.tick += 1;
        let stamp = self.tick;
        if let Some(entry) = self.blocks.get_mut(&key) {
            entry.last_used = stamp;
        }
        self.order.push_back((key, stamp));
        self.compact();
    }

    fn insert(&mut self, key: BlockKey, tokens: u32, shard: u32) {
        let needed = u64::from(tokens);
        if needed > self.config.capacity_tokens {
            return;
        }
        while self.used_tokens + needed > self.config.capacity_tokens {
            if !self.evict_one() {
                return;
            }
        }
        self.tick += 1;
        let stamp = self.tick;
        self.blocks.insert(
            key,
            BlockEntry {
                tokens,
                shard,
                last_used: stamp,
            },
        );
        self.used_tokens += needed;
        self.order.push_back((key, stamp));
        self.compact();
    }

    /// Evicts the least-recently-used live block; returns false when the
    /// cache is already empty.
    fn evict_one(&mut self) -> bool {
        while let Some((key, stamp)) = self.order.pop_front() {
            let live = self
                .blocks
                .get(&key)
                .is_some_and(|entry| entry.last_used == stamp);
            if !live {
                continue;
            }
            if let Some(entry) = self.blocks.remove(&key) {
                self.used_tokens -= u64::from(entry.tokens);
                self.stats.evictions += 1;
                return true;
            }
        }
        false
    }

    /// Rebuilds the recency queue once stale entries dominate, keeping the
    /// lazy-LRU amortized O(1).
    fn compact(&mut self) {
        if self.order.len() <= self.blocks.len().saturating_mul(3) + 32 {
            return;
        }
        let blocks = &self.blocks;
        self.order
            .retain(|(key, stamp)| blocks.get(key).is_some_and(|e| e.last_used == *stamp));
    }
}

/// The fleet-shared KV tier: one [`KvCache`] behind a mutex, shared across
/// shards (and the threads that serve them) behind an `Arc`.
#[derive(Debug)]
pub struct KvTier {
    inner: Mutex<KvCache>,
}

impl KvTier {
    /// Creates a tier with the given sizing.
    pub fn new(config: KvCacheConfig) -> Self {
        KvTier {
            inner: Mutex::new(KvCache::new(config)),
        }
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, KvCache> {
        // A panicking shard must not wedge the rest of the fleet: the cache
        // holds only cost-model state, so recovering the poisoned value is
        // always safe.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// See [`KvCache::lookup_insert`].
    pub fn lookup_insert(&self, session: SessionId, shard: u32, prompt: &str) -> KvLookup {
        self.cache().lookup_insert(session, shard, prompt)
    }

    /// See [`KvCache::invalidate_session`].
    pub fn invalidate_session(&self, session: SessionId) -> u64 {
        self.cache().invalidate_session(session)
    }

    /// See [`KvCache::invalidate_shard`].
    pub fn invalidate_shard(&self, shard: u32) -> u64 {
        self.cache().invalidate_shard(shard)
    }

    /// Statistics since construction.
    pub fn stats(&self) -> KvTierStats {
        self.cache().stats()
    }

    /// Tokens currently held against the capacity budget.
    pub fn used_tokens(&self) -> u64 {
        self.cache().used_tokens()
    }

    /// Number of live cached blocks.
    pub fn block_count(&self) -> usize {
        self.cache().block_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KvCache {
        // Room for exactly two default blocks.
        KvCache::new(KvCacheConfig::with_capacity(32))
    }

    fn block_text(tag: u8) -> String {
        String::from_utf8(vec![b'a' + tag; 64]).unwrap()
    }

    #[test]
    fn second_turn_reuses_the_first_turns_prefix() {
        let mut kv = KvCache::new(KvCacheConfig::default());
        let session = SessionId::new(7);
        let turn1 = "x".repeat(128);
        let turn2 = format!("{turn1}{}", "y".repeat(128));
        let first = kv.lookup_insert(session, 0, &turn1);
        assert_eq!(first.cached_tokens, 0);
        assert_eq!(first.total_tokens, 32);
        let second = kv.lookup_insert(session, 0, &turn2);
        assert!(second.hit());
        assert_eq!(second.cached_tokens, 32);
        assert_eq!(second.uncached_tokens(), 32);
        let stats = kv.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.request_hits, 1);
        assert!(stats.token_reuse_rate() > 0.3);
    }

    #[test]
    fn identical_prompts_full_hit_including_partial_tail_block() {
        let mut kv = KvCache::new(KvCacheConfig::default());
        let session = SessionId::new(1);
        let prompt = "a short prompt under one block";
        assert!(!kv.lookup_insert(session, 0, prompt).hit());
        let again = kv.lookup_insert(session, 0, prompt);
        assert!(again.full_hit());
        assert_eq!(again.total_tokens, tokens_for_bytes(prompt.len()));
    }

    #[test]
    fn sessions_do_not_share_prefixes() {
        let mut kv = KvCache::new(KvCacheConfig::default());
        let prompt = "the same conversation text in two sessions";
        kv.lookup_insert(SessionId::new(1), 0, prompt);
        let other = kv.lookup_insert(SessionId::new(2), 0, prompt);
        assert!(!other.hit());
    }

    #[test]
    fn hits_refresh_lru_recency() {
        let mut kv = small();
        let (a, b, c) = (SessionId::new(1), SessionId::new(2), SessionId::new(3));
        kv.lookup_insert(a, 0, &block_text(0));
        kv.lookup_insert(b, 0, &block_text(1));
        // Touch A: it becomes the most recently used block.
        assert!(kv.lookup_insert(a, 0, &block_text(0)).full_hit());
        // C needs a slot; the true LRU victim is B, not insertion-order A.
        kv.lookup_insert(c, 0, &block_text(2));
        assert!(
            kv.lookup_insert(a, 0, &block_text(0)).full_hit(),
            "hot A evicted"
        );
        assert_eq!(kv.stats().evictions, 1, "exactly B goes, in LRU order");
    }

    #[test]
    fn capacity_is_enforced_in_tokens() {
        let mut kv = small();
        for tag in 0..8 {
            kv.lookup_insert(SessionId::new(tag as u32), 0, &block_text(tag));
        }
        assert!(kv.used_tokens() <= 32);
        assert!(kv.stats().evictions >= 6);
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let mut kv = KvCache::new(KvCacheConfig::with_capacity(8));
        let lookup = kv.lookup_insert(SessionId::new(0), 0, &block_text(0));
        assert_eq!(lookup.cached_tokens, 0);
        assert_eq!(kv.used_tokens(), 0);
        assert!(!kv.lookup_insert(SessionId::new(0), 0, &block_text(0)).hit());
    }

    #[test]
    fn session_invalidation_bumps_the_generation() {
        let mut kv = KvCache::new(KvCacheConfig::default());
        let session = SessionId::new(5);
        let prompt = "a conversation that will be invalidated";
        kv.lookup_insert(session, 0, prompt);
        assert!(kv.invalidate_session(session) > 0);
        assert!(!kv.lookup_insert(session, 0, prompt).hit());
        assert!(kv.stats().invalidated > 0);
    }

    #[test]
    fn shard_invalidation_drops_only_that_shards_blocks() {
        let mut kv = KvCache::new(KvCacheConfig::default());
        let (s1, s2) = (SessionId::new(1), SessionId::new(2));
        kv.lookup_insert(s1, 0, "session one text on shard zero");
        kv.lookup_insert(s2, 9, "session two text on shard nine");
        assert!(kv.invalidate_shard(9) > 0);
        assert!(kv
            .lookup_insert(s1, 0, "session one text on shard zero")
            .hit());
        assert!(!kv
            .lookup_insert(s2, 9, "session two text on shard nine")
            .hit());
    }

    #[test]
    fn empty_prompts_never_hit() {
        let mut kv = KvCache::new(KvCacheConfig::default());
        let lookup = kv.lookup_insert(SessionId::new(0), 0, "");
        assert_eq!(lookup.total_tokens, 0);
        assert!(!kv.lookup_insert(SessionId::new(0), 0, "").hit());
    }

    #[test]
    fn tier_is_shareable_across_threads() {
        let tier = std::sync::Arc::new(KvTier::new(KvCacheConfig::default()));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let tier = std::sync::Arc::clone(&tier);
                scope.spawn(move || {
                    let session = SessionId::new(t);
                    let prompt = format!("thread {t} conversation turn one");
                    tier.lookup_insert(session, t, &prompt);
                    assert!(tier.lookup_insert(session, t, &prompt).full_hit());
                });
            }
        });
        let stats = tier.stats();
        assert_eq!(stats.lookups, 8);
        assert_eq!(stats.request_hits, 4);
    }
}
