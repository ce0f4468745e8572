//! Shared decoded-GOP cache.
//!
//! Every decode hot path in the platform — segment-looping playback,
//! scenario-switch seeks, branch-aware decode-ahead — ends in the same
//! operation: "give me the decoded frames of the GOP starting at keyframe
//! `k` of video `v`". Before this module each consumer kept its own
//! private `HashMap` of decoded GOPs, so a cohort of N concurrent
//! sessions over the *same* content decoded every GOP N times. The
//! [`GopCache`] is one bounded, sharded LRU map shared through an `Arc`:
//! each GOP is decoded once per residency, everyone else gets an
//! `Arc`-clone of the frames.
//!
//! Design:
//!
//! * **Sharded** — entries hash to one of a fixed number of shards, each
//!   behind its own `parking_lot::Mutex`, so sessions touching different
//!   GOPs never contend on one lock.
//! * **Bounded LRU** — capacity is a total GOP count split evenly across
//!   shards; each shard evicts its least-recently-used entry when full.
//!   Capacity 0 disables caching entirely (every lookup decodes).
//! * **Miss-coalescing** — concurrent misses on the same key block on a
//!   per-key waiter while one thread decodes, so a cold cohort performs
//!   ~1× total GOP decodes instead of N×.
//! * **Observable** — hits, misses, evictions and resident bytes are
//!   atomic counters; [`GopCache::stats`] snapshots them for analytics
//!   and the EXP-11 tables.
//! * **Fingerprint memo** — [`GopCache::video_id`] fingerprints each
//!   shared video once per cache, so a learner joining a video costs
//!   O(1) instead of an O(payload) hash per session.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex};
use vgbl_obs::{Counter, Obs, Series, SeriesSpec};

use crate::codec::EncodedVideo;
use crate::container::{fnv1a, FNV_OFFSET};
use crate::error::MediaError;
use crate::frame::Frame;
use crate::Result;

/// Identity of an encoded video inside the cache key space.
///
/// [`EncodedVideo`] carries no identity of its own. Players get ids
/// through [`GopCache::video_id`], which fingerprints each shared video
/// once per cache and then answers from a memo; callers that hold no
/// `Arc` fingerprint the stream directly ([`VideoId::of`]) or assign ids
/// out-of-band ([`VideoId::from_raw`]) when they already know streams
/// are distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VideoId(u64);

impl VideoId {
    /// Wraps an externally assigned id.
    pub fn from_raw(id: u64) -> VideoId {
        VideoId(id)
    }

    /// Deterministic fingerprint of a stream: FNV-1a over the header
    /// fields and every frame's kind and payload. Two equal streams get
    /// equal ids; payload hashing makes collisions between different
    /// streams vanishingly unlikely. Un-memoised and O(payload): it is a
    /// pure function of the content, which stays mutable through the
    /// public fields of [`EncodedVideo`].
    pub fn of(video: &EncodedVideo) -> VideoId {
        let mut h = fnv1a(FNV_OFFSET, &video.width.to_le_bytes());
        h = fnv1a(h, &video.height.to_le_bytes());
        h = fnv1a(h, &video.gop.to_le_bytes());
        h = fnv1a(h, &[video.quality.to_u8()]);
        h = fnv1a(h, &(video.frames.len() as u64).to_le_bytes());
        for f in &video.frames {
            h = fnv1a(h, &[f.kind.to_u8()]);
            h = fnv1a(h, &(f.data.len() as u32).to_le_bytes());
            h = fnv1a(h, &f.data);
        }
        VideoId(h)
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Cache key: one GOP of one video.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GopKey {
    video: VideoId,
    keyframe: usize,
}

impl GopKey {
    /// Shard selector: splitmix-style scramble so consecutive keyframes
    /// of one video spread across shards.
    fn shard_hash(self) -> u64 {
        let mut z = self.video.0 ^ (self.keyframe as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A resolved or in-flight cache slot.
enum Slot {
    /// Decoded frames plus the last-touch tick for LRU ordering.
    Ready { frames: Arc<Vec<Frame>>, touched: u64 },
    /// A decode is in flight; waiters block on the waiter's condvar.
    Pending(Arc<Waiter>),
}

/// Blocks followers of an in-flight decode until the leader resolves it,
/// then hands every follower the leader's outcome — decoded frames or
/// the decode error. Errors are handed off, never cached: the slot is
/// removed before followers wake, so the key stays retryable.
struct Waiter {
    outcome: Mutex<Option<std::result::Result<Arc<Vec<Frame>>, MediaError>>>,
    cv: Condvar,
}

impl Waiter {
    fn new() -> Arc<Waiter> {
        Arc::new(Waiter { outcome: Mutex::new(None), cv: Condvar::new() })
    }

    fn wait(&self) -> std::result::Result<Arc<Vec<Frame>>, MediaError> {
        let mut guard = self.outcome.lock();
        while guard.is_none() {
            guard = self.cv.wait(guard);
        }
        guard.as_ref().expect("resolved outcome").clone()
    }

    fn resolve(&self, outcome: std::result::Result<Arc<Vec<Frame>>, MediaError>) {
        *self.outcome.lock() = Some(outcome);
        self.cv.notify_all();
    }
}

struct Shard {
    entries: HashMap<GopKey, Slot>,
}

/// Counter snapshot returned by [`GopCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to decode (including coalesced leaders).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// GOPs currently resident.
    pub resident_gops: usize,
    /// Decoded bytes currently resident (RGB frame payloads).
    pub resident_bytes: usize,
    /// Configured capacity in GOPs (0 = caching disabled).
    pub capacity_gops: usize,
}

impl CacheStats {
    /// Fraction of lookups served without decoding. Higher is better;
    /// **empty input (an untouched cache) returns the perfect value
    /// `1.0`** — the workspace-wide convention for ratio metrics.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Resolved observability handles for the cache's event sites. The
/// default (all-noop) handles cost one `Option` check per event, so an
/// unobserved cache is unaffected.
#[derive(Debug, Default)]
struct CacheObs {
    hits: Counter,
    misses: Counter,
    coalesced_hits: Counter,
    evictions: Counter,
    // Windowed series on the cache's own touch-tick clock: each lookup
    // advances logical time by one, so a window reads as "hit/miss mix
    // over the last N lookups" — a rolling hit-rate without wall time.
    hit_series: Series,
    miss_series: Series,
    fingerprints: Counter,
}

/// Bin width (in touch ticks) for the cache hit/miss series.
const CACHE_BIN_TICKS: u64 = 64;
/// Ring length for the cache hit/miss series.
const CACHE_BINS: usize = 64;

/// Bounded, sharded, miss-coalescing LRU cache of decoded GOPs.
pub struct GopCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry budget (total capacity / shard count, min 1).
    per_shard: usize,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident_bytes: AtomicUsize,
    resident_gops: AtomicUsize,
    /// [`GopCache::video_id`]'s memo: `Arc` allocation address → a
    /// `Weak` pinning that allocation, and the id of its content.
    videos: Mutex<HashMap<usize, (Weak<EncodedVideo>, VideoId)>>,
    obs: CacheObs,
}

impl std::fmt::Debug for GopCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GopCache")
            .field("capacity_gops", &self.capacity)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

fn frames_bytes(frames: &[Frame]) -> usize {
    frames
        .iter()
        .map(|f| (f.width() as usize) * (f.height() as usize) * 3)
        .sum()
}

impl GopCache {
    /// Creates a cache holding at most `capacity_gops` decoded GOPs in
    /// total. Capacity 0 disables caching: every lookup decodes and
    /// counts as a miss, which gives experiments a true "cold" baseline
    /// with the same code path.
    ///
    /// The shard count scales with capacity (~8 GOPs per shard, at most
    /// 16 shards): small caches stay in one shard so a handful of hot
    /// GOPs can never thrash each other across under-provisioned shards,
    /// while large shared caches spread lock traffic.
    pub fn new(capacity_gops: usize) -> GopCache {
        Self::with_shards(capacity_gops, capacity_gops.div_ceil(8).min(16))
    }

    /// Creates a cache with an explicit shard count (clamped to ≥ 1 and
    /// ≤ the capacity so no shard has a zero budget). Each shard gets a
    /// budget of `capacity / shards` rounded **up**, so total residency
    /// can exceed `capacity_gops` by at most `shards - 1` entries.
    pub fn with_shards(capacity_gops: usize, shards: usize) -> GopCache {
        let n_shards = shards.clamp(1, capacity_gops.max(1));
        let per_shard = if capacity_gops == 0 {
            0
        } else {
            capacity_gops.div_ceil(n_shards)
        };
        GopCache {
            shards: (0..n_shards)
                .map(|_| Mutex::new(Shard { entries: HashMap::new() }))
                .collect(),
            per_shard,
            capacity: capacity_gops,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            resident_gops: AtomicUsize::new(0),
            videos: Mutex::new(HashMap::new()),
            obs: CacheObs::default(),
        }
    }

    /// Attaches an observability backend: the cache's hit/miss/
    /// coalesced-hit/eviction events additionally feed `cache.*`
    /// counters (labelled `pillar=media`) in `obs`'s registry. These
    /// mirror the [`CacheStats`] atomics exactly — EXP-13 cross-checks
    /// the two accountings against each other — except that
    /// [`GopCache::reset_counters`] resets only the [`CacheStats`] side.
    /// `cache.fingerprints` counts the full-content hashes
    /// [`GopCache::video_id`] ran (memo misses); it has no
    /// [`CacheStats`] twin. With a noop backend this is free.
    pub fn observed(mut self, obs: &Obs) -> GopCache {
        let labels: &[(&str, &str)] = &[("pillar", "media")];
        self.obs = CacheObs {
            hits: obs.counter("cache.hits", labels),
            misses: obs.counter("cache.misses", labels),
            coalesced_hits: obs.counter("cache.coalesced_hits", labels),
            evictions: obs.counter("cache.evictions", labels),
            hit_series: obs.series(SeriesSpec::counter(
                "cache.hit_series",
                CACHE_BIN_TICKS,
                CACHE_BINS,
            )),
            miss_series: obs.series(SeriesSpec::counter(
                "cache.miss_series",
                CACHE_BIN_TICKS,
                CACHE_BINS,
            )),
            fingerprints: obs.counter("cache.fingerprints", labels),
        };
        self
    }

    /// The [`VideoId`] of `video`, fingerprinted at most once per `Arc`
    /// allocation while it lives: later calls with any clone of the same
    /// `Arc` answer from a memo, so a player joining a shared video pays
    /// O(live videos) instead of an O(payload) [`VideoId::of`].
    ///
    /// The memo is keyed by `Arc::as_ptr(video)` and holds a `Weak` to
    /// that allocation. Dead entries are pruned on every call before the
    /// lookup, so a hit is a live `Weak` to this very allocation, and the
    /// memo never holds more entries than there are live videos. A hit
    /// never returns the id of different content: while the `Weak` is
    /// held the allocation cannot be reused, `Arc::get_mut` refuses to
    /// mutate, and `Arc::make_mut` moves the content to a new
    /// allocation. The hash runs under the memo lock, so concurrent
    /// first calls for one video fingerprint it once.
    pub fn video_id(&self, video: &Arc<EncodedVideo>) -> VideoId {
        let key = Arc::as_ptr(video) as usize;
        let mut memo = self.videos.lock();
        memo.retain(|_, (weak, _)| weak.strong_count() > 0);
        if let Some(&(_, id)) = memo.get(&key) {
            return id;
        }
        let id = VideoId::of(video);
        self.obs.fingerprints.inc();
        memo.insert(key, (Arc::downgrade(video), id));
        id
    }

    /// Total capacity in GOPs (0 = disabled).
    pub fn capacity_gops(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_gops: self.resident_gops.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            capacity_gops: self.capacity,
        }
    }

    /// Resets the hit/miss/eviction counters (resident state is kept).
    /// Experiments use this to measure warm phases separately.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Drops every resident entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            let dropped: Vec<Slot> = s.entries.drain().map(|(_, v)| v).collect();
            drop(s);
            for slot in dropped {
                if let Slot::Ready { frames, .. } = slot {
                    self.resident_bytes.fetch_sub(frames_bytes(&frames), Ordering::Relaxed);
                    self.resident_gops.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Whether the GOP at `keyframe` of `video_id` is resident **right
    /// now**. A pure peek for batch planners (see `vgbl-runtime`'s
    /// batched cohort): it takes the shard lock but never touches the
    /// LRU clock or the hit/miss counters, so probing residency to plan
    /// a prewarm does not distort the cache statistics the experiments
    /// report. In-flight (`Pending`) decodes count as absent — a planner
    /// must not skip a key another thread may still fail to produce.
    pub fn contains(&self, video_id: VideoId, keyframe: usize) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let key = GopKey { video: video_id, keyframe };
        let shard = &self.shards[(key.shard_hash() % self.shards.len() as u64) as usize];
        matches!(shard.lock().entries.get(&key), Some(Slot::Ready { .. }))
    }

    /// Looks up the GOP at `keyframe` of `video_id`, decoding it with
    /// `decode` on a miss. Concurrent misses on the same key coalesce:
    /// one caller decodes, the rest block and then read the entry.
    ///
    /// `decode` must produce the frames of the **whole GOP** starting at
    /// `keyframe`; all consumers of a key must agree on that contract
    /// (they do — everyone decodes `[keyframe, next_keyframe)`).
    ///
    /// # Errors
    /// Propagates `decode`'s error. A failed decode is never cached:
    /// coalesced followers are woken with a clone of the leader's error,
    /// and the key stays retryable for later callers.
    pub fn get_or_decode<F>(
        &self,
        video_id: VideoId,
        keyframe: usize,
        decode: F,
    ) -> Result<Arc<Vec<Frame>>>
    where
        F: FnOnce() -> Result<Vec<Frame>>,
    {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.obs.misses.inc();
            self.obs.miss_series.record(self.clock.fetch_add(1, Ordering::Relaxed), 1);
            return decode().map(Arc::new);
        }
        let key = GopKey { video: video_id, keyframe };
        let shard = &self.shards[(key.shard_hash() % self.shards.len() as u64) as usize];
        // Fast path under the shard lock: hit, or join an in-flight
        // decode, or claim leadership of a new one.
        let waiter = {
            let mut s = shard.lock();
            match s.entries.get_mut(&key) {
                Some(Slot::Ready { frames, touched }) => {
                    *touched = self.clock.fetch_add(1, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.obs.hits.inc();
                    self.obs.hit_series.record(*touched, 1);
                    return Ok(frames.clone());
                }
                Some(Slot::Pending(w)) => w.clone(),
                None => {
                    let w = Waiter::new();
                    s.entries.insert(key, Slot::Pending(w.clone()));
                    drop(s);
                    return self.lead_decode(shard, key, w, decode);
                }
            }
        };
        // Follower: block until the leader resolves, then share its
        // outcome — frames count as a coalesced hit, an error counts as
        // a miss and propagates without being cached anywhere.
        match waiter.wait() {
            Ok(frames) => {
                let tick = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs.hits.inc();
                self.obs.coalesced_hits.inc();
                self.obs.hit_series.record(tick, 1);
                Ok(frames)
            }
            Err(e) => {
                let tick = self.clock.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.obs.misses.inc();
                self.obs.miss_series.record(tick, 1);
                Err(e)
            }
        }
    }

    /// Leader path: decode outside the lock, publish, wake followers.
    fn lead_decode<F>(
        &self,
        shard: &Mutex<Shard>,
        key: GopKey,
        waiter: Arc<Waiter>,
        decode: F,
    ) -> Result<Arc<Vec<Frame>>>
    where
        F: FnOnce() -> Result<Vec<Frame>>,
    {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs.misses.inc();
        self.obs.miss_series.record(self.clock.load(Ordering::Relaxed), 1);
        let outcome = decode();
        let mut s = shard.lock();
        match outcome {
            Ok(frames) => {
                let frames = Arc::new(frames);
                let touched = self.clock.fetch_add(1, Ordering::Relaxed);
                s.entries
                    .insert(key, Slot::Ready { frames: frames.clone(), touched });
                self.resident_gops.fetch_add(1, Ordering::Relaxed);
                self.resident_bytes.fetch_add(frames_bytes(&frames), Ordering::Relaxed);
                self.evict_over_capacity(&mut s, key);
                drop(s);
                waiter.resolve(Ok(frames.clone()));
                Ok(frames)
            }
            Err(e) => {
                // Negative results are never cached: remove the slot
                // before waking followers so the key stays retryable.
                s.entries.remove(&key);
                drop(s);
                waiter.resolve(Err(e.clone()));
                Err(e)
            }
        }
    }

    /// Evicts least-recently-used Ready entries (never the one just
    /// inserted, never Pending ones) until the shard is within budget.
    fn evict_over_capacity(&self, s: &mut Shard, keep: GopKey) {
        while s.entries.len() > self.per_shard {
            let victim = s
                .entries
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { touched, .. } if *k != keep => Some((*k, *touched)),
                    _ => None,
                })
                .min_by_key(|&(_, touched)| touched)
                .map(|(k, _)| k);
            let Some(victim) = victim else { break };
            if let Some(Slot::Ready { frames, .. }) = s.entries.remove(&victim) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.obs.evictions.inc();
                self.resident_gops.fetch_sub(1, Ordering::Relaxed);
                self.resident_bytes.fetch_sub(frames_bytes(&frames), Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decoder, EncodeConfig, Encoder};
    use crate::color::Rgb;
    use crate::synth::{FootageSpec, ShotSpec};
    use crate::timeline::FrameRate;

    fn encoded(gop: usize, frames: usize) -> EncodedVideo {
        let footage = FootageSpec {
            width: 24,
            height: 16,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec::plain(frames, Rgb::new(90, 140, 60))],
            noise_seed: 11,
        }
        .render()
        .unwrap();
        Encoder::new(EncodeConfig { gop, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap()
    }

    #[test]
    fn hit_after_miss_returns_same_frames() {
        let ev = encoded(4, 12);
        let id = VideoId::of(&ev);
        let cache = GopCache::new(8);
        let dec = Decoder::default();
        let a = cache
            .get_or_decode(id, 4, || dec.decode_gop_at(&ev, 4))
            .unwrap();
        let b = cache
            .get_or_decode(id, 4, || panic!("second lookup must hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_gops, 1);
        assert_eq!(s.resident_bytes, 4 * 24 * 16 * 3);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let ev = encoded(4, 8);
        let id = VideoId::of(&ev);
        let cache = GopCache::new(0);
        let dec = Decoder::default();
        for _ in 0..3 {
            cache
                .get_or_decode(id, 0, || dec.decode_gop_at(&ev, 0))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 3));
        assert_eq!(s.resident_gops, 0);
        assert_eq!(s.capacity_gops, 0);
    }

    #[test]
    fn lru_evicts_coldest_entry() {
        let ev = encoded(2, 12); // keyframes 0,2,4,6,8,10
        let id = VideoId::of(&ev);
        // Single shard, two entries, so eviction order is fully observable.
        let cache = GopCache::with_shards(2, 1);
        let dec = Decoder::default();
        let fill = |k: usize| {
            cache
                .get_or_decode(id, k, || dec.decode_gop_at(&ev, k))
                .unwrap()
        };
        fill(0);
        fill(2);
        fill(0); // touch 0 so 2 is now the LRU
        fill(4); // evicts 2
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_gops, 2);
        // 0 is still resident (hit), 2 must decode again (miss).
        let before = cache.stats();
        fill(0);
        fill(2);
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses + 1);
    }

    #[test]
    fn distinct_videos_do_not_collide() {
        let a = encoded(4, 8);
        let b = encoded(4, 16);
        assert_ne!(VideoId::of(&a), VideoId::of(&b));
        assert_eq!(VideoId::of(&a), VideoId::of(&a.clone()));
        let cache = GopCache::new(8);
        let dec = Decoder::default();
        let fa = cache
            .get_or_decode(VideoId::of(&a), 0, || dec.decode_gop_at(&a, 0))
            .unwrap();
        let fb = cache
            .get_or_decode(VideoId::of(&b), 0, || dec.decode_gop_at(&b, 0))
            .unwrap();
        assert_eq!(cache.stats().misses, 2, "same keyframe, different video");
        assert_eq!(fa.len(), 4);
        assert_eq!(fb.len(), 4);
    }

    #[test]
    fn failed_decode_leaves_no_entry() {
        let cache = GopCache::new(4);
        let id = VideoId::from_raw(7);
        let err = cache.get_or_decode(id, 0, || {
            Err(crate::MediaError::CorruptBitstream("boom".into()))
        });
        assert!(err.is_err());
        assert_eq!(cache.stats().resident_gops, 0);
        // The key is retryable.
        let ok = cache.get_or_decode(id, 0, || Ok(Vec::new()));
        assert!(ok.is_ok());
    }

    #[test]
    fn clear_and_reset_counters() {
        let ev = encoded(3, 9);
        let id = VideoId::of(&ev);
        let cache = GopCache::new(8);
        let dec = Decoder::default();
        for k in [0usize, 3, 6] {
            cache
                .get_or_decode(id, k, || dec.decode_gop_at(&ev, k))
                .unwrap();
        }
        assert_eq!(cache.stats().resident_gops, 3);
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.resident_gops, 0);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.misses, 3, "counters survive clear");
        cache.reset_counters();
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn concurrent_misses_coalesce_to_one_decode() {
        use std::sync::atomic::AtomicUsize;
        let ev = encoded(8, 16);
        let id = VideoId::of(&ev);
        let cache = GopCache::new(8);
        let decodes = AtomicUsize::new(0);
        let dec = Decoder::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let frames = cache
                        .get_or_decode(id, 0, || {
                            decodes.fetch_add(1, Ordering::Relaxed);
                            dec.decode_gop_at(&ev, 0)
                        })
                        .unwrap();
                    assert_eq!(frames.len(), 8);
                });
            }
        });
        assert_eq!(
            decodes.load(Ordering::Relaxed),
            1,
            "all concurrent misses must coalesce onto one decode"
        );
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn flaky_decoder_error_wakes_coalesced_waiters_and_stays_retryable() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;
        let cache = GopCache::new(4);
        let id = VideoId::from_raw(3);
        let decodes = AtomicUsize::new(0);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            // Leader: decode fails, but only after followers have joined
            // the Pending slot.
            let (cache_ref, decodes_ref) = (&cache, &decodes);
            let leader = s.spawn(move || {
                cache_ref.get_or_decode(id, 0, || {
                    decodes_ref.fetch_add(1, Ordering::Relaxed);
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Err(crate::MediaError::CorruptBitstream("flaky".into()))
                })
            });
            started_rx.recv().unwrap();
            // Followers join while the decode is in flight; their own
            // closures must never run.
            let followers: Vec<_> = (0..7)
                .map(|_| {
                    s.spawn(|| {
                        cache.get_or_decode(id, 0, || {
                            panic!("follower closure must not run on a coalesced miss")
                        })
                    })
                })
                .collect();
            // Wait until every follower has joined the Pending slot
            // (map + leader + 7 followers = 9 waiter references), then
            // let the decode fail.
            let key = GopKey { video: id, keyframe: 0 };
            let sidx = (key.shard_hash() % cache.shards.len() as u64) as usize;
            loop {
                let shard = cache.shards[sidx].lock();
                match shard.entries.get(&key) {
                    Some(Slot::Pending(w)) if Arc::strong_count(w) >= 9 => break,
                    _ => {}
                }
                drop(shard);
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            let lead_err = leader.join().unwrap().unwrap_err();
            assert_eq!(lead_err, crate::MediaError::CorruptBitstream("flaky".into()));
            for f in followers {
                // Every follower gets the leader's error — woken, not
                // blocked forever, and nothing re-decoded.
                let err = f.join().unwrap().unwrap_err();
                assert_eq!(err, lead_err);
            }
        });
        assert_eq!(decodes.load(Ordering::Relaxed), 1, "exactly one decode attempt");
        assert_eq!(cache.stats().resident_gops, 0, "failure must not be cached");
        // The key is immediately retryable and a success is cached.
        let ok = cache
            .get_or_decode(id, 0, || Ok(Vec::new()))
            .expect("retry after flaky failure succeeds");
        assert!(ok.is_empty());
        assert_eq!(cache.stats().resident_gops, 1);
    }

    #[test]
    fn obs_counters_mirror_cache_stats_exactly() {
        let ev = encoded(2, 12);
        let id = VideoId::of(&ev);
        let obs = Obs::recording();
        let cache = GopCache::with_shards(2, 1).observed(&obs);
        let dec = Decoder::default();
        // Misses, hits and an eviction, all on the observed cache.
        for k in [0usize, 2, 0, 4, 0, 2] {
            cache
                .get_or_decode(id, k, || dec.decode_gop_at(&ev, k))
                .unwrap();
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "walk must trigger an eviction");
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total("cache.hits"), s.hits);
        assert_eq!(snap.counter_total("cache.misses"), s.misses);
        assert_eq!(snap.counter_total("cache.evictions"), s.evictions);
        assert_eq!(snap.counter_total("cache.coalesced_hits"), 0);
    }

    #[test]
    fn video_id_values_are_pinned() {
        // The ids the original inline FNV-1a loop produced: sharing the
        // container's `fnv1a` must not move any cache key.
        assert_eq!(VideoId::of(&encoded(4, 8)).raw(), 0x6c5d_3435_831d_819e);
        assert_eq!(VideoId::of(&encoded(4, 16)).raw(), 0x0ad0_0da1_5bd8_62ec);
    }

    fn fingerprints(obs: &Obs) -> u64 {
        obs.snapshot().counter_total("cache.fingerprints")
    }

    #[test]
    fn video_id_fingerprints_each_arc_once() {
        let obs = Obs::recording();
        let cache = GopCache::new(8).observed(&obs);
        let video = Arc::new(encoded(4, 8));
        let want = VideoId::of(&video);
        for _ in 0..5 {
            assert_eq!(cache.video_id(&video.clone()), want);
        }
        assert_eq!(fingerprints(&obs), 1);
    }

    #[test]
    fn concurrent_first_video_id_calls_fingerprint_once() {
        // Four threads make their first lookup of one video at the same
        // moment. The hash runs under the memo lock, so one of them pays
        // it; the payload is padded so the hash (~0.5 ms) is a wide
        // window for a racing lookup to slip into, and the race is run
        // on several fresh caches.
        let mut padded = encoded(4, 8);
        for f in &mut padded.frames {
            f.data = vec![0x5a; 64 * 1024];
        }
        let video = Arc::new(padded);
        let want = VideoId::of(&video);
        for _ in 0..8 {
            let obs = Obs::recording();
            let cache = GopCache::new(8).observed(&obs);
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        start.wait();
                        assert_eq!(cache.video_id(&video), want);
                    });
                }
            });
            assert_eq!(fingerprints(&obs), 1);
        }
    }

    #[test]
    fn video_id_of_equal_content_in_distinct_arcs_is_equal() {
        let obs = Obs::recording();
        let cache = GopCache::new(8).observed(&obs);
        let a = Arc::new(encoded(4, 8));
        let b = Arc::new(encoded(4, 8));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.video_id(&a), cache.video_id(&b));
        assert_eq!(cache.video_id(&a), VideoId::of(&a));
        assert_eq!(fingerprints(&obs), 2, "one fingerprint per allocation");
    }

    #[test]
    fn video_id_follows_make_mut_to_the_new_content() {
        let cache = GopCache::new(8);
        let mut video = Arc::new(encoded(4, 8));
        let before = cache.video_id(&video);
        assert!(Arc::get_mut(&mut video).is_none(), "the memo's Weak blocks in-place mutation");
        Arc::make_mut(&mut video).frames.truncate(4);
        let after = cache.video_id(&video);
        assert_eq!(after, VideoId::of(&video), "the id of the new content");
        assert_ne!(after, before);
        assert_eq!(cache.videos.lock().len(), 1, "the moved-from entry is pruned");
    }

    #[test]
    fn video_id_memo_is_bounded_by_live_videos() {
        let cache = GopCache::new(8);
        let keep = Arc::new(encoded(4, 8));
        let dropped: Vec<Arc<EncodedVideo>> =
            (0..3).map(|n| Arc::new(encoded(4, 12 + 4 * n))).collect();
        cache.video_id(&keep);
        for v in &dropped {
            cache.video_id(v);
        }
        assert_eq!(cache.videos.lock().len(), 4);
        drop(dropped);
        assert_eq!(cache.video_id(&keep), VideoId::of(&keep));
        assert_eq!(cache.videos.lock().len(), 1, "dead videos leave the memo");
    }

    #[test]
    fn stress_many_threads_many_keys() {
        let ev = encoded(2, 40); // 20 GOPs
        let id = VideoId::of(&ev);
        let cache = GopCache::with_shards(6, 3);
        let dec = Decoder::default();
        let reference = dec.decode_all(&ev).unwrap();
        std::thread::scope(|s| {
            for t in 0..6 {
                let reference = &reference;
                let cache = &cache;
                let ev = &ev;
                let dec = &dec;
                s.spawn(move || {
                    // Each thread walks the keyframes with its own stride.
                    for lap in 0..30usize {
                        let k = ((lap * (t + 1) + t) % 20) * 2;
                        let frames = cache
                            .get_or_decode(id, k, || dec.decode_gop_at(ev, k))
                            .unwrap();
                        assert_eq!(frames[0], reference.frames[k], "gop {k}");
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 180);
        assert!(s.resident_gops <= 6 + 2, "resident {} over budget", s.resident_gops);
    }
}
