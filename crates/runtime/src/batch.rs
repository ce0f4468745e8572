//! Tick-lockstep playback cohorts with **batched GOP decode**.
//!
//! [`crate::server::run_playback_cohort`] runs every session on its own
//! worker; the shared [`GopCache`] already deduplicates decode *work*
//! (miss-coalescing), but each tick still races N sessions into the
//! cache and blocks followers on the leader's condvar. This module runs
//! the same deterministic walks in lockstep instead: per tick it moves
//! every session first, collects the **union of GOPs the cohort is about
//! to need**, decodes the missing ones exactly once through the
//! work-stealing [`parallel_map_indexed`] pool, and only then serves —
//! every serve is a cache hit, no session ever blocks on another's
//! decode.
//!
//! The walks are byte-identical to the unbatched runner's: session `i`
//! seeds its RNG with the same constant, starts in the same segment and
//! draws the same switch/advance sequence, so the frames each session
//! sees — checksummed into [`BatchedCohortReport::session_checksums`] —
//! match a [`PlaybackController`] walking alone. Only *who pays for
//! decoding* changes, which is exactly what the report separates out as
//! [`BatchedCohortReport::prewarm_gops`].

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vgbl_media::cache::GopCache;
use vgbl_media::codec::{Decoder, EncodedVideo};
use vgbl_media::parallel::parallel_map_indexed;
use vgbl_media::{SegmentId, SegmentTable};

use crate::analytics::DecodeReuse;
use crate::playback::PlaybackController;
use crate::server::SessionOutcome;
use crate::Result;

/// FNV-1a fold of `bytes` into `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Aggregated outcome of a batched playback cohort run.
#[derive(Debug, Clone)]
pub struct BatchedCohortReport {
    /// Sessions that completed successfully.
    pub sessions: usize,
    /// Sessions that failed (structural playback errors).
    pub failed: usize,
    /// Per-session outcome, indexed by session number.
    pub outcomes: Vec<SessionOutcome>,
    /// Frames served to players, summed over completed sessions.
    pub frames_served: usize,
    /// Frames decoded in total: the batch prewarm's decodes plus any
    /// frames completed sessions decoded themselves (cold starts with a
    /// disabled cache, or a key that failed prewarm).
    pub frames_decoded: usize,
    /// Segment switches performed, summed over completed sessions.
    pub switches: usize,
    /// GOPs decoded by the batch prewarm phase (each exactly once per
    /// residency, however many sessions needed it that tick).
    pub prewarm_gops: usize,
    /// Per-session FNV-1a checksum over every frame the session was
    /// served, in serve order (failed sessions keep the prefix they saw
    /// before failing). Bit-identical to an unbatched walk of the same
    /// session index.
    pub session_checksums: Vec<u64>,
    /// One checksum over [`BatchedCohortReport::session_checksums`] in
    /// index order — a cohort-wide frame-identity fingerprint.
    pub served_checksum: u64,
    /// Decode-reuse counters of the shared cache after the run.
    pub reuse: DecodeReuse,
}

/// One session's lockstep state.
struct LockstepSession {
    player: Option<PlaybackController>,
    rng: StdRng,
    checksum: u64,
    failure: Option<String>,
}

impl LockstepSession {
    fn alive(&self) -> bool {
        self.failure.is_none() && self.player.is_some()
    }
}

/// Runs `n_sessions` deterministic playback walks in tick-lockstep,
/// decoding each needed GOP **once per tick** through the work-stealing
/// pool instead of once per session.
///
/// The walk of session `i` is identical to
/// [`crate::server::run_playback_cohort`]'s: start in segment
/// `i mod n_segments`, then per step either switch to a seeded-random
/// segment (1 in 4) or advance ~one frame of wall time; every step
/// serves exactly one frame. With a disabled cache (capacity 0) the
/// prewarm phase is skipped — there is nothing to share — and the run
/// degrades to per-session decoding, still bit-identical.
///
/// # Errors
/// Never fails on per-session problems (they become
/// [`SessionOutcome::Failed`] rows); the `Result` mirrors the unbatched
/// runner's signature.
pub fn run_playback_cohort_batched(
    video: Arc<EncodedVideo>,
    segments: &SegmentTable,
    cache: Arc<GopCache>,
    n_sessions: usize,
    workers: usize,
    steps_per_session: usize,
) -> Result<BatchedCohortReport> {
    let n_segments = segments.len().max(1) as u32;
    if n_sessions == 0 {
        return Ok(BatchedCohortReport {
            sessions: 0,
            failed: 0,
            outcomes: Vec::new(),
            frames_served: 0,
            frames_decoded: 0,
            switches: 0,
            prewarm_gops: 0,
            session_checksums: Vec::new(),
            served_checksum: 0xcbf2_9ce4_8422_2325,
            reuse: DecodeReuse::from_cache(&cache.stats()),
        });
    }
    let workers = workers.max(1);
    let video_id = cache.video_id(&video);
    let decoder = Decoder::default();

    let mut sessions: Vec<LockstepSession> = (0..n_sessions)
        .map(|i| {
            let initial = SegmentId(i as u32 % n_segments);
            let (player, failure) = match PlaybackController::shared(
                video.clone(),
                segments.clone(),
                initial,
                cache.clone(),
            ) {
                Ok(p) => (Some(p), None),
                Err(e) => (None, Some(e.to_string())),
            };
            LockstepSession {
                player,
                rng: StdRng::seed_from_u64(0x9e37_79b9 ^ i as u64),
                checksum: 0xcbf2_9ce4_8422_2325,
                failure,
            }
        })
        .collect();

    let mut prewarm_gops = 0usize;
    let mut prewarm_frames = 0usize;

    // Decodes the union of GOPs the cohort needs for its next serve,
    // each missing one exactly once, fanned over the decode pool. With
    // caching disabled there is no residency to share, so skip.
    let mut prewarm = |sessions: &[LockstepSession]| {
        if cache.capacity_gops() == 0 {
            return;
        }
        let needed: BTreeSet<usize> = sessions
            .iter()
            .filter(|s| s.alive())
            .filter_map(|s| s.player.as_ref().and_then(|p| p.pending_keyframe().ok()))
            .collect();
        let missing: Vec<usize> = needed
            .into_iter()
            .filter(|&k| !cache.contains(video_id, k))
            .collect();
        if missing.is_empty() {
            return;
        }
        let decoded: Vec<usize> = parallel_map_indexed(missing.len(), workers, |j| {
            let k = missing[j];
            // Failures are left for the sessions' own serve path, which
            // conceals (or fails) with the unbatched semantics.
            cache
                .get_or_decode(video_id, k, || decoder.decode_gop_at(&video, k))
                .map(|frames| frames.len())
                .unwrap_or(0)
        });
        prewarm_gops += decoded.iter().filter(|&&n| n > 0).count();
        prewarm_frames += decoded.iter().sum::<usize>();
    };

    // Serves one frame per live session, in index order, folding the
    // frame bytes into the session's checksum. A structural error ends
    // the session exactly like the unbatched runner's `?` would.
    fn serve(sessions: &mut [LockstepSession]) {
        for s in sessions.iter_mut() {
            if !s.alive() {
                continue;
            }
            let player = s.player.as_mut().expect("alive implies player");
            match player.current_frame() {
                Ok(frame) => s.checksum = fnv1a(s.checksum, frame.raw()),
                Err(e) => s.failure = Some(e.to_string()),
            }
        }
    }

    // Tick 0: every session renders its opening frame.
    prewarm(&sessions);
    serve(&mut sessions);
    for _ in 0..steps_per_session {
        // Move phase: same RNG draw order as the unbatched walk.
        for s in sessions.iter_mut() {
            if !s.alive() {
                continue;
            }
            let player = s.player.as_mut().expect("alive implies player");
            if s.rng.gen_range(0..4u32) == 0 {
                let target = SegmentId(s.rng.gen_range(0..n_segments));
                if let Err(e) = player.seek_segment(target) {
                    s.failure = Some(e.to_string());
                }
            } else {
                player.advance_ms(33);
            }
        }
        prewarm(&sessions);
        serve(&mut sessions);
    }

    let mut outcomes = Vec::with_capacity(n_sessions);
    let mut frames_served = 0usize;
    let mut frames_decoded = prewarm_frames;
    let mut switches = 0usize;
    let mut session_checksums = Vec::with_capacity(n_sessions);
    let mut served_checksum = 0xcbf2_9ce4_8422_2325u64;
    for s in &sessions {
        session_checksums.push(s.checksum);
        served_checksum = fnv1a(served_checksum, &s.checksum.to_le_bytes());
        match &s.failure {
            Some(reason) => outcomes.push(SessionOutcome::Failed { reason: reason.clone() }),
            None => {
                let stats =
                    s.player.as_ref().map(|p| p.stats()).unwrap_or_default();
                frames_served += stats.frames_served;
                frames_decoded += stats.frames_decoded;
                switches += stats.switches;
                outcomes.push(SessionOutcome::Completed);
            }
        }
    }
    Ok(BatchedCohortReport {
        sessions: outcomes.iter().filter(|o| o.is_completed()).count(),
        failed: outcomes.iter().filter(|o| o.is_failed()).count(),
        outcomes,
        frames_served,
        frames_decoded,
        switches,
        prewarm_gops,
        session_checksums,
        served_checksum,
        reuse: DecodeReuse::from_cache(&cache.stats()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgbl_media::codec::{EncodeConfig, Encoder};
    use vgbl_media::color::Rgb;
    use vgbl_media::synth::{FootageSpec, ShotSpec};
    use vgbl_media::timeline::FrameRate;

    fn cohort_video() -> (Arc<EncodedVideo>, SegmentTable) {
        let footage = FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![
                ShotSpec::plain(12, Rgb::new(210, 40, 40)),
                ShotSpec::plain(12, Rgb::new(40, 210, 40)),
                ShotSpec::plain(12, Rgb::new(40, 40, 210)),
            ],
            noise_seed: 77,
        }
        .render()
        .unwrap();
        let video = Encoder::new(EncodeConfig { gop: 6, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap();
        let table = SegmentTable::from_cuts(36, &[12, 24]).unwrap();
        (Arc::new(video), table)
    }

    /// Replays session `i`'s walk with a lone [`PlaybackController`]
    /// (the unbatched semantics) and returns its served-frame checksum.
    fn reference_walk(
        video: Arc<EncodedVideo>,
        segments: &SegmentTable,
        i: usize,
        n_segments: u32,
        steps: usize,
    ) -> u64 {
        let initial = SegmentId(i as u32 % n_segments);
        let cache = Arc::new(GopCache::new(16));
        let mut player =
            PlaybackController::shared(video, segments.clone(), initial, cache).unwrap();
        let mut rng = StdRng::seed_from_u64(0x9e37_79b9 ^ i as u64);
        let mut sum = 0xcbf2_9ce4_8422_2325u64;
        sum = fnv1a(sum, player.current_frame().unwrap().raw());
        for _ in 0..steps {
            if rng.gen_range(0..4u32) == 0 {
                let target = SegmentId(rng.gen_range(0..n_segments));
                player.seek_segment(target).unwrap();
            } else {
                player.advance_ms(33);
            }
            sum = fnv1a(sum, player.current_frame().unwrap().raw());
        }
        sum
    }

    #[test]
    fn batched_frames_are_bit_identical_to_solo_walks() {
        let (video, table) = cohort_video();
        let report = run_playback_cohort_batched(
            video.clone(),
            &table,
            Arc::new(GopCache::new(16)),
            6,
            3,
            25,
        )
        .unwrap();
        assert_eq!(report.sessions, 6);
        assert_eq!(report.failed, 0);
        for (i, &sum) in report.session_checksums.iter().enumerate() {
            let expect = reference_walk(video.clone(), &table, i, 3, 25);
            assert_eq!(sum, expect, "session {i} diverged from its solo walk");
        }
    }

    #[test]
    fn batched_matches_unbatched_cohort_accounting() {
        let (video, table) = cohort_video();
        let batched = run_playback_cohort_batched(
            video.clone(),
            &table,
            Arc::new(GopCache::new(16)),
            12,
            4,
            30,
        )
        .unwrap();
        let unbatched = crate::server::run_playback_cohort(
            video.clone(),
            &table,
            Arc::new(GopCache::new(16)),
            12,
            4,
            30,
        )
        .unwrap();
        assert_eq!(batched.frames_served, unbatched.frames_served);
        assert_eq!(batched.switches, unbatched.switches);
        // Both decode each GOP exactly once in total; the batched run
        // attributes that work to the prewarm phase.
        assert_eq!(batched.frames_decoded, unbatched.frames_decoded);
        assert_eq!(batched.prewarm_gops as u64, batched.reuse.misses);
        assert!(batched.prewarm_gops <= video.keyframes().len());
        assert_eq!(batched.reuse.misses, unbatched.reuse.misses);
    }

    #[test]
    fn batched_is_deterministic_across_worker_counts() {
        let (video, table) = cohort_video();
        let run = |workers: usize| {
            run_playback_cohort_batched(
                video.clone(),
                &table,
                Arc::new(GopCache::new(16)),
                8,
                workers,
                20,
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.served_checksum, b.served_checksum);
        assert_eq!(a.frames_served, b.frames_served);
        assert_eq!(a.switches, b.switches);
        assert_eq!(a.prewarm_gops, b.prewarm_gops);
    }

    #[test]
    fn disabled_cache_degrades_without_prewarm() {
        let (video, table) = cohort_video();
        let report = run_playback_cohort_batched(
            video.clone(),
            &table,
            Arc::new(GopCache::new(0)),
            4,
            2,
            10,
        )
        .unwrap();
        assert_eq!(report.prewarm_gops, 0, "capacity 0 must skip prewarm");
        assert_eq!(report.failed, 0);
        // Frames still bit-identical to solo walks.
        for (i, &sum) in report.session_checksums.iter().enumerate() {
            let expect = reference_walk(video.clone(), &table, i, 3, 10);
            assert_eq!(sum, expect, "session {i}");
        }
    }

    #[test]
    fn corrupt_keyframe_fails_only_affected_sessions() {
        let (video, table) = cohort_video();
        let mut broken = (*video).clone();
        assert!(broken.frames[0].data.len() > 4);
        broken.frames[0].data.truncate(3);
        let report = run_playback_cohort_batched(
            Arc::new(broken),
            &table,
            Arc::new(GopCache::new(16)),
            12,
            4,
            30,
        )
        .unwrap();
        // Sessions starting in segment 0 (i % 3 == 0) have nothing to
        // freeze on and fail — identical to the unbatched cohort.
        assert_eq!(report.failed, 4, "{:?}", report.outcomes);
        assert_eq!(report.sessions, 8);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.is_failed(), i % 3 == 0, "session {i}: {o:?}");
        }
    }

    #[test]
    fn empty_cohort_is_fine() {
        let (video, table) = cohort_video();
        let report = run_playback_cohort_batched(
            video,
            &table,
            Arc::new(GopCache::new(4)),
            0,
            4,
            10,
        )
        .unwrap();
        assert_eq!(report.sessions, 0);
        assert_eq!(report.frames_served, 0);
    }
}
