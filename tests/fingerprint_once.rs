//! A cohort of learners over one shared video fingerprints it once.
//!
//! Every player needs the video's content id to key the shared GOP
//! cache. `GopCache::video_id` memoises it per `Arc` allocation, so a
//! cohort call pays one O(payload) hash in total, not one per learner.
//! `cache.fingerprints` counts the hashes an observed cache actually
//! ran. Concurrent first lookups from several threads are covered by
//! `vgbl-media`'s own cache tests.

use std::sync::Arc;

use vgbl_media::cache::{GopCache, VideoId};
use vgbl_media::codec::{EncodeConfig, EncodedVideo, Encoder};
use vgbl_media::color::Rgb;
use vgbl_media::synth::{FootageSpec, ShotSpec};
use vgbl_media::timeline::FrameRate;
use vgbl_media::SegmentTable;
use vgbl_obs::Obs;
use vgbl_runtime::{run_playback_cohort, run_playback_cohort_observed};

const SESSIONS: usize = 12;
const STEPS: usize = 10;

/// A three-segment clip, 18 frames per shot, GOP 6.
fn clip() -> (Arc<EncodedVideo>, SegmentTable) {
    let footage = FootageSpec {
        width: 32,
        height: 24,
        rate: FrameRate::FPS30,
        shots: vec![
            ShotSpec::plain(18, Rgb::new(210, 40, 40)),
            ShotSpec::plain(18, Rgb::new(40, 210, 40)),
            ShotSpec::plain(18, Rgb::new(40, 40, 210)),
        ],
        noise_seed: 5,
    }
    .render()
    .unwrap();
    let video = Encoder::new(EncodeConfig { gop: 6, ..Default::default() })
        .encode(&footage.frames, footage.rate)
        .unwrap();
    let table = SegmentTable::from_cuts(54, &[18, 36]).unwrap();
    (Arc::new(video), table)
}

fn observed_cache(obs: &Obs) -> Arc<GopCache> {
    Arc::new(GopCache::new(64).observed(obs))
}

fn fingerprints(obs: &Obs) -> u64 {
    obs.snapshot().counter_total("cache.fingerprints")
}

#[test]
fn executor_cohort_fingerprints_the_video_once() {
    let (video, table) = clip();
    let obs = Obs::recording();
    let cache = observed_cache(&obs);
    let report =
        run_playback_cohort_observed(video.clone(), &table, cache.clone(), SESSIONS, 2, STEPS, &obs)
            .unwrap();
    assert_eq!((report.sessions, report.failed), (SESSIONS, 0));
    assert_eq!(fingerprints(&obs), 1);
    // A second call on the same cache reuses the memoised id.
    run_playback_cohort(video.clone(), &table, cache.clone(), SESSIONS, 2, STEPS).unwrap();
    assert_eq!(fingerprints(&obs), 1);
    assert_eq!(cache.video_id(&video), VideoId::of(&video));
}

#[test]
fn each_cache_and_each_allocation_fingerprints_separately() {
    let (video, table) = clip();
    let copy = Arc::new(EncodedVideo::clone(&video));
    let obs = Obs::recording();
    let cache = observed_cache(&obs);
    run_playback_cohort(video.clone(), &table, cache.clone(), SESSIONS, 2, STEPS).unwrap();
    run_playback_cohort(copy.clone(), &table, cache.clone(), SESSIONS, 2, STEPS).unwrap();
    assert_eq!(fingerprints(&obs), 2, "one hash per live allocation");
    assert_eq!(cache.video_id(&video), cache.video_id(&copy), "equal content, equal id");
    run_playback_cohort(video, &table, observed_cache(&obs), SESSIONS, 2, STEPS).unwrap();
    assert_eq!(fingerprints(&obs), 3, "a fresh cache has a fresh memo");
}
