//! The cooperative executor's one promise: scheduling is invisible.
//!
//! `run_cohort` / `run_playback_cohort*` step their sessions on the
//! deterministic executor (seeded run queue, yield-at-fetch state
//! machines, per-tick batched prewarm). The oracle here defines what
//! each session must see instead: every session run alone, in index
//! order, through the public single-session API (`run_session`, a
//! `PlaybackController` walk) under its own `catch_unwind`. These
//! properties pin the executor byte-identical to it on the same inputs:
//! per-session outcomes, frame/switch accounting, learning aggregates,
//! and the full obs exports (traces, series, counters) — including
//! cohorts with a panicking bot, whose failure must stay isolated to its
//! own row. That the executor's output does not depend on its worker
//! count is pinned by `server.rs`'s `*_across_worker_counts` tests.
//!
//! Two accounting differences by design: the executor prewarms a
//! tick's GOPs through the shared cache before sessions serve, so cache
//! *lookup* counts (hits) differ while *decode* work does not (with a
//! full-capacity cache both sides decode every distinct GOP exactly
//! once, so `frames_decoded` is compared too; reuse hit counts are
//! not), and the executor exports its own scheduling telemetry
//! (`executor.*` run-queue/fetch-batch metrics) that a one-at-a-time
//! oracle cannot have, so those rows are projected out before the
//! exports are compared.

use std::panic::{self, catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vgbl_media::cache::GopCache;
use vgbl_media::codec::{EncodeConfig, EncodedVideo, Encoder};
use vgbl_media::color::Rgb;
use vgbl_media::synth::{FootageSpec, ShotSpec};
use vgbl_media::timeline::FrameRate;
use vgbl_media::{SegmentId, SegmentTable};
use vgbl_obs::{Obs, SeriesSpec, SpanRecorder};
use vgbl_runtime::bot::{run_session, Bot, GuidedBot, RandomBot};
use vgbl_runtime::engine::{GameSession, SessionConfig};
use vgbl_runtime::fixtures::{fix_the_computer, FRAME};
use vgbl_runtime::input::InputEvent;
use vgbl_runtime::{
    run_cohort, run_playback_cohort_observed, DecodeReuse, LearningReport, PlaybackCohortReport,
    PlaybackController, PlaybackStats, Result, RuntimeError, ServerReport, SessionOutcome,
};

/// A bot that panics the moment it is asked for input.
struct PanicBot;
impl Bot for PanicBot {
    fn next_input(&mut self, _session: &GameSession) -> Result<Option<InputEvent>> {
        panic!("deliberately broken bot");
    }
}

/// A bot whose session errors (typed failure, not a panic).
struct ErrBot;
impl Bot for ErrBot {
    fn next_input(&mut self, _session: &GameSession) -> Result<Option<InputEvent>> {
        Err(RuntimeError::UnknownScenario("err-bot".into()))
    }
}

/// A three-segment encoded clip: `shot_len` frames per shot, GOP 6.
fn clip(shot_len: usize, noise_seed: u64) -> (Arc<EncodedVideo>, SegmentTable) {
    let footage = FootageSpec {
        width: 32,
        height: 24,
        rate: FrameRate::FPS30,
        shots: vec![
            ShotSpec::plain(shot_len, Rgb::new(210, 40, 40)),
            ShotSpec::plain(shot_len, Rgb::new(40, 210, 40)),
            ShotSpec::plain(shot_len, Rgb::new(40, 40, 210)),
        ],
        noise_seed,
    }
    .render()
    .unwrap();
    let video = Encoder::new(EncodeConfig { gop: 6, ..Default::default() })
        .encode(&footage.frames, footage.rate)
        .unwrap();
    let total = shot_len * 3;
    let table = SegmentTable::from_cuts(total, &[shot_len, shot_len * 2]).unwrap();
    (Arc::new(video), table)
}

// ---------------------------------------------------------------------------
// The oracle: one session at a time, in index order
// ---------------------------------------------------------------------------

/// Runs session `0..n` one after another and splits the rows into
/// per-session outcomes and completed results. Each `session` call wraps
/// its own work in `catch_unwind`; a panic becomes a `Failed` row with
/// the cohort servers' `"panic: …"` reason.
fn one_at_a_time<T>(
    n: usize,
    mut session: impl FnMut(usize) -> std::thread::Result<std::result::Result<T, String>>,
) -> (Vec<SessionOutcome>, Vec<T>) {
    let mut outcomes = Vec::with_capacity(n);
    let mut completed = Vec::new();
    for i in 0..n {
        let reason = match session(i) {
            Ok(Ok(v)) => {
                outcomes.push(SessionOutcome::Completed);
                completed.push(v);
                continue;
            }
            Ok(Err(reason)) => reason,
            Err(payload) => {
                if let Some(s) = payload.downcast_ref::<&str>() {
                    format!("panic: {s}")
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    format!("panic: {s}")
                } else {
                    "panic: <non-string payload>".into()
                }
            }
        };
        outcomes.push(SessionOutcome::Failed { reason });
    }
    (outcomes, completed)
}

/// What `run_cohort` must report: each bot session played alone through
/// `run_session`.
fn reference_cohort(
    config: &SessionConfig,
    n_sessions: usize,
    factory: &dyn Fn(usize) -> Box<dyn Bot>,
    max_steps: usize,
    tick_ms: u64,
) -> ServerReport {
    let graph = Arc::new(fix_the_computer());
    let (outcomes, runs) = one_at_a_time(n_sessions, |i| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut bot = factory(i);
            run_session(graph.clone(), config.clone(), &mut *bot, max_steps, tick_ms)
                .map_err(|e| e.to_string())
        }))
    });
    ServerReport {
        sessions: runs.len(),
        failed: outcomes.iter().filter(|o| o.is_failed()).count(),
        outcomes,
        learning: LearningReport::from_sessions(runs.iter().map(|r| (&r.log, r.state.score))),
        total_steps: runs.iter().map(|r| r.steps).sum(),
    }
}

/// One seeded playback walk: start in segment `i mod n_segments`, then
/// per step either switch to a random segment (1 in 4) or advance one
/// 33 ms frame and render. The trace timeline is the session playhead.
fn walk(
    video: Arc<EncodedVideo>,
    segments: SegmentTable,
    cache: Arc<GopCache>,
    i: usize,
    steps: usize,
    obs: &Obs,
    rec: &mut SpanRecorder,
) -> Result<PlaybackStats> {
    let n_segments = segments.len().max(1) as u32;
    let initial = SegmentId(i as u32 % n_segments);
    let mut player = PlaybackController::shared(video, segments, initial, cache)?.with_obs(obs);
    let renders = obs.series(SeriesSpec::counter("server.renders", 250_000, 64));
    let switches = obs.series(SeriesSpec::counter("server.switches", 250_000, 64));
    let mut rng = StdRng::seed_from_u64(0x9e37_79b9 ^ i as u64);
    let mut now_us: u64 = 0;
    rec.enter_with("session", i as u64, now_us);
    rec.event("render", 0, now_us);
    player.current_frame()?;
    for step in 0..steps {
        if rng.gen_range(0..4u32) == 0 {
            let target = SegmentId(rng.gen_range(0..n_segments));
            rec.event("switch", target.0 as u64, now_us);
            switches.record(now_us, 1);
            player.switch_segment(target)?;
        } else {
            player.advance_ms(33);
            now_us = now_us.saturating_add(33_000);
            rec.event("render", step as u64 + 1, now_us);
            renders.record(now_us, 1);
            player.current_frame()?;
        }
    }
    rec.exit(now_us);
    Ok(player.stats())
}

/// What `run_playback_cohort_observed` must report and export: each
/// walk played alone on the shared cache. A walk's recorder lives
/// outside its unwind boundary, so a panicking walk still exports its
/// spans.
fn reference_playback_cohort(
    video: &Arc<EncodedVideo>,
    segments: &SegmentTable,
    cache: Arc<GopCache>,
    n_sessions: usize,
    steps: usize,
    obs: &Obs,
) -> PlaybackCohortReport {
    let completed_ctr = obs.counter("cohort.sessions_completed", &[("pillar", "runtime")]);
    let failed_ctr = obs.counter("cohort.sessions_failed", &[("pillar", "runtime")]);
    let (outcomes, stats) = one_at_a_time(n_sessions, |i| {
        let mut rec = SpanRecorder::new(format!("playback-{i:04}"));
        let run = catch_unwind(AssertUnwindSafe(|| {
            walk(video.clone(), segments.clone(), cache.clone(), i, steps, obs, &mut rec)
                .map_err(|e| e.to_string())
        }));
        obs.attach(rec);
        run
    });
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    completed_ctr.add(stats.len() as u64);
    failed_ctr.add(failed as u64);
    PlaybackCohortReport {
        sessions: stats.len(),
        failed,
        outcomes,
        frames_served: stats.iter().map(|s| s.frames_served).sum(),
        frames_decoded: stats.iter().map(|s| s.frames_decoded).sum(),
        switches: stats.iter().map(|s| s.switches).sum(),
        reuse: DecodeReuse::from_cache(&cache.stats()),
    }
}

// ---------------------------------------------------------------------------
// The projection both sides are compared on
// ---------------------------------------------------------------------------

/// Drops the executor's own scheduling telemetry (`executor.*` — run
/// queue depth, fetch batch sizes) from a text export: the oracle has no
/// run queue or fetch batches by definition, so those rows are
/// scheduler-specific the same way cache reuse counts are.
fn strip_executor_metrics(export: &str) -> String {
    export
        .lines()
        .filter(|l| !l.contains("executor."))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Everything a playback run produced, exports included, with the
/// scheduling-sensitive reuse counters and the executor's own
/// telemetry projected out.
type Fingerprint = (Vec<String>, usize, usize, usize, usize, usize, String, String, String, String);

fn playback_fingerprint(report: &PlaybackCohortReport, obs: &Obs) -> Fingerprint {
    let snap = obs.snapshot();
    (
        report.outcomes.iter().map(|o| format!("{o:?}")).collect(),
        report.sessions,
        report.failed,
        report.frames_served,
        report.frames_decoded,
        report.switches,
        strip_executor_metrics(&snap.to_table()),
        strip_executor_metrics(&snap.metrics_csv()),
        snap.spans_csv(),
        strip_executor_metrics(&snap.to_jsonl()),
    )
}

/// Runs the executor cohort and the oracle on fresh capacity-64 caches
/// and returns both projections.
fn executor_and_reference(
    video: &Arc<EncodedVideo>,
    table: &SegmentTable,
    n_sessions: usize,
    workers: usize,
    steps: usize,
) -> (Fingerprint, Fingerprint) {
    let obs_exec = Obs::recording();
    let exec = run_playback_cohort_observed(
        video.clone(),
        table,
        Arc::new(GopCache::new(64)),
        n_sessions,
        workers,
        steps,
        &obs_exec,
    )
    .unwrap();
    let obs_ref = Obs::recording();
    let cache = Arc::new(GopCache::new(64));
    let reference = reference_playback_cohort(video, table, cache, n_sessions, steps, &obs_ref);
    (playback_fingerprint(&exec, &obs_exec), playback_fingerprint(&reference, &obs_ref))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The executor-scheduled playback cohort is byte-identical to the
    // one-at-a-time oracle on the same inputs: every outcome row, every
    // aggregate, and all four obs export formats. The caches are fresh
    // and full-capacity on both sides, so decode totals match even
    // though the executor front-loads them into batch prewarms.
    #[test]
    fn playback_cohort_matches_reference(
        n_sessions in 1usize..10,
        steps in 0usize..32,
        workers in 1usize..5,
        shot_len in 6usize..16,
        noise_seed in any::<u64>(),
    ) {
        let (video, table) = clip(shot_len, noise_seed);
        let (exec, reference) = executor_and_reference(&video, &table, n_sessions, workers, steps);
        prop_assert_eq!(exec, reference);
    }

    // Bot cohorts agree row-for-row with the oracle, including a
    // session that panics mid-cohort and one that errors: both sides
    // isolate them to their own `Failed` rows and aggregate the rest
    // identically (learning report, total steps, outcome order).
    #[test]
    fn bot_cohort_matches_reference(
        n_sessions in 1usize..24,
        workers in 1usize..5,
        panic_at in 0usize..24,
        err_at in 0usize..24,
        max_steps in 10usize..80,
    ) {
        let factory = move |i: usize| -> Box<dyn Bot> {
            if i == panic_at {
                Box::new(PanicBot)
            } else if i == err_at {
                Box::new(ErrBot)
            } else if i.is_multiple_of(3) {
                Box::new(RandomBot::new(StdRng::seed_from_u64(i as u64)))
            } else {
                Box::new(GuidedBot::new())
            }
        };
        let config = SessionConfig::for_frame(FRAME.0, FRAME.1);
        // Keep the deliberate panics from spamming the test output.
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let exec = run_cohort(
            Arc::new(fix_the_computer()),
            config.clone(),
            n_sessions,
            workers,
            &factory,
            max_steps,
            50,
        );
        let reference = reference_cohort(&config, n_sessions, &factory, max_steps, 50);
        panic::set_hook(prev);
        prop_assert_eq!(format!("{:?}", exec.unwrap()), format!("{reference:?}"));
    }
}

/// EXP-18's scale of the export-identity check: a 64-session observed
/// cohort, 25 steps, 4 decode workers, capacity-64 caches.
#[test]
fn sixty_four_session_cohort_matches_reference() {
    let (video, table) = clip(18, 3);
    let (exec, reference) = executor_and_reference(&video, &table, 64, 4, 25);
    assert_eq!(exec.1, 64, "every session completes");
    assert_eq!(exec, reference);
}
