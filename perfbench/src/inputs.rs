//! Everything the program receives, generated from the workload seed.
//!
//! The seed picks content (pixels, probe targets, routing, arrival
//! times); the structure (frame count, shot lengths, session counts) is
//! fixed per [`Size`], so runs on different seeds do the same amount of
//! work and their timings are comparable.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vgbl::media::codec::{EncodeConfig, EncodedVideo, Encoder, Quality};
use vgbl::media::synth::FootageSpec;
use vgbl::media::SegmentTable;
use vgbl::runtime::{
    fixtures, ArrivalPlan, FleetConfig, MigrationConfig, SessionConfig, ShardFault, ShardFaultKind,
    SupervisorConfig,
};
use vgbl::scene::SceneGraph;
use vgbl::store::{DiskFaultPlan, StoreConfig};

use crate::spans::Spans;

/// The learner workload's cohort.
#[derive(Debug, Clone, Copy)]
pub struct Cohort {
    /// Learner walks per cohort call.
    pub walkers: usize,
    /// Steps per walk.
    pub steps: usize,
    /// Decode workers of the cohort's batch prewarm.
    pub workers: usize,
    /// Latency probes after each cohort call.
    pub probes: usize,
}

/// The fleet workload's load.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Sessions per fleet call.
    pub sessions: usize,
    /// Mean arrival gap, simulated ms.
    pub gap_ms: f64,
    /// Idle-join probes after each fleet call.
    pub probes: usize,
}

/// Workload sizes. [`Size::full`] is the benchmark; [`Size::smoke`]
/// keeps the self-tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Footage width and height in pixels.
    pub frame: (u32, u32),
    /// Shots in the footage; each becomes one segment.
    pub shots: usize,
    /// Frames per shot.
    pub shot_frames: usize,
    /// Keyframe interval.
    pub gop: usize,
    /// Per-pixel noise amplitude of every shot. Fixed so the encoded
    /// size, and with it every per-byte cost, barely moves with the seed.
    pub noise: u8,
    /// Encoder threads (at most the machine's two cores).
    pub encode_threads: usize,
    /// Times set-up is repeated for learner_churn and fleet_e2e;
    /// `setup_s` is the median. Learner set-up encodes a video; fleet
    /// set-up is microseconds of config and arrival schedule, so it is
    /// repeated more to get a steady median.
    pub setup_reps: (usize, usize),
    /// learner_churn: many short walks on a cache holding the video.
    pub churn: Cohort,
    /// fleet_e2e load.
    pub e2e: Load,
    /// Distinct probes in the seeded probe schedule. A run replays the
    /// schedule pass after pass; at 200, at least 10 probes lie beyond
    /// the p95.
    pub schedule: usize,
    /// Least full passes over the probe schedule a run makes.
    pub min_passes: usize,
    /// Least workload calls a run makes, whatever its length.
    pub min_rounds: usize,
    /// Repetitions of each unit-cost probe in the traced run.
    pub unit_reps: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            frame: (160, 120),
            shots: 8,
            shot_frames: 30,
            gop: 15,
            noise: 2,
            encode_threads: 2,
            setup_reps: (5, 51),
            churn: Cohort {
                walkers: 32,
                steps: 10,
                workers: 2,
                probes: 40,
            },
            e2e: Load {
                sessions: 500,
                gap_ms: 5.0,
                probes: 10,
            },
            schedule: 200,
            min_passes: 3,
            min_rounds: 5,
            unit_reps: 21,
        }
    }

    /// Tiny sizes for the self-tests.
    #[cfg(test)]
    pub fn smoke() -> Size {
        Size {
            frame: (32, 24),
            shots: 3,
            shot_frames: 8,
            gop: 4,
            noise: 2,
            encode_threads: 1,
            setup_reps: (1, 3),
            churn: Cohort {
                walkers: 4,
                steps: 3,
                workers: 2,
                probes: 4,
            },
            e2e: Load {
                sessions: 24,
                gap_ms: 5.0,
                probes: 4,
            },
            schedule: 8,
            min_passes: 2,
            min_rounds: 2,
            unit_reps: 3,
        }
    }
}

/// The learner workload's inputs: one encoded video and its segments.
pub struct LearnerInputs {
    /// The shared video.
    pub video: Arc<EncodedVideo>,
    /// One segment per shot.
    pub table: SegmentTable,
    /// GOPs in the video.
    pub n_gops: usize,
    /// Wall time of the encode, in seconds.
    pub encode_s: f64,
}

/// Synthesises the seed's footage, encodes it and cuts it into
/// segments, recording a span per step.
pub fn learner_inputs(seed: u64, size: &Size, spans: &mut Spans) -> LearnerInputs {
    let footage = spans.time("footage", "media::synth", None, || {
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = size.frame;
        let mut spec = FootageSpec::random(
            &mut rng,
            w,
            h,
            size.shots,
            size.shot_frames,
            size.shot_frames,
        );
        for shot in &mut spec.shots {
            shot.noise = size.noise;
        }
        spec.render().expect("generated footage renders")
    });
    let t0 = std::time::Instant::now();
    let video = spans.time("encode", "media::codec", None, || {
        Encoder::new(EncodeConfig {
            quality: Quality::Medium,
            gop: size.gop,
            threads: size.encode_threads,
            search_range: 7,
        })
        .encode(&footage.frames, footage.rate)
        .expect("generated footage encodes")
    });
    let encode_s = t0.elapsed().as_secs_f64();
    let table = spans.time("segment_table", "media::segment", None, || {
        SegmentTable::from_cuts(footage.len(), &footage.cuts).expect("shot cuts are valid")
    });
    let n_gops = video.keyframes().len();
    LearnerInputs {
        video: Arc::new(video),
        table,
        n_gops,
        encode_s,
    }
}

/// The fleet workload's inputs.
pub struct FleetInputs {
    /// The fixture game each session plays and the per-session engine
    /// configuration.
    pub engine: (Arc<SceneGraph>, SessionConfig),
    /// The fleet under load.
    pub config: FleetConfig,
    /// The same fleet without its scheduled faults: what one learner
    /// joining an idle fleet meets.
    pub idle: FleetConfig,
    /// Seeded arrivals.
    pub arrivals: ArrivalPlan,
    /// The arrival times the plan yields, in simulated ms.
    pub arrival_times: Vec<f64>,
    /// Sessions per fleet call.
    pub sessions: usize,
}

/// Drains only on a burn no run reaches: near saturation the SLO drain
/// pulls shards off the ring one after another, and shedding then swings
/// between a third and nearly all arrivals from seed to seed.
fn no_slo_drain() -> MigrationConfig {
    MigrationConfig {
        burn_threshold: 1e12,
        sustain_ticks: 10,
        max_drain_occupancy: f64::INFINITY,
        verify_replay: true,
    }
}

/// fleet_e2e: four shards of real sessions with the durable store
/// (dual-write, clean disks), one shard crash when 30% of the learners
/// have arrived, one whole-fleet power loss at 60%, and journeys on.
pub fn e2e_inputs(seed: u64, size: &Size, spans: &mut Spans) -> FleetInputs {
    let graph = spans.time("fixture_graph", "scene", None, || {
        Arc::new(fixtures::fix_the_computer())
    });
    spans.time("fleet_config", "bench::setup", None, || {
        let Load {
            sessions,
            gap_ms: gap,
            ..
        } = size.e2e;
        let arrivals = ArrivalPlan::new(seed, gap).expect("positive arrival gap");
        let arrival_times = arrivals.arrival_times(sessions);
        let at = |share: f64| arrival_times[(sessions as f64 * share) as usize % sessions];
        let config = FleetConfig {
            shards: 4,
            vnodes: 32,
            router_seed: seed,
            shard: SupervisorConfig {
                queue_capacity: 64,
                queue_deadline_ms: 1e9,
                slots: 8,
                step_ms: 5.0,
                checkpoint_every: 3,
                ..SupervisorConfig::default()
            },
            faults: vec![ShardFault {
                at_ms: at(0.3),
                shard: (seed % 4) as u32,
                kind: ShardFaultKind::Crash,
            }],
            migration: no_slo_drain(),
            store: Some(StoreConfig {
                snapshot_every: 8,
                dual_write: true,
                faults: DiskFaultPlan::new(seed),
            }),
            power_loss_at_ms: vec![at(0.6)],
            journeys: true,
            ..FleetConfig::default()
        };
        let idle = FleetConfig {
            faults: Vec::new(),
            power_loss_at_ms: Vec::new(),
            ..config.clone()
        };
        FleetInputs {
            engine: (
                graph,
                SessionConfig::for_frame(fixtures::FRAME.0, fixtures::FRAME.1),
            ),
            config,
            idle,
            arrivals,
            arrival_times,
            sessions,
        }
    })
}
