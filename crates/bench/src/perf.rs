//! Measurement core of the `vgbl-bench` binary: one deterministic
//! workload walked through every pipeline stage the paper's learner
//! sessions exercise — encode, full decode, cold and cached seeks,
//! streaming fetch, cohort playback, the sharded fleet and the
//! cooperative executor —
//! timed as min-of-iterations wall clock and emitted as a
//! machine-readable `BENCH_<n>.json` snapshot.
//!
//! Design rules:
//!
//! * **Deterministic inputs.** Footage, seek targets and cohort walks
//!   come from fixed seeds, so two snapshots differ only by the code
//!   under test (plus wall-clock noise, which min-of-iters suppresses).
//! * **Explicit targets.** Every operation carries a `target_per_s`
//!   floor chosen from the post-optimization trajectory with ~2×
//!   headroom; `met` makes regressions visible without diffing runs.
//! * **Profiled, not guessed.** The run records a span per operation
//!   iteration and folds them through [`vgbl::obs::profile`], so the
//!   snapshot carries its own hotspot table — the same tooling EXP-15
//!   uses for simulated clocks, here on wall-clock µs.
//! * **Hand-rolled JSON.** The workspace has no serde; the writer
//!   escapes strings and the reader is a tiny scanner
//!   ([`op_per_s`]), enough for trajectory merging and CI validation.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vgbl::media::cache::{GopCache, VideoId};
use vgbl::media::container::{fnv1a, FNV_OFFSET};
use vgbl::media::codec::{Decoder, EncodedVideo, Quality};
use vgbl::media::FrameKind;
use vgbl::media::seek::{seek, seek_cached};
use vgbl::media::SegmentId;
use vgbl::obs::{folded_stacks, hotspot_table, Obs, SpanRecorder};
use vgbl::runtime::{
    run_fleet, run_playback_cohort, run_playback_cohort_with_stats, ArrivalPlan, FleetConfig,
    FleetWorkload, ShardFault, ShardFaultKind, SupervisorConfig,
};
use vgbl::store::{DiskFaultPlan, StoreConfig};
use vgbl::stream::{simulate, ChunkMap, LinkModel, PrefetchPolicy, TraceStep};

use crate::{bench_footage, encode, table_for, RATE};

/// The operations every `vgbl-bench/6` snapshot covers, in emission
/// order.
pub const OPS: [&str; 10] = [
    "encode",
    "decode_all",
    "seek_cold",
    "seek_cached",
    "stream_fetch",
    "cohort_playback",
    "fleet",
    "executor",
    "durability",
    "journey",
];

/// The op list of `vgbl-bench/1`–`/5`, which also carried
/// `cohort_batched` (the retired lockstep cohort runner). `fleet` arrived
/// with `/2`, `executor` with `/3`, `durability` with `/4` and `journey`
/// with `/5`; older snapshots carry prefixes of this list.
const LEGACY_OPS: [&str; 11] = [
    "encode",
    "decode_all",
    "seek_cold",
    "seek_cached",
    "stream_fetch",
    "cohort_playback",
    "cohort_batched",
    "fleet",
    "executor",
    "durability",
    "journey",
];

/// The required op set for a document: [`OPS`] for `vgbl-bench/6`,
/// schema-appropriate prefixes of [`LEGACY_OPS`] for older snapshots
/// (and trajectories over them).
fn required_ops(json: &str) -> &'static [&'static str] {
    if json.contains("\"vgbl-bench/6\"") {
        &OPS
    } else if json.contains("\"vgbl-bench/5\"") {
        &LEGACY_OPS
    } else if json.contains("\"vgbl-bench/4\"") {
        &LEGACY_OPS[..10]
    } else if json.contains("\"vgbl-bench/3\"") {
        &LEGACY_OPS[..9]
    } else if json.contains("\"vgbl-bench/2\"") {
        &LEGACY_OPS[..8]
    } else {
        &LEGACY_OPS[..7]
    }
}

/// Keys CI requires inside every per-operation JSON object.
pub const REQUIRED_OP_KEYS: [&str; 6] =
    ["wall_ms", "units", "unit", "per_s", "target_per_s", "met"];

/// Workload size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// CI-sized: seconds, not minutes.
    Quick,
    /// The trajectory workload committed in `BENCH_<n>.json`.
    Full,
    /// Tiny, for in-process tests of the harness itself.
    Smoke,
}

impl Mode {
    /// Lower-case name used in the JSON.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Full => "full",
            Mode::Smoke => "smoke",
        }
    }
}

/// Concrete workload parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Footage width in pixels.
    pub width: u32,
    /// Footage height in pixels.
    pub height: u32,
    /// Number of synthetic shots.
    pub shots: usize,
    /// Footage RNG seed.
    pub seed: u64,
    /// Keyframe interval.
    pub gop: usize,
    /// Quantiser preset.
    pub quality: Quality,
    /// Encoder worker threads.
    pub threads: usize,
    /// Timing iterations per operation (min is reported).
    pub iters: usize,
    /// Random seek targets per timing iteration.
    pub seeks: usize,
    /// Stream-simulation repeats per timing iteration.
    pub stream_repeats: usize,
    /// Cohort sessions.
    pub sessions: usize,
    /// Cohort worker threads.
    pub workers: usize,
    /// Cohort steps per session.
    pub steps: usize,
    /// Fleet-op sessions routed through the sharded supervisor.
    pub fleet_sessions: usize,
    /// Executor-op sessions in flight on one cooperative executor.
    pub executor_sessions: usize,
}

impl Workload {
    /// The fixed workload of a mode.
    pub fn for_mode(mode: Mode) -> Workload {
        match mode {
            Mode::Quick => Workload {
                width: 160,
                height: 120,
                shots: 6,
                seed: 1,
                gop: 15,
                quality: Quality::Medium,
                threads: 4,
                iters: 3,
                seeks: 64,
                stream_repeats: 50,
                sessions: 12,
                workers: 4,
                steps: 120,
                fleet_sessions: 400,
                executor_sessions: 1_000,
            },
            Mode::Full => Workload {
                width: 256,
                height: 192,
                shots: 10,
                seed: 2,
                gop: 15,
                quality: Quality::Medium,
                threads: 8,
                iters: 5,
                seeks: 128,
                stream_repeats: 100,
                sessions: 24,
                workers: 8,
                steps: 200,
                fleet_sessions: 1_000,
                executor_sessions: 4_000,
            },
            Mode::Smoke => Workload {
                width: 64,
                height: 48,
                shots: 2,
                seed: 3,
                gop: 8,
                quality: Quality::Medium,
                threads: 2,
                iters: 1,
                seeks: 8,
                stream_repeats: 5,
                sessions: 4,
                workers: 2,
                steps: 10,
                fleet_sessions: 40,
                executor_sessions: 64,
            },
        }
    }
}

/// One operation's measurement.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Operation name (one of [`OPS`]).
    pub name: &'static str,
    /// Best (minimum) wall time over the iterations, in milliseconds.
    pub wall_ms: f64,
    /// Work units processed per iteration.
    pub units: usize,
    /// Unit label (`frames`, `seeks`, `chunks`).
    pub unit: &'static str,
    /// Throughput: `units / (wall_ms / 1000)`.
    pub per_s: f64,
    /// Floor the operation must sustain.
    pub target_per_s: f64,
}

impl OpResult {
    /// Whether the measured throughput met the target.
    pub fn met(&self) -> bool {
        self.per_s >= self.target_per_s
    }
}

/// A full snapshot: every operation plus the run's own profile.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Snapshot label (`before`, `after`, a git ref — caller's choice).
    pub label: String,
    /// Mode the workload came from.
    pub mode: Mode,
    /// The workload parameters.
    pub workload: Workload,
    /// Frame count of the rendered footage (derived, recorded for
    /// reproducibility checks).
    pub frames: usize,
    /// Per-operation measurements in [`OPS`] order.
    pub ops: Vec<OpResult>,
    /// Aligned-text hotspot table over the run's operation spans.
    pub hotspot_table: String,
    /// Inferno-format folded stacks of the same spans.
    pub folded: String,
}

/// Throughput floors, set from the post-optimization quick trajectory
/// on the reference container with ~2× headroom so CI noise does not
/// flap `met`. The `full` workload shares them: per-frame cost rises
/// with area but so does per-iteration work, and the floors are meant
/// as regression tripwires, not records. `executor` keeps ~4× headroom
/// under both modes (16–19k sessions/s on a 2-vCPU host once players
/// share one video fingerprint per cache).
fn target_per_s(name: &str) -> f64 {
    match name {
        "encode" => 90.0,
        "decode_all" => 1_400.0,
        "seek_cold" => 180.0,
        "seek_cached" => 5_000_000.0,
        "stream_fetch" => 2_000_000.0,
        "cohort_playback" => 6_000.0,
        "fleet" => 1_000.0,
        "executor" => 4_000.0,
        "durability" => 500.0,
        "journey" => 500.0,
        _ => 0.0,
    }
}

/// Runs the workload and measures every operation.
pub fn run(mode: Mode, label: &str) -> BenchReport {
    let w = Workload::for_mode(mode);
    let epoch = Instant::now();
    let mut rec = SpanRecorder::new(format!("vgbl-bench/{}", mode.name()));
    let now_us = |epoch: Instant| epoch.elapsed().as_micros() as u64;
    rec.enter("bench", 0);

    // Shared inputs, built once outside any timed region.
    let footage = bench_footage(w.width, w.height, w.shots, w.seed);
    let frames = footage.frames.len();
    let video = Arc::new(encode(&footage, w.gop, w.quality, w.threads));
    let table = table_for(&footage);
    let video_id = VideoId::of(&video);
    let decoder = Decoder::default();
    let n_gops = video.keyframes().len();

    // Min-of-iters timing with one span per iteration.
    let timed = |rec: &mut SpanRecorder, name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..w.iters.max(1) {
            rec.enter(name, now_us(epoch));
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64() * 1000.0);
            rec.exit(now_us(epoch));
        }
        best
    };

    let mut ops = Vec::with_capacity(OPS.len());
    let push = |name: &'static str, wall_ms: f64, units: usize, unit: &'static str| {
        let per_s = if wall_ms > 0.0 { units as f64 / (wall_ms / 1000.0) } else { f64::INFINITY };
        OpResult { name, wall_ms, units, unit, per_s, target_per_s: target_per_s(name) }
    };

    // encode: footage → EncodedVideo, the authoring-time cost.
    let wall = timed(&mut rec, "encode", &mut || {
        std::hint::black_box(encode(&footage, w.gop, w.quality, w.threads));
    });
    ops.push(push("encode", wall, frames, "frames"));

    // decode_all: the whole stream back to RGB, sequential.
    let wall = timed(&mut rec, "decode_all", &mut || {
        std::hint::black_box(decoder.decode_all(&video).expect("bench video decodes"));
    });
    ops.push(push("decode_all", wall, frames, "frames"));

    // Seek targets: fixed-seed uniform draws over the whole timeline.
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe_u64 ^ w.seed);
    let targets: Vec<usize> = (0..w.seeks).map(|_| rng.gen_range(0..frames)).collect();

    // seek_cold: decode-from-keyframe every time (no cache).
    let wall = timed(&mut rec, "seek_cold", &mut || {
        for &t in &targets {
            std::hint::black_box(seek(&decoder, &video, t).expect("cold seek"));
        }
    });
    ops.push(push("seek_cold", wall, targets.len(), "seeks"));

    // seek_cached: persistent cache across iterations, so min-of-iters
    // reports the fully warm cost — the steady state learners live in.
    let cache = GopCache::new(n_gops);
    let wall = timed(&mut rec, "seek_cached", &mut || {
        for &t in &targets {
            std::hint::black_box(
                seek_cached(&decoder, &video, video_id, &cache, t).expect("cached seek"),
            );
        }
    });
    ops.push(push("seek_cached", wall, targets.len(), "seeks"));

    // stream_fetch: the delivery simulation over the real chunk layout —
    // a straight watch of every segment, repeated to get out of the
    // sub-millisecond range.
    let map = ChunkMap::build(&video, &table).expect("chunk map builds");
    let link = LinkModel::mbps(40.0, 15.0).expect("link model");
    let frame_ms = 1000.0 / RATE.as_f64();
    let trace: Vec<TraceStep> = (0..table.len())
        .map(|i| {
            let seg = table.get(SegmentId(i as u32)).expect("segment exists");
            TraceStep {
                segment: SegmentId(i as u32),
                watch_ms: seg.len() as f64 * frame_ms,
                branch_targets: Vec::new(),
            }
        })
        .collect();
    let wall = timed(&mut rec, "stream_fetch", &mut || {
        for _ in 0..w.stream_repeats {
            std::hint::black_box(
                simulate(&map, &link, PrefetchPolicy::Linear { lookahead: 2 }, &trace)
                    .expect("stream simulation"),
            );
        }
    });
    ops.push(push("stream_fetch", wall, map.len() * w.stream_repeats, "chunks"));

    // cohort_playback: N concurrent learner walks over a fresh shared
    // cache per iteration (steady-state reuse, cold start included).
    let mut served = 0usize;
    let wall = timed(&mut rec, "cohort_playback", &mut || {
        let cache = Arc::new(GopCache::new(n_gops));
        let report =
            run_playback_cohort(video.clone(), &table, cache, w.sessions, w.workers, w.steps)
                .expect("cohort runs");
        assert_eq!(report.failed, 0, "bench cohort must not fail");
        served = report.frames_served;
    });
    ops.push(push("cohort_playback", wall, served, "frames"));

    // fleet: the sharded supervisor routing a seeded synthetic stampede
    // through a mid-run shard crash — consistent-hash routing, admission,
    // checkpoint migration and re-dispatch, measured end to end as
    // sessions resolved per second of control-plane wall clock.
    let fleet_cfg = FleetConfig {
        shards: 4,
        vnodes: 32,
        shard: SupervisorConfig {
            queue_capacity: 64,
            queue_deadline_ms: 1e9,
            slots: 2,
            step_ms: 5.0,
            checkpoint_every: 5,
            ..SupervisorConfig::default()
        },
        faults: vec![ShardFault { at_ms: 150.0, shard: 0, kind: ShardFaultKind::Crash }],
        ..FleetConfig::default()
    };
    let fleet_workload = FleetWorkload::Synthetic { mean_segments: 4 };
    let fleet_arrivals = ArrivalPlan::new(w.seed ^ 0xF1EE, 1.0).expect("fleet arrival plan");
    let wall = timed(&mut rec, "fleet", &mut || {
        let report = run_fleet(&fleet_workload, &fleet_cfg, w.fleet_sessions, &fleet_arrivals)
            .expect("fleet bench runs");
        assert!(report.accounts_exactly(), "fleet bench must not lose sessions");
        std::hint::black_box(report);
    });
    ops.push(push("fleet", wall, w.fleet_sessions, "sessions"));

    // executor: the cooperative session executor holding the whole
    // cohort in flight on one thread of control — seeded run-queue
    // scheduling, yield-at-fetch state machines, per-tick batched GOP
    // prewarm — measured as sessions retired per second. Walks are
    // short (10 steps): the op stresses scheduling and batch-planning
    // overhead across many concurrent tasks, not serve volume.
    let wall = timed(&mut rec, "executor", &mut || {
        let cache = Arc::new(GopCache::new(n_gops));
        let (report, stats) = run_playback_cohort_with_stats(
            video.clone(),
            &table,
            cache,
            w.executor_sessions,
            w.workers,
            10,
        )
        .expect("executor cohort runs");
        assert_eq!(report.failed, 0, "bench executor cohort must not fail");
        assert!(
            stats.peak_in_flight >= w.executor_sessions,
            "the whole cohort must be in flight at once"
        );
        std::hint::black_box((report, stats));
    });
    ops.push(push("executor", wall, w.executor_sessions, "sessions"));

    // durability: the same synthetic stampede through a fleet that
    // writes every checkpoint to the durable store and suffers a
    // whole-fleet power loss mid-run (clean disks) — WAL encode,
    // flush/snapshot bookkeeping, scrub and cold-restart re-admission,
    // measured as sessions resolved per second.
    let durability_cfg = FleetConfig {
        store: Some(StoreConfig {
            snapshot_every: 8,
            dual_write: true,
            faults: DiskFaultPlan::new(w.seed ^ 0xD15C),
        }),
        power_loss_at_ms: vec![200.0],
        ..fleet_cfg.clone()
    };
    let wall = timed(&mut rec, "durability", &mut || {
        let report =
            run_fleet(&fleet_workload, &durability_cfg, w.fleet_sessions, &fleet_arrivals)
                .expect("durability bench runs");
        assert!(report.accounts_exactly(), "durability bench must not lose sessions");
        assert_eq!(report.lost_durable, 0, "clean disks must lose nothing acknowledged");
        std::hint::black_box(report);
    });
    ops.push(push("durability", wall, w.fleet_sessions, "sessions"));

    // journey: the durability stampede again with causal tracing on —
    // every boundary event recorded, every checkpoint stamped with its
    // trace context, journeys stitched into per-session timelines at
    // the end. Sessions resolved per second; compared against the
    // `durability` op, the gap IS the tracing overhead.
    let journey_cfg = FleetConfig { journeys: true, ..durability_cfg.clone() };
    let wall = timed(&mut rec, "journey", &mut || {
        let report = run_fleet(&fleet_workload, &journey_cfg, w.fleet_sessions, &fleet_arrivals)
            .expect("journey bench runs");
        assert!(report.accounts_exactly(), "journey bench must not lose sessions");
        assert_eq!(
            report.journeys.len(),
            report.sessions,
            "tracing must cover every session"
        );
        std::hint::black_box(report);
    });
    ops.push(push("journey", wall, w.fleet_sessions, "sessions"));

    rec.exit(now_us(epoch));
    let obs = Obs::recording();
    obs.attach(rec);
    let snap = obs.snapshot();

    BenchReport {
        label: label.to_string(),
        mode,
        workload: w,
        frames,
        ops,
        hotspot_table: hotspot_table(&snap, 12),
        folded: folded_stacks(&snap),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialises a report as a `vgbl-bench/6` JSON snapshot.
pub fn to_json(report: &BenchReport) -> String {
    let w = &report.workload;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"vgbl-bench/6\",");
    let _ = writeln!(out, "  \"label\": \"{}\",", json_escape(&report.label));
    let _ = writeln!(out, "  \"mode\": \"{}\",", report.mode.name());
    let _ = writeln!(out, "  \"workload\": {{");
    let _ = writeln!(out, "    \"width\": {}, \"height\": {}, \"shots\": {},", w.width, w.height, w.shots);
    let _ = writeln!(out, "    \"seed\": {}, \"frames\": {}, \"gop\": {},", w.seed, report.frames, w.gop);
    let _ = writeln!(out, "    \"threads\": {}, \"iters\": {}, \"seeks\": {},", w.threads, w.iters, w.seeks);
    let _ = writeln!(
        out,
        "    \"stream_repeats\": {}, \"sessions\": {}, \"workers\": {}, \"steps\": {},",
        w.stream_repeats, w.sessions, w.workers, w.steps
    );
    let _ = writeln!(
        out,
        "    \"fleet_sessions\": {}, \"executor_sessions\": {}",
        w.fleet_sessions, w.executor_sessions
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"ops\": {{");
    for (i, op) in report.ops.iter().enumerate() {
        let comma = if i + 1 < report.ops.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{}\": {{ \"wall_ms\": {:.3}, \"units\": {}, \"unit\": \"{}\", \"per_s\": {:.1}, \"target_per_s\": {:.1}, \"met\": {} }}{}",
            op.name, op.wall_ms, op.units, op.unit, op.per_s, op.target_per_s, op.met(), comma
        );
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"hotspots\": \"{}\",", json_escape(&report.hotspot_table));
    let _ = writeln!(out, "  \"folded\": \"{}\"", json_escape(&report.folded));
    out.push_str("}\n");
    out
}

/// Renders the human-readable table printed without `--json-only`.
pub fn human_table(report: &BenchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "vgbl-bench [{}] mode={} {}x{} frames={} gop={} threads={}",
        report.label,
        report.mode.name(),
        report.workload.width,
        report.workload.height,
        report.frames,
        report.workload.gop,
        report.workload.threads
    );
    let _ = writeln!(
        out,
        "{:<17} {:>10} {:>9} {:>8} {:>12} {:>12}  met",
        "op", "wall_ms", "units", "unit", "per_s", "target"
    );
    for op in &report.ops {
        let _ = writeln!(
            out,
            "{:<17} {:>10.3} {:>9} {:>8} {:>12.1} {:>12.1}  {}",
            op.name,
            op.wall_ms,
            op.units,
            op.unit,
            op.per_s,
            op.target_per_s,
            if op.met() { "yes" } else { "NO" }
        );
    }
    out.push('\n');
    out.push_str(&report.hotspot_table);
    out
}

/// Extracts `ops.<op>.per_s` from a snapshot without a JSON parser:
/// finds the op's object inside `"ops"` and scans its `per_s` number.
pub fn op_per_s(json: &str, op: &str) -> Option<f64> {
    let ops = json.find("\"ops\"")?;
    let body = &json[ops..];
    let key = format!("\"{op}\":");
    let at = body.find(&key)?;
    let obj = &body[at + key.len()..];
    let end = obj.find('}')?;
    let obj = &obj[..end];
    let p = obj.find("\"per_s\":")?;
    let num = obj[p + 8..].trim_start();
    let stop = num
        .find(|c: char| c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit())
        .unwrap_or(num.len());
    num[..stop].trim().parse().ok()
}

/// Validates that a snapshot (or a trajectory containing one) has every
/// operation with every required key — the CI gate for emitted JSON.
/// Legacy `vgbl-bench/1` documents validate without the `fleet` op.
pub fn validate_json(json: &str) -> Result<(), String> {
    if !json.contains("\"schema\"") {
        return Err("missing \"schema\" key".into());
    }
    let ops_at = json.find("\"ops\"").ok_or("missing \"ops\" object")?;
    let body = &json[ops_at..];
    for &op in required_ops(json) {
        let key = format!("\"{op}\":");
        let at = body.find(&key).ok_or_else(|| format!("missing op \"{op}\""))?;
        let obj = &body[at + key.len()..];
        let end = obj.find('}').ok_or_else(|| format!("unterminated op \"{op}\""))?;
        let obj = &obj[..end];
        for k in REQUIRED_OP_KEYS {
            if !obj.contains(&format!("\"{k}\":")) {
                return Err(format!("op \"{op}\" missing key \"{k}\""));
            }
        }
        if op_per_s(json, op).is_none() {
            return Err(format!("op \"{op}\" has unparsable per_s"));
        }
    }
    Ok(())
}

/// Merges a before and an after snapshot into one
/// `vgbl-bench-trajectory/1` document with per-op speedups
/// (`after.per_s / before.per_s`), both snapshots embedded verbatim.
pub fn merge_trajectory(before: &str, after: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"vgbl-bench-trajectory/1\",\n  \"speedup\": {\n");
    let mut rows = Vec::new();
    for op in OPS {
        if let (Some(b), Some(a)) = (op_per_s(before, op), op_per_s(after, op)) {
            if b > 0.0 {
                rows.push(format!("    \"{}\": {:.2}", op, a / b));
            }
        }
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  },\n  \"before\": ");
    out.push_str(before.trim_end());
    out.push_str(",\n  \"after\": ");
    out.push_str(after.trim_end());
    out.push_str("\n}\n");
    out
}

fn encoded_checksum(video: &EncodedVideo) -> u64 {
    let mut h = FNV_OFFSET;
    for f in &video.frames {
        let kind = match f.kind {
            FrameKind::Intra => 0u8,
            FrameKind::Inter => 1,
            FrameKind::Skip => 2,
        };
        h = fnv1a(h, &[kind]);
        h = fnv1a(h, &(f.data.len() as u64).to_le_bytes());
        h = fnv1a(h, &f.data);
    }
    h
}

fn decoded_checksum(video: &EncodedVideo) -> u64 {
    let decoded = Decoder::default().decode_all(video).expect("golden video decodes");
    let mut h = FNV_OFFSET;
    for f in &decoded.frames {
        h = fnv1a(h, f.raw());
    }
    h
}

/// Byte-identity fingerprints of the codec over seeded footage: FNV-1a
/// over the encoded bitstream and the decoded RGB, for two configs.
/// Pinned in `tests/golden.rs` **before** the hot-path optimizations —
/// any change to these constants means an optimization altered output.
pub fn golden_checksums() -> [(&'static str, u64); 4] {
    let footage = bench_footage(96, 64, 4, 42);
    let medium = encode(&footage, 8, Quality::Medium, 3);
    let lossless = encode(&footage, 5, Quality::Lossless, 1);
    [
        ("medium_encoded", encoded_checksum(&medium)),
        ("medium_decoded", decoded_checksum(&medium)),
        ("lossless_encoded", encoded_checksum(&lossless)),
        ("lossless_decoded", decoded_checksum(&lossless)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_emits_valid_json_with_all_ops() {
        let report = run(Mode::Smoke, "smoke");
        assert_eq!(report.ops.len(), OPS.len());
        let json = to_json(&report);
        validate_json(&json).expect("smoke JSON validates");
        for op in OPS {
            let per_s = op_per_s(&json, op).expect("per_s parses");
            assert!(per_s > 0.0, "{op} throughput must be positive");
        }
        // The profile carries the bench's own spans.
        assert!(report.hotspot_table.contains("encode"));
        assert!(report.folded.contains("bench;"));

        // A v6 snapshot must carry every current op.
        for op in OPS {
            let key = format!("\"{op}\":");
            let without: String =
                json.lines().filter(|l| !l.contains(&key)).collect::<Vec<_>>().join("\n");
            assert!(validate_json(&without).is_err(), "v6 snapshot must carry the {op} op");
        }

        // Schema compatibility: each older schema validates without the
        // ops that arrived after it, and each newer schema requires them.
        // v1–v5 also carried the retired `cohort_batched` op.
        let v5: String = json
            .replace("\"vgbl-bench/6\"", "\"vgbl-bench/5\"")
            .lines()
            .flat_map(|l| {
                let retired = l
                    .contains("\"cohort_playback\":")
                    .then(|| l.replace("cohort_playback", "cohort_batched"));
                std::iter::once(l.to_string()).chain(retired)
            })
            .collect::<Vec<_>>()
            .join("\n");
        validate_json(&v5).expect("v5 snapshot validates with cohort_batched");
        assert!(
            validate_json(&json.replace("\"vgbl-bench/6\"", "\"vgbl-bench/5\"")).is_err(),
            "v5 snapshot must carry the cohort_batched op"
        );
        let v4: String = v5
            .replace("\"vgbl-bench/5\"", "\"vgbl-bench/4\"")
            .lines()
            .filter(|l| !l.contains("\"journey\":"))
            .collect::<Vec<_>>()
            .join("\n");
        validate_json(&v4).expect("v4 snapshot validates without journey");
        assert!(
            validate_json(&v4.replace("\"vgbl-bench/4\"", "\"vgbl-bench/5\"")).is_err(),
            "v5 snapshot must carry the journey op"
        );
        let v3: String = v4
            .replace("\"vgbl-bench/4\"", "\"vgbl-bench/3\"")
            .lines()
            .filter(|l| !l.contains("\"durability\":"))
            .collect::<Vec<_>>()
            .join("\n");
        validate_json(&v3).expect("v3 snapshot validates without durability");
        assert!(
            validate_json(&v3.replace("\"vgbl-bench/3\"", "\"vgbl-bench/4\"")).is_err(),
            "v4 snapshot must carry the durability op"
        );
        let v2: String = v3
            .replace("\"vgbl-bench/3\"", "\"vgbl-bench/2\"")
            .lines()
            .filter(|l| !l.contains("\"executor\":"))
            .collect::<Vec<_>>()
            .join("\n");
        validate_json(&v2).expect("v2 snapshot validates without executor");
        assert!(
            validate_json(&v2.replace("\"vgbl-bench/2\"", "\"vgbl-bench/3\"")).is_err(),
            "v3 snapshot must carry the executor op"
        );
        let v1: String = v2
            .replace("\"vgbl-bench/2\"", "\"vgbl-bench/1\"")
            .lines()
            .filter(|l| !l.contains("\"fleet\":"))
            .collect::<Vec<_>>()
            .join("\n");
        validate_json(&v1).expect("v1 snapshot validates without fleet");
        assert!(
            validate_json(&v1.replace("\"vgbl-bench/1\"", "\"vgbl-bench/2\"")).is_err(),
            "v2 snapshot must carry the fleet op"
        );
    }

    #[test]
    fn trajectory_merge_computes_speedups() {
        let report = run(Mode::Smoke, "before");
        let json = to_json(&report);
        let merged = merge_trajectory(&json, &json);
        assert!(merged.contains("\"vgbl-bench-trajectory/1\""));
        validate_json(&merged).expect("trajectory still validates");
        // Identical snapshots → speedup 1.00 on every op.
        for op in OPS {
            assert!(merged.contains(&format!("\"{op}\": 1.00")), "{op} missing from speedups");
        }
    }

    #[test]
    fn validate_rejects_missing_ops_and_keys() {
        assert!(validate_json("{}").is_err());
        assert!(validate_json("{\"schema\": \"x\", \"ops\": {}}").is_err());
        let almost = "{\"schema\": \"x\", \"ops\": {\"encode\": { \"wall_ms\": 1 }}}";
        assert!(validate_json(almost).is_err());
    }

    #[test]
    fn golden_checksums_are_stable_across_calls() {
        assert_eq!(golden_checksums(), golden_checksums());
    }
}
