//! The two workloads: generate inputs, drive the public `vgbl` entry
//! points, check every output, and collect the metrics.
//!
//! Every run has the same shape: set-up (repeated, median reported), a
//! warm-up round, then timed rounds until the run's seconds are spent.
//! A round is one workload call — a whole cohort or fleet run — followed
//! by a batch of serial latency probes. A call or probe that fails a
//! check is counted as failed and its time is dropped.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vgbl::media::cache::{CacheStats, GopCache, VideoId};
use vgbl::media::codec::Decoder;
use vgbl::media::{Frame, SegmentId};
use vgbl::obs::Obs;
use vgbl::runtime::{
    run_fleet, run_fleet_observed, run_playback_cohort_observed, run_playback_cohort_with_stats,
    run_session, ArrivalPlan, Bot, ExecutorStats, FleetConfig, FleetReport, FleetWorkload,
    GameSession, GuidedBot, PlaybackCohortReport, PlaybackController, SupervisorConfig,
};
use vgbl::store::{CheckpointRecord, DiskFaultPlan, DurableStore, StoreConfig};

use crate::catalog::{NOT_FOR_FLEETS, NOT_FOR_LEARNERS};
use crate::heap;
use crate::inputs::{e2e_inputs, learner_inputs, FleetInputs, LearnerInputs, Size};
use crate::spans::Spans;
use crate::stats::{median, quantile, ratio};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many short learner walks on a cache that holds the whole video.
    LearnerChurn,
    /// Real game sessions through the fleet with store, faults, journeys.
    FleetE2e,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::LearnerChurn, Workload::FleetE2e];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LearnerChurn => "learner_churn",
            Workload::FleetE2e => "fleet_e2e",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Sessions offered plus probe calls made.
    pub attempted: u64,
    /// Sessions and probes that errored or failed a check. Sessions the
    /// fleet sheds are the system refusing load as configured; they are
    /// counted in `failed_share`, not here.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// The base a metric was computed from, for the printed table.
    pub bases: Vec<(&'static str, String)>,
    /// Every failed check, for stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Zeroes metrics of layers this workload does not use.
    fn not_used(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
            let base = if crate::catalog::unit_of(name) == Some("ratio") {
                "= 0 / 0; "
            } else {
                ""
            };
            self.base(name, format!("{base}layer not used by this workload"));
        }
    }

    fn base(&mut self, name: &'static str, text: String) {
        self.bases.push((name, text));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.problems.push(what());
        }
        ok
    }

    /// Sets a ratio metric and its printed base.
    fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        self.set(name, ratio(num, den));
        self.base(name, format!("= {num} / {den}"));
    }
}

/// One run's settings.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Workload sizes.
    pub size: Size,
    /// Wall-clock spans (recording only in traced runs).
    pub spans: Spans,
}

/// Runs `workload` and returns its checked metrics.
pub fn run(workload: Workload, ctx: &mut Ctx) -> Outcome {
    match workload {
        Workload::LearnerChurn => learner(workload, ctx),
        Workload::FleetE2e => fleet(workload, ctx),
    }
}

/// Decides when the timed phase is over: after `seconds`, once the
/// minimum rounds and passes over the probe schedule are in.
struct Phase {
    start: Instant,
    seconds: f64,
    min_rounds: usize,
    min_passes: usize,
}

impl Phase {
    fn new(ctx: &Ctx) -> Phase {
        Phase {
            start: Instant::now(),
            seconds: ctx.seconds,
            min_rounds: ctx.size.min_rounds,
            min_passes: ctx.size.min_passes,
        }
    }

    fn more(&self, rounds: usize, passes: usize) -> bool {
        rounds < self.min_rounds
            || passes < self.min_passes
            || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// The seeded probe schedule, replayed pass after pass between workload
/// calls. A replay of a probe does the same work as its first run (same
/// state, checked to serve the same), so replays differ only by what the
/// host's other tenants take; each probe keeps its fastest replay.
struct Schedule {
    fastest: Vec<f64>,
    /// The probe to run next.
    next: usize,
    /// Full passes made.
    passes: usize,
}

impl Schedule {
    fn new(len: usize) -> Schedule {
        Schedule {
            fastest: vec![f64::INFINITY; len.max(1)],
            next: 0,
            passes: 0,
        }
    }

    /// Records probe `next`'s latency (`None`: it failed) and moves on.
    fn record(&mut self, wait: Option<f64>) {
        if let Some(w) = wait {
            self.fastest[self.next] = self.fastest[self.next].min(w);
        }
        self.next += 1;
        if self.next == self.fastest.len() {
            self.next = 0;
            self.passes += 1;
        }
    }

    /// The fastest replay of every probe that was served at least once.
    fn waits(&self) -> Vec<f64> {
        self.fastest
            .iter()
            .copied()
            .filter(|w| w.is_finite())
            .collect()
    }
}

/// Which variant of the workload call a round makes. Untraced runs make
/// only `Plain` calls; traced runs alternate so each variant sees the
/// same machine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The workload as defined, no observability.
    Plain,
    /// The `_observed` entry point with a recording `Obs`.
    Observed,
    /// fleet_e2e with journeys off, for `journey.cost_share`.
    JourneysOff,
}

fn variant(ctx: &Ctx, workload: Workload, round: usize) -> Variant {
    if !ctx.trace {
        return Variant::Plain;
    }
    let cycle: &[Variant] = if workload == Workload::FleetE2e {
        &[Variant::Plain, Variant::Observed, Variant::JourneysOff]
    } else {
        &[Variant::Plain, Variant::Observed]
    };
    cycle[round % cycle.len()]
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Restarts the peak `peak_rss_mb` reports, so it covers the workload's
/// calls and probes with the inputs they hold, not set-up's leftovers.
fn peak_after_setup(out: &mut Outcome) {
    let base = if heap::restart_peak() {
        "peak from the end of set-up"
    } else {
        "peak including set-up: this system cannot reset it"
    };
    out.base("peak_rss_mb", base.into());
}

/// Repeats set-up `reps` times; returns the last inputs and
/// every repetition's wall time in seconds.
fn repeat_setup<T>(
    ctx: &mut Ctx,
    reps: usize,
    mut make: impl FnMut(&mut Spans) -> T,
) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        let t = Instant::now();
        ctx.spans.enter("setup", "bench::setup", Some(rep as u64));
        last = Some(make(&mut ctx.spans));
        ctx.spans.exit();
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// The end-to-end metrics every untraced run reports. Every call of a
/// run does the same work (checked: equal reports), so the calls differ
/// only by the host's interference, which on a shared VM slows the same
/// call by up to 1.6x for seconds at a time: throughput is that of the
/// fastest call, and each probe's latency its fastest replay.
fn end_to_end(out: &mut Outcome, setup: &[f64], per_s: &[f64], schedule: &Schedule) {
    out.set("setup_s", median(setup).unwrap_or(0.0));
    out.base("setup_s", format!("median of {} set-ups", setup.len()));
    out.set("sessions_per_s", per_s.iter().copied().fold(0.0, f64::max));
    out.base(
        "sessions_per_s",
        format!("fastest of {} calls", per_s.len()),
    );
    let waits = schedule.waits();
    out.set("wait_ms_p50", quantile(&waits, 0.5).unwrap_or(0.0));
    out.set("wait_ms_p95", quantile(&waits, 0.95).unwrap_or(0.0));
    let tail = crate::stats::beyond(&waits, 0.95);
    out.base(
        "wait_ms_p95",
        format!(
            "{} probes, each the fastest of {}+ replays, {tail} beyond p95",
            waits.len(),
            schedule.passes
        ),
    );
    out.set("peak_rss_mb", heap::peak_rss_mb());
}

// ---------------------------------------------------------------------------
// learner_churn
// ---------------------------------------------------------------------------

/// Every count a cohort call reports; equal across calls of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CohortCounts {
    sessions: usize,
    failed: usize,
    served: usize,
    decoded: usize,
    switches: usize,
    cache: CacheStats,
}

impl CohortCounts {
    fn of(r: &PlaybackCohortReport, cache: CacheStats) -> CohortCounts {
        CohortCounts {
            sessions: r.sessions,
            failed: r.failed,
            served: r.frames_served,
            decoded: r.frames_decoded,
            switches: r.switches,
            cache,
        }
    }
}

fn learner(workload: Workload, ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let size = ctx.size;
    let seed = ctx.seed;
    let mut encodes = Vec::new();
    let (inputs, setup) = repeat_setup(ctx, size.setup_reps.0, |spans| {
        let made = learner_inputs(seed, &size, spans);
        encodes.push(made.encode_s * 1e3);
        made
    });
    let LearnerInputs {
        video,
        table,
        n_gops,
        ..
    } = &inputs;
    let n_segments = table.len() as u32;
    let cohort = size.churn;
    let (walkers, steps, workers) = (cohort.walkers, cohort.steps, cohort.workers);
    // The shared cache holds the whole video.
    let capacity = *n_gops;

    // The served-frame oracle: a straight decode of every frame.
    let reference: Vec<Frame> = ctx
        .spans
        .time("reference_decode", "bench::check", None, || {
            Decoder::default()
                .decode_all(video)
                .map(|d| d.frames)
                .unwrap_or_default()
        });
    out.check(reference.len() == video.len(), || {
        "reference decode failed".into()
    });

    // The probe schedule: `size.schedule` seeded segments, replayed
    // pass after pass. A learner joins a segment on a cache that holds
    // the whole video, filled before timing, and gets its first frame.
    let mut probe_rng = StdRng::seed_from_u64(seed ^ 0x9B0B_E5EED);
    let targets: Vec<SegmentId> = (0..size.schedule.max(1))
        .map(|_| SegmentId(probe_rng.gen_range(0..n_segments)))
        .collect();
    let probe_cache = Arc::new(GopCache::new(capacity));
    ctx.spans
        .time("probe_cache_fill", "bench::probe", None, || {
            let id = VideoId::of(video);
            let decoder = Decoder::default();
            for k in video.keyframes() {
                let _ = probe_cache.get_or_decode(id, k, || decoder.decode_gop_at(video, k));
            }
        });

    let probe = |spans: &mut Spans, out: &mut Outcome, j: usize, i: u64| -> Option<f64> {
        let seg = targets[j];
        let start = table.get(seg).map_or(usize::MAX, |s| s.start);
        let t0 = Instant::now();
        spans.enter("join.construct", "runtime::playback", Some(i));
        let player =
            PlaybackController::shared(video.clone(), table.clone(), seg, probe_cache.clone());
        spans.exit();
        let frame = spans.time("join.first_serve", "runtime::playback", Some(i), || {
            player.and_then(|mut p| p.current_frame())
        });
        let wait = ms(t0);
        let ok = frame.as_ref().ok() == reference.get(start);
        out.check(ok, || format!("probe {i} into {seg} served a wrong frame"))
            .then_some(wait)
    };

    // One cohort call of the given variant. The observed variant
    // cross-checks the registry's independent accounting against the
    // report; it has no executor counters to return.
    let expect_served = walkers * (steps + 1);
    let call = |variant: Variant, spans: &mut Spans, out: &mut Outcome, i: u64| {
        let observed = variant == Variant::Observed;
        let obs = if observed {
            Obs::recording()
        } else {
            Obs::noop()
        };
        let cache = Arc::new(if observed {
            GopCache::new(capacity).observed(&obs)
        } else {
            GopCache::new(capacity)
        });
        let t0 = Instant::now();
        spans.enter(
            if observed {
                "cohort.observed"
            } else {
                "cohort"
            },
            "runtime::server",
            Some(i),
        );
        let r = if observed {
            run_playback_cohort_observed(
                video.clone(),
                table,
                cache.clone(),
                walkers,
                workers,
                steps,
                &obs,
            )
            .map(|r| (r, None))
        } else {
            run_playback_cohort_with_stats(
                video.clone(),
                table,
                cache.clone(),
                walkers,
                workers,
                steps,
            )
            .map(|(r, stats)| (r, Some(stats)))
        };
        let snap = observed.then(|| obs.snapshot());
        spans.exit();
        let wall = ms(t0);
        let (report, stats) = match r {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("cohort call {i} errored: {e}"));
                return None;
            }
        };
        let counts = CohortCounts::of(&report, cache.stats());
        if let Some(snap) = snap {
            let pairs = [
                ("cohort.sessions_completed", counts.sessions as u64),
                ("cohort.sessions_failed", counts.failed as u64),
                ("playback.frames_served", counts.served as u64),
                ("playback.frames_decoded", counts.decoded as u64),
                ("cache.hits", counts.cache.hits),
                ("cache.misses", counts.cache.misses),
                ("cache.evictions", counts.cache.evictions),
            ];
            for (name, want) in pairs {
                let got = snap.counter_total(name);
                out.check(got == want, || {
                    format!("observed cohort {i}: counter {name} = {got}, report says {want}")
                });
            }
        }
        Some((wall, counts, stats))
    };

    peak_after_setup(&mut out);
    // Warm-up: one call and a batch of probes, untimed.
    let mut first: Option<(CohortCounts, ExecutorStats)> = None;
    let warm_exec = call(Variant::Plain, &mut ctx.spans, &mut out, u64::MAX);
    if let Some((_, c, Some(e))) = warm_exec {
        first = Some((c, e));
    }
    for j in 0..cohort.probes.min(targets.len()) {
        probe(&mut ctx.spans, &mut out, j, u64::MAX);
    }

    let phase = Phase::new(ctx);
    let (mut rounds, mut probes) = (0usize, 0usize);
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut schedule = Schedule::new(targets.len());
    let (mut sessions_ok, mut failed_calls_sessions) = (0u64, 0u64);
    let mut probe_failures = 0u64;
    while phase.more(rounds, schedule.passes) {
        let v = variant(ctx, workload, rounds);
        let i = rounds as u64;
        if let Some((wall, counts, exec)) = call(v, &mut ctx.spans, &mut out, i) {
            let want = first.map(|f| f.0);
            let mut ok = out.check(counts.failed == 0, || {
                format!("cohort call {i}: {} sessions failed", counts.failed)
            });
            ok &= out.check(counts.sessions == walkers, || {
                format!("cohort call {i}: {} of {walkers} sessions", counts.sessions)
            });
            ok &= out.check(counts.served == expect_served, || {
                format!(
                    "cohort call {i}: served {} frames, expected {expect_served}",
                    counts.served
                )
            });
            ok &= out.check(Some(counts) == want, || {
                format!("cohort call {i}: counts {counts:?} differ from the first call's {want:?}")
            });
            if let Some(e) = exec {
                let want = first.map(|f| f.1);
                ok &= out.check(Some(e) == want, || {
                    format!("cohort call {i}: executor counts {e:?} differ from {want:?}")
                });
            }
            if ok {
                walls[usize::from(v != Variant::Plain)].push(wall);
                sessions_ok += walkers as u64;
            } else {
                failed_calls_sessions += walkers as u64;
            }
        } else {
            failed_calls_sessions += walkers as u64;
        }
        for _ in 0..cohort.probes {
            let wait = probe(&mut ctx.spans, &mut out, schedule.next, probes as u64);
            probe_failures += u64::from(wait.is_none());
            schedule.record(wait);
            probes += 1;
        }
        rounds += 1;
    }

    out.attempted = sessions_ok + failed_calls_sessions + probes as u64;
    out.failed = failed_calls_sessions + probe_failures;
    let (counts, exec) = first.unwrap_or_default();
    let plain = &walls[0];
    let per_s: Vec<f64> = plain.iter().map(|w| walkers as f64 / (w / 1e3)).collect();
    failed_share(&mut out);

    if !ctx.trace {
        end_to_end(&mut out, &setup, &per_s, &schedule);
        return out;
    }

    let wall_ms = median(plain).unwrap_or(0.0);
    let c = counts.cache;
    out.ratio(
        "media.cache.hit_ratio",
        c.hits as f64,
        (c.hits + c.misses) as f64,
    );
    out.set("media.cache.hits", c.hits as f64);
    out.set("media.cache.lookups", (c.hits + c.misses) as f64);
    out.set("media.cache.evictions", c.evictions as f64);
    out.set("media.frames_decoded", counts.decoded as f64);
    out.set("media.frames_served", counts.served as f64);
    out.ratio(
        "media.decoded_per_served",
        counts.decoded as f64,
        counts.served as f64,
    );
    out.set(
        "playback.frames_per_s",
        ratio(counts.served as f64, wall_ms / 1e3),
    );
    out.set("executor.ticks", exec.ticks as f64);
    out.set("executor.polls", exec.polls as f64);
    out.set("executor.sessions", counts.sessions as f64);
    out.ratio(
        "executor.polls_per_session",
        exec.polls as f64,
        counts.sessions as f64,
    );
    out.set("executor.batches", exec.batches as f64);
    out.set("executor.batched_keys", exec.batched_keys as f64);
    out.ratio(
        "executor.keys_per_batch",
        exec.batched_keys as f64,
        exec.batches as f64,
    );
    out.set("executor.peak_in_flight", exec.peak_in_flight as f64);
    out.set("run.us_per_session", ratio(wall_ms * 1e3, walkers as f64));
    overhead(&mut out, &walls[0], &walls[1]);
    out.not_used(NOT_FOR_LEARNERS);
    unit_probes(
        ctx,
        &mut out,
        Some((&inputs, median(&encodes).unwrap_or(0.0))),
    );
    out
}

// ---------------------------------------------------------------------------
// fleet_e2e
// ---------------------------------------------------------------------------

/// The checks every fleet report passes.
fn check_fleet(
    out: &mut Outcome,
    r: &FleetReport,
    inputs: &FleetInputs,
    journeys: bool,
    i: u64,
) -> bool {
    let mut ok = out.check(r.accounts_exactly(), || {
        format!("fleet call {i}: accounting identity broken")
    });
    let (c, f, s, rec, g) = r.outcome_counts();
    ok &= out.check(
        (c, f, s, rec, g) == (r.completed, r.failed, r.shed, r.recovered, r.gave_up),
        || format!("fleet call {i}: outcome tallies disagree with the counters"),
    );
    ok &= out.check(r.sessions == inputs.sessions, || {
        format!("fleet call {i}: {} sessions offered", r.sessions)
    });
    // Every arrival was processed: a shed learner resolves at arrival.
    let last = inputs.arrival_times.last().copied().unwrap_or(0.0);
    ok &= out.check(r.makespan_ms >= last, || {
        format!(
            "fleet call {i}: makespan {} ms ends before the last arrival at {last} ms",
            r.makespan_ms
        )
    });
    if inputs.config.store.is_some() {
        ok &= out.check(r.durability.is_some() && r.lost_durable == 0, || {
            format!(
                "fleet call {i}: {} acknowledged sessions lost on clean disks",
                r.lost_durable
            )
        });
    }
    if journeys {
        ok &= out.check(r.journeys.len() == r.sessions, || {
            format!(
                "fleet call {i}: {} journeys for {} sessions",
                r.journeys.len(),
                r.sessions
            )
        });
    }
    ok
}

fn fleet(workload: Workload, ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let size = ctx.size;
    let seed = ctx.seed;
    let (inputs, setup) = repeat_setup(ctx, size.setup_reps.1, |spans| {
        e2e_inputs(seed, &size, spans)
    });
    let factory = |_: usize, _: u32| -> Box<dyn Bot> { Box::new(GuidedBot::new()) };
    let (graph, session) = &inputs.engine;
    let fw = FleetWorkload::Engine {
        graph: graph.clone(),
        config: session.clone(),
        factory: &factory,
    };
    let journeys_off = vgbl::runtime::FleetConfig {
        journeys: false,
        ..inputs.config.clone()
    };
    let n = inputs.sessions;

    let call = |variant: Variant, spans: &mut Spans, out: &mut Outcome, i: u64| {
        let t0 = Instant::now();
        let r = match variant {
            Variant::Plain => spans.time("fleet", "runtime::fleet", Some(i), || {
                run_fleet(&fw, &inputs.config, n, &inputs.arrivals)
            }),
            Variant::JourneysOff => {
                spans.time("fleet.journeys_off", "runtime::fleet", Some(i), || {
                    run_fleet(&fw, &journeys_off, n, &inputs.arrivals)
                })
            }
            Variant::Observed => {
                let obs = Obs::recording();
                spans.enter("fleet.observed", "runtime::fleet", Some(i));
                let r = run_fleet_observed(&fw, &inputs.config, n, &inputs.arrivals, &obs, "fleet");
                let snap = obs.snapshot();
                spans.exit();
                if let Ok(r) = &r {
                    let pairs = [
                        ("fleet.shed", r.shed as u64),
                        ("fleet.migrations", r.migrations.len() as u64),
                    ];
                    for (name, want) in pairs {
                        let got = snap.counter_total(name);
                        out.check(got == want, || {
                            format!(
                                "observed fleet {i}: counter {name} = {got}, report says {want}"
                            )
                        });
                    }
                }
                r
            }
        };
        let wall = ms(t0);
        match r {
            Ok(r) => Some((wall, r)),
            Err(e) => {
                out.check(false, || format!("fleet call {i} errored: {e}"));
                None
            }
        }
    };

    // A learner joining an idle fleet: one arrival, served to the end.
    // Each scheduled probe is a learner of its own (its own router seed
    // and arrival draw), and every replay of it must be served as its
    // first was.
    let load = size.e2e;
    let joins: Vec<(FleetConfig, ArrivalPlan)> = (1..=size.schedule.max(1) as u64)
        .map(|j| {
            let config = FleetConfig {
                router_seed: seed.wrapping_add(j),
                ..inputs.idle.clone()
            };
            let plan = ArrivalPlan::new(seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15), load.gap_ms)
                .expect("positive arrival gap");
            (config, plan)
        })
        .collect();
    let mut first_probe: Vec<Option<FleetReport>> = vec![None; joins.len()];
    let mut probe = |spans: &mut Spans, out: &mut Outcome, j: usize, i: u64| {
        let (config, plan) = &joins[j];
        let t0 = Instant::now();
        let r = spans.time("idle_join", "runtime::fleet", Some(i), || {
            run_fleet(&fw, config, 1, plan)
        });
        let wait = ms(t0);
        let ok = match &r {
            Ok(r) => {
                let same = first_probe[j].get_or_insert_with(|| r.clone()) == r;
                out.check(r.accounts_exactly() && r.shed == 0 && same, || {
                    format!("idle-join probe {i}: not served, or served differently")
                })
            }
            Err(e) => out.check(false, || format!("idle-join probe {i} errored: {e}")),
        };
        ok.then_some(wait)
    };

    peak_after_setup(&mut out);
    let mut first_on: Option<FleetReport> = None;
    if let Some((_, r)) = call(Variant::Plain, &mut ctx.spans, &mut out, u64::MAX) {
        check_fleet(&mut out, &r, &inputs, inputs.config.journeys, u64::MAX);
        first_on = Some(r);
    }
    let want_off = first_on.clone().map(|f| FleetReport {
        journeys: Vec::new(),
        ..f
    });
    for j in 0..load.probes.min(joins.len()) {
        probe(&mut ctx.spans, &mut out, j, u64::MAX);
    }

    let phase = Phase::new(ctx);
    let (mut rounds, mut probes) = (0usize, 0usize);
    let mut walls: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut schedule = Schedule::new(joins.len());
    let (mut ok_sessions, mut bad_sessions, mut probe_failures) = (0u64, 0u64, 0u64);
    let (mut refused, mut lost) = (0u64, 0u64);
    while phase.more(rounds, schedule.passes) {
        let v = variant(ctx, workload, rounds);
        let i = rounds as u64;
        let passed = match call(v, &mut ctx.spans, &mut out, i) {
            Some((wall, r)) => {
                let journeys = v != Variant::JourneysOff && inputs.config.journeys;
                let mut ok = ctx.spans.time("check", "bench::check", Some(i), || {
                    check_fleet(&mut out, &r, &inputs, journeys, i)
                });
                // Byte-identical reruns; journeys off changes nothing
                // but the journeys themselves.
                let want = if v == Variant::JourneysOff {
                    &want_off
                } else {
                    &first_on
                };
                let same = want.as_ref() == Some(&r);
                ok &= out.check(same, || {
                    format!("fleet call {i} ({v:?}): report differs from the first run's")
                });
                if ok {
                    let slot = match v {
                        Variant::Plain => 0,
                        Variant::Observed => 1,
                        Variant::JourneysOff => 2,
                    };
                    walls[slot].push(wall);
                    refused += r.shed as u64;
                    lost += (r.failed + r.gave_up) as u64;
                }
                ok
            }
            None => false,
        };
        if passed {
            ok_sessions += n as u64;
        } else {
            bad_sessions += n as u64;
        }
        for _ in 0..load.probes {
            let wait = probe(&mut ctx.spans, &mut out, schedule.next, probes as u64);
            probe_failures += u64::from(wait.is_none());
            schedule.record(wait);
            probes += 1;
        }
        rounds += 1;
    }

    out.attempted = ok_sessions + bad_sessions + probes as u64;
    out.failed = bad_sessions + lost + probe_failures;
    out.set("sessions.attempted", out.attempted as f64);
    out.set("sessions.failed", (out.failed + refused) as f64);
    out.ratio(
        "failed_share",
        (out.failed + refused) as f64,
        out.attempted as f64,
    );
    let per_s: Vec<f64> = walls[0].iter().map(|w| n as f64 / (w / 1e3)).collect();

    if !ctx.trace {
        end_to_end(&mut out, &setup, &per_s, &schedule);
        return out;
    }

    out.not_used(NOT_FOR_FLEETS);
    let Some(r) = first_on else {
        return out;
    };
    let wall_ms = median(&walls[0]).unwrap_or(0.0);
    out.set("run.us_per_session", ratio(wall_ms * 1e3, n as f64));
    out.set("fleet.sessions", r.sessions as f64);
    out.set("fleet.admitted", r.admitted() as f64);
    out.set("fleet.shed", r.shed as f64);
    out.set("fleet.migrations", r.migrations.len() as f64);
    out.set("fleet.restarts", r.restarts as f64);
    out.set("fleet.recovered_cold", r.recovered_cold as f64);
    if let Some(d) = &r.durability {
        out.set("store.appended", d.store.appended as f64);
        out.set("store.acked_records", d.store.acked_records as f64);
        out.set("store.flushes", d.store.flushes as f64);
        out.set("store.snapshots", d.store.snapshots as f64);
    }
    out.set("journey.sessions", r.journeys.len() as f64);
    out.set(
        "journey.events",
        r.journeys.iter().map(|j| j.events.len()).sum::<usize>() as f64,
    );
    let (on, off) = (
        median(&walls[0]).unwrap_or(0.0),
        median(&walls[2]).unwrap_or(0.0),
    );
    out.set("journey.cost_share", ratio(on, off) - 1.0);
    out.base(
        "journey.cost_share",
        format!("= {on:.3} ms on / {off:.3} ms off - 1"),
    );
    overhead(&mut out, &walls[0], &walls[1]);
    unit_probes(ctx, &mut out, None);
    out
}

// ---------------------------------------------------------------------------
// Shared per-layer pieces
// ---------------------------------------------------------------------------

/// `failed_share` for learner_churn: failed sessions and probes
/// over attempted.
fn failed_share(out: &mut Outcome) {
    out.set("sessions.attempted", out.attempted as f64);
    out.set("sessions.failed", out.failed as f64);
    out.ratio("failed_share", out.failed as f64, out.attempted as f64);
}

/// `trace.overhead_share`: observed calls against plain calls.
fn overhead(out: &mut Outcome, plain: &[f64], traced: &[f64]) {
    let (p, t) = (median(plain).unwrap_or(0.0), median(traced).unwrap_or(0.0));
    out.set("trace.untraced_ms", p);
    out.set("trace.traced_ms", t);
    out.set("trace.overhead_share", ratio(t, p) - 1.0);
    out.base(
        "trace.overhead_share",
        format!("= {t:.3} ms traced / {p:.3} ms untraced - 1"),
    );
}

/// Unit costs of single layers, measured the same way on every workload
/// from the seed's inputs: one encode, every GOP decoded, fingerprints,
/// the two halves of a join, one engine walk, one checkpoint, one store
/// append and flush.
fn unit_probes(ctx: &mut Ctx, out: &mut Outcome, learner: Option<(&LearnerInputs, f64)>) {
    let size = ctx.size;
    let reps = size.unit_reps.max(1);
    let spans = &mut ctx.spans;
    spans.enter("unit_probes", "bench::probe", None);
    let owned;
    let (inputs, encode_ms) = match learner {
        Some(l) => l,
        None => {
            owned = learner_inputs(ctx.seed, &size, spans);
            let e = owned.encode_s * 1e3;
            (&owned, e)
        }
    };
    out.set("media.encode_ms", encode_ms);
    let video = &inputs.video;

    let decoder = Decoder::default();
    let keys = video.keyframes();
    let mut pass_means = Vec::new();
    for pass in 0..3u64 {
        let mut total = 0.0;
        for &k in &keys {
            let t = Instant::now();
            let r = spans.time("decode_gop", "media::codec", Some(pass), || {
                decoder.decode_gop_at(video, k)
            });
            total += ms(t);
            out.check(r.is_ok(), || format!("decode of GOP {k} failed"));
        }
        pass_means.push(total / keys.len().max(1) as f64);
    }
    out.set("media.decode_gop_ms", median(&pass_means).unwrap_or(0.0));

    let fp: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            spans.time("fingerprint", "media::cache", Some(i as u64), || {
                std::hint::black_box(VideoId::of(video))
            });
            ms(t)
        })
        .collect();
    out.set("media.fingerprint_ms", median(&fp).unwrap_or(0.0));

    let cache = Arc::new(GopCache::new(inputs.n_gops));
    let n_segments = inputs.table.len() as u32;
    let (mut construct, mut serve) = (Vec::new(), Vec::new());
    for i in 0..(reps * 3 + keys.len()) {
        let seg = SegmentId(i as u32 % n_segments);
        let t = Instant::now();
        let p = spans.time(
            "join.construct",
            "runtime::playback",
            Some(i as u64),
            || PlaybackController::shared(video.clone(), inputs.table.clone(), seg, cache.clone()),
        );
        let c = ms(t);
        let t = Instant::now();
        let f = spans.time(
            "join.first_serve",
            "runtime::playback",
            Some(i as u64),
            || p.and_then(|mut p| p.current_frame()),
        );
        let s = ms(t);
        out.check(f.is_ok(), || format!("unit join {i} failed"));
        // The first pass over the segments fills the cache.
        if i >= keys.len() {
            construct.push(c);
            serve.push(s);
        }
    }
    out.set(
        "playback.construct_ms_p50",
        median(&construct).unwrap_or(0.0),
    );
    out.set("playback.first_serve_ms_p50", median(&serve).unwrap_or(0.0));

    let graph = Arc::new(vgbl::runtime::fixtures::fix_the_computer());
    let config = vgbl::runtime::SessionConfig::for_frame(
        vgbl::runtime::fixtures::FRAME.0,
        vgbl::runtime::fixtures::FRAME.1,
    );
    let sup = SupervisorConfig::default();
    let walks: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            let r = spans.time("session", "runtime::engine", Some(i as u64), || {
                run_session(
                    graph.clone(),
                    config.clone(),
                    &mut GuidedBot::new(),
                    sup.max_steps,
                    sup.tick_ms,
                )
            });
            out.check(r.is_ok(), || format!("fixture walk {i} failed"));
            ms(t)
        })
        .collect();
    out.set("engine.session_ms", median(&walks).unwrap_or(0.0));

    // A checkpoint from the middle of a fixture walk.
    let mut session = GameSession::new(graph.clone(), config.clone())
        .expect("fixture session starts")
        .0;
    let mut bot = GuidedBot::new();
    for _ in 0..3 {
        if let Ok(Some(input)) = bot.next_input(&session) {
            let _ = session.handle(input);
        }
    }
    let mut text = String::new();
    let mut digest = 0;
    let saves: Vec<f64> = (0..reps * 10)
        .map(|i| {
            let t = Instant::now();
            spans.time("checkpoint", "runtime::save", Some(i as u64), || {
                let save = session.checkpoint();
                text = save.to_text();
                digest = save.digest();
            });
            ms(t) * 1e3
        })
        .collect();
    out.set("save.checkpoint_us", median(&saves).unwrap_or(0.0));
    out.set("save.checkpoint_bytes", text.len() as f64);

    let mut store = DurableStore::new(StoreConfig {
        snapshot_every: 8,
        dual_write: true,
        faults: DiskFaultPlan::new(ctx.seed),
    });
    let appends: Vec<f64> = (0..reps * 10)
        .map(|i| {
            let record = CheckpointRecord {
                session: i as u64,
                step: 3,
                generation: 0,
                digest,
                trace_id: 0,
                span_id: 0,
                payload: text.clone().into_bytes(),
            };
            let t = Instant::now();
            let r = spans.time("append_flush", "store", Some(i as u64), || {
                store.append(&record);
                store.flush()
            });
            out.check(r.is_ok(), || {
                format!("store flush {i} failed on a clean disk")
            });
            ms(t) * 1e3
        })
        .collect();
    out.set("store.append_flush_us", median(&appends).unwrap_or(0.0));
    spans.exit();
}

#[cfg(test)]
mod tests {
    use super::Schedule;

    /// Each probe keeps its fastest replay, a failed replay leaves the
    /// probe's best as it was, and a pass ends after the last probe.
    #[test]
    fn schedule_keeps_each_probes_fastest_replay() {
        let mut s = Schedule::new(3);
        for wait in [Some(5.0), None, Some(9.0), Some(4.0), None, Some(7.0)] {
            s.record(wait);
        }
        assert_eq!((s.passes, s.next), (2, 0));
        assert_eq!(s.waits(), vec![4.0, 7.0]);
        s.record(Some(6.0));
        assert_eq!((s.passes, s.next), (2, 1));
        assert_eq!(s.waits(), vec![4.0, 7.0]);
    }
}
