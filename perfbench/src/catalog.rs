//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! declares the same names; the self-tests hold the two in step.

/// End-to-end metrics, reported by untraced runs on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("wait_ms_p50", "ms"),
    ("wait_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("media.encode_ms", "ms"),
    ("media.decode_gop_ms", "ms"),
    ("media.fingerprint_ms", "ms"),
    ("media.cache.hits", "count"),
    ("media.cache.lookups", "count"),
    ("media.cache.hit_ratio", "ratio"),
    ("media.cache.evictions", "count"),
    ("media.frames_decoded", "count"),
    ("media.frames_served", "count"),
    ("media.decoded_per_served", "ratio"),
    ("playback.construct_ms_p50", "ms"),
    ("playback.first_serve_ms_p50", "ms"),
    ("playback.frames_per_s", "1/s"),
    ("executor.ticks", "count"),
    ("executor.polls", "count"),
    ("executor.sessions", "count"),
    ("executor.polls_per_session", "ratio"),
    ("executor.batches", "count"),
    ("executor.batched_keys", "count"),
    ("executor.keys_per_batch", "ratio"),
    ("executor.peak_in_flight", "count"),
    ("run.us_per_session", "us"),
    ("fleet.sessions", "count"),
    ("fleet.admitted", "count"),
    ("fleet.shed", "count"),
    ("fleet.migrations", "count"),
    ("fleet.restarts", "count"),
    ("fleet.recovered_cold", "count"),
    ("engine.session_ms", "ms"),
    ("save.checkpoint_us", "us"),
    ("save.checkpoint_bytes", "count"),
    ("store.appended", "count"),
    ("store.acked_records", "count"),
    ("store.flushes", "count"),
    ("store.snapshots", "count"),
    ("store.append_flush_us", "us"),
    ("journey.sessions", "count"),
    ("journey.events", "count"),
    ("journey.cost_share", "ratio"),
    ("sessions.attempted", "count"),
    ("sessions.failed", "count"),
    ("failed_share", "ratio"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Ratios and the count metrics they are computed from:
/// `(ratio, numerator, denominator)`.
#[cfg(test)]
pub const RATIOS: &[(&str, &str, &str)] = &[
    (
        "media.cache.hit_ratio",
        "media.cache.hits",
        "media.cache.lookups",
    ),
    (
        "media.decoded_per_served",
        "media.frames_decoded",
        "media.frames_served",
    ),
    (
        "executor.polls_per_session",
        "executor.polls",
        "executor.sessions",
    ),
    (
        "executor.keys_per_batch",
        "executor.batched_keys",
        "executor.batches",
    ),
    ("failed_share", "sessions.failed", "sessions.attempted"),
];

/// Layers fleet_e2e does not touch.
pub const NOT_FOR_FLEETS: &[&str] = &[
    "media.cache.hits",
    "media.cache.lookups",
    "media.cache.hit_ratio",
    "media.cache.evictions",
    "media.frames_decoded",
    "media.frames_served",
    "media.decoded_per_served",
    "playback.frames_per_s",
    "executor.ticks",
    "executor.polls",
    "executor.sessions",
    "executor.polls_per_session",
    "executor.batches",
    "executor.batched_keys",
    "executor.keys_per_batch",
    "executor.peak_in_flight",
];

/// Layers learner_churn does not touch.
pub const NOT_FOR_LEARNERS: &[&str] = &[
    "fleet.sessions",
    "fleet.admitted",
    "fleet.shed",
    "fleet.migrations",
    "fleet.restarts",
    "fleet.recovered_cold",
    "store.appended",
    "store.acked_records",
    "store.flushes",
    "store.snapshots",
    "journey.sessions",
    "journey.events",
    "journey.cost_share",
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
