//! # vgbl-runtime — the VGBL gaming platform
//!
//! The paper's "runtime environment … an augmented video player with the
//! interaction functionalities" (§4.3). Players examine and drag objects,
//! collect items into a backpack, talk to NPCs, earn rewards, and switch
//! between video scenarios; the platform records everything a learning
//! analyst needs.
//!
//! * [`state`] — flags, score, visit history, and the script [`vgbl_script::Env`]
//!   binding (`has`, `flag`, `visited`, …).
//! * [`inventory`] — the backpack and the achievement objects of §3.3.
//! * [`input`] — mouse/keyboard input events ("mouse and keyboard are
//!   responsible for delivering users' interactions", §3.1).
//! * [`feedback`] — everything the platform presents back to the player.
//! * [`engine`] — [`engine::GameSession`], the interaction loop:
//!   hit-testing, trigger dispatch, action execution, timers.
//! * [`playback`] — video playback over encoded segments, decoding
//!   through a shared GOP cache so cohorts decode each GOP once.
//! * [`render`] — Figure 2 reproduction: frame compositing with mounted
//!   objects plus the deterministic ASCII UI render.
//! * [`save`] — save games (text format, versioned).
//! * [`analytics`] — session logs and learning reports (§3.2 knowledge
//!   delivery, measured).
//! * [`bot`] — simulated players: scripted, random and goal-seeking.
//! * [`baseline`] — the linear DVD-menu baseline for EXP-4.
//! * [`device`] — input-device mappings (§2's remote control: focus
//!   ring + OK/TAKE/digit buttons, so the game is playable without a
//!   pointer).
//! * [`executor`] — the deterministic cooperative executor (EXP-18):
//!   a seeded run queue of yield-at-fetch session state machines, a
//!   per-tick batch planner for coalesced chunk fetches, and the
//!   `(time, class, tie, seq)` event queue the supervisor and fleet
//!   schedule on.
//! * [`server`] — a parallel multi-session host (EXP-8).
//! * [`supervisor`] — the supervised host (EXP-14): admission control,
//!   load shedding, a degradation ladder, circuit breaking on the
//!   stream link, and checkpoint-based crash recovery.
//! * [`fleet`] — the sharded fleet supervisor (EXP-17): consistent-hash
//!   session routing, shard failure domains with seeded fault
//!   injection, SLO-driven checkpoint migration, and autoscaling.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytics;
pub mod baseline;
pub mod bot;
pub mod chaos;
pub mod device;
pub mod engine;
pub mod error;
pub mod executor;
pub mod feedback;
pub mod fixtures;
pub mod fleet;
pub mod input;
pub mod inventory;
pub mod playback;
pub mod render;
pub mod save;
pub mod server;
pub mod state;
pub mod supervisor;

pub use analytics::{
    DecodeReuse, LatencySummary, LearningReport, LogEvent, ResilienceReport, SessionLog,
};
pub use bot::{run_session, run_session_observed, Bot, BotRun, ExplorerBot, GuidedBot, RandomBot};
pub use device::{RemoteButton, RemoteControl};
pub use engine::{GameSession, SessionConfig};
pub use error::RuntimeError;
pub use executor::{
    run_tasks, CohortRun, EventQueue, ExecutorStats, SessionTask, SimTime, Step, Timed,
};
pub use feedback::Feedback;
pub use chaos::{
    incident_report, run_chaos, ChaosConfig, ChaosReport, Incident, IncidentReport, InvariantCheck,
};
pub use fleet::{
    run_fleet, run_fleet_observed, AutoscaleConfig, DurabilityReport, FleetConfig, FleetReport,
    FleetRouter, FleetWorkload, LostSession, MigrationConfig, MigrationReason, MigrationRecord,
    ScaleEvent, ShardFault, ShardFaultKind, ShardReport,
};
pub use input::InputEvent;
pub use inventory::Inventory;
pub use playback::{PlaybackController, PlaybackStats};
pub use save::SaveGame;
pub use server::{
    run_cohort, run_playback_cohort, run_playback_cohort_observed, run_playback_cohort_with_stats,
    PlaybackCohortReport, ServerReport, SessionOutcome,
};
pub use state::GameState;
pub use supervisor::{
    resume_session, run_supervised_cohort, run_supervised_cohort_durable,
    run_supervised_cohort_observed, ArrivalPlan, LadderPolicy, RecoveryRecord, ServiceMode,
    SloLadderConfig, SupervisedBotFactory, SupervisorConfig, SupervisorReport,
};

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;
