"""qswarm: deterministic 2-D swarm simulation with per-particle tabular
Q-learning for cohesion, a standard PSO baseline, connectivity metrics, and a
seeded experiment harness."""

from .config import ALGORITHMS, ConfigError, SwarmConfig, config_from_dict, config_to_dict, dump_config, load_config
from .core import Vec2, WorldBounds, euclidean_distance, pairwise_distances, positions_array
from .harness import (PRESETS, RunSummary, preset, read_trace_csv, run_experiment,
                      run_to_dir, write_decisions_csv, write_snapshot_csv,
                      write_summary_json, write_trace_csv)
from .metrics import (StateId, TickRecord, Trace, as_trace, classify_decisions,
                      connected_fraction, connectivity_components, cumulative_reward,
                      cumulative_rewards, decision_series, dispersion, drift_onset, drift_onsets)
from .mql import (ActionSpec, MqlEngine, MqlParams, apply_action, build_actions, encode_state,
                  neighborhood, reward, step_scale_pi)
from .pso import Objective, PsoEngine, PsoParams, PsoParticle, pso_step, velocity_update
from .qlearning import LearningParams, QTable

__version__ = "0.1.0"
