"""foqsim: packet-level simulator of a feedback output-queued switch.

The switch couples per-(output, flow) congestion measurements to ingress
droppers through either a discrete PI controller or its quantized gear-box
variant. A companion analytic model gives the closed-form step response of
the control loop for cross-checking the simulation.
"""

from .analytic import (
    StepResponse,
    StepScenario,
    initial_period,
    is_stable,
    multiflow_initial_rate,
    poles,
    queue_at,
    queue_trajectory,
    step_response_closed_form,
    step_response_recurrence,
)
from .config import (
    ConfigError,
    ConfigSyntaxError,
    ExperimentConfig,
    SourceSpec,
    load_config,
    parse_pairs,
)
from .control import (
    FeedbackAction,
    GbParams,
    PiParams,
    apply_gb_signal,
    d_mid,
    derive_beta,
    derive_thresholds,
    drop_level_table,
    drop_prob_from_rate,
    gb_signal_from_congestion,
    pi_update,
)
from .events import EventLoop, ns, stream, tx_ns
from .experiment import Experiment, run_experiment
from .switch import (
    FeedbackConfig,
    FlowSpec,
    Packet,
    RedParams,
    ServiceClass,
    Switch,
    SwitchConfig,
    ingress_admit,
    red_drop_probability,
)
from .timeseries import Record, TimeSeries
from .traffic import AccessLink, CbrSource, SubnetGroup, TcpSource, staged_start

__version__ = "0.1.0"

__all__ = [
    "AccessLink", "CbrSource", "ConfigError", "ConfigSyntaxError",
    "EventLoop", "Experiment", "ExperimentConfig", "FeedbackAction",
    "FeedbackConfig", "FlowSpec", "GbParams", "Packet", "PiParams",
    "Record", "RedParams", "ServiceClass",
    "SourceSpec", "StepResponse", "StepScenario", "SubnetGroup", "Switch",
    "SwitchConfig", "TcpSource", "TimeSeries", "apply_gb_signal", "d_mid",
    "derive_beta", "derive_thresholds", "drop_level_table",
    "drop_prob_from_rate", "gb_signal_from_congestion", "ingress_admit",
    "initial_period", "is_stable", "load_config", "multiflow_initial_rate",
    "ns", "parse_pairs", "pi_update", "poles", "queue_at",
    "queue_trajectory", "red_drop_probability", "run_experiment",
    "staged_start", "step_response_closed_form",
    "step_response_recurrence", "stream", "tx_ns",
]
