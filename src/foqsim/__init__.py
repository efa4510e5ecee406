"""foqsim: packet-level simulator of a feedback output-queued switch.

The switch couples per-(output, flow) congestion measurements to ingress
droppers through either a discrete PI controller or its quantized gear-box
variant. A companion analytic model gives the closed-form step response of
the control loop for cross-checking the simulation.
"""

__version__ = "0.1.0"
