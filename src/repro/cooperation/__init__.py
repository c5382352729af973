"""Reliable assessment of cooperation state (paper section V-C).

Building blocks for learning the distributed system state of the vehicular
network and agreeing on ongoing manoeuvres: heartbeat failure detectors,
cooperative group membership, round-based manoeuvre agreement (cohorts),
virtual (stationary/mobile) nodes, and self-stabilising topology discovery
with a Byzantine-resilient delivery primitive.
"""
