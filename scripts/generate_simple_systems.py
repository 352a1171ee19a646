#!/usr/bin/env python3
"""Regenerate the triangular-branch data files under src/phasekit/data/.

Each catalogued three-state model carries a fixed list of simple triangular
systems (equations and inequations over k1..k5, L1..L3, S1..S2) whose
solution sets partition the solutions of the model's inversion system.
They are maintained here as human-readable expressions, expanded to
integer-coefficient term lists with sympy, and written to one data file per
model plus a checksum manifest.

Run from the repository root:  python3 scripts/generate_simple_systems.py
"""

import hashlib
import json
import pathlib

import sympy as sp

VARS = sp.symbols("k1 k2 k3 k4 k5 L1 L2 L3 S1 S2")
NAMES = [str(v) for v in VARS]

# Variable ranking per model, descending (highest first).  The moment
# variables always rank below the rates.
RANKINGS = {
    "M2": ["k1", "k3", "k2", "k4", "k5", "L1", "L2", "L3", "S1", "S2"],
    "M3": ["k1", "k2", "k3", "k4", "k5", "L1", "L2", "L3", "S1", "S2"],
    "M4": ["k1", "k2", "k3", "k4", "k5", "L1", "L2", "L3", "S1", "S2"],
    "M8": ["k1", "k3", "k4", "k2", "k5", "L1", "L2", "L3", "S1", "S2"],
    "M9": ["k3", "k1", "k4", "k2", "k5", "L1", "L2", "L3", "S1", "S2"],
}

# Relations are (kind, expression) with kind "EQ" (expr = 0) or
# "NEQ" (expr != 0).  One tuple of relations per simple system.
E, N = "EQ", "NEQ"

SYSTEMS = {
    "M2": [
        [
            (E, "L1**2*S1**3*S2 + L2**2*S1**3 + S1*S2**3 + L3**2*S1"
                " + (-S1**2*S2**2 + S2**3 + (S1**3*S2 - S1*S2**2)*L1"
                " + (-S1**4 + S1**2*S2)*L2 + (S1**3 - S1*S2)*L3)*k1"
                " + (-2*S1**2*S2**2 + (-S1**4 - S1**2*S2)*L2"
                " + (S1**3 + S1*S2)*L3)*L1"
                " + (S1**3*S2 - 2*L3*S1**2 + S1*S2**2)*L2"
                " + (S1**4 - 3*S1**2*S2)*L3"),
            (E, "(L1*S1*S2 - L2*S1**2 + L3*S1 - S2**2)*k3 + (-S1**2 + S2)*L3"),
            (E, "-L1*S1*S2 + L2*S1**2 - L3*S1 + S2**2 + (S1**3 - S1*S2)*k2"),
            (E, "k4*S1 - S1**2 + S2"),
            (E, "k5 + S1"),
            (N, "L1*S1*S2 - L2*S1**2 + L3*S1 - S2**2"),
            (N, "S1**3 - S1*S2"),
            (N, "S2"),
        ],
        [
            (E, "-L2**2*S1**2 - L3*S1**3 + 2*L2*L3*S1 - L3**2"
                " + (L2*S1**3 - L3*S1**2)*k1 + (L2*S1**3 - L3*S1**2)*L1"),
            (E, "L3*S1 + (L2*S1 - L3)*k3"),
            (E, "k2*S1**2 + L2*S1 - L3"),
            (E, "k4 - S1"),
            (E, "k5 + S1"),
            (N, "L2*S1 - L3"),
            (N, "S1"),
            (E, "S2"),
        ],
        [
            (E, "k1*k2*S1*S2 + k2**2*S1*S2 + L3*S2 + (L2*S2 - L3*S1)*k2"),
            (E, "k3*k2*S1 - L3"),
            (N, "k2"),
            (E, "k4"),
            (E, "k5 + S1"),
            (E, "L1*S1*S2 - L2*S2 + L3*S1 - S2**2"),
            (E, "S1**2 - S2"),
            (N, "S2"),
        ],
        [
            (E, "k1*S2 + k3*S2 + L2*S1"),
            (E, "k2"),
            (E, "k4*S1 - S1**2 + S2"),
            (E, "k5 + S1"),
            (E, "L1*S1*S2 - L2*S1**2 - S2**2"),
            (E, "L3"),
            (N, "S1"),
            (N, "S2"),
        ],
        [
            (E, "k1 + k3 + L1"), (E, "k2"), (E, "k4 - S1"), (E, "k5 + S1"),
            (E, "L2"), (E, "L3"), (N, "S1"), (E, "S2"),
        ],
        [
            (E, "k1*k2 + k2**2 + k4**2 + k4*L1 + (2*k4 + L1)*k2 + L2"),
            (E, "k3*k2 - k2*k4 - k4**2 - k4*L1 - L2"),
            (N, "k2"),
            (E, "k5"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k3 + k4 + L1"), (E, "k2"),
            (E, "k4**2 + k4*L1 + L2"), (E, "k5"),
            (N, "L1**2 - 4*L2"), (N, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k3"), (E, "k2"), (E, "k4 + L1"), (E, "k5"),
            (N, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k3 + L1"), (E, "k2"), (E, "k4"), (E, "k5"),
            (N, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "2*k1 + 2*k3 + L1"), (E, "k2"), (E, "2*k4 + L1"), (E, "k5"),
            (E, "L1**2 - 4*L2"), (N, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k3"), (E, "k2"), (E, "k4"), (E, "k5"),
            (E, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
    ],
    "M3": [
        [
            (E, "k1*k3*S1*S2 + k3**2*S1*S2 + L3*S2 + (L2*S1**2 - L3*S1)*k3"),
            (E, "k2*k3*S1 - L3"),
            (N, "k3"),
            (E, "k4*S1 - S1**2 + S2"),
            (E, "k5 + S1"),
            (E, "L1*S1*S2 - L2*S1**2 + L3*S1 - S2**2"),
            (N, "S1"),
            (N, "S2"),
        ],
        [
            (E, "k1*k3*S1 + k3**2*S1 + k3*L1*S1 + L3"),
            (E, "k2*k3*S1 - L3"),
            (N, "k3"),
            (E, "k4 - S1"),
            (E, "k5 + S1"),
            (E, "L2*S1 - L3"),
            (N, "S1"),
            (E, "S2"),
        ],
        [
            (E, "k1*S2 + k2*S2 + L2*S1"),
            (E, "k3"),
            (E, "k4*S1 - S1**2 + S2"),
            (E, "k5 + S1"),
            (E, "L1*S1*S2 - L2*S1**2 - S2**2"),
            (E, "L3"), (N, "S1"), (N, "S2"),
        ],
        [
            (E, "k1 + k2 + L1"), (E, "k3"), (E, "k4 - S1"), (E, "k5 + S1"),
            (E, "L2"), (E, "L3"), (N, "S1"), (E, "S2"),
        ],
        [
            (E, "k1*k3 + k3**2 + k4**2 + k4*L1 + (k4 + L1)*k3 + L2"),
            (E, "k2*k3 - k4**2 - k4*L1 - L2"),
            (N, "k3"),
            (E, "k5"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k2 + k4 + L1"), (E, "k3"),
            (E, "k4**2 + k4*L1 + L2"), (E, "k5"),
            (N, "L1**2 - 4*L2"), (N, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k2"), (E, "k3"), (E, "k4 + L1"), (E, "k5"),
            (N, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k2 + L1"), (E, "k3"), (E, "k4"), (E, "k5"),
            (N, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "2*k1 + 2*k2 + L1"), (E, "k3"), (E, "2*k4 + L1"), (E, "k5"),
            (E, "L1**2 - 4*L2"), (N, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k2"), (E, "k3"), (E, "k4"), (E, "k5"),
            (E, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
    ],
    "M4": [
        [
            (E, "L1*S1**2 - L2*S1 - S1*S2 + (S1**2 - S2)*k1"
                " + (S1**2 - S2)*k3 + L3"),
            (E, "L2*S1**2 - L1*S1*S2 - L3*S1 + S2**2 + (S1**3 - S1*S2)*k2"),
            (E, "k3**2*S1 + (L1*S1 - S2)*k3 + L3"),
            (E, "k4*S1 - S1**2 + S2"),
            (E, "k5 + S1"),
            (N, "L1**2*S1**2 - 2*L1*S1*S2 - 4*L3*S1 + S2**2"),
            (N, "L3"),
            (N, "S1**3 - S1*S2"),
            (N, "S2"),
        ],
        [
            (E, "L1*S1*S2 - L2*S1**2 - S2**2 + (S1**3 - S1*S2)*k1"),
            (E, "k3*S1 + L1*S1 - S2"),
            (E, "-L1*S1*S2 + L2*S1**2 + S2**2 + (S1**3 - S1*S2)*k2"),
            (E, "k4*S1 - S1**2 + S2"),
            (E, "k5 + S1"),
            (N, "L1*S1 - S2"), (E, "L3"),
            (N, "S1**3 - S1*S2"), (N, "S2"),
        ],
        [
            (E, "L1*S1**2 - L2*S1 - S1*S2 + (S1**2 - S2)*k1"),
            (E, "-L1*S1*S2 + L2*S1**2 + S2**2 + (S1**3 - S1*S2)*k2"),
            (E, "k3"),
            (E, "k4*S1 - S1**2 + S2"),
            (E, "k5 + S1"),
            (N, "L1*S1 - S2"), (E, "L3"),
            (N, "S1**3 - S1*S2"), (N, "S2"),
        ],
        [
            (E, "-2*L2*S1**2 - S1**2*S2 + 2*L3*S1 - S2**2"
                " + (2*S1**3 - 2*S1*S2)*k1 + (S1**3 + S1*S2)*L1"),
            (E, "-L1*S1*S2 + L2*S1**2 - L3*S1 + S2**2 + (S1**3 - S1*S2)*k2"),
            (E, "2*k3*S1 + L1*S1 - S2"),
            (E, "k4*S1 - S1**2 + S2"),
            (E, "k5 + S1"),
            (E, "L1**2*S1**2 - 2*L1*S1*S2 - 4*L3*S1 + S2**2"),
            (N, "L3"), (N, "S1**3 - S1*S2"), (N, "S2"),
        ],
        [
            (E, "-L2*S1 + (S1**2 - S2)*k1"),
            (E, "L2*S1 + (S1**2 - S2)*k2"),
            (E, "k3"),
            (E, "k4*S1 - S1**2 + S2"),
            (E, "k5 + S1"),
            (E, "L1*S1 - S2"), (E, "L3"),
            (N, "S1**3 - S1*S2"), (N, "S2"),
        ],
        [
            (E, "k1*S1**2 + k3*S1**2 + L1*S1**2 - L2*S1 + L3"),
            (E, "k2*S1**2 + L2*S1 - L3"),
            (E, "k4 - S1"),
            (E, "k3**2*S1 + k3*L1*S1 + L3"),
            (E, "k5 + S1"),
            (N, "L1**2*S1 - 4*L3"), (N, "L3"), (N, "S1"), (E, "S2"),
        ],
        [
            (E, "k1*S1 - L2"), (E, "k2*S1 + L2"), (E, "k3 + L1"),
            (E, "k4 - S1"), (E, "k5 + S1"),
            (N, "L1"), (E, "L3"), (N, "S1"), (E, "S2"),
        ],
        [
            (E, "k1*S1 + L1*S1 - L2"), (E, "k2*S1 + L2"), (E, "k3"),
            (E, "k4 - S1"), (E, "k5 + S1"),
            (N, "L1"), (E, "L3"), (N, "S1"), (E, "S2"),
        ],
        [
            (E, "2*k1*S1**2 + L1*S1**2 - 2*L2*S1 + 2*L3"),
            (E, "k2*S1**2 + L2*S1 - L3"),
            (E, "2*k3 + L1"),
            (E, "k4 - S1"), (E, "k5 + S1"),
            (E, "L1**2*S1 - 4*L3"), (N, "L3"), (N, "S1"), (E, "S2"),
        ],
        [
            (E, "k1*S1 - L2"), (E, "k2*S1 + L2"), (E, "k3"),
            (E, "k4 - S1"), (E, "k5 + S1"),
            (E, "L1"), (E, "L3"), (N, "S1"), (E, "S2"),
        ],
        [
            (E, "k1*S1*S2 + k2*S1*S2 + k3*S1*S2 + L2*S2 - L3*S1"),
            (E, "k4"),
            (E, "k5 + S1"),
            (E, "k3**2*S1*S2 + L3*S2 + (L2*S2 - L3*S1)*k3"),
            (E, "L1*S1*S2 - L2*S2 + L3*S1 - S2**2"),
            (N, "L2**2*S2 - 2*L2*L3*S1 - 4*L3*S1*S2 + L3**2"),
            (N, "L3"), (E, "S1**2 - S2"), (N, "S2"),
        ],
        [
            (E, "k1 + k2"), (E, "k3*S1 + L2"), (E, "k4"), (E, "k5 + S1"),
            (E, "L1*S1 - L2 - S2"), (N, "L2"), (E, "L3"),
            (E, "S1**2 - S2"), (N, "S2"),
        ],
        [
            (E, "k1*S1 + k2*S1 + L2"), (E, "k3"), (E, "k4"), (E, "k5 + S1"),
            (E, "L1*S1 - L2 - S2"), (N, "L2"), (E, "L3"),
            (E, "S1**2 - S2"), (N, "S2"),
        ],
        [
            (E, "2*k1*S1*S2 + 2*k2*S1*S2 + L2*S2 - L3*S1"),
            (E, "2*k3*S1*S2 + L2*S2 - L3*S1"),
            (E, "k4"), (E, "k5 + S1"),
            (E, "L1*S1*S2 - L2*S2 + L3*S1 - S2**2"),
            (E, "L2**2*S2 - 2*L2*L3*S1 - 4*L3*S1*S2 + L3**2"),
            (N, "L3"), (E, "S1**2 - S2"), (N, "S2"),
        ],
        [
            (E, "k1 + k2"), (E, "k3"), (E, "k4"), (E, "k5 + S1"),
            (E, "L1*S1 - S2"), (E, "L2"), (E, "L3"),
            (E, "S1**2 - S2"), (N, "S2"),
        ],
        [
            (E, "k1*k4 - k3**2 - k3*L1 - L2"),
            (E, "k2*k4 + k3**2 + k4**2 + k4*L1 + (k4 + L1)*k3 + L2"),
            (N, "k4"),
            (E, "k5"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k2 + k3 + L1"),
            (E, "k3**2 + k3*L1 + L2"),
            (E, "k4"), (E, "k5"),
            (N, "L1**2 - 4*L2"), (N, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k2"), (E, "k3 + L1"), (E, "k4"), (E, "k5"),
            (N, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k2 + L1"), (E, "k3"), (E, "k4"), (E, "k5"),
            (N, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "2*k1 + 2*k2 + L1"), (E, "2*k3 + L1"), (E, "k4"), (E, "k5"),
            (E, "L1**2 - 4*L2"), (N, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k2"), (E, "k3"), (E, "k4"), (E, "k5"),
            (E, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
    ],
    "M8": [
        [
            (E, "S1*k1*k2 - L3"),
            (E, "k3*k2*S1**2 + L1*S1*S2 - L2*S1**2 + L3*S1 - S2**2"
                " + (-S1**3 + S1*S2)*k2"),
            (E, "S1**2*k2*k4 - L1*S1*S2 + L2*S1**2 - L3*S1 + S2**2"),
            (E, "k2**2*S1 + (L1*S1 - S2)*k2 + L3"),
            (E, "k5 + S1"),
            (N, "L1**2*S1**2 - 2*L1*S1*S2 - 4*L3*S1 + S2**2"),
            (N, "L3"), (N, "S1"),
        ],
        [
            (E, "k1"),
            (E, "-L1*S1**2 + L2*S1 + S1*S2 + (L1*S1 - S2)*k3"),
            (E, "L1*S1*S2 - L2*S1**2 - S2**2 + (L1*S1**2 - S1*S2)*k4"),
            (E, "L1*S1 + S1*k2 - S2"),
            (E, "k5 + S1"),
            (N, "L1*S1 - S2"), (E, "L3"), (N, "S1"),
        ],
        [
            (E, "(L1*S1 - S2)*k1 + 2*L3"),
            (E, "2*L2*S1**2 + S1**2*S2 - 2*L3*S1 + S2**2"
                " + (L1*S1**2 - S1*S2)*k3 + (-S1**3 - S1*S2)*L1"),
            (E, "2*L1*S1*S2 - 2*L2*S1**2 + 2*L3*S1 - 2*S2**2"
                " + (L1*S1**2 - S1*S2)*k4"),
            (E, "L1*S1 + 2*S1*k2 - S2"),
            (E, "k5 + S1"),
            (E, "L1**2*S1**2 - 2*L1*S1*S2 - 4*L3*S1 + S2**2"),
            (N, "L3"), (N, "S1"),
        ],
        [
            (E, "L2*S1 + S2*k1"),
            (E, "-S1**2 + S1*k3 + S1*k4 + S2"),
            (E, "k2"),
            (E, "k5 + S1"),
            (E, "L1*S1*S2 - L2*S1**2 - S2**2"),
            (E, "L3"), (N, "S1"), (N, "S2"),
        ],
        [
            (E, "k1 + L1"), (E, "k3 + k4 - S1"), (E, "k2"), (E, "k5 + S1"),
            (E, "L2"), (E, "L3"), (N, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k3 + k4 + k2 + L1"),
            (E, "k3**2 + k4**2 + k2**2 + k2*L1 + (2*k4 + k2 + L1)*k3"
                " + (2*k2 + L1)*k4 + L2"),
            (N, "-L1**2 + 2*L1*k2 + 3*k2**2 + 4*k2*k4 + 4*L2"),
            (N, "k2"),
            (E, "k5"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + k3 + k4 + L1"),
            (E, "k3**2 + k4**2 + k4*L1 + (2*k4 + L1)*k3 + L2"),
            (E, "k2"), (E, "k5"),
            (N, "L1**2 - 4*L2"), (N, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1"), (E, "k3 + k4 + L1"), (E, "k2"), (E, "k5"),
            (N, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1 + L1"), (E, "k3 + k4"), (E, "k2"), (E, "k5"),
            (N, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "2*k1 + k2 + L1"),
            (E, "L1**2 - k2**2 + 4*k2*k3 - 4*L2"),
            (E, "-L1**2 + 2*L1*k2 + 3*k2**2 + 4*k2*k4 + 4*L2"),
            (N, "k2"),
            (E, "k5"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "2*k1 + L1"), (E, "2*k3 + 2*k4 + L1"), (E, "k2"), (E, "k5"),
            (E, "L1**2 - 4*L2"), (N, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k1"), (E, "k3 + k4"), (E, "k2"), (E, "k5"),
            (E, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
    ],
    "M9": [
        [
            (E, "L1*S1*S2 - L2*S1**2 + L3*S1 - S2**2"
                " + (2*k2*S1**2 + L1*S1**2 - S1*S2)*k3"
                " + (-S1**3 + S1*S2)*k2"),
            (E, "-L1*S1**2 + L2*S1 + S1*S2 + (2*k2*S1 + L1*S1 - S2)*k4"
                " + (-S1**2 + S2)*k2 - L3"),
            (E, "k1*S1 + k2*S1 + L1*S1 - S2"),
            (E, "k2**2*S1 + (L1*S1 - S2)*k2 + L3"),
            (E, "k5 + S1"),
            (N, "L1**2*S1**2 - 2*L1*S1*S2 - 4*L3*S1 + S2**2"),
            (N, "L3"), (N, "S1"),
        ],
        [
            (E, "-L1*S1**2 + L2*S1 + S1*S2 + (L1*S1 - S2)*k3"),
            (E, "k1"),
            (E, "L1*S1*S2 - L2*S1**2 - S2**2 + (L1*S1**2 - S1*S2)*k4"),
            (E, "k2*S1 + L1*S1 - S2"),
            (E, "k5 + S1"),
            (N, "L1*S1 - S2"), (E, "L3"), (N, "S1"),
        ],
        [
            (E, "L1*S1*S2 - L2*S1**2 - S2**2 + (L1*S1**2 - S1*S2)*k3"),
            (E, "k1*S1 + L1*S1 - S2"),
            (E, "-L1*S1**2 + L2*S1 + S1*S2 + (L1*S1 - S2)*k4"),
            (E, "k2"),
            (E, "k5 + S1"),
            (N, "L1*S1 - S2"), (E, "L3"), (N, "S1"),
        ],
        [
            (E, "k3*S1 + k4*S1 - S1**2 + S2"),
            (E, "L2*S1 + (S1**2 + S2)*k1 - L3"),
            (E, "k5 + S1"),
            (E, "L2*S1 + (S1**2 + S2)*k2 - L3"),
            (E, "-2*L2*S1**2 - S1**2*S2 + 2*L3*S1 - S2**2"
                " + (S1**3 + S1*S2)*L1"),
            (E, "L2**2*S1**3 - 2*L2*L3*S1**2 + L3**2*S1"
                " + (-S1**4 - 2*S1**2*S2 - S2**2)*L3"),
            (N, "L3"), (N, "S1**3 + S1*S2"), (N, "S2"),
        ],
        [
            (E, "k3*S1 + k4*S1 - S1**2 + S2"),
            (E, "k1"), (E, "k2"), (E, "k5 + S1"),
            (E, "L1*S1 - S2"), (E, "L2"), (E, "L3"),
            (N, "S1**3 + S1*S2"), (N, "S2"),
        ],
        [
            (E, "k3 + k4 - S1"),
            (E, "k1*S1**2 + L2*S1 - L3"),
            (E, "k2*S1**2 + L2*S1 - L3"),
            (E, "k5 + S1"),
            (E, "L1*S1**2 - 2*L2*S1 + 2*L3"),
            (E, "L2**2*S1**2 - L3*S1**3 - 2*L2*L3*S1 + L3**2"),
            (N, "L3"), (N, "S1"), (E, "S2"),
        ],
        [
            (E, "k3 + k4 - S1"), (E, "k1"), (E, "k2"), (E, "k5 + S1"),
            (E, "L1"), (E, "L2"), (E, "L3"), (N, "S1"), (E, "S2"),
        ],
        [
            (E, "k3*S1 + k4*S1 + 2*S2"),
            (E, "2*k1*S1 + L1*S1 - S2"),
            (E, "2*k2*S1 + L1*S1 - S2"),
            (E, "k5 + S1"),
            (E, "L1**2*S2 + 2*L1*S1*S2 + 4*L3*S1 - S2**2"),
            (E, "L2*S2 + L3*S1"),
            (N, "L3"), (E, "S1**2 + S2"), (N, "S2"),
        ],
        [
            (E, "k3*S1 + k4*S1 + 2*S2"), (E, "k1"), (E, "k2"),
            (E, "k5 + S1"),
            (E, "L1 + S1"), (E, "L2"), (E, "L3"),
            (E, "S1**2 + S2"), (N, "S2"),
        ],
        [
            (E, "k3*k4 + k4**2 + k2**2 + k2*L1 + (2*k2 + L1)*k4 + L2"),
            (E, "k1*k4 - k4*k2 - k2**2 - k2*L1 - L2"),
            (N, "k4"),
            (E, "k5"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k3 + k1 + k2 + L1"),
            (E, "k4"),
            (E, "k2**2 + k2*L1 + L2"),
            (E, "k5"),
            (N, "L1**2 - 4*L2"), (N, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k3 + k1"), (E, "k4"), (E, "k2 + L1"), (E, "k5"),
            (N, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k3 + k1 + L1"), (E, "k4"), (E, "k2"), (E, "k5"),
            (N, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "2*k3 + 2*k1 + L1"), (E, "k4"), (E, "2*k2 + L1"), (E, "k5"),
            (E, "L1**2 - 4*L2"), (N, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
        [
            (E, "k3 + k1"), (E, "k4"), (E, "k2"), (E, "k5"),
            (E, "L1"), (E, "L2"), (E, "L3"), (E, "S1"), (E, "S2"),
        ],
    ],
}


def leader(expr, ranking):
    free = {str(s) for s in expr.free_symbols}
    for name in ranking:
        if name in free:
            return name
    return "1"


def encode(expr):
    poly = sp.Poly(sp.expand(expr), *VARS)
    terms = []
    for monom, coeff in poly.terms():
        if int(coeff) != coeff:
            raise ValueError(f"non-integer coefficient in {expr}")
        terms.append(" ".join(str(int(x)) for x in (coeff,) + monom))
    return "|".join(terms)


def render_payloads() -> dict[str, str]:
    """Text of each ``<model>.systems`` data file, keyed by file name."""
    payloads = {}
    for model, systems in SYSTEMS.items():
        ranking = RANKINGS[model]
        lines = [f"MODEL {model}", "RANKING " + " ".join(ranking),
                 "VARS " + " ".join(NAMES)]
        for idx, relations in enumerate(systems, start=1):
            lines.append(f"SYSTEM {idx}")
            seen_leaders = set()
            for kind, text in relations:
                expr = sp.sympify(text)
                ld = leader(expr, ranking)
                if ld != "1":
                    if ld in seen_leaders:
                        raise ValueError(
                            f"{model} system {idx}: duplicate leader {ld}")
                    seen_leaders.add(ld)
                    if kind == "EQ" and \
                            sp.degree(sp.Poly(expr, sp.Symbol(ld))) > 2:
                        raise ValueError(
                            f"{model} system {idx}: degree > 2 in {ld}")
                lines.append(f"{kind};{ld};{encode(expr)}")
        payloads[f"{model}.systems"] = "\n".join(lines) + "\n"
    return payloads


def main():
    out_dir = pathlib.Path(__file__).resolve().parents[1] / "src/phasekit/data"
    out_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for name, payload in render_payloads().items():
        path = out_dir / name
        path.write_text(payload)
        checksums[name] = hashlib.sha256(payload.encode()).hexdigest()
        print(f"wrote {path} ({len(SYSTEMS[path.stem])} systems)")
    (out_dir / "checksums.json").write_text(
        json.dumps(checksums, indent=2, sort_keys=True) + "\n")
    print("wrote checksums.json")


if __name__ == "__main__":
    main()
