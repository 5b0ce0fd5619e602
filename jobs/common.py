"""Shared bootstrap for the job entry points.

Jobs are thin wrappers over library functions; T4 takes a SparkSession
from :func:`repro.session.get_spark` (re-exported here for
``perfbench/run.py``).  This module adds the common CLI flags.
"""
from __future__ import annotations

import argparse

from repro.session import get_spark  # noqa: F401 — re-exported


def base_parser(description: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--scale", type=float, default=1.0,
                   help="corpus scale; 1.0 = the paper's 45,772 recipes")
    p.add_argument("--seed", type=int, default=11, help="corpus seed")
    return p
