"""YCSB-style workload generation, re-implemented from the YCSB sources.

Includes the honest :class:`~repro.workloads.zipfian.ZipfianGenerator` the
paper switched to, the buggy
:class:`~repro.workloads.scrambled.ScrambledZipfianGenerator` it switched
*away from* (bug preserved for reproduction), uniform/hotspot/latest/
Gaussian generators, read-update mixing at Tao's 99.8/0.2 ratio, workload
phase schedules for the elasticity experiments, and analytical tooling
(TPC hit rates, Zipf exponent estimation).
"""

from repro.workloads.analytical import (
    estimate_zipf_exponent,
    frequency_ranking,
    head_mass,
    tpc_hit_rate,
)
from repro.workloads.base import KEY_PREFIX, KeyGenerator, format_key, parse_key
from repro.workloads.fnv import fnv_hash32, fnv_hash64
from repro.workloads.gaussian import GaussianGenerator
from repro.workloads.hotspot import HotspotGenerator
from repro.workloads.latest import SkewedLatestGenerator
from repro.workloads.mixer import TAO_READ_FRACTION, OperationMixer
from repro.workloads.request import OpType, Request
from repro.workloads.scrambled import ScrambledZipfianGenerator
from repro.workloads.shift import Phase, PhasedWorkload, RotatingHotSetGenerator
from repro.workloads.uniform import UniformGenerator
from repro.workloads.zipfian import (
    ZIPFIAN_CONSTANT,
    ZipfianGenerator,
    zeta,
    zipf_cdf,
    zipf_pmf,
)

__all__ = [
    "KEY_PREFIX",
    "KeyGenerator",
    "format_key",
    "parse_key",
    "fnv_hash32",
    "fnv_hash64",
    "ZipfianGenerator",
    "ZIPFIAN_CONSTANT",
    "zeta",
    "zipf_cdf",
    "zipf_pmf",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "HotspotGenerator",
    "SkewedLatestGenerator",
    "GaussianGenerator",
    "OpType",
    "Request",
    "OperationMixer",
    "TAO_READ_FRACTION",
    "Phase",
    "PhasedWorkload",
    "RotatingHotSetGenerator",
    "estimate_zipf_exponent",
    "frequency_ranking",
    "head_mass",
    "tpc_hit_rate",
]
