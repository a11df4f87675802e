"""Simulation configuration: Table I of the paper, as a dataclass.

Four machine presets mirror the paper's four columns:

* :meth:`SimConfig.baseline` — standard OoO superscalar: ROB 128, IQ 48,
  96+96 registers, single-level store queue.
* :meth:`SimConfig.cpr` — ROB-free checkpointing machine: 8 checkpoints,
  confidence-guided placement, 192+192 registers with reference-count
  release, hierarchical store queue, no arbitration stage.
* :meth:`SimConfig.msp` — the n-SP: n physical registers per logical
  register bank, banked 1R/1W register file with an arbitration stage,
  1-cycle LCS propagation, hierarchical store queue.
* :meth:`SimConfig.msp_ideal` — MSP with unbounded banks/store queue,
  full porting (no arbitration) and 0-cycle LCS.

Everything is a plain field so ablation benches can tweak single knobs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, FrozenSet, Optional


@dataclass
class SimConfig:
    """Complete machine + memory configuration for one simulation."""

    arch: str = "baseline"                 # baseline | cpr | msp

    # Widths (Table I: Fetch | Rename | Issue | Retire = 3 | 3 | 5 | 3).
    fetch_width: int = 3
    rename_width: int = 3
    issue_width: int = 5
    retire_width: int = 3                  # baseline only; others bulk-commit

    # Window structures.
    iq_size: int = 48
    rob_size: int = 128                    # baseline only
    load_buffer: int = 48
    sq_l1: Optional[int] = 24              # None = unbounded (ideal MSP)
    sq_l2: int = 0
    l2_forward_penalty: int = 8

    # Execution resources.
    int_units: int = 4
    fp_units: int = 4
    ldst_units: int = 2
    max_issue_scan: int = 32

    # Backend scheduler implementation. "event" (default) drives issue/
    # wakeup from a sorted ready window with purged waiter/completion
    # maps and skips provably idle cycles in bulk; "scan" is the
    # original per-cycle heap-scan loop, kept as the bit-exact reference
    # oracle (tests/pipeline/test_event_scheduler.py pins SimStats
    # equality between the two).
    scheduler: str = "event"

    # Registers. Baseline/CPR: flat file per class. MSP: per-logical bank.
    phys_int: int = 96
    phys_fp: int = 96
    bank_size: Optional[int] = None        # MSP: n; None = unbounded (ideal)

    # Branch prediction.
    predictor: str = "gshare"
    predictor_kwargs: Dict = field(default_factory=dict)

    # CPR checkpointing. The confidence threshold is calibrated so the
    # estimator flags the genuinely unpredictable minority of branches
    # (8 checkpoints must ration a large window); see EXPERIMENTS.md.
    checkpoints: int = 8
    checkpoint_max_interval: int = 256
    confidence_threshold: int = 3
    l2sq_squash_penalty: int = 4           # extra redirect delay on rollback
                                           # while the L2 SQ holds squashed
                                           # entries (the 2nd-level scan)

    # MSP state management.
    arbitration: bool = True               # 1R/1W banks + extra pipe stage
    lcs_delay: int = 1                     # LCS propagation (Table I)
    max_renames_per_cycle: int = 4         # Sec. 3.3
    max_same_reg_renames: int = 2          # Sec. 3.3

    # Memory hierarchy (Table I).
    icache_size: int = 64 * 1024
    dcache_size: int = 64 * 1024
    l2_size: int = 1024 * 1024
    icache_assoc: int = 4
    dcache_assoc: int = 4
    l2_assoc: int = 8
    line_bytes: int = 64
    dcache_hit: int = 4
    l2_hit: int = 16
    memory_latency: int = 380

    # Exception injection: architectural commit ordinals that raise once.
    exception_ordinals: FrozenSet[int] = frozenset()

    # Debug/verification: record the PC of every committed instruction so
    # tests can compare against the architectural emulator.
    record_commits: bool = False

    # Pre-warm caches to emulate a long-running SimPoint's state (the
    # paper fast-forwards into 300M-instruction regions).
    warm_caches: bool = True

    # Sampled simulation (repro.sim.sampling). ``sample_mode`` selects
    # full-detail ("full"), SMARTS-style periodic windows ("periodic":
    # a `sample_interval`-instruction detailed window at the end of
    # every `sample_period` committed instructions), a single
    # fixed-offset window ("offset": fast-forward `sample_ff`, measure
    # `sample_interval`) or SimPoint phase clustering ("simpoint":
    # periodic intervals BBV-profiled during fast-forward and k-medoids
    # clustered into `sample_clusters` phases — only each cluster's
    # representative interval is measured, weighted by the cluster's
    # span; `sample_bbv_dim` is the BBV random-projection dimension).
    # ``sample_warmup`` trains predictor/BTB/caches from the functional
    # stream during fast-forward (replacing the all-lines
    # ``warm_caches`` approximation). ``sample_detail_warmup``
    # cycle-simulates (but does not measure) that many instructions at
    # each window's head, so pipeline / store queue / CPR-checkpoint
    # state reaches steady state first. All eight are ordinary
    # dataclass fields, so they perturb :meth:`cache_key` — sampled,
    # simpoint and full-detail results can never collide in the
    # campaign result cache.
    sample_mode: str = "full"
    sample_ff: int = 0
    sample_interval: int = 1000
    sample_period: int = 10_000
    sample_warmup: bool = True
    sample_detail_warmup: int = 500
    sample_clusters: int = 4
    sample_bbv_dim: int = 32

    # ------------------------------------------------------------------ #

    def with_(self, **kwargs) -> "SimConfig":
        """Copy with overrides (ablation helper)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Serialization and identity. ``cache_key`` is the stable content
    # hash the campaign result cache keys on: any field change must
    # perturb it, and two equal configs must collide.
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict:
        """Canonical JSON-serializable form (frozensets become sorted
        lists so the representation is order-independent)."""
        out = asdict(self)
        out["exception_ordinals"] = sorted(self.exception_ordinals)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SimConfig":
        """Inverse of :meth:`to_dict`; ignores unknown keys so caches
        written by newer versions, or by older ones carrying a retired
        field such as ``codegen``, still load."""
        known = {f.name for f in fields(cls)}
        payload = {k: v for k, v in data.items() if k in known}
        payload["exception_ordinals"] = frozenset(
            payload.get("exception_ordinals", ()))
        return cls(**payload)

    def cache_key(self) -> str:
        """Stable content hash of the configuration. ``label_override``
        is presentation-only, so it is excluded: the same machine run
        under different display labels shares cache entries. Every
        other field participates — including the ``sample_*``
        schedule, so sampled and full-detail results can never
        collide."""
        payload = self.to_dict()
        payload.pop("label_override", None)
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def baseline(cls, predictor: str = "gshare", **kwargs) -> "SimConfig":
        return cls(arch="baseline", predictor=predictor, iq_size=48,
                   rob_size=128, phys_int=96, phys_fp=96,
                   sq_l1=24, sq_l2=0, **kwargs)

    @classmethod
    def cpr(cls, predictor: str = "gshare", registers: int = 192,
            **kwargs) -> "SimConfig":
        return cls(arch="cpr", predictor=predictor, iq_size=128,
                   phys_int=registers, phys_fp=registers,
                   sq_l1=48, sq_l2=256, **kwargs)

    @classmethod
    def msp(cls, bank_size: int = 16, predictor: str = "gshare",
            arbitration: bool = True, **kwargs) -> "SimConfig":
        return cls(arch="msp", predictor=predictor, iq_size=128,
                   bank_size=bank_size, arbitration=arbitration,
                   lcs_delay=kwargs.pop("lcs_delay", 1),
                   sq_l1=48, sq_l2=256, **kwargs)

    @classmethod
    def msp_ideal(cls, predictor: str = "gshare", **kwargs) -> "SimConfig":
        return cls(arch="msp", predictor=predictor, iq_size=128,
                   bank_size=None, arbitration=False, lcs_delay=0,
                   sq_l1=None, sq_l2=0, **kwargs)

    @classmethod
    def from_token(cls, token: str,
                   predictor: str = "tage") -> "SimConfig":
        """Parse a machine token (the ``--machines`` / service-payload
        grammar): ``baseline`` | ``cpr`` | ``cpr:<registers>`` |
        ``msp:<banks>`` | ``ideal``.  Raises ``ValueError`` naming the
        grammar on anything else, so the CLI and the service API report
        the same one-line error."""
        try:
            if token == "baseline":
                return cls.baseline(predictor=predictor)
            if token == "cpr":
                return cls.cpr(predictor=predictor)
            if token.startswith("cpr:"):
                return cls.cpr(predictor=predictor,
                               registers=int(token[4:]))
            if token == "ideal":
                return cls.msp_ideal(predictor=predictor)
            if token.startswith("msp:"):
                return cls.msp(int(token[4:]), predictor=predictor)
        except ValueError:
            pass
        raise ValueError(
            f"unknown machine {token!r}; choose from "
            f"baseline cpr cpr:<registers> msp:<banks> ideal")

    # Optional explicit label (ablation grids with same arch).
    label_override: Optional[str] = None

    @property
    def label(self) -> str:
        """Short machine label used in experiment reports."""
        if self.label_override:
            return self.label_override
        if self.arch == "baseline":
            return "Baseline"
        if self.arch == "cpr":
            return f"CPR-{self.phys_int}"
        if self.bank_size is None:
            return "ideal-MSP"
        suffix = "+Arb" if self.arbitration else ""
        return f"{self.bank_size}-SP{suffix}"
