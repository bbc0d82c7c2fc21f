"""Outside-in tracing of the masktune layers.

The tracer wraps public functions of each ``masktune`` module in every module
namespace that binds them, records one span per call (name, start, end,
parent span, run id) in memory, and restores every original binding on
``uninstall``. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import time

# (module, qualified name, has wrapped callees). A function with wrapped
# callees also reports total_s; the rest report calls and self_s only.
TARGETS = (
    ("cli", "cmd_pretrain", True),
    ("cli", "cmd_finetune", True),
    ("cli", "cmd_ablate", True),
    ("cli", "cmd_mask_report", True),
    ("config", "load_run_config", False),
    ("harness", "pretrain", True),
    ("harness", "finetune", True),
    ("harness", "finetune_masks", True),
    ("harness", "linear_probe", True),
    ("harness", "ablate", True),
    ("harness", "evaluate", True),
    ("harness", "write_report_json", False),
    ("harness", "write_report_csv", False),
    ("data", "gen_task", False),
    ("data", "partition_subsets", False),
    ("data", "select_mask_subset", True),
    ("data", "load_dataset_csv", False),
    ("model", "forward", False),
    ("model", "backward", False),
    ("model", "reinit_head", True),
    ("model", "load_checkpoint", True),
    ("model", "save_checkpoint", False),
    ("model", "ModelParams.validate", False),
    ("losses", "combined_grad", True),
    ("losses", "cross_entropy", False),
    ("losses", "scl_loss", False),
    ("losses", "reg_penalty", False),
    ("masking", "compute_mask_set", True),
    ("masking", "scl_gradients", True),
    ("masking", "build_mask", False),
    ("masking", "mask_objective", True),
    ("masking", "retained_energy", True),
    ("masking", "trainable_fraction", True),
    ("masking", "save_masks", False),
    ("masking", "LayerMask.to_dense", False),
    ("optim", "masked_adam_step", True),
    ("optim", "init_adam_state", False),
)
PACKAGE = "masktune"
COMMAND_PREFIX = "cli.cmd_"


def metric_names(targets=TARGETS) -> list[str]:
    """Per-layer metric names in report order."""
    names = []
    for module, qualname, parent in targets:
        base = f"{module}.{qualname}"
        names += [f"{base}.calls", f"{base}.self_s"] + ([f"{base}.total_s"] if parent else [])
    return names + ["optim.state_bytes", "model.checkpoint_bytes",
                    "trace.overhead_frac", "trace.unattributed_frac"]


def array_bytes(obj, _seen=None) -> int:
    """Total nbytes of the arrays reachable from obj through fields and containers."""
    seen = set() if _seen is None else _seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if hasattr(obj, "dtype") and hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return 0
    return sum(array_bytes(c, seen) for c in children)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, run)
        self.absent: list[str] = []
        self.probe_errors: list[str] = []
        self.run = 0
        self.state_bytes = 0
        self.checkpoint_bytes = 0
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []  # (namespace, attribute, original)
        self._last_adam_parent = None

    def begin_run(self, run: int) -> None:
        self.run = run
        self.state_bytes = 0
        self.checkpoint_bytes = 0
        self._last_adam_parent = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is recorded as absent."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        try:
            self._install_all()
        except BaseException:
            self.uninstall()
            raise

    def _install_all(self) -> None:
        modules = {}
        for module, qualname, _ in self.targets:
            name = f"{module}.{qualname}"
            try:
                mod = modules.get(module) or importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            modules[module] = mod
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, self._probes().get(name))
            if owner_name:
                self._patch(owner, attr, original, wrapper)
            else:
                for ns in self._package_modules():
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, original, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding, newest patch first."""
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def _package_modules(self) -> list:
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _patch(self, ns, attr, original, wrapper) -> None:
        self._patches.append((ns, attr, original))
        setattr(ns, attr, wrapper)

    def _wrap(self, name: str, fn, probe):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.run))
            if probe is not None:
                try:
                    probe(args, kwargs, result, parent)
                except Exception as exc:  # a probe must never break the traced call
                    self.probe_errors.append(f"{name}: {exc!r}")
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    # -- probes: counts measured where the work happens ---------------------

    def _probes(self) -> dict:
        return {"optim.masked_adam_step": self._probe_adam,
                "model.save_checkpoint": self._probe_save,
                "model.load_checkpoint": self._probe_load}

    def _probe_adam(self, args, kwargs, result, parent) -> None:
        # the state's size is fixed within one training run, so measure the
        # first step under each calling span only
        if parent == self._last_adam_parent:
            return
        self._last_adam_parent = parent
        state = result[-1] if isinstance(result, tuple) else result
        self.state_bytes = max(self.state_bytes, array_bytes(state))

    def _probe_save(self, args, kwargs, result, parent) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.checkpoint_bytes = max(self.checkpoint_bytes, os.path.getsize(path))

    def _probe_load(self, args, kwargs, result, parent) -> None:
        path = args[0] if args else kwargs["path"]
        self.checkpoint_bytes = max(self.checkpoint_bytes, os.path.getsize(path))


def summarize(spans) -> dict[str, list[int]]:
    """Per span name: [calls, self_ns, total_ns].

    Self time is a span's duration minus its direct children's durations.
    Total time counts only the outermost span of a name, so recursion is not
    counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    stats: dict[str, list[int]] = {}
    for sid, name, start, end, parent, _ in spans:
        st = stats.setdefault(name, [0, 0, 0])
        st[0] += 1
        st[1] += end - start - child_ns.get(sid, 0)
        p = parent
        while p is not None and by_id[p][1] != name:
            p = by_id[p][4]
        if p is None:
            st[2] += end - start
    return stats


def command_ns(spans) -> int:
    """Wall time covered by top-level CLI command spans."""
    return sum(end - start for _, name, start, end, parent, _ in spans
               if parent is None and name.startswith(COMMAND_PREFIX))


def layer_metrics(spans, absent=(), targets=TARGETS) -> dict[str, float]:
    """calls / self_s / total_s for each present target, zero where never called."""
    stats = summarize(spans)
    out: dict[str, float] = {}
    for module, qualname, parent in targets:
        base = f"{module}.{qualname}"
        if base in absent:
            continue
        calls, self_ns, total_ns = stats.get(base, (0, 0, 0))
        out[f"{base}.calls"] = calls
        out[f"{base}.self_s"] = self_ns / 1e9
        if parent:
            out[f"{base}.total_s"] = total_ns / 1e9
    return out
