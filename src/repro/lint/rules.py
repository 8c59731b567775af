"""The project-specific ``RPL0xx`` rules behind ``repro lint``.

Every rule encodes an invariant the repo actually depends on -- each
docstring names the guarantee it protects and the PR history that made it
a contract.  The codes group by theme:

=========  ===========================================================
RPL001     determinism: no unseeded ``np.random`` / ``random`` use
RPL002     determinism: wall-clock reads only via ``repro.obs.clock``
RPL003     determinism: no iteration over set expressions
RPL004     determinism: ``json.dumps`` must pass ``sort_keys=True``
RPL005     resilience: ``ProcessPoolExecutor`` only in ``core/resilience``
RPL006     resilience: broad excepts must re-raise or count
RPL008     async: no blocking calls inside ``async def`` bodies
RPL009     api: every ``*Job`` dataclass registered in ``JOB_TYPES``
RPL010     api: hand-written ``to_json`` on ``*Job``/``*Options``
           dataclasses must cover every declared field
=========  ===========================================================

Suppress a deliberate exception inline with
``# repro-lint: disable=RPL0xx``; grandfather legacy findings in the
committed baseline (``lint-baseline.json``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import FileContext, Finding, LintRule, register

__all__ = ["RULE_CODES"]


def _call_qualname(node: ast.Call, ctx: FileContext) -> str | None:
    return ctx.resolve(node.func)


def _keyword(node: ast.Call, name: str) -> ast.keyword | None:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword
    return None


def _has_double_star(node: ast.Call) -> bool:
    return any(keyword.arg is None for keyword in node.keywords)


# ---------------------------------------------------------------------------
# determinism


@register
class UnseededRandomRule(LintRule):
    """RPL001: calls into process-global random state.

    Byte-identical serial vs sharded vs warm reruns (the PR-2/PR-4 store
    contract) require every stochastic draw to come from an explicitly
    seeded generator object (``np.random.default_rng(seed)``,
    ``random.Random(seed)``).  Module-level functions (``np.random.rand``,
    ``random.choice``) draw from interpreter-global state whose sequence
    depends on import order and worker interleaving -- and ``seed()`` on
    that global state just moves the problem around.
    """

    code = "RPL001"
    title = "unseeded global RNG use (np.random.*/random.* module functions)"
    rationale = (
        "global RNG state breaks byte-identical serial/sharded/warm reruns"
    )
    interests = (ast.Call,)

    #: Constructors of explicitly seeded generator objects are fine.
    _ALLOWED_NUMPY = frozenset(
        {
            "default_rng",
            "Generator",
            "RandomState",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "MT19937",
            "SFC64",
        }
    )
    _ALLOWED_STDLIB = frozenset({"Random", "SystemRandom", "getstate", "setstate"})

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        name = _call_qualname(node, ctx)
        if name is None:
            return
        if name.startswith("numpy.random."):
            leaf = name.rsplit(".", 1)[1]
            if leaf not in self._ALLOWED_NUMPY:
                yield self.finding(
                    node,
                    ctx,
                    f"call to global-state RNG {name!r}; draw from a seeded "
                    "np.random.default_rng(seed) generator instead",
                )
        elif name.startswith("random.") and name.count(".") == 1:
            leaf = name.rsplit(".", 1)[1]
            if leaf not in self._ALLOWED_STDLIB:
                yield self.finding(
                    node,
                    ctx,
                    f"call to global-state RNG {name!r}; use a seeded "
                    "random.Random(seed) instance instead",
                )


@register
class WallClockRule(LintRule):
    """RPL002: wall-clock reads outside the ``repro.obs.clock`` seam.

    Store entries, trace records and reports embed timestamps; reading the
    wall clock ad hoc scatters nondeterminism and forces tests to
    monkeypatch each call site separately (the pre-PR-10 store test did
    exactly that).  ``repro.obs.clock.wall_time()`` is the single
    sanctioned read: monkeypatch it once and every timestamp in the
    process follows.  Monotonic duration clocks (``perf_counter``,
    ``process_time``, ``monotonic``) are unaffected -- they never leak
    into persisted bytes.
    """

    code = "RPL002"
    title = "wall-clock read outside the repro.obs.clock seam"
    rationale = "ad-hoc timestamps scatter nondeterminism across persisted data"
    interests = (ast.Call,)

    _WALL_CLOCKS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    _ALLOWED_PATHS = ("repro/obs/clock.py",)

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path_is(*self._ALLOWED_PATHS):
            return
        name = _call_qualname(node, ctx)
        if name in self._WALL_CLOCKS:
            yield self.finding(
                node,
                ctx,
                f"direct wall-clock read {name}(); route it through "
                "repro.obs.clock.wall_time() so tests can pin time once",
            )


@register
class SetIterationRule(LintRule):
    """RPL003: iterating a set expression.

    Set iteration order depends on insertion history and hash
    randomization; a set feeding a loop, a join, or a serialized sequence
    makes output bytes run-dependent.  Everything rendered or persisted in
    this repo is sorted first -- iterate ``sorted(...)`` instead.
    """

    code = "RPL003"
    title = "iteration over a set expression (unordered)"
    rationale = "set order is run-dependent; rendered/serialized output is not"
    interests = (ast.For, ast.AsyncFor, ast.comprehension, ast.Call)

    #: Sequence constructors that freeze the (unordered) iteration order.
    _ORDER_FREEZERS = frozenset({"list", "tuple", "enumerate"})

    @staticmethod
    def _is_set_expr(node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return ctx.resolve(node.func) in {"set", "frozenset"}
        return False

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            target = node.iter
            if self._is_set_expr(target, ctx):
                yield self.finding(
                    target,
                    ctx,
                    "iterating a set expression; wrap it in sorted(...) to fix "
                    "the order",
                )
        elif isinstance(node, ast.Call):
            name = ctx.resolve(node.func)
            freezes = name in self._ORDER_FREEZERS or (
                isinstance(node.func, ast.Attribute) and node.func.attr == "join"
            )
            if freezes and node.args and self._is_set_expr(node.args[0], ctx):
                yield self.finding(
                    node.args[0],
                    ctx,
                    "freezing a set's unordered elements into a sequence; "
                    "use sorted(...) instead",
                )


@register
class JsonSortKeysRule(LintRule):
    """RPL004: ``json.dumps``/``json.dump`` without ``sort_keys=True``.

    Store entries, ``--json`` output and service responses are diffed
    byte-for-byte by the CI gates (sweep-cache, obs-smoke); key order
    must come from the data, not from dict insertion history.  Passing a
    computed ``sort_keys=...`` or ``**kwargs`` is accepted -- the rule only
    flags call sites that provably never sort.
    """

    code = "RPL004"
    title = "json.dumps/json.dump without sort_keys=True"
    rationale = "insertion-ordered keys make persisted/rendered JSON fragile"
    interests = (ast.Call,)

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        name = _call_qualname(node, ctx)
        if name not in {"json.dumps", "json.dump"}:
            return
        if _has_double_star(node):
            return
        keyword = _keyword(node, "sort_keys")
        if keyword is None or (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
        ):
            yield self.finding(
                node,
                ctx,
                f"{name} without sort_keys=True; serialized key order must "
                "not depend on dict insertion history",
            )


# ---------------------------------------------------------------------------
# resilience


@register
class ExecutorSeamRule(LintRule):
    """RPL005: ``ProcessPoolExecutor`` constructed outside the resilience seam.

    ``repro.core.resilience.run_shards`` is the only executor owner: it is
    what retries crashed shards, rebuilds broken pools, enforces timeouts,
    caps backoff, and keeps every recovery path byte-identical (PR 6).  A
    directly constructed pool silently opts out of all of that.
    """

    code = "RPL005"
    title = "ProcessPoolExecutor constructed outside core/resilience.py"
    rationale = "pools built elsewhere bypass retry/timeout/recovery guarantees"
    interests = (ast.Call,)

    _ALLOWED_PATHS = ("repro/core/resilience.py",)

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path_is(*self._ALLOWED_PATHS):
            return
        name = _call_qualname(node, ctx)
        if name is None:
            return
        if name == "ProcessPoolExecutor" or name.endswith(
            ".ProcessPoolExecutor"
        ):
            yield self.finding(
                node,
                ctx,
                "direct ProcessPoolExecutor construction; dispatch through "
                "repro.core.resilience.run_shards for fault tolerance",
            )


@register
class SwallowedExceptionRule(LintRule):
    """RPL006: a broad except whose body neither re-raises nor counts.

    PR 6 turned every silent ``except ...: pass`` in the store into a
    counted ``stats.io_errors`` precisely because swallowed errors hide
    data loss until an integration test happens to trip over it.  A
    handler for ``Exception``/``BaseException`` (or a bare ``except``)
    must re-raise (any ``raise``), or record the event in a metric -- an
    augmented assignment on a counter attribute (``stats.errors += 1``)
    or an ``.add()/.observe()/.inc()`` call.
    """

    code = "RPL006"
    title = "broad except neither re-raises nor increments a counter"
    rationale = "swallowed errors hide data loss; count them or narrow the except"
    interests = (ast.ExceptHandler,)

    _COUNTING_ATTRS = frozenset({"add", "observe", "inc", "increment"})

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler, ctx: FileContext) -> bool:
        def broad(expr: ast.AST) -> bool:
            return ctx.resolve(expr) in {"Exception", "BaseException"}

        if handler.type is None:
            return True
        if isinstance(handler.type, ast.Tuple):
            return any(broad(element) for element in handler.type.elts)
        return broad(handler.type)

    def _body_accounts(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Attribute
            ):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._COUNTING_ATTRS
            ):
                return True
        return False

    def check(self, node: ast.ExceptHandler, ctx: FileContext) -> Iterator[Finding]:
        if not self._is_broad(node, ctx):
            return
        if self._body_accounts(node):
            return
        yield self.finding(
            node,
            ctx,
            "broad exception handler neither re-raises nor increments a "
            "metrics counter; narrow it, re-raise, or count the swallow",
        )


# ---------------------------------------------------------------------------
# async / serve


@register
class AsyncBlockingRule(LintRule):
    """RPL008: blocking calls inside ``async def`` bodies.

    The serving layer runs one asyncio event loop for every client; a
    single blocking call stalls *all* connections for its duration (which
    is why ``Session.run_batch`` runs on a dedicated worker thread, PR 9).
    Flagged: ``time.sleep``, synchronous file I/O (``open``,
    ``Path.read_text``-style helpers), ``subprocess``/``os.system``, and
    direct ``session.run``/``run_batch`` calls.  Nested synchronous
    ``def``s are exempt -- they execute wherever they are called from.
    """

    code = "RPL008"
    title = "blocking call inside an async def body"
    rationale = "one blocking call stalls every connection on the event loop"
    interests = (ast.Call,)

    _BLOCKING_QUALNAMES = frozenset(
        {
            "time.sleep",
            "open",
            "os.system",
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "subprocess.Popen",
            "socket.create_connection",
            "urllib.request.urlopen",
        }
    )
    _BLOCKING_ATTRS = frozenset(
        {"read_text", "write_text", "read_bytes", "write_bytes"}
    )
    _SESSION_HINTS = ("session",)

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.func_stack or not isinstance(
            ctx.func_stack[-1], ast.AsyncFunctionDef
        ):
            return
        name = _call_qualname(node, ctx)
        if name in self._BLOCKING_QUALNAMES:
            yield self.finding(
                node,
                ctx,
                f"blocking call {name}() inside an async def; await an "
                "executor/thread instead of stalling the event loop",
            )
            return
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in self._BLOCKING_ATTRS:
                yield self.finding(
                    node,
                    ctx,
                    f"synchronous file I/O .{attr}() inside an async def; "
                    "stalls the event loop",
                )
            elif attr in {"run", "run_batch"}:
                base = ctx.resolve(node.func.value) or ""
                leaf = base.rsplit(".", 1)[-1].lstrip("_").lower()
                if any(hint in leaf for hint in self._SESSION_HINTS):
                    yield self.finding(
                        node,
                        ctx,
                        f"Session.{attr}() runs whole sweeps; inside an async "
                        "def it must be dispatched to a worker thread "
                        "(run_in_executor), never called directly",
                    )


# ---------------------------------------------------------------------------
# API surface


def _is_dataclass(node: ast.ClassDef, ctx: FileContext) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = ctx.resolve(target)
        if name in {"dataclass", "dataclasses.dataclass"}:
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> list[str]:
    names: list[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if isinstance(stmt.annotation, ast.Name) and stmt.annotation.id == (
                "ClassVar"
            ):
                continue
            if (
                isinstance(stmt.annotation, ast.Subscript)
                and isinstance(stmt.annotation.value, ast.Name)
                and stmt.annotation.value.id == "ClassVar"
            ):
                continue
            names.append(stmt.target.id)
    return names


@register
class JobRegistryRule(LintRule):
    """RPL009: a ``*Job`` dataclass missing from the ``JOB_TYPES`` registry.

    ``job_to_json``/``job_from_json`` -- the ``repro batch`` file format
    and the service admission path -- can only round-trip job types listed
    in ``JOB_TYPES``.  A new ``FooJob`` dataclass that is not registered
    constructs and runs fine locally, then fails the moment a batch file
    or an HTTP client names it; this rule turns that latent break into a
    lint finding in the defining module.
    """

    code = "RPL009"
    title = "*Job dataclass not registered in JOB_TYPES"
    rationale = "unregistered jobs cannot round-trip through batch/serve JSON"
    interests = (ast.Module,)

    def check(self, node: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        registry_values: set[str] | None = None
        job_classes: list[ast.ClassDef] = []
        for stmt in node.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name.endswith("Job"):
                if _is_dataclass(stmt, ctx):
                    job_classes.append(stmt)
            elif isinstance(stmt, ast.Assign):
                targets = [
                    target.id
                    for target in stmt.targets
                    if isinstance(target, ast.Name)
                ]
                if "JOB_TYPES" in targets:
                    registry_values = self._dict_value_names(stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if stmt.target.id == "JOB_TYPES" and stmt.value is not None:
                    registry_values = self._dict_value_names(stmt.value)
        if registry_values is None:
            return
        for cls in job_classes:
            if cls.name not in registry_values:
                yield self.finding(
                    cls,
                    ctx,
                    f"dataclass {cls.name} is not registered in JOB_TYPES; "
                    "it cannot round-trip through job_to_json/job_from_json",
                )

    @staticmethod
    def _dict_value_names(node: ast.AST) -> set[str]:
        names: set[str] = set()
        if isinstance(node, ast.Dict):
            for value in node.values:
                if isinstance(value, ast.Name):
                    names.add(value.id)
        return names


@register
class RoundTripCoverageRule(LintRule):
    """RPL010: hand-written ``to_json`` dropping declared fields.

    ``*Job`` and ``*Options`` dataclasses are contractually *fully*
    JSON-round-trippable (the batch-file and serve admission formats).
    The generic ``dataclasses.asdict`` path covers every field by
    construction; a hand-written ``to_json`` returning a dict literal can
    silently drop a newly added field -- the job still runs, but a
    save/load cycle loses the option.  The rule checks literal-dict
    ``to_json`` bodies for full field coverage.  (Result dataclasses are
    exempt: their JSON is a curated document, not a field dump.)
    """

    code = "RPL010"
    title = "to_json on a *Job/*Options dataclass drops declared fields"
    rationale = "a dropped field silently loses options across save/load"
    interests = (ast.ClassDef,)

    def check(self, node: ast.ClassDef, ctx: FileContext) -> Iterator[Finding]:
        if not (node.name.endswith("Job") or node.name.endswith("Options")):
            return
        if not _is_dataclass(node, ctx):
            return
        fields = set(_dataclass_fields(node))
        if not fields:
            return
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "to_json":
                yield from self._check_to_json(stmt, fields, ctx)

    def _check_to_json(
        self, func: ast.FunctionDef, fields: set[str], ctx: FileContext
    ) -> Iterator[Finding]:
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Return) or stmt.value is None:
                continue
            if not isinstance(stmt.value, ast.Dict):
                # asdict(self) or a computed document: coverage is either
                # automatic or beyond static reach; accept.
                return
            keys = {
                key.value
                for key in stmt.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            if any(key is None for key in stmt.value.keys):
                return  # **spread: cannot prove anything missing
            missing = sorted(fields - keys)
            if missing:
                yield self.finding(
                    stmt.value,
                    ctx,
                    "to_json drops declared field(s) "
                    f"{', '.join(missing)}; every *Job/*Options field must "
                    "round-trip through to_json/from_json",
                )
            return


#: Code -> (title, rationale) of every registered rule, for docs and CLI.
RULE_CODES = {
    cls.code: (cls.title, cls.rationale)
    for cls in (
        UnseededRandomRule,
        WallClockRule,
        SetIterationRule,
        JsonSortKeysRule,
        ExecutorSeamRule,
        SwallowedExceptionRule,
        AsyncBlockingRule,
        JobRegistryRule,
        RoundTripCoverageRule,
    )
}
