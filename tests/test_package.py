"""The package's public surface and the hygiene of its modules."""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

import circlebops
import circlebops.cli
from circlebops import errors
from circlebops import (BopsLevel, DGState, GarnierPoint, MomentSequence,
                        PolyPair, SpectralData, UPoly, WeightData,
                        build_poly_pair, build_weight)
from circlebops.config import RunConfig
from circlebops.mputil import working_precision
from circlebops.plan import GUARD_BITS, Plan
from circlebops.report import CheckResult


def test_every_export_imports():
    namespace = {}
    exec("from circlebops import *", namespace)
    missing = [name for name in circlebops.__all__ if name not in namespace]
    assert not missing
    assert len(set(circlebops.__all__)) == len(circlebops.__all__)


def test_no_src_module_imports_a_name_it_never_uses():
    """Every name an import binds in a module is read somewhere in it.

    Moving code between modules tends to leave such imports behind, and
    the project runs no linter.  ``__init__`` imports to re-export and is
    exempt.
    """
    unused = []
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in bound.items() if name not in read]
    assert not unused, unused


def test_no_src_function_stores_a_local_it_never_reads():
    """Every plain name a function assigns is read somewhere in it.

    A local that is stored and never loaded is dead code, and usually the
    remains of an edit.  Names declared ``global`` or ``nonlocal`` are
    exempt, and so are names that begin with an underscore, the marker of
    a value discarded on purpose.  A read in a nested function counts.
    """
    unread = []
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, read, outer = {}, set(), set()
            for node in ast.walk(fn):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    outer.update(node.names)
                elif isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        stored.setdefault(node.id, node.lineno)
                    else:
                        read.add(node.id)
            unread += [f"{path.name}:{line} {name} in {fn.name}"
                       for name, line in stored.items()
                       if name not in read | outer
                       and not name.startswith("_")]
    assert not unread, unread


def test_no_src_function_takes_a_parameter_it_never_reads():
    """Every parameter of a function is read somewhere in it.

    A parameter that is never read is an input the caller must give and
    the function ignores.  Lambdas are exempt, because the entries of
    ``suites.SUITE_BUILDERS`` share one signature, and so are dunder
    methods, whose signatures their protocols fix.  A read in a nested
    function counts.
    """
    unread = []
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args +
                      args.kwonlyargs + [args.vararg, args.kwarg] if a]
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name)
                    and not isinstance(node.ctx, ast.Store)}
            unread += [f"{path.name}:{fn.lineno} {name} in {fn.name}"
                       for name in params if name not in read]
    assert not unread, unread


# Defined in src/ and read only by the tests: the second routes and test
# helpers of ROADMAP item 5, which a reference suite would give a caller.
READ_ONLY_BY_TESTS = {
    "MomentSequence.max_residual", "ToeplitzOracle.orthonormality_residual",
    "canonical_transform", "caratheodory_ode_residual",
    "orthogonality_residual", "phi_from_determinant",
    "residue_identity_defect", "toeplitz_det", "u_from_series"}


def test_every_src_function_has_a_reader_in_src():
    """Every module-level function or class and every method that a src
    module defines is read by name in some src module other than
    ``__init__``, whose re-exports do not count.

    A name is read where it is loaded or taken as an attribute, by name
    alone, so a method shares its readers with every method of its name;
    dunder methods, which their protocols call, are exempt.  The names
    only the tests read are listed in ``READ_ONLY_BY_TESTS``, and the list
    must stay exact: a name that gains a reader leaves it.
    """
    defined, read = set(), set()
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not
                    (item.name.startswith("__") and item.name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {name for name in defined
              if name.rpartition(".")[2] not in read}
    assert unread == READ_ONLY_BY_TESTS, sorted(unread ^ READ_ONLY_BY_TESTS)


def _is_mp_prec(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "prec" and \
        isinstance(node.value, ast.Name) and node.value.id == "mp"


def test_no_src_module_but_the_plan_does_arithmetic_on_mp_prec():
    """Every precision rule is written once, in ``plan``.

    Elsewhere mp.prec may be read as it is, to round at the reader's
    precision or to key a cache, but it is never an operand of arithmetic:
    a threshold or guard derived from it belongs to the plan.
    """
    found = []
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        if path.name == "plan.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp):
                operands = (node.left, node.right)
            elif isinstance(node, ast.UnaryOp):
                operands = (node.operand,)
            elif isinstance(node, ast.AugAssign):
                operands = (node.target, node.value)
            else:
                continue
            if any(map(_is_mp_prec, operands)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# The field-generic maps, by module.  They run over mpc and over exact QC
# alike, and read the pair's data in the kind of their input
# (``PolyPair.data_like``).
GENERIC_MAPS = {
    "discrete_garnier.py": {
        "_vanishes", "vandermonde", "_inversion_table", "_evaluate",
        "_inversion", "dg_initial", "_omega_brackets", "dg_step",
        "dg_invert", "tau_recovery"},
    "moments.py": {"build_U"},
}
# abs() stands for a float floor test, abs(x) < floor * scale: the maps'
# one zero test is ``_vanishes``
FLOAT_BOUND = {"mpc", "mpf", "to_mpc", "abs"}


def _binds_a_float_kind(node) -> bool:
    """A name of ``FLOAT_BOUND`` or an ``*_mpc`` attribute."""
    if isinstance(node, ast.Name):
        return node.id in FLOAT_BOUND
    return isinstance(node, ast.Attribute) and (
        node.attr in FLOAT_BOUND or node.attr.endswith("_mpc"))


def test_the_generic_maps_are_tied_to_no_float_kind():
    """The maps of ``GENERIC_MAPS`` construct no mpc or mpf, call no
    ``to_mpc`` or ``abs`` and read no ``*_mpc()`` image of the pair: its
    data reaches them through ``PolyPair.data_like`` alone, and a zero test
    goes through ``_vanishes``."""
    src = Path(circlebops.__file__).parent
    found = []
    for module, names in GENERIC_MAPS.items():
        tree = ast.parse((src / module).read_text())
        fns = {node.name: node for node in tree.body
               if isinstance(node, ast.FunctionDef)}
        assert names <= set(fns), sorted(names - set(fns))
        found += [f"{module}:{node.lineno} {name}" for name in sorted(names)
                  for node in ast.walk(fns[name]) if _binds_a_float_kind(node)]
    assert not found, found


# mpmath's pure-Python normalisation, which ``exact.round_mantissa`` does
# bit for bit with C-level bit counts
NORMALISING = {"mpf_div", "normalize", "normalize1"}


def _rounds_in_mpmath(node) -> bool:
    """A call of mpmath's normalisation, or of ``from_man_exp`` with a
    precision (its third argument or ``prec=``)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        func.id if isinstance(func, ast.Name) else None
    return name in NORMALISING or name == "from_man_exp" and (
        len(node.args) > 2 or any(k.arg == "prec" for k in node.keywords))


def test_no_src_module_but_exact_rounds_through_mpmath():
    """Every exact-to-mpf rounding is written once, in ``exact``: no other
    module calls ``from_man_exp`` with a precision, ``mpf_div`` or
    ``normalize``."""
    found = []
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        if path.name == "exact.py":
            continue
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if _rounds_in_mpmath(node)]
    assert not found, found


def _makes_a_check_result(node) -> bool:
    """A call of ``CheckResult``."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "CheckResult"


def test_every_check_is_judged_in_report():
    """One judgement rule: a check family yields (label, residual)
    evaluations, and ``report.judge`` folds, judges and annotates them.
    No module but ``report`` makes a ``CheckResult``, except the suites'
    one ``tau:I``, whose note names its level range."""
    found = []
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        if path.name == "report.py":
            continue
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if _makes_a_check_result(node)]
    assert [site.partition(":")[0] for site in found] == ["suites.py"], found


# the residual measures of ``report`` and the suites
RESIDUAL_HELPERS = {"state_delta", "rel_residual", "rel_error",
                    "vector_residual"}


def test_the_cli_judges_only_the_suites_checks():
    """Each residual is formed once, in the suites: ``cli`` builds no
    ``CheckResult`` and imports no residual measure."""
    tree = ast.parse(Path(circlebops.cli.__file__).read_text())
    made = [node.lineno for node in ast.walk(tree)
            if _makes_a_check_result(node)]
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name in RESIDUAL_HELPERS]
    assert not made and not imported, (made, imported)


def test_every_cli_judgement_runs_the_configured_checks():
    """The config's checks list picks the suites of every command: each
    ``run_verification`` call in ``cli`` passes ``cfg.checks``, so no
    command chooses suites of its own."""
    tree = ast.parse(Path(circlebops.cli.__file__).read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "run_verification"]
    passed = [ast.unparse(node.args[1]) if len(node.args) > 1 else None
              for node in calls]
    assert passed and set(passed) == {"cfg.checks"}, passed


# one class per cause of an abort, base class first
CAUSES = ("CircleBopsError", "ConfigInvalid", "Degenerate", "SingularStep",
          "NonConvergent")


def test_errors_are_raised_by_cause():
    """``errors`` defines one class per cause, and every ``raise`` in the
    package names one of them or a builtin exception."""
    src = Path(circlebops.__file__).parent
    tree = ast.parse((src / "errors.py").read_text())
    assert [node.name for node in tree.body
            if isinstance(node, ast.ClassDef)] == list(CAUSES)
    assert issubclass(errors.SingularStep, errors.Degenerate)
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        from_errors = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and
                       node.module == "errors" for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            name = exc.id if isinstance(exc, ast.Name) else ast.dump(exc)
            builtin = getattr(builtins, name, None)
            if name in from_errors and name in CAUSES or \
                    name not in from_errors and isinstance(builtin, type) \
                    and issubclass(builtin, Exception):
                continue
            found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


# Every src parameter with a bool default, and why it is there.  A switch
# keeps two forms of what it switches, so a new one is named here.
BOOL_KNOBS = {
    "build_weight validate": "a test seam: weight data past the checks",
}


def _functions(body, owner=""):
    """(qualified name, node) of each function in body, nested ones too."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{owner}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{owner}{node.name}", node
            yield from _functions(node.body, f"{owner}{node.name}.")


def test_every_bool_default_is_a_named_knob():
    """The src parameters whose default is True or False are exactly
    ``BOOL_KNOBS``."""
    found = set()
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text()).body):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaults = list(zip(positional[len(positional) -
                                           len(args.defaults):],
                                args.defaults))
            defaults += zip(args.kwonlyargs, args.kw_defaults)
            found.update(f"{name} {arg.arg}" for arg, value in defaults
                         if isinstance(value, ast.Constant)
                         and isinstance(value.value, bool))
    assert found == set(BOOL_KNOBS), sorted(found ^ set(BOOL_KNOBS))


# -- record classes ------------------------------------------------------------

def _pair():
    return build_poly_pair(build_weight([0, "2/5", 1],
                                        ["1/3", "-1/2", "1/4"]))


def _samples():
    """Each record class: its fields in order with sample values, then its
    defaults."""
    pair = _pair()
    weight = pair.weight
    ones = [mpc(1), mpc(2)]
    return {
        BopsLevel: (dict(n=1, I=mpc(2), kappa=mpc(1), gauge=1, phi=ones,
                         phibar=ones), {}),
        RunConfig: (dict(mode="formal", precision_bits=128, tolerance=1e-20,
                         n_max=4, seed=1, checks=["identities"],
                         weight_placement="canonical",
                         weight_singularities=[[0, 0], [1, 0]],
                         weight_residues=[["1/3", 0], ["1/4", 0]]),
                    dict(seed_start=-1, seed_values=[], out="")),
        DGState: (dict(n=2, f=[mpc(1)], omega=[mpc(2)]), {}),
        GarnierPoint: (dict(n=1, q=[mpc(1)], p=[mpc(2)], theta_inf=mpc(3)),
                       {}),
        MomentSequence: (dict(pair=pair, values={-1: mpc(1), 0: mpc(2)}),
                         dict(provenance="seeded")),
        UPoly: (dict(u=(mpc(1), mpc(2))), {}),
        CheckResult: (dict(label="rrCf:a", residual=mpf(1), tol=mpf(2)),
                      dict(n=None, note="")),
        SpectralData: (dict(n=1, theta=ones, omega=ones, thetastar=ones,
                            omegastar=ones, band_residual=mpf(0)), {}),
        WeightData: (dict(singularities=weight.singularities,
                          residues=weight.residues,
                          placement=weight.placement), {}),
        PolyPair: (dict(weight=weight, W=pair.W, V2=pair.V2, e=pair.e,
                        m=pair.m), {}),
    }


FROZEN = (UPoly, WeightData, PolyPair)
MUTABLE = (BopsLevel, RunConfig, DGState, GarnierPoint, MomentSequence,
           CheckResult, SpectralData)


def _build(cls):
    return cls(**_samples()[cls][0])


@pytest.mark.parametrize("cls", MUTABLE + FROZEN,
                         ids=lambda cls: cls.__name__)
def test_records_build_from_positional_and_keyword_arguments(cls):
    given, defaults = _samples()[cls]
    by_position = cls(*given.values())
    by_keyword = cls(**given)
    assert by_position == by_keyword
    for name, value in {**given, **defaults}.items():
        assert getattr(by_position, name) == value, name
    assert cls(*given.values(), *defaults.values()) == by_position
    assert by_position != "not a record"


def _parent_rules() -> dict:
    """Each precision rule as its own formula of the ambient precision."""
    p = mp.prec
    return dict(
        working=p, sequence=p + 2 * 48,
        lu_floor=mpf(2) ** (-(3 * mp.prec // 4)),
        denominator_floor=mpf(10) ** (-(mp.prec // 2)),
        degeneracy_floor=mpf(10) ** (-(mp.prec // 3)),
        band_alarm=mpf(10) ** (-(mp.prec // 4) + 2),
        flow_radius=Fraction(1, 2 ** (3 * mp.prec // 16)),
        flow_tolerance=mpf(2) ** (-(3 * mp.prec // 4) + 32),
        quadrature_tolerance=mpf(2) ** (-mp.prec + 12),
        quadrature_acceptance=mpf(10) ** 6 * mpf(2) ** (-mp.prec + 12),
        closure_tolerance=mpf(2) ** (-mp.prec // 2))


@pytest.mark.parametrize("bits", [128, 256, 131])
def test_a_plan_holds_each_rule_at_its_working_precision(bits):
    """Every field equals its formula evaluated at the working precision,
    also when the plan is built at another one; 131 bits tells -(p // 4)
    from (-p) // 4."""
    with working_precision(bits):
        want = _parent_rules()
    assert list(want) == list(Plan._fields)
    with working_precision(53):
        fresh = Plan(bits)
    for plan in (Plan.of(bits), fresh):
        assert {name: getattr(plan, name) for name in want} == want
    assert Plan.of(bits) is Plan.of(bits) and Plan.of(bits) == fresh
    assert isinstance(fresh.flow_radius, Fraction)


def test_every_record_field_has_a_reader():
    """Each field a src record names in ``_fields`` is read, as an
    attribute, by some src module, and each threshold of the plan by a
    module other than ``plan``: a field nothing reads is dead and goes."""
    read, fields = {}, []
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read[path.name] = {node.attr for node in ast.walk(tree)
                           if isinstance(node, ast.Attribute)
                           and isinstance(node.ctx, ast.Load)}
        fields += [(node.name, name) for node in tree.body
                   if isinstance(node, ast.ClassDef) for item in node.body
                   if isinstance(item, ast.Assign)
                   and [ast.unparse(t) for t in item.targets] == ["_fields"]
                   for name in ast.literal_eval(item.value)]
    assert {cls for cls, _ in fields} >= {"Plan", "BopsLevel", "CheckResult"}
    unread = [f"{cls}.{name}" for cls, name in fields
              if not any(name in attrs for module, attrs in read.items()
                         if cls != "Plan" or module != "plan.py")]
    assert not unread, unread


def test_a_sequence_carries_the_plan_of_the_precision_it_was_built_at():
    pair = _pair()
    with working_precision(200):
        ms = MomentSequence(pair, {0: mpc(1)})
    assert ms.plan == Plan.of(200) and ms.prec == 200 + 2 * GUARD_BITS
    ms = MomentSequence(pair, {0: mpc(1)})
    assert ms.plan == Plan.of(128) and ms.prec == 128 + 2 * GUARD_BITS


def test_run_configs_do_not_share_seed_values():
    a, b = _build(RunConfig), _build(RunConfig)
    a.seed_values.append(1)
    assert b.seed_values == []


def test_record_equality_ignores_the_caches():
    p, q = _pair(), _pair()
    assert p is not q and p == q and hash(p) == hash(q)
    with working_precision(200):
        p.W_mpc()
        p.weight.residues_mpc()
    assert p._memo and not q._memo
    assert p == q and hash(p) == hash(q)
    assert p.weight == q.weight and hash(p.weight) == hash(q.weight)
    sd, other = _build(SpectralData), _build(SpectralData)
    sd.at("theta", mpc("0.5"))
    assert sd._memo and sd == other


def test_frozen_records_refuse_assignment():
    pair = _pair()
    u = UPoly((mpc(1),))
    for obj, name in ((pair.weight, "placement"), (pair.weight, "_memo"),
                      (pair, "W"), (u, "u")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert u == UPoly((mpc(1),)) and hash(u) == hash(UPoly((mpc(1),)))


def test_mutable_records_take_assignment_and_are_unhashable():
    records = {cls: _build(cls) for cls in MUTABLE}
    records[CheckResult].passed = False
    records[GarnierPoint].q = [mpc(4)]
    assert not records[CheckResult].passed
    assert records[GarnierPoint].q == [mpc(4)]
    for cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(records[cls])


# modules that ``dataclasses`` imports and the CLI has no use for
COLD_START_EXCLUDED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every command is a fresh interpreter, so what importing the CLI
    loads is paid by every process.  The modules a ``site`` hook already
    loaded are not counted."""
    script = ("import sys; before = set(sys.modules); "
              "import circlebops.cli; "
              "print(*sorted(set(sys.modules) - before))")
    src = Path(circlebops.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "circlebops.cli" in added
    assert not added & COLD_START_EXCLUDED, added & COLD_START_EXCLUDED
