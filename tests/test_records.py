"""The contract every data class of the package keeps through ``biascool.records.Record``.

Pickling (the forked workers send records back), immutability, equality
and hashing by field values, and the ``Name(field=value, ...)`` repr.
"""

import math
import pickle
import typing

import numpy as np
import pytest

from biascool.cli import CoolingReport, build_report
from biascool.config import OutputConfig, ProtocolConfig, RunConfig, SweepConfig, load_config
from biascool.design import (
    ControlTrajectory,
    TrajectorySpec,
    TrajectoryValidation,
    make_spec,
    make_trajectory,
    validate_trajectory,
)
from biascool.dynamics import ErmakovResult, GaussianState, TransferMatrix, solve_ermakov_forward, thermal_state
from biascool.integrate import RKResult, solve_rk
from biascool.physical import PhysicalParams
from biascool.records import Record, asdict, astuple
from biascool.robustness import SweepOptions, SweepResult, sweep_row

from conftest import make_params


def _ermakov() -> ErmakovResult:
    traj = make_trajectory(make_params(), 0.5)
    return solve_ermakov_forward(traj, 1.0, 0.0, traj.spec.omega0_sq, 0.0, 0.5, tol=1e-8, t_eval=[0.25, 0.5])


# each class and a builder of one instance; two calls build equal, distinct instances
CASES = {
    CoolingReport: lambda: build_report(load_config(None)),
    ProtocolConfig: lambda: ProtocolConfig((0.5, 1.0), 101, 1e-9),
    SweepConfig: lambda: SweepConfig(initial_state="perturbed"),
    OutputConfig: lambda: OutputConfig("out", "json"),
    RunConfig: lambda: load_config(None),
    TrajectorySpec: lambda: make_spec(make_params(), 0.5),
    ControlTrajectory: lambda: make_trajectory(make_params(), 1.0),
    TrajectoryValidation: lambda: validate_trajectory(make_trajectory(make_params(), 0.1)),
    GaussianState: lambda: thermal_state(make_params(), 4.0, 0.02),
    TransferMatrix: lambda: TransferMatrix(1.0, 0.5, -0.25, 0.875),
    ErmakovResult: _ermakov,
    RKResult: lambda: solve_rk(lambda t, y: (y[1], -y[0]), 0.0, (1.0, 0.0), 1.0, t_eval=[0.5, 1.0]),
    PhysicalParams: make_params,
    SweepOptions: lambda: SweepOptions(1e-9, "perturbed"),
    SweepResult: lambda: sweep_row(make_params(), 0.5, [0.1], SweepOptions(tolerance=1e-9))[0],
}
HOLDS_ARRAYS = (ErmakovResult, RKResult)  # numpy fields: == on two sets of arrays is ambiguous
UNHASHABLE = (CoolingReport, *HOLDS_ARRAYS)  # frozen, but a dict field or an array is unhashable
parametrize = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


def _same(a, b) -> bool:
    if isinstance(a, HOLDS_ARRAYS):
        return type(a) is type(b) and all(map(np.array_equal, astuple(a), astuple(b)))
    return a == b


def test_every_record_class_is_covered():
    import biascool.cli  # noqa: F401  (loads every product module)

    def subclasses(cls):
        return [cls] + [s for sub in cls.__subclasses__() for s in subclasses(sub)]

    product = {cls for cls in subclasses(Record) if cls.__module__.startswith("biascool.")} - {Record}
    assert product == set(CASES) and len(CASES) == 15


@parametrize
def test_annotations_resolve(cls):
    # every field's annotation names something its module defines or imports
    assert list(typing.get_type_hints(cls)) == list(cls._fields)


@parametrize
def test_pickle_round_trip(cls):
    record = CASES[cls]()
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and _same(again, record) and repr(again) == repr(record)
    assert asdict(again).keys() == asdict(record).keys() == set(cls._fields)


@parametrize
def test_fields_are_frozen(cls):
    record = CASES[cls]()
    name = cls._fields[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    assert getattr(record, name) is value and not hasattr(record, "not_a_field")


@parametrize
def test_equal_instances_hash_equally(cls):
    a, b = CASES[cls](), CASES[cls]()
    assert a is not b and _same(a, b)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert a == b and hash(a) == hash(b)


@parametrize
def test_not_equal_to_the_tuple_of_its_values(cls):
    record = CASES[cls]()
    values = astuple(record)
    assert values == tuple(getattr(record, name) for name in cls._fields)
    assert record != values and values != record and not record == values


def test_repr_is_the_dataclass_text():
    assert repr(SweepResult(-0.1, 0.5, 0.47202441093788305, 5.654293919109848e-06, 0.84, 59.47381638369042)) == (
        "SweepResult(epsilon=-0.1, t_final=0.5, n_bar_final=0.47202441093788305, t_eff_final=5.654293919109848e-06,"
        " state_omega_final=0.84, ermakov_b_final=59.47381638369042, status='ok')"
    )
    assert repr(SweepResult(-1.25, 2.0, *[math.nan] * 4, "integration failed: x")) == (
        "SweepResult(epsilon=-1.25, t_final=2.0, n_bar_final=nan, t_eff_final=nan, state_omega_final=nan,"
        " ermakov_b_final=nan, status='integration failed: x')"
    )
    assert repr(TrajectorySpec(4.0, 1.0, 0.5)) == (
        "TrajectorySpec(omega0_sq=4.0, omega_final_sq=1.0, t_final=0.5)"
    )


def test_arguments_bind_as_the_signature_says():
    assert SweepResult(0.1, 0.5, 1.0, 2.0, 3.0, 4.0).status == "ok"
    assert SweepResult(0.1, 0.5, 1.0, 2.0, 3.0, ermakov_b_final=4.0, status="x").status == "x"
    assert TrajectorySpec(t_final=0.5, omega_final_sq=1.0, omega0_sq=4.0) == TrajectorySpec(4.0, 1.0, 0.5)
    for bad in (
        lambda: SweepResult(0.1, 0.5, 1.0),  # missing fields
        lambda: SweepResult(0.1, 0.5, 1.0, 2.0, 3.0, 4.0, "ok", "extra"),  # too many
        lambda: SweepResult(0.1, 0.5, 1.0, 2.0, 3.0, 4.0, epsilon=0.2),  # bound twice
        lambda: SweepOptions(tol=1e-9),  # not a field
        lambda: TrajectorySpec(4.0, 1.0, 0.5, 1.4),  # chi is a property, not an argument
        lambda: PhysicalParams(8.988e9),  # keywords only
    ):
        with pytest.raises(TypeError):
            bad()


def test_a_dict_default_is_fresh_per_instance():
    a, b = build_report(load_config(None)), build_report(load_config(None))
    a.n_bar_final["tf0.5"] = 0.47
    assert b.n_bar_final == {} and CoolingReport._field_defaults["n_bar_final"] == {}


def test_asdict_turns_nested_records_into_dicts():
    report = asdict(build_report(load_config(None)))
    assert report["validation"]["tf0.5"]["f_within_unit"] is True
    assert report["t_final"] == (0.5, 1.0, 2.0)
    assert asdict(load_config(None))["physical"]["mass"] == pytest.approx(4e-14, rel=1e-15)
