"""The six record types behave as frozen value classes: construction,
defaults, validation, immutability, equality, hashing and repr."""

import pytest

from mgeneral import BoundReport, CoeffVector, FunctionTable, PointSet, SearchCertificate
from mgeneral.constructions import ApnReport
from mgeneral.field import make_field

F3 = make_field(3)
F4 = make_field(2, 2)
F3_REPR = "Field(p=3, d=1, modulus=(0, 1))"
F4_REPR = "Field(p=2, d=2, modulus=(1, 1, 1))"

# (class, positional fields, fields that make it raise ValueError or None, repr)
CASES = [
    (PointSet, (F3, 2, ((0, 0), (1, 2))), None,
     f"PointSet(field={F3_REPR}, n=2, points=((0, 0), (1, 2)))"),
    (CoeffVector, (F3, (1, 2), "sum_zero"), (F3, (1, 1), "sum_zero"),
     f"CoeffVector(field={F3_REPR}, coeffs=(1, 2), kind='sum_zero', gamma=None)"),
    (FunctionTable, (F4, (0, 1, 1, 1)), (F4, (0, 1)),
     f"FunctionTable(field={F4_REPR}, values=(0, 1, 1, 1))"),
    (ApnReport, (True, 2), None, "ApnReport(is_apn=True, max_solutions=2)"),
    (BoundReport, (8, 3, 4, 2, 11.5, 10.25, None, None, 0.75, None), None,
     "BoundReport(n=8, q=3, m=4, k=2, main=11.5, refined=10.25, bennett=None, "
     "t_star=None, mu_main=0.75, mu_bennett=None)"),
    (SearchCertificate,
     (2, "3^1:3", 3, 2, True, ((0, 0), (0, 1)), 7, None, None, None, ("dimension-cap",), {"mgeneral": "0.1.0"}),
     None,
     "SearchCertificate(n=2, q_spec='3^1:3', m=3, value=2, exact=True, witness=((0, 0), (0, 1)), "
     "nodes_explored=7, prune_bound_used=None, seed=None, restarts=None, "
     "reductions=('dimension-cap',), toolchain={'mgeneral': '0.1.0'})"),
]


@pytest.mark.parametrize("cls, args, invalid, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_record_semantics(cls, args, invalid, text):
    names = cls.__match_args__
    obj = cls(*args)
    assert obj == cls(**dict(zip(names, args))) == cls(*args)
    for name in names[len(args):]:  # omitted fields take the class default
        assert getattr(obj, name) is getattr(cls, name)
    with pytest.raises(TypeError):
        cls(*args[:1])
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    if invalid is not None:
        with pytest.raises(ValueError):
            cls(*invalid)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    other = cls(*args)
    object.__setattr__(other, names[-1], "changed")  # past the guard, as copy and pickle set fields
    assert obj != other and obj != args and obj != object()
    if cls is SearchCertificate:  # toolchain is a dict
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(cls(*args))
    assert repr(obj) == text
