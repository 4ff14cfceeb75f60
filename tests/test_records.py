"""The record types are immutable named tuples: fields cannot be assigned,
equality and hashing go by the fields, the repr is ``Name(field=value,
...)``, and ``x._replace(...)`` stands in for ``dataclasses.replace``.
Every record type of the package is checked on an instance built the way
the CLI's ``classify``, ``construct``, ``verify`` and ``report`` build them
for L0 = <(1 2)> at n = 2."""

import functools

import pytest

from graphrestrict import amalgam, classify, completion, cosetgraph, perm
from graphrestrict.errors import CompletionSearchError

from conftest import group

MODULES = (perm, classify, amalgam, completion, cosetgraph)


@functools.cache
def records():
    """One instance of every record type, by type name."""
    l0 = group(3, "(1 2)")
    analysis = classify.analyze_local_group(l0)                     # classify
    pair = cosetgraph.construct_pair(l0, 2)                         # construct
    certificate = cosetgraph.verify_locally_L(pair.graph,           # verify
                                              pair.action_generators, l0)
    table = cosetgraph.growth_report(l0, 2, 2)                      # report
    with pytest.raises(CompletionSearchError) as exhausted:
        completion.find_completion(
            pair.star, completion.SearchConfig(max_copies=1, combo_attempts=0))
    found = [
        perm.predicates(perm.orbits(l0), l0.order()),
        analysis, analysis.flags, classify.restrictive_verdict(analysis),
        pair.star.edges[0],
        pair.candidate.strategy.plans[0], pair.candidate.strategy,
        pair.candidate, pair.report, exhausted.value.attempts[0],
        completion.SearchConfig(),
        pair.graph, cosetgraph.enumerate_cosets(pair.candidate), pair.witness,
        pair, certificate, table.rows[0], table,
    ]
    return {type(r).__name__: r for r in found}


def record_types():
    """The public tuple classes with named fields defined in the modules."""
    return {name: cls for m in MODULES for name, cls in vars(m).items()
            if isinstance(cls, type) and issubclass(cls, tuple)
            and hasattr(cls, "_fields") and not name.startswith("_")
            and cls.__module__ == m.__name__}


NAMES = sorted(record_types())


def test_every_record_type_is_covered():
    assert len(NAMES) == 18
    assert sorted(records()) == NAMES
    assert all(type(records()[name]) is cls
               for name, cls in record_types().items())


@pytest.mark.parametrize("name", NAMES)
class TestRecordContract:
    def test_fields_cannot_be_assigned(self, name):
        rec = records()[name]
        for field in rec._fields:
            before = getattr(rec, field)
            with pytest.raises(AttributeError):
                setattr(rec, field, object())
            assert getattr(rec, field) is before

    def test_rebuilt_copy_is_equal_with_the_same_hash(self, name):
        rec = records()[name]
        copy = type(rec)(**rec._asdict())
        assert copy is not rec and copy == rec
        # every record is hashable: a CosetTable holds tuples, no key dict
        assert hash(copy) == hash(rec)

    def test_repr_names_the_fields(self, name):
        rec = records()[name]
        assert repr(rec) == "{}({})".format(name, ", ".join(
            f"{field}={value!r}" for field, value in rec._asdict().items()))

    def test_replace_changes_only_the_named_field(self, name):
        rec = records()[name]
        for field in rec._fields:
            if name == "FiniteGraph":
                if field != "adjacency":    # any other change is refused
                    continue
                top = rec.vertex_count - 1  # the graph relabelled v -> top-v
                value = tuple(tuple(sorted(top - w for w in rec.adjacency[top - v]))
                              for v in range(top + 1))
            else:
                value = object()
            new = rec._replace(**{field: value})
            assert type(new) is type(rec)
            assert getattr(new, field) is value
            assert all(getattr(new, other) is getattr(rec, other)
                       for other in rec._fields if other != field)

