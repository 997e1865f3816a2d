"""Tests for the fault model: sites, collapsing, universe."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuits.catalog import load_circuit
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import BRANCH, STEM, Fault, FaultSite
from repro.faults.sites import enumerate_faults, enumerate_sites
from repro.faults.universe import FaultUniverse


class TestModel:
    def test_fault_str(self):
        stem = Fault(FaultSite("G11", STEM), 1)
        assert str(stem) == "G11 SA1"
        branch = Fault(FaultSite("G11", BRANCH, sink="G17", pin=0, load_kind="gate"), 0)
        assert str(branch) == "G11->G17[0] SA0"

    def test_invalid_stuck_value(self):
        with pytest.raises(ValueError):
            Fault(FaultSite("a", STEM), 2)

    def test_is_stem(self):
        assert Fault(FaultSite("a", STEM), 0).is_stem
        assert not Fault(FaultSite("a", BRANCH, "g", 0, "gate"), 0).is_stem

    def test_faults_are_orderable_and_hashable(self):
        faults = enumerate_faults_for_simple()
        assert sorted(faults)
        assert len(set(faults)) == len(faults)


    def test_hash_is_the_field_tuple_hash(self):
        fault = Fault(FaultSite("G11", BRANCH, "G17", 1, "gate"), 0)
        assert hash(fault) == hash((fault.site, fault.stuck_value))

    def test_pickle_round_trip_equal_and_findable(self):
        fault = Fault(FaultSite("G11", STEM), 1)
        loaded = pickle.loads(pickle.dumps(fault))
        assert loaded == fault
        assert {fault: 1}[loaded] == 1


SRC = Path(__file__).resolve().parents[1] / "src"

#: Pickles a fault under one hash seed and prints the payload as hex.
_DUMP = """
import pickle, sys
from repro.faults.model import Fault, FaultSite
fault = Fault(FaultSite("G11", "branch", "G17", 1, "gate"), 0)
sys.stdout.write(pickle.dumps(fault).hex())
"""

#: Loads that payload under another seed and looks it up in a dict keyed
#: by locally built faults.
_LOAD = """
import pickle, sys
from repro.faults.model import Fault, FaultSite
local = {
    Fault(FaultSite("G11", "branch", "G17", 1, "gate"), value): value
    for value in (0, 1)
}
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
assert loaded in local.keys() and loaded == next(iter(local))
sys.stdout.write(repr(local.get(loaded)))
"""


def _run_with_hash_seed(script: str, seed: str, stdin: str = "") -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_unpickled_fault_is_found_under_another_hash_seed():
    """The cached hash never travels: a fault pickled under one hash seed
    still keys a dict built under another (run results and requests
    cross process boundaries as pickles)."""
    payload = _run_with_hash_seed(_DUMP, "1")
    assert _run_with_hash_seed(_LOAD, "2", stdin=payload) == "0"


def enumerate_faults_for_simple():
    builder = CircuitBuilder("simple")
    builder.add_input("a").add_input("b")
    builder.add_and("y", "a", "b")
    builder.add_output("y")
    return enumerate_faults(builder.build())


class TestSites:
    def test_fanout_free_circuit_has_only_stems(self):
        sites = enumerate_sites(
            CircuitBuilder("c")
            .add_input("a")
            .add_input("b")
            .add_and("y", "a", "b")
            .add_output("y")
            .build()
        )
        assert all(site.kind == STEM for site in sites)
        assert {site.signal for site in sites} == {"a", "b", "y"}

    def test_branches_created_on_fanout(self):
        circuit = (
            CircuitBuilder("c")
            .add_input("a")
            .add_not("u", "a")
            .add_not("v", "a")
            .add_output("u")
            .add_output("v")
            .build()
        )
        sites = enumerate_sites(circuit)
        branches = [s for s in sites if s.kind == BRANCH]
        assert {(b.signal, b.sink) for b in branches} == {("a", "u"), ("a", "v")}

    def test_po_and_dff_loads_are_branch_sites(self, s27):
        sites = enumerate_sites(s27)
        # G11 fans out to gate G10, gate G17 and flop G6.
        g11_branches = [s for s in sites if s.signal == "G11" and s.kind == BRANCH]
        assert {b.load_kind for b in g11_branches} == {"gate", "dff"}

    def test_uncollapsed_count_s27(self, s27):
        # 17 stems + 9 branches (G8 x2, G11 x3, G12 x2, G14 x2), both values.
        assert len(enumerate_faults(s27)) == 52


class TestCollapse:
    def test_s27_collapses_to_paper_count(self, s27):
        result = collapse_faults(s27)
        assert result.total_uncollapsed == 52
        assert result.total_collapsed == 32  # matches the paper's Table 2

    def test_inverter_equivalence(self):
        circuit = (
            CircuitBuilder("c").add_input("a").add_not("y", "a").add_output("y").build()
        )
        result = collapse_faults(circuit)
        # a SA0 == y SA1 and a SA1 == y SA0 -> 2 classes from 4 faults.
        assert result.total_collapsed == 2
        rep_of = result.class_of
        a_sa0 = Fault(FaultSite("a", STEM), 0)
        y_sa1 = Fault(FaultSite("y", STEM), 1)
        assert rep_of[a_sa0] == rep_of[y_sa1]

    def test_buffer_equivalence_keeps_polarity(self):
        circuit = (
            CircuitBuilder("c").add_input("a").add_buf("y", "a").add_output("y").build()
        )
        rep_of = collapse_faults(circuit).class_of
        assert rep_of[Fault(FaultSite("a", STEM), 0)] == rep_of[
            Fault(FaultSite("y", STEM), 0)
        ]
        assert rep_of[Fault(FaultSite("a", STEM), 0)] != rep_of[
            Fault(FaultSite("y", STEM), 1)
        ]

    def test_and_gate_controlling_class(self):
        circuit = (
            CircuitBuilder("c")
            .add_input("a")
            .add_input("b")
            .add_and("y", "a", "b")
            .add_output("y")
            .build()
        )
        result = collapse_faults(circuit)
        rep_of = result.class_of
        # {a SA0, b SA0, y SA0} is one class; 6 -> 4 faults.
        assert result.total_collapsed == 4
        assert (
            rep_of[Fault(FaultSite("a", STEM), 0)]
            == rep_of[Fault(FaultSite("b", STEM), 0)]
            == rep_of[Fault(FaultSite("y", STEM), 0)]
        )

    def test_nor_gate_class(self):
        circuit = (
            CircuitBuilder("c")
            .add_input("a")
            .add_input("b")
            .add_nor("y", "a", "b")
            .add_output("y")
            .build()
        )
        rep_of = collapse_faults(circuit).class_of
        assert rep_of[Fault(FaultSite("a", STEM), 1)] == rep_of[
            Fault(FaultSite("y", STEM), 0)
        ]

    def test_xor_gate_not_collapsed(self):
        circuit = (
            CircuitBuilder("c")
            .add_input("a")
            .add_input("b")
            .add_xor("y", "a", "b")
            .add_output("y")
            .build()
        )
        assert collapse_faults(circuit).total_collapsed == 6

    def test_no_collapse_across_flops(self):
        circuit = (
            CircuitBuilder("c")
            .add_input("a")
            .add_flop("q", "a")
            .add_not("y", "q")
            .add_output("y")
            .build()
        )
        rep_of = collapse_faults(circuit).class_of
        # a (flop D side) and q (flop Q side) stay separate classes.
        assert rep_of[Fault(FaultSite("a", STEM), 0)] != rep_of[
            Fault(FaultSite("q", STEM), 0)
        ]

    def test_transitive_chain_collapse(self):
        circuit = (
            CircuitBuilder("c")
            .add_input("a")
            .add_not("u", "a")
            .add_not("v", "u")
            .add_output("v")
            .build()
        )
        result = collapse_faults(circuit)
        # a, u, v all equivalent pairwise -> 2 classes from 6 faults.
        assert result.total_collapsed == 2

    def test_representative_is_deterministic(self, s27):
        first = collapse_faults(s27).representatives
        second = collapse_faults(s27).representatives
        assert first == second

    def test_class_members_partition(self, s27):
        result = collapse_faults(s27)
        members_total = sum(
            len(result.class_members(rep)) for rep in result.representatives
        )
        assert members_total == result.total_uncollapsed


class TestUniverse:
    def test_ids_are_dense_and_stable(self, s27_universe):
        assert len(s27_universe) == 32
        for index, fault in enumerate(s27_universe.faults()):
            assert s27_universe.id_of(fault) == index
            assert s27_universe.fault(index) == fault

    def test_id_of_nonrepresentative_resolves_via_class(self, s27, s27_universe):
        collapse = s27_universe.collapse_result
        for member, representative in collapse.class_of.items():
            assert s27_universe.id_of(member) == s27_universe.id_of(representative)

    def test_subset_roundtrip(self, s27_universe):
        ids = [0, 5, 9]
        faults = s27_universe.subset(ids)
        assert s27_universe.ids(faults) == ids

    def test_total_uncollapsed(self, s27_universe):
        assert s27_universe.total_uncollapsed == 52

    @pytest.mark.parametrize("name", ["s27", "syn298", "generated"])
    def test_ids_follow_fault_order(self, name):
        """Universe ids ascend with ``Fault`` ordering.

        Sorting faults by ``id_of`` therefore gives the same list as
        ``sorted``, so callers may use either without changing the order
        a simulator sees.
        """
        if name == "generated":
            circuit = generate_circuit(SyntheticSpec("gen", 4, 3, 5, 40, seed=11))
        else:
            circuit = load_circuit(name)
        faults = FaultUniverse(circuit).faults()
        assert all(a < b for a, b in zip(faults, faults[1:]))
