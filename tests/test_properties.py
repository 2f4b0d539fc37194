"""Property tests on random inputs, drawn by hypothesis when it is
installed; without it they skip."""

import pytest

from relalg import AtomStructure
from relalg.atoms import _associativity_witness
from relalg.decision import _power_runs

from conftest import associativity_witness_oracle, conjugate

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def cycle_tables(draw):
    """Any table on at most 5 atoms: any converse map, any identity atoms,
    any cycles, not closed under the Peircean transforms."""
    n = draw(st.integers(1, 5))
    atom = st.integers(0, n - 1)
    converse = draw(st.lists(atom, min_size=n, max_size=n))
    identity = draw(st.frozensets(atom))
    present = draw(st.lists(st.booleans(), min_size=n ** 3, max_size=n ** 3))
    cycles = {(k // n // n, k // n % n, k % n)
              for k, keep in enumerate(present) if keep}
    return AtomStructure(tuple(f"a{i}" for i in range(n)), converse,
                         identity, cycles)


@hypothesis.settings(max_examples=400)
@hypothesis.given(cycle_tables())
def test_associativity_kernel_matches_the_dense_scan(s):
    # on invalid tables too, where a row's left side can reach columns off
    # the support of b and rows with a;b = 0 can fail
    assert _associativity_witness(s) == associativity_witness_oracle(s)


@hypothesis.settings(max_examples=400)
@hypothesis.given(st.data())
def test_power_runs_are_invariant_under_relabelling(data):
    # the runs read only composition and the identity atoms, so they need
    # no valid structure
    s = data.draw(cycle_tables())
    ids = data.draw(st.permutations(range(s.n_atoms)))
    assert _power_runs(conjugate(s, ids)) == _power_runs(s)
