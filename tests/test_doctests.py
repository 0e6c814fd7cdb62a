import doctest

import pytest

import cdescent.contract
import cdescent.formula
import cdescent.genocchi
import cdescent.perms
import cdescent.poly
import cdescent.recursion
import cdescent.tableaux
import cdescent.tree
import cdescent.verify


@pytest.mark.parametrize(
    "module",
    [
        cdescent.contract,
        cdescent.perms,
        cdescent.formula,
        cdescent.recursion,
        cdescent.tree,
        cdescent.poly,
        cdescent.tableaux,
        cdescent.genocchi,
        cdescent.verify,
    ],
    ids=lambda m: m.__name__,
)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
