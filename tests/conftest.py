import copy
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gapkit import algnum, isolation, thue           # noqa: E402
from gapkit.algnum import AlgNum                     # noqa: E402
from gapkit.autgroup import aut_prime, d12_family    # noqa: E402
from gapkit.binforms import BinForm                  # noqa: E402
from gapkit.intpoly import IntPoly                   # noqa: E402
from gapkit.thue import ThueProblem, census          # noqa: E402


# the recurring cast: the quartic of 2cos(2pi/15) and the Galois cubics
QUARTIC = IntPoly((1, 4, -4, -1, 1))        # x^4 - x^3 - 4x^2 + 4x + 1
CUBIC = IntPoly((-1, -3, 0, 1))             # x^3 - 3x - 1
CUBIC_IMAGE = IntPoly((1, -3, 0, 1))        # x^3 - 3x + 1 (minpoly of a^2 - 2)
CBRT2 = IntPoly((-2, 0, 0, 1))              # x^3 - 2


@pytest.fixture(scope="session")
def alpha15():
    """2cos(2pi/15) ~ 1.8271"""
    return AlgNum.near(QUARTIC, Fraction(1827, 1000))


@pytest.fixture(scope="session")
def beta15():
    """2cos(4pi/15) ~ 1.3383"""
    return AlgNum.near(QUARTIC, Fraction(1338, 1000))


@pytest.fixture(scope="session")
def alpha_cubic():
    """largest root of x^3 - 3x - 1 ~ 1.8794"""
    return AlgNum.near(CUBIC, Fraction(1879, 1000))


@pytest.fixture(scope="session")
def beta_cubic():
    """alpha^2 - 2 ~ 1.5321, a root of x^3 - 3x + 1"""
    return AlgNum.near(CUBIC_IMAGE, Fraction(1532, 1000))


@pytest.fixture(scope="session")
def cbrt2():
    return AlgNum.near(CBRT2, Fraction(126, 100))


@pytest.fixture(scope="session")
def d12_form():
    return d12_family(3, 1)


@pytest.fixture(scope="session")
def d12_aut(d12_form):
    return aut_prime(d12_form)


@pytest.fixture(scope="session")
def cubic_form():
    return BinForm((1, 0, -3, -1))          # x^3 - 3xy^2 - y^3


@pytest.fixture(scope="session")
def cubic_aut(cubic_form):
    return aut_prime(cubic_form)


def record_widths(mp: pytest.MonkeyPatch, widths: list) -> None:
    """List in ``widths`` the width of every request made to a root system:
    each table asked for (``_RootSystem.scaled``), and each enclosure asked
    for other than by a table's own refinement (``_RootSystem.refined``)."""
    scaled, refined = isolation._RootSystem.scaled, isolation._RootSystem.refined
    inside = []

    def scaled_listed(self, width):
        if not inside:
            widths.append(width)
        inside.append(width)
        try:
            return scaled(self, width)
        finally:
            inside.pop()

    def refined_listed(self, index, width):
        if not inside:
            widths.append(width)
        return refined(self, index, width)

    mp.setattr(isolation._RootSystem, "scaled", scaled_listed)
    mp.setattr(isolation._RootSystem, "refined", refined_listed)


@pytest.fixture(scope="session")
def ladder_widths():
    """A function of (p, bits=0): the widths that the refinement ladder of
    p's root system asks for (``_RootSystem.ladder(bits)``), rung by rung
    to its last, walked on a fresh root system."""
    def widths(p: IntPoly, bits: int = 0) -> list[Fraction]:
        system = isolation._RootSystem(algnum.normalize_minimal_poly(p))
        out, scaled = [], system.scaled
        system.scaled = lambda width: out.append(width) or scaled(width)
        with pytest.raises(isolation.PrecisionError):
            for _ in system.ladder(bits):
                pass
        return out
    return widths


@pytest.fixture
def coarsen_first_rung(monkeypatch):
    """A function that, once called, coarsens the disks of every first-rung
    table (``TABLE_WIDTH``) outward to whole units for the rest of the test,
    and returns the list of the widths asked of ``_RootSystem.scaled`` from
    then on."""
    def coarsen() -> list[Fraction]:
        asked, scaled = [], isolation._RootSystem.scaled

        def coarse_first(self, width):
            asked.append(width)
            table = scaled(self, width)
            if width < isolation.TABLE_WIDTH:
                return table
            coarse = copy.copy(table)
            coarse.alpha = [isolation._rescaled(isolation._rescaled(z, table.bits, 0), 0,
                                                table.bits) for z in table.alpha]
            return coarse

        monkeypatch.setattr(isolation._RootSystem, "scaled", coarse_first)
        return asked
    return coarsen


@pytest.fixture
def root_widths(monkeypatch):
    """The widths asked of root systems (``record_widths``) while the test
    runs, on fresh root systems."""
    widths = []
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    record_widths(monkeypatch, widths)
    return widths


@pytest.fixture(scope="session")
def d12_census_counted(d12_form):
    """One D12 census on fresh root systems, with the calls of the per-form
    steps, of the Mahler measure and of ``is_irreducible``'s root-set test
    counted, and the width of every request to a root system listed
    (``record_widths``)."""
    calls, widths = Counter(), []

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isolation, "_SYSTEMS", {})
        record_widths(mp, widths)
        for name in ("root_orbit_partition", "c16"):
            mp.setattr(thue, name, counted(getattr(thue, name)))
        mp.setattr(algnum, "_root_set_test", counted(algnum._root_set_test))
        mp.setattr(isolation.ScaledRoots, "mahler", counted(isolation.ScaledRoots.mahler))
        result = census(ThueProblem(d12_form, 3, 40), Fraction(38, 4))
    return result, calls, widths
