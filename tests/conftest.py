import pytest
from hypothesis import settings

from hillbands.band import BandContext
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.potential import cosine, fold
from hillbands.scales import build_schedule

# Fixed examples and no deadline: the property tests must not depend on the
# seed of the run or on how fast the host happens to be.
settings.register_profile("hillbands", deadline=None, derandomize=True,
                          database=None, max_examples=60)
settings.load_profile("hillbands")


@pytest.fixture(scope="session")
def line_lattice():
    """nu=1, omega=1: the trivial quotient (xi(n) = n)."""
    return QuotientLattice(FrequencyVector.parse(["1"]))


@pytest.fixture(scope="session")
def half_lattice():
    """nu=2, omega=(1/2,1/2): rank-1 null lattice spanned by (1,-1)."""
    return QuotientLattice(FrequencyVector.parse(["1/2", "1/2"]))


@pytest.fixture(scope="session")
def mixed_lattice():
    """nu=2, omega=(2/5,3/7)."""
    return QuotientLattice(FrequencyVector.parse(["2/5", "3/7"]))


@pytest.fixture(scope="session")
def cosine_folded(line_lattice):
    return fold(cosine([1], kappa0=1.0, alpha0=1.0,
                       amplitude=None), line_lattice)


@pytest.fixture(scope="session")
def toy_schedule():
    return build_schedule("practical", s_max=2, R1=12.0, beta=0.5, eps0=0.5,
                          sigma_scale=1e-8, a0=0.5, b0=2.0, kappa0=1.0,
                          alpha0=1.0, nu=1)


def make_context(line_lattice, cosine_folded, toy_schedule, eps=0.05,
                 truncation_R=12.0, s_cap=1, use_domains=False):
    return BandContext(lat=line_lattice, folded=cosine_folded,
                       schedule=toy_schedule, eps=eps,
                       truncation_R=truncation_R, s_cap=s_cap,
                       use_domains=use_domains)


@pytest.fixture()
def toy_context(line_lattice, cosine_folded, toy_schedule):
    return make_context(line_lattice, cosine_folded, toy_schedule)
