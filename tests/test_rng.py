"""The SplitMix64 stream: the compiled type draws the same bits as its
pure Python twin, and both take method rebinding on the class."""

import pytest

from normortho import _kernels_py

SEEDS = (0, 1, 2**64 - 1, -1, 2**70 + 3)
INDICES = (0, 1, 3, 2**64 - 1, -1, 10**30)
DRAWS = 10**5


@pytest.fixture
def twins(compiled_kernels):
    """(compiled class, pure class)."""
    return compiled_kernels.SplitMix64, _kernels_py.SplitMix64


def _assert_same_stream(a, b):
    assert [a.next_u64() for _ in range(DRAWS)] == [b.next_u64() for _ in range(DRAWS)]
    assert ([a.uniform(-3.0, 2.5).hex() for _ in range(DRAWS)]
            == [b.uniform(-3.0, 2.5).hex() for _ in range(DRAWS)])


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_streams_agree(twins, seed):
    compiled, pure = twins
    _assert_same_stream(compiled(seed), pure(seed))


@pytest.mark.parametrize("index", INDICES)
def test_substreams_agree(twins, index):
    compiled, pure = twins
    a, b = compiled(7), pure(7)
    assert a.next_u64() == b.next_u64()
    child = a.substream(index)
    assert type(child) is compiled
    _assert_same_stream(child, b.substream(index))
    assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("lo, hi", [(-3, 3), (-0.5, 2.0), (True, 5), (4.0, -1e-3)])
def test_vector_is_successive_uniform_draws(twins, lo, hi):
    compiled, pure = twins
    for dim in range(6):
        ref = pure(dim)
        expected = [ref.uniform(lo, hi).hex() for _ in range(dim)]
        after = ref.next_u64()
        for cls in twins:
            rng = cls(dim)
            vec = rng.vector(dim, lo, hi)
            assert type(vec) is tuple
            assert [x.hex() for x in vec] == expected
            assert rng.next_u64() == after
    for cls in twins:
        assert cls(1).vector(3, -3, 3) == cls(1).vector(3, -3.0, 3.0)


@pytest.mark.parametrize("seed", [1.5, "3", None])
def test_non_int_seed_is_a_type_error(twins, seed):
    for cls in twins:
        with pytest.raises(TypeError):
            cls(seed)


def test_negative_dim_is_a_value_error_and_draws_nothing(twins):
    compiled, pure = twins
    a, b = compiled(3), pure(3)
    for rng in (a, b):
        with pytest.raises(ValueError):
            rng.vector(-1, 0.0, 1.0)
    assert a.next_u64() == b.next_u64() == compiled(3).next_u64()


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
@pytest.mark.parametrize("name, args", [("uniform", (-2.0, 2.0)), ("next_u64", ())])
def test_methods_rebind_on_the_class_and_restore(backend, name, args):
    # What a tracer does: wrap the method found in the class dict, draw
    # through the wrapper, then put the original back.
    cls = backend.SplitMix64
    original = cls.__dict__[name]
    calls = []

    def traced(*a):
        calls.append(a)
        return original(*a)

    setattr(cls, name, traced)
    try:
        rng = cls(11)
        got = getattr(rng, name)(*args)
    finally:
        setattr(cls, name, original)
    assert cls.__dict__[name] is original
    assert len(calls) == 1 and calls[0][0] is rng
    assert got == getattr(cls(11), name)(*args)
