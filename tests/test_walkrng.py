"""The walks' own PCG64 streams against numpy's SeedSequence and Generator.

numpy stays installed as the oracle; the known answers keep the stream
fixed should a numpy release change its Generator's bit stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulrtex import walkrng

draws = st.lists(st.one_of(
    st.just(("random", None)),
    st.tuples(st.just("integers"), st.one_of(st.integers(1, 9), st.integers(1, 2**32)))),
    max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**70), st.integers(1, 8), st.lists(draws, min_size=8, max_size=8))
def test_streams_equal_numpy_generators(seed, children, scripts):
    ours = walkrng.spawn(seed, children)
    theirs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(children))
    for rng, want, script in zip(ours, theirs, scripts):
        for kind, n in script:
            if kind == "random":
                assert rng.random() == float(want.random())
            else:
                assert rng.integers(n) == int(want.integers(n))
        assert rng.next64() == int(want.bit_generator.random_raw())


# per seed: child 0's first two 64-bit outputs, then for children 0 and 1
# random(), integers(3), integers(1000) (the upper half of the 64-bit word
# integers(3) drew) and random() again
KNOWN = {
    0: (["0xf1645affcd5f76ee", "0x50fb78bc01675596"],
        [("0x1.e2c8b5ff9abeep-1", 0, 316, "0x1.71d6e34584992p-1"),
         ("0x1.5ab98be352f88p-1", 1, 242, "0x1.39391ab428710p-1")]),
    17: (["0xba6f45ace82dbb1b", "0x8c1cdc91de747e5e"],
         [("0x1.74de8b59d05b7p-1", 2, 547, "0x1.60f46d9e54b18p-4"),
          ("0x1.9d967d53c0d3cp-3", 1, 158, "0x1.4c61f5060b648p-4")]),
    2**32 - 1: (["0x10f337ab7403a19c", "0x618bb63c367522b2"],
                [("0x1.0f337ab7403a0p-4", 0, 381, "0x1.46fced31bc2fap-2"),
                 ("0x1.61923be90a474p-2", 0, 415, "0x1.93beeb3654e3fp-1")]),
    2**70 + 12345: (["0xcae41f904759ec1c", "0x169f29660970aa36"],
                    [("0x1.95c83f208eb3dp-1", 0, 88, "0x1.5023ae9719d26p-1"),
                     ("0x1.739a8c0b03810p-2", 1, 35, "0x1.a85a57f1c09a4p-3")]),
}


@pytest.mark.parametrize("seed", sorted(KNOWN))
def test_known_answers(seed):
    raw, mixed = KNOWN[seed]
    first = walkrng.spawn(seed, 1)[0]
    assert [hex(first.next64()) for _ in raw] == raw
    got = [(rng.random().hex(), rng.integers(3), rng.integers(1000), rng.random().hex())
           for rng in walkrng.spawn(seed, 2)]
    assert got == mixed


def test_integers_of_one_draws_nothing():
    drawn, fresh = walkrng.spawn(5, 1)[0], walkrng.spawn(5, 1)[0]
    assert drawn.integers(1) == 0
    assert drawn.next64() == fresh.next64()


@pytest.mark.parametrize("seed, n", [(-1, 1), (0, 0), (0, 2**32 + 1)])
def test_out_of_range_refused(seed, n):
    with pytest.raises(ValueError):
        walkrng.spawn(seed, 1)[0].integers(n)
