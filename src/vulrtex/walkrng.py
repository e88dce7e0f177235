"""The random streams of the pruning walks, in pure Python.

`spawn(seed, n)` gives the n generators that
`map(numpy.random.default_rng, numpy.random.SeedSequence(seed).spawn(n))`
gives, and each draws the same values bit for bit: a SeedSequence child
hashes the seed's 32-bit words (zero-padded to the pool of 4 words, since it
has a spawn key) and its spawn key into its pool; PCG64 (XSL-RR output) is
seeded from `generate_state(4, uint64)`; `random()` is Generator.random and
`integers(n)` is Generator.integers(n). So the walks neither load
numpy.random nor depend on the installed numpy's Generator, whose bit
stream numpy does not promise to keep.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's pool size and hash constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """n as little-endian 32-bit words, [0] for 0."""
    if n < 0:
        raise ValueError(f"a seed must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, calls: int) -> list[int]:
    """The hash constants of SeedSequence's hashing, which advance by one
    multiplication per hashed word whatever the words are: call k
    xors the word with consts[k] and multiplies it by consts[k + 1]."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hash(value: int, consts: list[int], k: int) -> int:
    value = (value ^ consts[k]) * consts[k + 1] & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


# generate_state(4, uint64) hashes 8 words
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _state128(pool: list[int]) -> tuple[int, int]:
    """generate_state(4, uint64) of a mixed pool, joined high word first
    into PCG64's 128-bit (seed, increment) pair."""
    halves = [_hash(pool[k % _POOL_SIZE], _STATE_CONSTS, k) for k in range(8)]
    w = [halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


class Pcg64:
    """numpy's Generator over PCG64, for the two draws the walks make."""

    __slots__ = ("state", "inc", "buffered")

    def __init__(self, seed: int, inc: int):
        self.inc = (inc << 1 | 1) & _MASK128
        # from state 0: one step, add the seed, one more step
        self.state = ((self.inc + seed) * _PCG_MULT + self.inc) & _MASK128
        self.buffered: int | None = None  # the upper half of a 64-bit draw

    def next64(self) -> int:
        state = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        value, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (value >> rot | value << (-rot & 63)) & _MASK64

    def next32(self) -> int:
        """The lower half of a new 64-bit draw, whose upper half the next
        call returns."""
        if self.buffered is not None:
            value, self.buffered = self.buffered, None
            return value
        value = self.next64()
        self.buffered = value >> 32
        return value & _MASK32

    def random(self) -> float:
        """A double in [0, 1), as Generator.random()."""
        return (self.next64() >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        """An int in [0, n), as Generator.integers(n): Lemire's bounded draw
        over 32-bit words, which draws nothing when n == 1."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers takes 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        m = self.next32() * n
        if (m & _MASK32) < n:
            threshold = (1 << 32) % n
            while (m & _MASK32) < threshold:
                m = self.next32() * n
        return m >> 32


def spawn(seed: int, n: int) -> list[Pcg64]:
    """The generators of numpy's SeedSequence(seed).spawn(n) children.

    Child i's entropy is the seed's words, zero-padded to the pool size,
    then i's words. Its pool hashes the first _POOL_SIZE words and mixes
    them together, which all children share, then mixes in each later word.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    rest = entropy[_POOL_SIZE:]
    # _POOL_SIZE hashes per pool word, then as many per later word, with
    # room for the words of any child index below 2**64
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + len(rest) + 2))
    shared = [_hash(entropy[k], consts, k) for k in range(_POOL_SIZE)]
    k = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                shared[i_dst] = _mix(shared[i_dst], _hash(shared[i_src], consts, k))
                k += 1
    streams = []
    for i in range(n):
        pool, j = shared.copy(), k
        for word in rest + _words(i):
            for i_dst in range(_POOL_SIZE):
                pool[i_dst] = _mix(pool[i_dst], _hash(word, consts, j))
                j += 1
        streams.append(Pcg64(*_state128(pool)))
    return streams
