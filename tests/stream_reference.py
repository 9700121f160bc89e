"""Pure-Python replay of the sampler's uniform stream, with no numpy.

``substream(s, k)`` in ``abeliand.sampler`` is numpy's
``Generator(PCG64(SeedSequence(s, spawn_key=(k,))))``, read with
``random()``.  This module writes that contract out step by step, as the
README's "Seeds and determinism" section states it: SeedSequence's entropy
pool and ``generate_state``, PCG64's seeding, jump-ahead and XSL-RR output,
and ``random() = (x >> 11) * 2^-53``.
"""

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """32-bit words of a non-negative int, least significant first; [0] for 0."""
    out = [n & MASK32]
    while n >> 32:
        n >>= 32
        out.append(n & MASK32)
    return out


class _Hash:
    """SeedSequence's hashmix, whose multiplier advances with every call."""

    def __init__(self):
        self.const = INIT_A

    def __call__(self, value: int) -> int:
        value ^= self.const
        self.const = self.const * MULT_A & MASK32
        value = value * self.const & MASK32
        return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    r = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return r ^ r >> 16


def seed_pool(seed: int, spawn_key: tuple[int, ...]) -> list[int]:
    """The 4-word entropy pool of SeedSequence(seed, spawn_key=spawn_key)."""
    run = _words(seed)
    key = [w for k in spawn_key for w in _words(k)]
    if key and len(run) < POOL_SIZE:
        run += [0] * (POOL_SIZE - len(run))
    entropy = run + key
    h = _Hash()
    pool = [h(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], h(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], h(word))
    return pool


def generate_state(pool: list[int], n_words64: int) -> list[int]:
    """SeedSequence.generate_state(n_words64, np.uint64)."""
    const = INIT_B
    out32 = []
    for i in range(2 * n_words64):
        value = pool[i % POOL_SIZE] ^ const
        const = const * MULT_B & MASK32
        value = value * const & MASK32
        out32.append(value ^ value >> 16)
    return [out32[2 * i] | out32[2 * i + 1] << 32 for i in range(n_words64)]


class PCG64:
    def __init__(self, seed: int, spawn_key: tuple[int, ...]):
        w = generate_state(seed_pool(seed, spawn_key), 4)
        self.inc = ((w[2] << 64 | w[3]) << 1 | 1) & MASK128
        self.state = 0
        self._step()
        self.state = (self.state + (w[0] << 64 | w[1])) & MASK128
        self._step()

    def _step(self):
        self.state = (self.state * PCG_MULT + self.inc) & MASK128

    def advance(self, delta: int) -> None:
        """Jump delta steps ahead, as numpy's PCG64.advance(delta) does.

        delta steps of s -> a*s + c compose to s -> A*s + C; squaring the step
        (a, c) -> (a*a, (a + 1)*c) doubles it, so A and C take O(log delta)
        products.
        """
        mult, plus = PCG_MULT, self.inc
        acc_mult, acc_plus = 1, 0
        delta &= MASK128
        while delta:
            if delta & 1:
                acc_mult = acc_mult * mult & MASK128
                acc_plus = (acc_plus * mult + plus) & MASK128
            plus = (mult + 1) * plus & MASK128
            mult = mult * mult & MASK128
            delta >>= 1
        self.state = (acc_mult * self.state + acc_plus) & MASK128

    def next64(self) -> int:
        self._step()
        s = self.state
        x = (s >> 64 ^ s) & MASK64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & MASK64

    def random(self, n: int) -> list[float]:
        return [(self.next64() >> 11) * 2.0**-53 for _ in range(n)]


def substream(seed: int, k: int) -> PCG64:
    """The reference for ``abeliand.sampler.substream(seed, k)``."""
    return PCG64(seed, (k,))
