"""Scalar SHAKE-256: the independent oracle for the bulk cipher's keystream.

Keccak-f[1600] one lane at a time and the sponge one rate block at a time,
straight from FIPS 202: the rotation offsets and round constants are
*computed* (the (x, y) walk of section 3.2.2 and the LFSR of 3.2.5), not
copied from a table. It shares nothing with ``src/`` or ``hashlib``, so a
slip in how the cipher frames its XOF input or squeezes past the 136-byte
rate cannot hide behind a matching slip here. Slow on purpose; tests only.
"""

_MASK = (1 << 64) - 1
_RATE = 136    # SHAKE-256: 1600-bit state, 512-bit capacity
_SUFFIX = 0x1F  # the XOF domain bits 1111, then the first pad10*1 bit


def _rol(lane, shift):
    shift %= 64
    return ((lane << shift) | (lane >> (64 - shift))) & _MASK


def _rotation_offsets():
    offsets = {(0, 0): 0}
    x, y = 1, 0
    for t in range(24):
        offsets[(x, y)] = (t + 1) * (t + 2) // 2
        x, y = y, (2 * x + 3 * y) % 5
    return offsets


def _round_constants():
    constants, lfsr = [], 1
    for _ in range(24):
        constant = 0
        for j in range(7):
            if lfsr & 1:
                constant |= 1 << ((1 << j) - 1)
            lfsr <<= 1
            if lfsr & 0x100:
                lfsr ^= 0x171
        constants.append(constant)
    return constants


_OFFSETS = _rotation_offsets()
_ROUND_CONSTANTS = _round_constants()


def keccak_f1600(lanes):
    """The permutation, on 25 lanes indexed ``x + 5 * y``; returns new lanes."""
    a = list(lanes)
    for constant in _ROUND_CONSTANTS:
        # theta
        parity = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20]
                  for x in range(5)]
        for x in range(5):
            d = parity[(x - 1) % 5] ^ _rol(parity[(x + 1) % 5], 1)
            for y in range(5):
                a[x + 5 * y] ^= d
        # rho and pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = _rol(a[x + 5 * y],
                                                        _OFFSETS[(x, y)])
        # chi
        for x in range(5):
            for y in range(5):
                a[x + 5 * y] = b[x + 5 * y] ^ (
                    ~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y] & _MASK)
        # iota
        a[0] ^= constant
    return a


def _absorb(lanes, block):
    mixed = list(lanes)
    for i in range(_RATE // 8):
        mixed[i] ^= int.from_bytes(block[8 * i : 8 * i + 8], "little")
    return keccak_f1600(mixed)


def shake256(message, length):
    """``length`` bytes of SHAKE-256 output over ``message``."""
    padded = bytearray(message) + bytes([_SUFFIX])
    padded += bytes(-len(padded) % _RATE)
    padded[-1] |= 0x80
    lanes = [0] * 25
    for start in range(0, len(padded), _RATE):
        lanes = _absorb(lanes, padded[start : start + _RATE])
    out = bytearray()
    while True:
        for lane in lanes[: _RATE // 8]:
            out += lane.to_bytes(8, "little")
        if len(out) >= length:
            return bytes(out[:length])
        lanes = keccak_f1600(lanes)
