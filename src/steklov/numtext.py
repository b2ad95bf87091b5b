"""Exact ``%.17g`` and ``%d`` text for NumPy arrays, a block of bytes at a time.

CPython formats one value at a time; here every step works on whole arrays.
Every value gets a fixed-width cell of ASCII bytes with NUL padding, written
as little-endian words from lookup tables.  The literal text in front of a
value is laid into the leading bytes of its cell, so a block of cells is the
text itself once one ``bytes.translate`` has deleted the NULs.

- ``_g17_cells(x, leads)``: ``%.17g`` cells of a 2-D float array, with the
  literal ``leads[c]`` in the lead words in front of column c.
- ``_int_cells(values, lead)``: ``%d`` cells of non-negative integers,
  right-aligned in whole uint64 words behind at least ``lead`` free bytes.
  A caller formats each distinct integer once and gathers the cells by index
  (``_gather``), which lays the literals into the free bytes.
- ``_text(cells)``: the text of a block of cells, its NULs deleted.

A float cell is filled as follows:

- ``N = round(|x| * 10**(16 - k))`` is the 17-digit significand, where
  ``k = floor(log10 |x|)``.  The product is a double-double: a Dekker
  two-product with ``10**s`` held as a (hi, lo) pair.  Its error is below
  1e-14, far smaller than the distance to the rounding boundary for all but
  near-ties.  A near-tie (within ``_TIE`` of half an integer) is formatted
  by ``%`` itself.
- ``k`` starts from ``log10`` and is corrected against the product.  A
  significand that rounds up to ``10**17`` is carried into ``k + 1``.
- The digits come from a table of 4-digit groups.  Trailing zeros are NULs
  in the stripped group table.  The sign, the ``0.``/``0.000`` prefix, the
  decimal point and the ``e±XX`` suffix come from tables indexed by the sign,
  the leading digit and ``k``.  ``%.17g`` writes ``k`` in -4..16 in fixed
  notation.  For ``k`` in 1..16 the point moves right by ``k`` places.
- ±0 is formatted here as well.  So is any ``|x|`` in ``[_TINY, _HUGE]``.
  Other values are formatted by ``%`` into their own cell: inf, nan,
  subnormals and the rest of the range.  Any ``%.17g`` output fits in 24
  bytes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# Decimal exponents handled by the array path (1e-30 <= |x| <= 1e30, with
# room for the corrections of k by one either way).
_K_MIN, _K_MAX = -32, 31
_NK = _K_MAX - _K_MIN + 1
_TINY, _HUGE = 1e-30, 1e30
# Distance from a rounding tie below which a value is formatted by ``%``.  The
# double-double product is good to about 5e-15, so this margin is generous.
_TIE = 1e-9
_SPLIT = np.uint64(0xFFFFFFFFF8000000)  # keeps the top 26 of 52 mantissa bits

# uint32 words of a float cell after its lead words: sign + prefix (4) |
# prefix, digit, point (4) | 16 digits.  Exponent notation has no prefix, so
# its sign, digit and point share the first word and e±XX takes the last.
_G17_WORDS = 6
_GROUP = 10**4


def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10**(16 - k) for k in _K_MIN.._K_MAX as hi + lo, and hi split into a
    26-bit head and its tail.

    Built with integer arithmetic only: ``int / int`` is correctly rounded.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        s = 16 - k
        if s >= 0:
            h = float(10**s)
            hi.append(h)
            lo.append(float(10**s - int(h)))
        else:
            den = 10**-s
            h = 1 / den
            num, pow2 = h.as_integer_ratio()
            hi.append(h)
            lo.append((pow2 - num * den) / (pow2 * den))
    hi = np.array(hi)
    head = (hi.view(np.uint64) & _SPLIT).view(np.float64)
    return hi, np.array(lo), head, hi - head


def _words(text: list[str]) -> np.ndarray:
    """Each string (at most 4 ASCII bytes, NUL-padded) as a little-endian uint32."""
    return np.frombuffer(b"".join(t.encode("ascii").ljust(4, b"\0") for t in text), "<u4")


def _group_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """4-digit groups 0000..9999 as uint32 ASCII words: plain, with trailing
    zeros NUL, with leading zeros NUL.  Group g holds the pair g // 100 in its
    low half-word and the pair g % 100 in its high one."""
    d = np.arange(100, dtype=np.uint32)
    tens, ones = ord("0") + d // 10, (ord("0") + d % 10) << 8
    pair = tens | ones
    no_trailing = np.where(d % 10 == 0, tens, pair)
    no_leading = np.where(d < 10, ones, pair)
    no_trailing[0] = no_leading[0] = 0
    plain = pair[:, None] | pair << 16
    trailing = pair[:, None] | no_trailing << 16
    trailing[:, 0] = no_trailing
    leading = no_leading[:, None] | pair << 16
    leading[0] = no_leading << 16
    return plain.ravel(), trailing.ravel(), leading.ravel()


def _g17_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head and tail words of a float cell, indexed by
    ``k - _K_MIN + _NK * (sign + 2 * leading digit)``."""
    ks = range(_K_MIN, _K_MAX + 1)
    # %.17g writes 10**-4 <= |x| < 10**17 in fixed notation
    prefix = [("0." + "0" * (-k - 1) if -4 <= k < 0 else "").ljust(5, "\0") for k in ks]
    point = ["\0" if -4 <= k < 0 else "." for k in ks]
    head0 = _words(["\0" + p[:3] for p in prefix])
    head1 = _words([p[3:] + "\0" + q for p, q in zip(prefix, point)])
    tail = _words(["" if -4 <= k <= 16 else "e%s%02d" % ("-" if k < 0 else "+", abs(k)) for k in ks])
    sign = np.array([[0], [ord("-")]], np.uint32)
    lead = (ord("0") + np.arange(10, dtype=np.uint32)).reshape(10, 1, 1) << 16
    shape = (10, 2, _NK)
    return tuple(np.broadcast_to(t, shape).ravel() for t in (head0 | sign, head1 | lead, tail))


_HI, _LO, _HI_HEAD, _HI_TAIL = _powers_of_ten()
_PLAIN, _TRAILING, _LEADING = _group_tables()
_HEAD0, _HEAD1, _TAIL = _g17_tables()
# Two tables each, the second half selected by adding _GROUP to the index.
_G17_GROUPS = np.concatenate([_PLAIN, _TRAILING])
_D_GROUPS = np.concatenate([_PLAIN, _LEADING])
_D_LAST = _D_GROUPS.copy()
_D_LAST[_GROUP] = _words(["0".rjust(4, "\0")])[0]  # a last group with only zeros before it
_NO_POINT = np.uint32(0x00FFFFFF)


def _lead_words(leads: Sequence[str], n_words: int) -> np.ndarray:
    """Each literal in the first bytes of ``n_words`` NUL-padded uint32 words."""
    text = b"".join(s.encode("ascii").ljust(4 * n_words, b"\0") for s in leads)
    return np.frombuffer(text, "<u4").reshape(len(leads), n_words)


def _items(cells: np.ndarray) -> np.ndarray:
    """Each cell of a (..., words) uint32 array as one opaque item, so that a
    gather moves whole cells."""
    return cells.view(np.dtype((np.void, 4 * cells.shape[-1])))[..., 0]


def _text(cells: np.ndarray) -> bytes:
    """The bytes of ``cells`` with their NUL padding deleted."""
    return cells.tobytes().translate(None, b"\0")


def _scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ax * 10**(16 - k)`` as ``p + e``, with ``p`` its rounded double."""
    i = k - _K_MIN
    hi, lo, hi_head, hi_tail = _HI[i], _LO[i], _HI_HEAD[i], _HI_TAIL[i]
    p = ax * hi
    head = (ax.view(np.uint64) & _SPLIT).view(np.float64)
    tail = ax - head
    e = head * hi_head
    e -= p
    e += head * hi_tail
    e += tail * hi_head
    e += tail * hi_tail
    e += ax * lo
    return p, e


def _g17_cells(x: np.ndarray, leads: Sequence[str]) -> np.ndarray:
    """``leads[c] + '%.17g' % x[i, c]`` for the 2-D array ``x``, as NUL-padded
    uint32 words of shape (n, n_cols, lead words + 6)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    n_lead = max(1, -(-max(len(s) for s in leads) // 4))
    cells = np.empty(x.shape + (n_lead + _G17_WORDS,), "<u4")
    cells[..., :n_lead] = _lead_words(leads, n_lead)
    flat = cells.reshape(-1, n_lead + _G17_WORDS)
    words = flat[:, n_lead:]
    text = flat.view(np.uint8)[:, 4 * n_lead :]
    x = x.ravel()
    ax = np.abs(x)
    # clamp into the array path's range; NaN becomes a bound as well
    clamped = np.fmax(np.fmin(ax, _HUGE), _TINY)
    special = np.flatnonzero(clamped != ax)
    ax = clamped
    k = np.floor(np.log10(ax)).astype(np.intp)
    p, e = _scaled(ax, k)
    r = np.rint(e)
    n_sig = p.astype(np.int64)
    n_sig += r.astype(np.int64)

    # k is off by one where log10 rounded across a power of ten, and a
    # significand of 10**17 carries; both leave n_sig outside (1e16, 1e17),
    # tested as one unsigned comparison
    edge = np.flatnonzero((n_sig - (10**16 + 1)).view(np.uint64) >= 10**17 - 10**16 - 1)
    if len(edge):
        pe, ee = p[edge], e[edge]
        step = ((pe > 1e17) | ((pe == 1e17) & (ee >= 0))).astype(np.intp)
        step -= (pe < 1e16) | ((pe == 1e16) & (ee < 0))
        k[edge] += step
        moved = edge[step != 0]
        p[moved], e[moved] = _scaled(ax[moved], k[moved])
        r[moved] = np.rint(e[moved])
        n_edge = p[edge].astype(np.int64) + r[edge].astype(np.int64)
        carry = n_edge == 10**17
        n_sig[edge] = np.where(carry, 10**16, n_edge)
        k[edge] += carry
    near_tie = np.flatnonzero(np.abs(e - r) > 0.5 - _TIE)
    # +-0 gets the digits of zero; so do the values formatted by % below
    n_sig[special] = 0
    k[special] = 0

    top = n_sig // 10**8
    low = n_sig - top * 10**8
    lead = top // 10**8
    high = top - lead * 10**8
    g1 = high // _GROUP
    g2 = high - g1 * _GROUP
    g3 = low // _GROUP
    g4 = low - g3 * _GROUP

    index = lead * 2
    index += np.signbit(x)
    index *= _NK
    index += k
    index -= _K_MIN
    words[:, 0] = _HEAD0[index]
    words[:, 1] = _HEAD1[index]
    words[:, 2] = _PLAIN[g1]
    words[:, 3] = _PLAIN[g2]
    words[:, 4] = _PLAIN[g3]
    words[:, 5] = _TRAILING[g4]

    # trailing zeros before the last group, and no point without a fraction
    ends = np.flatnonzero(g4 == 0)
    if len(ends):
        zero = g3[ends] == 0
        words[ends, 4] = _TRAILING[g3[ends]]
        words[ends, 3] = _G17_GROUPS[g2[ends] + _GROUP * zero]
        zero &= g2[ends] == 0
        words[ends, 2] = _G17_GROUPS[g1[ends] + _GROUP * zero]
        zero &= g1[ends] == 0
        words[ends[zero], 1] &= _NO_POINT

    # exponent notation: merge the first two words, move the digits left and
    # append e±XX
    expo = np.flatnonzero((k < -4) | (k > 16))
    if len(expo):
        sub = words[expo]
        sub[:, 0] |= sub[:, 1]
        sub[:, 1:5] = sub[:, 2:6]
        sub[:, 5] = _TAIL[index[expo]]
        words[expo] = sub

    # fixed notation with k in 1..16: move the point right past k digits
    if k.max(initial=0) >= 1:
        shifted = np.flatnonzero((k >= 1) & (k <= 16))
        ks = k[shifted]
        for kk in np.unique(ks).tolist():
            rows = shifted[ks == kk]
            sub = text[rows]
            # NUL when no fraction follows; k = 16 leaves no digit after it
            point = np.minimum(sub[:, 8 + kk], ord(".")) if kk < 16 else 0
            sub[:, 7 : 7 + kk] = np.maximum(sub[:, 8 : 8 + kk], ord("0"))
            sub[:, 7 + kk] = point
            text[rows] = sub

    for i in special[x[special] != 0].tolist() + near_tie.tolist():
        value = ("%.17g" % x[i]).encode("ascii")
        text[i] = 0
        text[i, : len(value)] = np.frombuffer(value, np.uint8)
    return cells


def _int_cells(values: np.ndarray, lead: int) -> np.ndarray:
    """``'%d' % v`` for each non-negative integer ``v`` of ``values``,
    right-aligned in NUL-padded cells of whole uint64 words, wide enough for
    the largest value and ``lead`` free bytes in front, one item each."""
    v = np.asarray(values).ravel()
    if v.dtype.kind not in "iu":
        raise TypeError(f"%d needs an integer array, got {v.dtype}")
    if v.dtype.kind == "i" and v.min(initial=0) < 0:
        raise ValueError("integer cells hold non-negative values only")
    mag = v.astype(np.uint64)
    n_digits = len(str(int(mag.max(initial=0))))
    n_groups = (n_digits + 3) // 4
    n_words = 2 * -(-(n_digits + lead) // 8)
    cells = np.zeros((len(v), n_words), "<u4")
    leading = np.full(len(v), _GROUP, np.intp)  # all groups so far are zero
    scale = 10 ** (4 * (n_groups - 1))
    for col in range(n_words - n_groups, n_words):
        group = (mag // scale).astype(np.intp)
        mag -= group.astype(np.uint64) * scale
        table = _D_LAST if scale == 1 else _D_GROUPS
        cells[:, col] = table[group + leading]
        leading *= group == 0
        scale //= _GROUP
    return _items(cells)


def _gather(table: np.ndarray, rows: np.ndarray, leads: Sequence[str]) -> np.ndarray:
    """The cells ``table[rows]`` of ``_int_cells`` with ``leads[c]`` laid into
    the free leading bytes of column c, as uint64 words."""
    cells = table[rows]
    words = cells.view("<u8").reshape(cells.shape + (-1,))
    words |= _lead_words(leads, table.itemsize // 4).view("<u8")
    return words
