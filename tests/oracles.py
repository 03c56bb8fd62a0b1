"""Reference predicates that tests compare the sweeps' inlined checks against."""


def _raw_equal(p: int, q: int, r: int, s: int) -> bool:
    """ExtendedRational(p, q) == ExtendedRational(r, s), on raw ints, with no
    gcd: cross-multiplication p*s == q*r.  A raw 0/0 cross-multiplies equal to
    everything, so 0/0 on either side is unequal to all, 0/0 included."""
    return p * s == q * r and (p != 0 or q != 0) and (r != 0 or s != 0)
