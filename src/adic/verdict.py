"""Three-valued verdicts with machine-checkable witnesses.

Every decision procedure in this package returns a Verdict rather than a
bare bool.  A Yes/No verdict always carries a witness that an independent
checker can re-verify; an Undecided verdict records the horizon up to which
the question was examined.
"""

from fractions import Fraction


class Verdict:
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"

    def __init__(self, value, witness=None, horizon=None):
        if value not in (self.YES, self.NO, self.UNDECIDED):
            raise ValueError("bad verdict value: %r" % (value,))
        if value == self.UNDECIDED and horizon is None:
            raise ValueError("undecided verdicts must carry a horizon")
        self.value = value
        self.witness = witness if witness is not None else {}
        self.horizon = horizon

    @classmethod
    def yes(cls, witness=None):
        return cls(cls.YES, witness)

    @classmethod
    def no(cls, witness=None):
        return cls(cls.NO, witness)

    @classmethod
    def undecided(cls, horizon, witness=None):
        return cls(cls.UNDECIDED, witness, horizon)

    def is_yes(self):
        return self.value == self.YES

    def is_no(self):
        return self.value == self.NO

    def is_decided(self):
        return self.value != self.UNDECIDED

    def __bool__(self):
        # refuse silent coercion: an Undecided verdict is not False
        raise TypeError("use .is_yes()/.is_no(); Verdict is three-valued")

    def __repr__(self):
        if self.value == self.UNDECIDED:
            return "Verdict(undecided, horizon=%r)" % (self.horizon,)
        return "Verdict(%s)" % (self.value,)

    def to_json(self):
        out = {"verdict": self.value}
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.witness:
            out["witness"] = _jsonable(self.witness)
        return out


def _frac(x):
    """A Fraction as "p/q", or "p" when it is an integer."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)
    return x


def _jsonable(obj):
    """Best-effort conversion of witness payloads and reports to JSON-safe
    values."""
    if isinstance(obj, Fraction):
        return _frac(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return obj
