"""Planar geometry of one tensegrity segment and of a tapered three-segment stack.

A segment is a trapezoidal mechanism: a fixed base plate of half-width ``l1``
carries a rigid three-link spine (link lengths ``h1``, ``h2``, ``h3``) that ends
in a moving plate of half-width ``l2``.  The two spine joints are mechanically
coupled so both rotate by the same angle ``alpha``; the moving plate therefore
tilts by ``2*alpha`` relative to the base.  Two lateral cables close the loops:
cable 1 runs from the left base corner ``a1`` to the left plate corner ``d1``,
cable 2 from the right base corner ``a2`` to the right plate corner ``d2``.
Their lengths ``(rho1, rho2)`` are the actuation coordinates of the segment.

With the base mid-point at the origin and ``alpha = 0`` the spine is vertical;
positive ``alpha`` leans the plate to the left.  All points live in the base
frame:

    a1 = (-l1, 0)                 a2 = (l1, 0)
    b0 = (0, h1)                                  (top of the first link)
    c0 = b0 + h2 * (-sin a,  cos a)               (top of the second link)
    d0 = c0 + h3 * (-sin 2a, cos 2a)              (mid-point of the plate)
    d1 = d0 + l2 * (-cos 2a, -sin 2a)             (left plate corner)
    d2 = d0 + l2 * ( cos 2a,  sin 2a)             (right plate corner)

Segments stack by mounting the next base plate on the previous moving plate,
each level scaled by the taper ratio ``lam = l2 / l1``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

TAU = 2.0 * math.pi


class InvalidGeometry(ValueError):
    """A segment dimension violates the validity constraints."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.reason = message
        super().__init__(f"{field}: {message}")


class InvalidRatio(ValueError):
    """A taper ratio outside the half-open interval (0, 1]."""


def normalize_angle(angle: float) -> float:
    """Wrap ``angle`` to the half-open interval (-pi, pi]."""
    wrapped = math.remainder(angle, TAU)
    if wrapped <= -math.pi:
        wrapped += TAU
    return wrapped


class _Record:
    """Base of the package's immutable records: a subclass's own annotations,
    in order, are its fields, class-level values their defaults.  One ``exec``
    writes ``__init__``, storing a ``float`` field as a Python float before
    any ``__post_init__``, and ``_values``, the tuple ==, hash and repr use."""

    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        # math.ldexp(v, 0) is float(v) on all that math.isfinite takes, no str.
        floats = {n for n in names if cls.__annotations__[n] == "float"}
        body = "".join(f"\n _set(self, {n!r}, _ldexp({n}, 0))" if n in floats
                       else f"\n _set(self, {n!r}, {n})" for n in names)
        if hasattr(cls, "__post_init__"):
            body += "\n self.__post_init__()"
        values = "".join(f"self.{n}, " for n in names)
        ns = {"_set": object.__setattr__, "_ldexp": math.ldexp}
        exec(f"def __init__(self, {', '.join(names)}):{body}\n"
             f"def _values(self): return ({values})", ns)
        init = ns["__init__"]
        init.__defaults__ = tuple(cls.__dict__[n] for n in names
                                  if n in cls.__dict__)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__, cls._values, cls._fields = init, ns["_values"], names

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SegmentGeometry(_Record):
    """Dimensions of one segment.

    ``h1``, ``h2``, ``h3`` are the spine link lengths (``h1`` and ``h3`` may be
    zero, collapsing the end links; ``h2`` may not), ``l1`` and ``l2`` the base
    and moving-plate half-widths.  Instances are validated on construction.
    """

    h1: float
    h2: float
    h3: float
    l1: float
    l2: float

    def __post_init__(self):
        validate_geometry(self)

    @functools.cached_property
    def _home(self) -> float:
        """:func:`_home_length` of the fields, formed on first use."""
        return float(_home_length(*self._values()))

    @property
    def lam(self) -> float:
        """Taper ratio: moving-plate half-width over base half-width."""
        return self.l2 / self.l1


class SegmentState(_Record):
    """Joint state of one segment: the shared spine angle ``alpha``.

    ``alpha`` is wrapped to (-pi, pi] on construction.
    """

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", normalize_angle(self.alpha))


class SegmentPose(_Record):
    """All seven segment points, as 2-vectors in the base frame."""

    a1: np.ndarray
    a2: np.ndarray
    b0: np.ndarray
    c0: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def points(self):
        """The points as an ordered (name, vector) sequence."""
        return tuple(zip(self._fields, self._values()))


class Frame2D(_Record):
    """A planar frame: origin and orientation of a plate."""

    origin: np.ndarray
    theta: float


class StackConfig(_Record):
    """A three-segment stack: per-level geometries and states, base first."""

    segments: tuple[SegmentGeometry, SegmentGeometry, SegmentGeometry]
    states: tuple[SegmentState, SegmentState, SegmentState]

    def __post_init__(self):
        if len(self.segments) != 3 or len(self.states) != 3:
            raise ValueError("a stack has exactly three segments and three states")


def validate_geometry(g: SegmentGeometry) -> SegmentGeometry:
    """Check dimension constraints, returning ``g`` unchanged if valid.

    ``h1`` and ``h3`` must be non-negative, ``h2``, ``l1`` and ``l2`` strictly
    positive, and every dimension finite.  Raises :class:`InvalidGeometry`
    naming the offending field otherwise.
    """
    for name in SegmentGeometry._fields:
        value = getattr(g, name)
        if not math.isfinite(value):
            raise InvalidGeometry(name, f"must be finite, got {value!r}")
    if g.h1 < 0.0:
        raise InvalidGeometry("h1", f"must be >= 0, got {g.h1!r}")
    if g.h3 < 0.0:
        raise InvalidGeometry("h3", f"must be >= 0, got {g.h3!r}")
    if g.h2 <= 0.0:
        raise InvalidGeometry("h2", f"must be > 0, got {g.h2!r}")
    if g.l1 <= 0.0:
        raise InvalidGeometry("l1", f"must be > 0, got {g.l1!r}")
    if g.l2 <= 0.0:
        raise InvalidGeometry("l2", f"must be > 0, got {g.l2!r}")
    return g


def _trig(alpha):
    """``(sin a, cos a, sin 2a, cos 2a)``, ``2a`` formed once: ``math``'s on
    one row's float (``np.float64`` is one), as ``singularity._sqrt`` does,
    and numpy's through ``np.asarray`` on anything else, in numpy's shapes."""
    if isinstance(alpha, float):
        sin, cos = math.sin, math.cos
    else:
        sin, cos, alpha = np.sin, np.cos, np.asarray(alpha)
    two_a = 2.0 * alpha
    return sin(alpha), cos(alpha), sin(two_a), cos(two_a)


def _plate(h1, h2, h3, l2, alpha):
    """``d0``, summed from ``b0 = (0, h1)`` up (``c0`` where ``h3 = 0``), and
    the plate offset ``l2 (cos 2a, sin 2a)``, each formed once.  All arguments
    broadcast; the sin and cos are :func:`_trig`'s, ``math``'s on one float
    angle and numpy's on any other."""
    sin_a, cos_a, sin_2a, cos_2a = _trig(alpha)
    return (-h2 * sin_a - h3 * sin_2a, h1 + h2 * cos_a + h3 * cos_2a,
            l2 * cos_2a, l2 * sin_2a)


def _cable_lengths_raw(h1, h2, h3, l1, l2, alpha):
    """Cable lengths from raw dimensions via the point construction."""
    d0x, d0y, plate_x, plate_y = _plate(h1, h2, h3, l2, alpha)
    return (np.hypot(d0x - plate_x + l1, d0y - plate_y),
            np.hypot(d0x + plate_x - l1, d0y + plate_y))


def _home_length(h1, h2, h3, l1, l2):
    """Both cables' length at ``alpha = 0``, where ``d1 - a1 = (l1 - l2,
    h1 + h2 + h3)``: ``_cable_lengths_raw`` there, bit for bit."""
    return np.hypot(l1 - l2, h1 + h2 + h3)


def segment_points(g: SegmentGeometry, state: SegmentState) -> SegmentPose:
    """Forward kinematics of one segment: all seven points at ``state.alpha``."""
    c0x, c0y, _, _ = _plate(g.h1, g.h2, 0.0, g.l2, state.alpha)
    d0x, d0y, *plate = _plate(g.h1, g.h2, g.h3, g.l2, state.alpha)
    # -h2 sin a is -0.0 at alpha = 0: + 0.0 makes a zero x +0.0, as the pose
    # tables print it, and leaves every other value as it is.
    d0, plate = np.array([d0x + 0.0, d0y]), np.array(plate)
    return SegmentPose(np.array([-g.l1, 0.0]), np.array([g.l1, 0.0]),
                       np.array([0.0, g.h1]), np.array([c0x + 0.0, c0y]),
                       d0, d0 - plate, d0 + plate)


def cable_lengths(g: SegmentGeometry, alpha):
    """Cable lengths ``(rho1, rho2)`` at angle ``alpha`` (inverse kinematics).

    ``rho1 = ||a1 - d1||`` and ``rho2 = ||a2 - d2||``, computed from the point
    construction.  ``alpha`` may be a ``SegmentState``, a scalar, a sequence
    or an ndarray; the mirror symmetry of the trapezoid gives
    ``rho2(alpha) = rho1(-alpha)`` bit for bit.
    """
    if isinstance(alpha, SegmentState):
        alpha = alpha.alpha
    return _cable_lengths_raw(g.h1, g.h2, g.h3, g.l1, g.l2, alpha)


def _condition_terms(h1, h2, h3, l1, l2):
    """``(A, B, C, D)`` of the loop-1 singularity condition ``A sin a +
    B cos a + C cos 2a + D sin 2a``, from float or array dimensions."""
    return (-2.0 * h2 * (h1 + h3), -2.0 * h2 * (l1 + l2),
            -4.0 * (h3 * l1 + h1 * l2), 4.0 * (l1 * l2 - h1 * h3))


def singularity_condition(g: SegmentGeometry, alpha):
    """Derivative of the squared length of cable 1 with respect to ``alpha``:
    ``A sin a + B cos a + C cos 2a + D sin 2a`` (:func:`_condition_terms`).

    The mechanism is singular where this vanishes: the cable can no longer
    control the joint to first order.  By mirror symmetry the corresponding
    condition for cable 2 is this expression evaluated at ``-alpha``.  Accepts
    a scalar, sequence or ndarray ``alpha``.  At an angle ``singular_angles``
    returns it is rounding alone, at most ``8 eps (|A| + |B| + |C| + |D|)``."""
    a, b, c, d = _condition_terms(g.h1, g.h2, g.h3, g.l1, g.l2)
    sin_a, cos_a, sin_2a, cos_2a = _trig(alpha)
    return a * sin_a + b * cos_a + c * cos_2a + d * sin_2a


def tapered_stack(base: SegmentGeometry, lam: float, states) -> StackConfig:
    """Build a three-segment stack from a base segment and taper ratio ``lam``.

    Level ``i`` (0-based) is ``base`` scaled by ``float(lam)**i``, so each
    base plate matches the moving plate below it.  ``states`` gives the three
    per-level angles.  Raises :class:`InvalidRatio` unless ``0 < lam <= 1``.
    """
    if not (math.isfinite(lam) and 0.0 < lam <= 1.0):
        raise InvalidRatio(f"taper ratio must lie in (0, 1], got {lam!r}")
    states = tuple(st if isinstance(st, SegmentState) else SegmentState(st)
                   for st in states)
    h1, h2, h3, l1, l2 = base._values()
    segments = tuple([SegmentGeometry(h1 * s, h2 * s, h3 * s, l1 * s, l2 * s)
                      for s in [float(lam)**i for i in range(3)]])
    return StackConfig(segments=segments, states=states)


def stack_forward(config: StackConfig) -> tuple[Frame2D, Frame2D, Frame2D]:
    """Forward kinematics of a stack: the moving-plate frame of each level.

    Each segment contributes a translation to its plate mid-point ``d0`` and a
    rotation by ``2*alpha``; frames compose bottom-up starting from the
    world-aligned base frame at the origin.
    """
    x = y = theta = 0.0
    frames = []
    for g, st in zip(config.segments, config.states):
        dx, dy, _, _ = _plate(g.h1, g.h2, g.h3, g.l2, st.alpha)
        c, s = math.cos(theta), math.sin(theta)
        x, y = x + (c * dx - s * dy), y + (s * dx + c * dy)
        theta = normalize_angle(theta + 2.0 * st.alpha)
        frames.append(Frame2D(origin=np.array([x, y]), theta=theta))
    return tuple(frames)
