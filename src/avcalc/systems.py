"""Bundled example systems.

Each system packages an atlas, a Lagrangian, a default curve for the
action and variation checks, and gauge test functions appropriate to
its dimension.  configs/ holds a config file for each; those give one
gauge function and no section.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import exprlang
from ._symdiff import velocity_coupling
from .dynamics import GaugeClassLagrangian
from .geometry import (
    Atlas,
    AVSection,
    CurveSegment,
    CurveSpec,
    circle_atlas,
    euclidean_atlas,
)

# gauge test functions, per dimension (the x1*x2-style pairs need n >= 2)
CHI_2D = ("sin(x1)*cos(x2)", "x1*x2", "exp(-x1^2)")
CHI_1D = ("sin(x1)", "x1^2", "exp(-x1^2)")
CHI_3D = CHI_2D


def chi_set(dim: int):
    return CHI_1D if dim == 1 else CHI_2D


@dataclass
class System:
    name: str
    atlas: Atlas
    lagrangian: GaugeClassLagrangian
    constants: dict = field(default_factory=dict)
    curve: Optional[CurveSpec] = None
    chis: tuple = ()
    v_halfwidth: float = 1.0  # sampling width for random velocities
    section: Optional[AVSection] = None
    forcing: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return self.atlas.dim

    def default_chart(self) -> str:
        return self.atlas.charts[0].id


def exact_lagrangian(section: AVSection) -> GaugeClassLagrangian:
    """The Lagrangian <d(phi), v> induced by a section: its action along
    any curve is the endpoint fiber difference of phi."""
    atlas = section.atlas
    exprs = {cid: velocity_coupling(e, atlas.dim) for cid, e in section.chart_exprs.items()}
    return GaugeClassLagrangian(atlas, exprs)


def free_particle() -> System:
    # the default curve, a straight line, solves E = 0
    atlas = euclidean_atlas(2)
    lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*(v1^2+v2^2)")
    curve = CurveSpec.single("0", ["0.3+0.5*t", "0.8*t-0.2"], 0.0, 1.0)
    section = AVSection(atlas, {"0": exprlang.parse("sin(x1)*x2 + 0.3*x1")})
    return System("free", atlas, lam, curve=curve, chis=CHI_2D, section=section)


def uniform_field() -> System:
    # the curve solves E = 0 for g = 1
    atlas = euclidean_atlas(1)
    constants = {"g": 1.0}
    lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*v1^2 - g*x1", constants)
    curve = CurveSpec.single("0", ["0.2+0.8*t-0.5*t^2"], 0.0, 1.0)
    return System("uniform", atlas, lam, constants, curve=curve, chis=CHI_1D)


def charged_particle() -> System:
    # constant magnetic field along the third axis, A = 0.5 * B x r,
    # so <A, v> = 0.5 * b * (x1*v2 - x2*v1)
    atlas = euclidean_atlas(3)
    constants = {"b": 1.0, "q": 1.0, "m": 1.0}
    lam = GaugeClassLagrangian.from_exprs(
        atlas,
        "0.5*m*(v1^2+v2^2+v3^2) + 0.5*q*b*(x1*v2-x2*v1)",
        constants,
    )
    curve = CurveSpec.single("0", ["sin(t)", "cos(t)-1", "0.3*t"], 0.0, 1.0)
    return System("charged", atlas, lam, constants, curve=curve, chis=CHI_3D)


def relativistic_charged() -> System:
    atlas = euclidean_atlas(2)
    constants = {"b": 0.5, "q": 1.0, "m": 1.0}
    lam = GaugeClassLagrangian.from_exprs(
        atlas,
        "-m*sqrt(1-v1^2-v2^2) + 0.5*q*b*(x1*v2-x2*v1)",
        constants,
    )
    curve = CurveSpec.single("0", ["0.3*sin(t)", "0.3*t"], 0.0, 1.0)
    return System(
        "relativistic", atlas, lam, constants,
        curve=curve, chis=CHI_2D,
        v_halfwidth=0.5,  # chart representative needs |v| < 1
    )


def boosted_free() -> System:
    # free particle seen from a frame moving with -u: the representative
    # shifts by <u, v> + |u|^2/2, a gauge change by <u, x> plus a constant
    atlas = euclidean_atlas(2)
    constants = {"u1": 0.3, "u2": -0.2}
    lam = GaugeClassLagrangian.from_exprs(
        atlas,
        "0.5*(v1^2+v2^2) + u1*v1 + u2*v2 + 0.5*(u1^2+u2^2)",
        constants,
    )
    curve = CurveSpec.single("0", ["0.3+0.5*t", "0.8*t-0.2"], 0.0, 1.0)
    return System("boosted", atlas, lam, constants, curve=curve, chis=CHI_2D)


def circle_system() -> System:
    # the curve crosses the junction from chart "0" into chart "1"
    atlas = circle_atlas("sin(x1)", winding=1.0)
    lam = GaugeClassLagrangian.from_exprs(
        atlas, {"0": "0.5*v1^2 + cos(x1)*v1", "1": "0.5*v1^2"}
    )
    t = exprlang.parse("t")
    curve = CurveSpec(
        (
            CurveSegment(-1.0, 1.5, "0", (t,)),
            CurveSegment(1.5, 2.5, "1", (t,)),
        )
    )
    section = AVSection(
        atlas, {"0": exprlang.parse("x1 + sin(x1)"), "1": exprlang.parse("x1")}
    )
    return System("circle", atlas, lam, curve=curve, chis=("sin(x1)",), section=section)


_BUILDERS = {
    "free": free_particle,
    "uniform": uniform_field,
    "charged": charged_particle,
    "relativistic": relativistic_charged,
    "boosted": boosted_free,
    "circle": circle_system,
}


def bundled_system_names():
    return list(_BUILDERS)


def bundled_system(name: str) -> System:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"no bundled system '{name}'") from None


def bundled_systems():
    return [build() for build in _BUILDERS.values()]
