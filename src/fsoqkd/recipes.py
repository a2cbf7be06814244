"""Canonical run recipes.

Each recipe reproduces one figure-style computation at the default operating
point (1550 nm, 10 cm apertures, 3 K background): power sweeps, distance
sweeps with and without offset optimization, bright-spot comparison curves,
wavefront panels and the combined before/behind axis.  Grid sizes are chosen
so a recipe completes in minutes; the CLI's ``--max-points`` caps them for
smoke tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import RunConfig, WavefrontSettings

KM = 1000.0


@dataclass(frozen=True)
class RecipeItem:
    label: str
    config: RunConfig


@dataclass(frozen=True)
class Recipe:
    name: str
    kind: str  # sweep | wavefront | optimize_d | before_bob | combined_axis
    items: tuple


def build_recipe(name: str) -> Recipe:
    try:
        builder = _RECIPES[name]
    except KeyError:
        raise KeyError(f"unknown recipe {name!r}; known: {', '.join(sorted(_RECIPES))}")
    return builder()


def recipe_names() -> list[str]:
    return sorted(_RECIPES)


def _power_sweep(beta: float) -> Recipe:
    items = []
    for lbe_km in (2, 20, 80):
        cfg = RunConfig(alice_bob_distance=20 * KM, bob_eve_distance=lbe_km * KM,
                        beta=beta, mu=1.0,
                        sweep_parameter="mu", sweep_min=1e-2, sweep_max=1e6,
                        sweep_count=60, sweep_spacing="log")
        items.append(RecipeItem(f"lbe{lbe_km}km", cfg))
    name = "fig2" if beta == 1.0 else "fig3"
    return Recipe(name, "sweep", tuple(items))


def _fig4() -> Recipe:
    panels = WavefrontSettings(half_width=0.35, pixels=201,
                               distances=(1 * KM, 20 * KM, 60 * KM, 120 * KM))
    cfg = RunConfig(alice_bob_distance=60 * KM, wavefront=panels)
    return Recipe("fig4", "wavefront", (RecipeItem("panels", cfg),))


def _distance_sweep(name, lab_values_km, count=160, lo=0.5, hi=400.0, **kw) -> Recipe:
    items = []
    for lab in lab_values_km:
        cfg = RunConfig(alice_bob_distance=lab * KM,
                        sweep_parameter="L_BE", sweep_min=lo * KM, sweep_max=hi * KM,
                        sweep_count=count, sweep_spacing="log", **kw)
        items.append(RecipeItem(f"lab{lab}km", cfg))
    return Recipe(name, "sweep", tuple(items))


def _fig5() -> Recipe:
    return _distance_sweep("fig5", (40, 60, 80))


def _fig8() -> Recipe:
    return _distance_sweep("fig8", (40, 80, 120), count=200, hi=480.0)


def _fig9() -> Recipe:
    items = []
    for w0_cm in (5, 10, 30):
        cfg = RunConfig(waist_radius=w0_cm / 100.0,
                        sweep_parameter="L_AB", sweep_min=5 * KM, sweep_max=200 * KM,
                        sweep_count=60, sweep_spacing="log",
                        tie_bob_eve_to_link=True)
        items.append(RecipeItem(f"w0{w0_cm}cm", cfg))
    return Recipe("fig9", "sweep", tuple(items))


def _fig10() -> Recipe:
    # bright-spot comparison regime: short link, varied waist
    items = []
    for w0_cm in (5, 10, 30):
        cfg = RunConfig(alice_bob_distance=15 * KM, waist_radius=w0_cm / 100.0,
                        emit_arago_overlay=True,
                        sweep_parameter="L_BE", sweep_min=0.5 * KM, sweep_max=150 * KM,
                        sweep_count=120, sweep_spacing="log")
        items.append(RecipeItem(f"w0{w0_cm}cm", cfg))
    return Recipe("fig10", "sweep", tuple(items))


def _fig11() -> Recipe:
    items = []
    for re_cm in (5, 10, 20, 30):
        cfg = RunConfig(alice_bob_distance=50 * KM, eve_radius=re_cm / 100.0,
                        sweep_parameter="L_BE", sweep_min=0.5 * KM, sweep_max=400 * KM,
                        sweep_count=120, sweep_spacing="log")
        items.append(RecipeItem(f"re{re_cm}cm", cfg))
    return Recipe("fig11", "sweep", tuple(items))


def _fig12() -> Recipe:
    items = []
    for w0_cm in (5, 10, 20, 30):
        cfg = RunConfig(alice_bob_distance=50 * KM, waist_radius=w0_cm / 100.0,
                        sweep_parameter="L_BE", sweep_min=0.5 * KM, sweep_max=400 * KM,
                        sweep_count=120, sweep_spacing="log")
        items.append(RecipeItem(f"w0{w0_cm}cm", cfg))
    return Recipe("fig12", "sweep", tuple(items))


def _fig13() -> Recipe:
    cfg = RunConfig(alice_bob_distance=50 * KM, beta=0.95, optimize_mu=True,
                    sweep_parameter="L_BE", sweep_min=0.5 * KM, sweep_max=400 * KM,
                    sweep_count=120, sweep_spacing="log")
    return Recipe("fig13", "sweep", (RecipeItem("lab50km", cfg),))


def _fig14() -> Recipe:
    cfg = RunConfig(alice_bob_distance=40 * KM,
                    sweep_parameter="L_BE", sweep_min=1 * KM, sweep_max=200 * KM,
                    sweep_count=40, sweep_spacing="log")
    return Recipe("fig14", "optimize_d", (RecipeItem("lab40km", cfg),))


def _fig15() -> Recipe:
    cfg = RunConfig(alice_bob_distance=50 * KM, beta=0.95, optimize_mu=True,
                    sweep_parameter="L_BE", sweep_min=1 * KM, sweep_max=200 * KM,
                    sweep_count=40, sweep_spacing="log")
    return Recipe("fig15", "optimize_d", (RecipeItem("lab50km", cfg),))


def _before(name, lab_values_km, beta=1.0, optimize=False, count=90) -> Recipe:
    items = []
    for lab in lab_values_km:
        cfg = RunConfig(scenario="before_bob", alice_bob_distance=lab * KM,
                        bob_eve_distance=lab * KM / 2.0, beta=beta,
                        optimize_mu=optimize,
                        sweep_parameter="L_AE", sweep_min=0.05 * lab * KM,
                        sweep_max=0.99 * lab * KM, sweep_count=count,
                        sweep_spacing="linear")
        items.append(RecipeItem(f"lab{lab}km", cfg))
    return Recipe(name, "before_bob", tuple(items))


def _fig18() -> Recipe:
    return _before("fig18", (40, 60, 80))


def _fig19() -> Recipe:
    # combined signed axis: before-Bob rows (negative L_BE) plus behind-Bob rows
    items = []
    for lab in (20, 40, 80):
        before = RunConfig(scenario="before_bob", alice_bob_distance=lab * KM,
                           bob_eve_distance=lab * KM / 2.0,
                           sweep_parameter="L_AE", sweep_min=0.05 * lab * KM,
                           sweep_max=0.99 * lab * KM, sweep_count=60,
                           sweep_spacing="linear")
        behind = RunConfig(alice_bob_distance=lab * KM,
                           sweep_parameter="L_BE", sweep_min=0.5 * KM,
                           sweep_max=4 * lab * KM, sweep_count=60,
                           sweep_spacing="log")
        items.append(RecipeItem(f"lab{lab}km", before))
        items.append(RecipeItem(f"lab{lab}km", behind))
    return Recipe("fig19", "combined_axis", tuple(items))


def _fig20() -> Recipe:
    return _before("fig20", (80,), beta=0.95, optimize=True, count=70)


_RECIPES = {
    "fig2": lambda: _power_sweep(1.0),
    "fig3": lambda: _power_sweep(0.95),
    "fig4": _fig4,
    "fig5": _fig5,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig18": _fig18,
    "fig19": _fig19,
    "fig20": _fig20,
}
