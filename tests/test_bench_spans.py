"""The benchmark's outside-in tracer still finds every function it wraps.

bench/spans.py patches functions by name; a rename in the package would
otherwise surface only as a KeyError in a traced benchmark run.
"""

import importlib

from einvex import cli, expr, invexity, kkt, pareto, problem, rng

MODS = {"cli": cli, "problem": problem, "expr": expr, "rng": rng,
        "invexity": invexity, "kkt": kkt, "pareto": pareto}


def test_tracer_resolves_installs_and_restores_every_target(repo_root, monkeypatch):
    monkeypatch.syspath_prepend(str(repo_root / "bench"))
    spans = importlib.import_module("spans")
    spans.self_check()
    targets = spans.targets(MODS)
    missing = [f"{name}: {attr}" for name, owner, attr, _ in targets if attr not in vars(owner)]
    assert not missing
    originals = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in targets]
    undo = spans.install(spans.Tracer(), MODS)
    try:
        assert all(hasattr(vars(owner)[attr], "__wrapped__") for owner, attr, _ in originals)
    finally:
        spans.uninstall(undo)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
