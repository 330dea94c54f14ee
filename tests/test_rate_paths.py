"""Each rate of one realization is reachable by one formula only.

The engine states the cut-set bound, the DF rate and the AF rate once each,
as the kernels :func:`rates.scheme_kernels` binds; the per-realization
functions reach them through it.  Besides ``scheme_kernels``, only the moment
form of the cut-set bound may call ``_upper_rates``, and the coherent
second-hop gain ``_mac_gain`` is read only by the second-hop SNR and its
public value.  A second caller of a kernel fails these tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "confrelay"

CALLERS = {
    "_af_rates": {("rates", "scheme_kernels")},
    "_df_rates": {("rates", "scheme_kernels")},
    "_upper_rates": {("rates", "scheme_kernels"), ("rates", "capacity_upper_asymptotic")},
    "_mac_gain": {("rates", "_mac_snr"), ("rates", "df_mac_gain")},
}


def _callee(node):
    """The name a call calls, ``f`` for ``f(...)`` and ``m.f(...)``, else None."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def kernel_calls(source):
    """(callee, dotted scope) of each call of a name in ``CALLERS`` in
    ``source``; a lambda's calls belong to the function it is written in."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and _callee(child) in CALLERS:
                found.append((_callee(child), scope))
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def library_calls(src=SRC):
    """By callee, the (module, scope) pairs that call it."""
    calls = {name: set() for name in CALLERS}
    for path in sorted(src.glob("*.py")):
        for name, scope in kernel_calls(path.read_text(encoding="utf-8")):
            calls[name].add((path.stem, scope))
    return calls


def test_each_kernel_is_called_only_where_allowed():
    calls = library_calls()
    assert {name: found - CALLERS[name] for name, found in calls.items()} == {
        name: set() for name in CALLERS}
    for name in ("_af_rates", "_df_rates", "_upper_rates"):
        assert ("rates", "scheme_kernels") in calls[name]


def test_check_fails_on_a_copy_with_a_second_path(tmp_path):
    added = {
        "rates": ("\n\ndef af_rate_again(real, cfg):\n"
                  "    h2, g2 = _squared_gains(real, cfg)\n"
                  "    return float(_af_rates(h2, g2, cfg, *_af_invariants(cfg)))\n"),
        "montecarlo": ("\n\ndef analytic_snr_again(real, cfg):\n"
                       "    q0 = rates._mac_gain(abs(real.g) ** 2, rates._mac_weights(cfg))\n"
                       "    return q0 * q0 / cfg.n_0\n"),
        "cli": "\nUPPER = lambda h2, cfg: _upper_rates(h2, cfg)\n",
    }
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8")
                                          + added.get(path.stem, ""), encoding="utf-8")
    calls = library_calls(tmp_path)
    assert {name: found - CALLERS[name] for name, found in calls.items()} == {
        "_af_rates": {("rates", "af_rate_again")},
        "_df_rates": set(),
        "_upper_rates": {("cli", None)},
        "_mac_gain": {("montecarlo", "analytic_snr_again")},
    }
