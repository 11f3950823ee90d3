"""Exact bits of the theory half, so that no rewrite of the recursions moves a result.

Recorded as ``float.hex`` for ReLU, erf and GELU in every mode at
``(sigma_w, sigma_b) = (1.3, 0.4)``:

* ``trace`` from ``l0 = 1`` over 8 layers: K, chi_j, chi_delta, J and
  Theta at layers 2, 5 and 8, from ``k0 = 0.7`` (post-LN from ``k0 =
  sigma_w^2 + sigma_b^2``, the kernel every later post-LN layer sees);
* ``find_fixed_point`` from its default start: K*, chi_k* and chi_j*;
* one ``phase_grid`` row, sigma_b in (0, 0.5, 1);
* every vanilla ``critical_point`` and the vanilla GELU ``critical_line``
  at sigma_w in (1.5, 1.8, 2): sigma_w, sigma_b, residual and K*.
"""

import pytest

from jacprop.activations import Activation
from jacprop.analysis import phase_grid
from jacprop.critical import critical_line, critical_point, find_fixed_point
from jacprop.meanfield import Hyper, NormMode, trace

HP = Hyper(1.3, 0.4)
LAYERS = (2, 5, 8)

GOLDEN = {
        ('relu', 'VANILLA'): (
            '0x1.80c49ba5e3540p-1', '0x1.b0a3d70a3d70bp-1', '0x0.0p+0',
            '0x1.b0a3d70a3d70bp-1', '0x1.57ced916872b0p+0', '0x1.b9c918bbf4c9ap-1',
            '0x1.b0a3d70a3d70bp-1', '0x0.0p+0', '0x1.0508a9214c003p-1',
            '0x1.78cac1f4d7830p+1', '0x1.dc2fe789d18d6p-1', '0x1.b0a3d70a3d70bp-1',
            '0x0.0p+0', '0x1.3afd77e7b1b10p-2', '0x1.071b37a36a907p+2',
            '0x1.0842108421088p+0', '0x1.b0a3d70a3d70bp-1', '0x1.b0a3d70a3d70bp-1',
            '0x1.b0a3d70a3d70bp-1', '0x1.b0a3d70a3d70bp-1', '0x1.b0a3d70a3d70bp-1',
        ),
        ('relu', 'PRE_LN'): (
            '0x1.0147ae147ae15p+0', '0x1.ae7cd0e028c19p-1', '0x0.0p+0',
            '0x1.3507507507508p+0', '0x1.c51eb851eb852p+1', '0x1.0147ae147ae15p+0',
            '0x1.ae7cd0e028c19p-1', '0x0.0p+0', '0x1.6f5e0b894f5b5p-1',
            '0x1.1f0c94d2caa9bp+3', '0x1.0147ae147ae15p+0', '0x1.ae7cd0e028c19p-1',
            '0x0.0p+0', '0x1.b4b82c2fdad14p-2', '0x1.8655fd34a2681p+3',
            '0x1.0147ae147ae15p+0', '0x0.0p+0', '0x1.ae7cd0e028c19p-1',
            '0x1.0000000000000p+0', '0x1.8b1ae2c6b8b1ap-1', '0x1.d4fc87fa732a5p-2',
        ),
        ('relu', 'POST_LN'): (
            '0x1.d99999999999ap+0', '0x1.570eed81cc4c7p+0', '0x0.0p+0',
            '0x1.570eed81cc4c7p+0', '0x1.ed626c9126ceep+2', '0x1.d99999999999ap+0',
            '0x1.570eed81cc4c7p+0', '0x0.0p+0', '0x1.9cc878351083ap+1',
            '0x1.4175c78465d02p+5', '0x1.d99999999999ap+0', '0x1.570eed81cc4c7p+0',
            '0x0.0p+0', '0x1.f0add5e6e9873p+2', '0x1.d9513fdf178f6p+6',
            '0x1.d99999999999ap+0', '0x0.0p+0', '0x1.570eed81cc4c7p+0',
            '0x1.77898643dc9c5p+0', '0x1.4724ab10e3cf7p+0', '0x1.d7dd55e8c7295p-1',
        ),
        ('erf', 'VANILLA'): (
            '0x1.a901b994e9725p-1', '0x1.0904cb3a63713p+0', '-0x1.eabbe37f81809p-2',
            '0x1.1a951316dadd7p+0', '0x1.9a4f9d5a74542p+0', '0x1.d39aa9f5f0d01p-1',
            '0x1.febb5801f471ep-1', '-0x1.b70a83befffbcp-2', '0x1.27a1aa876cd6ep+0',
            '0x1.1906d8821bf52p+2', '0x1.d59a7d6139854p-1', '0x1.fde072e75c171p-1',
            '-0x1.b4d6f3cd0e3a9p-2', '0x1.24a85254cdf11p+0', '0x1.c584c39d02cd8p+2',
            '0x1.d5b1c370b1bffp-1', '0x1.67b4e2159be19p-2', '0x1.fdd6857a5240fp-1',
            '0x1.2385ad5ceb232p+0', '0x1.e2efdd35bb08fp-1', '0x1.6f757b7f62085p-1',
        ),
        ('erf', 'PRE_LN'): (
            '0x1.e3e4c6cf2dfd2p-1', '0x1.04a89080bde7ap+0', '-0x1.8a28c75a56472p-2',
            '0x1.5fed8d6c162d4p+0', '0x1.87f53ac1e6d04p+1', '0x1.e3e4c6cf2dfd2p-1',
            '0x1.04a89080bde7ap+0', '-0x1.8a28c75a56472p-2', '0x1.737dea707b848p+0',
            '0x1.34b6f6acaf4e2p+3', '0x1.e3e4c6cf2dfd2p-1', '0x1.04a89080bde7ap+0',
            '-0x1.8a28c75a56472p-2', '0x1.8824b291a8673p+0', '0x1.0993bf8944bb2p+4',
            '0x1.e3e4c6cf2dfd2p-1', '0x0.0p+0', '0x1.04a89080bde7ap+0',
            '0x1.39c779b6f7744p+0', '0x1.dbfd560f59065p-1', '0x1.14017615b16afp-1',
        ),
        ('erf', 'POST_LN'): (
            '0x1.d99999999999ap+0', '0x1.496993170b8c6p+0', '-0x1.6a063f0fb5317p-3',
            '0x1.496993170b8c6p+0', '0x1.e712bf8c940fcp+2', '0x1.d99999999999ap+0',
            '0x1.496993170b8c6p+0', '-0x1.6a063f0fb5317p-3', '0x1.5eebe28847161p+1',
            '0x1.26acc8763566fp+5', '0x1.d99999999999ap+0', '0x1.496993170b8c6p+0',
            '-0x1.6a063f0fb5317p-3', '0x1.75d5bafea12fdp+2', '0x1.8c64c5ebc6ccdp+6',
            '0x1.d99999999999ap+0', '0x0.0p+0', '0x1.496993170b8c6p+0',
            '0x1.6060599046aeap+0', '0x1.3e11b95371344p+0', '0x1.f6f8bd6ae3ffcp-1',
        ),
        ('gelu', 'VANILLA'): (
            '0x1.457fe4f44b51ap-1', '0x1.6fe42c2806e47p-1', '0x1.8d5f982c65f07p-3',
            '0x1.75e5ef1b4647ap-1', '0x1.259d395d4b0ebp+0', '0x1.07b50500dc504p-1',
            '0x1.62539f0cab578p-1', '0x1.fc0d71f0917e7p-3', '0x1.0a20b12886890p-2',
            '0x1.98325f3b87beep+0', '0x1.d7e994c8ec71ap-2', '0x1.5b05760ccc4a0p-1',
            '0x1.1dfb1a0bde1b1p-2', '0x1.586f2ef5e88dcp-4', '0x1.87a02b05530b8p+0',
            '0x1.b08a1bf4f97dcp-2', '0x1.78b814ab16996p-1', '0x1.5546e40767b1dp-1',
            '0x1.b0a3d70a3d70bp-2', '0x1.80108a45ffb74p-1', '0x1.b9024156f3fb3p-1',
        ),
        ('gelu', 'PRE_LN'): (
            '0x1.c1db0b83900dap-1', '0x1.c0ed727010838p-1', '0x1.a80c41f56b3b7p-4',
            '0x1.19bdec1545bd4p+0', '0x1.b2cbbee35d8a9p+1', '0x1.c1db0b83900dap-1',
            '0x1.c0ed727010838p-1', '0x1.a80c41f56b3b7p-4', '0x1.7bd6efc77a5b2p-1',
            '0x1.27a0a19646cf2p+3', '0x1.c1db0b83900dap-1', '0x1.c0ed727010838p-1',
            '0x1.a80c41f56b3b7p-4', '0x1.000befda807adp-1', '0x1.a5a265f489570p+3',
            '0x1.c1db0b83900dap-1', '0x0.0p+0', '0x1.c0ed727010838p-1',
            '0x1.1270a9af8ffe8p+0', '0x1.97371de42cbd4p-1', '0x1.cb0447176314dp-2',
        ),
        ('gelu', 'POST_LN'): (
            '0x1.d99999999999ap+0', '0x1.4117c37c09c5bp+0', '0x1.1f0695c0f854ep-5',
            '0x1.4117c37c09c5bp+0', '0x1.e339b5ee7cd70p+2', '0x1.d99999999999ap+0',
            '0x1.4117c37c09c5bp+0', '0x1.1f0695c0f854ep-5', '0x1.3cca7000432bdp+1',
            '0x1.17542392fe2f2p+5', '0x1.d99999999999ap+0', '0x1.4117c37c09c5bp+0',
            '0x1.1f0695c0f854ep-5', '0x1.388bddfd584acp+2', '0x1.63a8186ab7abap+6',
            '0x1.d99999999999ap+0', '0x0.0p+0', '0x1.4117c37c09c5bp+0',
            '0x1.5d9cf2766293cp+0', '0x1.3308e54252c09p+0', '0x1.c28eb63ffc1dep-1',
        ),
        ('relu', 'point'): (
            '0x1.6a09e667f3bcdp+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0',
        ),
        ('erf', 'point'): (
            '0x1.c5bf891b4ef6ap-1', '0x0.0p+0', '0x1.0000000000000p-53',
            '0x0.0p+0',
        ),
        ('gelu', 'point'): (
            '0x1.0000000000000p+1', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x1.688084572a087p+0', '0x1.a9d1cc766ccddp-2',
            '0x0.0p+0', '0x1.c7e0f66afed07p+1',
        ),
        ('gelu', 'line'): (
            '0x1.8000000000000p+0', '0x1.ea86c99550ed9p-3', '0x0.0p+0',
            '0x1.ac8037fb1c0b4p-1', '0x1.ccccccccccccdp+0', '0x1.1d5f434d3d042p-4',
            '0x0.0p+0', '0x1.cf0b42a58ca50p-4', '0x1.0000000000000p+1',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        ),
}


def _hexes(values) -> tuple:
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("name", ["relu", "erf", "gelu"])
@pytest.mark.parametrize("mode", list(NormMode), ids=lambda m: m.name)
def test_trace_fixed_point_and_grid_row(name, mode):
    act = getattr(Activation, name)()
    k0 = HP.sw2 + HP.sb2 if mode is NormMode.POST_LN else 0.7
    tr = trace(act, mode, HP, 8, k0, l0=1)
    got = [a[l] for l in LAYERS for a in (tr.K, tr.chi_j, tr.chi_delta, tr.J, tr.theta)]
    fp = find_fixed_point(act, mode, HP)
    got += [fp.k_star, fp.chi_k_star, fp.chi_j_star]
    got += list(phase_grid(act, mode, [HP.sigma_w], [0.0, 0.5, 1.0]).chi[0])
    assert _hexes(got) == GOLDEN[(name, mode.name)]


@pytest.mark.parametrize("name", ["relu", "erf", "gelu"])
def test_critical_points(name):
    points = critical_point(getattr(Activation, name)())
    got = [v for p in points for v in (p.sigma_w, p.sigma_b, p.residual, p.k_star)]
    assert _hexes(got) == GOLDEN[(name, "point")]


def test_gelu_vanilla_line():
    points = critical_line(Activation.gelu(), NormMode.VANILLA, [1.5, 1.8, 2.0])
    got = [v for p in points for v in (p.sigma_w, p.sigma_b, p.residual, p.k_star)]
    assert _hexes(got) == GOLDEN[("gelu", "line")]
