"""Adaptive Gauss-Legendre panel and Gauss-Laguerre quadrature for decaying integrands.

The Lifshitz kernels, once written in the dimensionless variable y = 2*kappa0*d,
all decay like exp(-y) times a mild prefactor and live on [0, inf).  The scheme
covers [0, cutoff] with a fixed panel layout, graded toward zero because several
kernels have an integrable y*log(y) endpoint, and doubles the node count on each
cell, 6, 12, 24, ..., until its estimate is finite and stable relative to the
total.  A cell is a panel in 1-D and a rectangle in 2-D; one loop refines both,
and a level evaluates its unsettled cells in one call, or blocks of them in 2-D.

A row that decays like exp(-t) on [0, inf) and is smooth at t = 0, such as
a Matsubara row written in t = y - x_n or the Kramers-Kronig tail of an
optical table written in u = s v, suits the weight of Gauss-Laguerre
quadrature, so :func:`integrate_laguerre` tries a family of rows on the
16- and 32-node rules of ``LAGUERRE_PAIR`` in one integrand call of 48
abscissae, and accepts each row on its own when the two sums agree to
rel_tol of its own value in every kind; the caller runs the rows it refuses,
a non-finite one among them, on the panels.

Every Gauss rule, the Legendre rules of 6 to 192 nodes and the Laguerre
pair, is a module constant, so no rule is built at run time, and no LAPACK
routine and no BLAS matrix-matrix product runs.

The 2-D rectangles form an L-shaped layout.  Only the corner x = t = 0 needs
the graded t-panels, so the x-panel at 0 pairs with every t-panel and one with
lower edge a > 0 with a merged t-panel [0, a], then the t-panels above a.  A
rectangle with x_lo + t_lo >= cutoff/2 holds under exp(-cutoff/2) of the
total and is dropped: 62 rectangles, not 121 pairs.  A small cache keeps the
read-only nodes of each 2-D block, keyed by its rectangles and node count.
"""

from functools import lru_cache
from itertools import pairwise

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "gauss_legendre",
    "panel_edges",
    "integrate_decaying",
    "integrate_decaying_2d",
    "integrate_laguerre",
]

#: Opening sub-panel edges; ratio-8 grading tames integrable log endpoints.
_GRADED_OPENING = (2.0 ** -14, 2.0 ** -11, 2.0 ** -8, 2.0 ** -5, 2.0 ** -2)

#: Panels beyond the cutoff contribute ~exp(-cutoff) of the total.
DEFAULT_CUTOFF = 80.0

#: Nodes per cell axis on the first pass; a smooth cell settles at 6 + 12.
_NODE_START = 6

#: Most 2-D nodes in one call, bar a lone rectangle: 62 at 6 x 6, 32 at 12 x 12.
_NODE_BUDGET = 4608


def panel_edges():
    """Panel edges on [0, DEFAULT_CUTOFF]: graded opening, then doubling widths."""
    edges = [0.0, *_GRADED_OPENING]
    width = 2.0
    while edges[-1] + width < DEFAULT_CUTOFF:
        edges.append(edges[-1] + width)
        width *= 2.0
    edges.append(DEFAULT_CUTOFF)
    return edges


_EDGES = panel_edges()
#: Each panel's lower edge and half width; built at import, as arrays built
#: mid-curve would outlive the curve's temporaries in the heap and fragment it.
_LOWER, _HALF = np.array(_EDGES[:-1]), 0.5 * np.diff(_EDGES)

#: The stored Gauss rules.  Built at run time, the rules cost a process a
#: LAPACK eigensolver's first call (~0.6 MB of peak RSS) and ~1 ms, so they
#: are tables, as QUADPACK keeps its rules.  _LEGENDRE_HALVES maps n = 6, 12,
#: ..., 192 to the nodes x > 0 of numpy's ``leggauss(n)`` and their weights,
#: copied bit for bit; leggauss symmetrises its rule exactly, so the other
#: half is the mirror (:func:`gauss_legendre`).  LAGUERRE_PAIR holds the
#: Gauss-Laguerre rules a row is tried on, the smaller one first: the nodes t
#: and the weights times e^t of the 16- and 32-node rules, as the
#: Jacobi-matrix eigenvalues with one Newton step and the Christoffel weights
#: from the three-term recurrence give them (~1e-14 relative).
_LEGENDRE_HALVES = {
    6: (
        (
            0.2386191860831969, 0.6612093864662645, 0.9324695142031519,
        ),
        (
            0.46791393457269104, 0.3607615730481387, 0.17132449237917027,
        ),
    ),
    12: (
        (
            0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
            0.9041172563704748, 0.9815606342467192,
        ),
        (
            0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642,
            0.10693932599531907, 0.04717533638651141,
        ),
    ),
    24: (
        (
            0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
            0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
            0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
        ),
        (
            0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
            0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
            0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869,
        ),
    ),
    48: (
        (
            0.03238017096286937, 0.0970046992094627, 0.1612223560688917, 0.22476379039468905,
            0.28736248735545555, 0.3487558862921607, 0.4086864819907167, 0.4669029047509584,
            0.523160974722233, 0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
            0.7240341309238146, 0.7671590325157404, 0.8070662040294426, 0.8435882616243935,
            0.8765720202742479, 0.9058791367155696, 0.9313866907065543, 0.9529877031604308,
            0.9705915925462473, 0.9841245837228269, 0.9935301722663508, 0.9987710072524261,
        ),
        (
            0.06473769681268365, 0.06446616443594982, 0.06392423858464787, 0.06311419228625373,
            0.06203942315989242, 0.0607044391658936, 0.059114839698395344, 0.057277292100402916,
            0.05519950369998403, 0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
            0.04467456085669423, 0.04154508294346455, 0.0382413510658305, 0.034777222564770394,
            0.031167227832798097, 0.027426509708357034, 0.023570760839324047, 0.019616160457356056,
            0.015579315722943226, 0.011477234579234614, 0.007327553901276135, 0.0031533460523098414,
        ),
    ),
    96: (
        (
            0.016276744849602967, 0.04881298513604974, 0.08129749546442555, 0.11369585011066592,
            0.14597371465489695, 0.17809688236761861, 0.2100313104605672, 0.24174315616384,
            0.27319881259104917, 0.30436494435449635, 0.3352085228926254, 0.3656968614723136,
            0.3957976498289086, 0.42547898840730053, 0.454709422167743, 0.48345797392059636,
            0.5116941771546677, 0.5393881083243575, 0.5665104185613972, 0.593032364777572,
            0.6189258401254686, 0.6441634037849671, 0.6687183100439161, 0.6925645366421715,
            0.7156768123489676, 0.7380306437444001, 0.7596023411766475, 0.7803690438674332,
            0.8003087441391408, 0.8194003107379316, 0.8376235112281871, 0.8549590334346014,
            0.8713885059092965, 0.8868945174024204, 0.9014606353158523, 0.9150714231208981,
            0.9277124567223087, 0.9393703397527552, 0.9500327177844377, 0.9596882914487426,
            0.9683268284632642, 0.9759391745851365, 0.9825172635630147, 0.9880541263296237,
            0.9925439003237626, 0.9959818429872093, 0.9983643758631817, 0.9996895038832307,
        ),
        (
            0.03255061449236328, 0.03251611871386895, 0.0324471637140644, 0.03234382256857602,
            0.03220620479403032, 0.032034456231992796, 0.03182875889441112, 0.03158933077072725,
            0.03131642559686141, 0.03101033258631393, 0.030671376123669266, 0.03029991542082777,
            0.029896344136328506, 0.029461089958168016, 0.02899461415055532, 0.028497411065085413,
            0.02797000761684837, 0.027412962726029232, 0.02682686672559185, 0.026212340735672593,
            0.025570036005349364, 0.024900633222483814, 0.02420484179236482, 0.023483399085926292,
            0.022737069658329466, 0.02196664443874457, 0.021172939892191354, 0.020356797154333365,
            0.019519081140145382, 0.01866067962741174, 0.017782502316045286, 0.016885479864245195,
            0.015970562902562345, 0.015038721026994927, 0.014090941772314894, 0.013128229566961646,
            0.012151604671088057, 0.01116210209983861, 0.010160770535008306, 0.009148671230783011,
            0.0081268769256983, 0.007096470791153821, 0.006058545504235195, 0.005014202742928604,
            0.003964554338444405, 0.0029107318179352943, 0.0018539607889441585, 0.0007967920655518723,
        ),
    ),
    192: (
        (
            0.008159862838095288, 0.024477415255235203, 0.04078844847403865, 0.05708861829151206,
            0.07337358339796854, 0.0896390065332716, 0.1058805556420004, 0.1220939050272288,
            0.1382747365026109, 0.15441874054246624, 0.17052161742955838, 0.18657907840026114,
            0.20258684678680755, 0.21854065915631715, 0.23443626644629842, 0.25026943509632393,
            0.26603594817557663, 0.2817316065059672, 0.2973522297805232, 0.3128936576767521,
            0.32835175096468167, 0.34372239260928317, 0.35900148886698247, 0.37418497037596854,
            0.38926879324000774, 0.40424894010547613, 0.41912142123132207, 0.43388227555167513,
            0.4485275717308174, 0.4630534092102369, 0.4774559192474836, 0.49173126594655214,
            0.505875647279516, 0.5198852960991414, 0.533756481142212, 0.547485508023295,
            0.5610687202186869, 0.5745025000402746, 0.5877832695990527, 0.6009074917580421,
            0.6138716710743545, 0.626672354730151, 0.6393061334522506, 0.6517696424201391,
            0.6640595621621395, 0.6761726194395048, 0.6881055881181968, 0.6998552900281192,
            0.711418595809577, 0.722792425746735, 0.7339737505878552, 0.7449595923520933,
            0.7557470251226408, 0.7663331758259995, 0.7767152249971829, 0.7868904075306401,
            0.7968560134167008, 0.8066093884633471, 0.8161479350031199, 0.8254691125849696,
            0.8345704386508696, 0.8434494891970096, 0.8521038994193961, 0.8605313643436844,
            0.8687296394390773, 0.8766965412161265, 0.8844299478082758, 0.8919277995369952,
            0.8991880994603513, 0.9062089139048715, 0.9129883729805598, 0.9195246710789272,
            0.9258160673539062, 0.9318608861855217, 0.937657517626197, 0.9432044178295801,
            0.9485001094617782, 0.9535431820948995, 0.9583322925828044, 0.9628661654189837,
            0.9671435930764901, 0.971163436329871, 0.974924624559081, 0.9784261560354051,
            0.9816670981895111, 0.9846465878619337, 0.9873638315366433, 0.9898181055591398,
            0.9920087563423259, 0.9939352005680612, 0.9955969254054172, 0.9969934888089658,
            0.9981245201227148, 0.9989897220082228, 0.9995888803394138, 0.9999219686591948,
        ),
        (
            0.016319363456701312, 0.016315017035071853, 0.016306325349418088, 0.016293290714642385,
            0.016275916602327297, 0.01625420763981128, 0.01622816960895613, 0.016197809444607185,
            0.016163135232746182, 0.01612415620833785, 0.01608088275287016, 0.01603332639158935,
            0.015981499790430613, 0.015925416752644323, 0.015865092215120086, 0.015800542244408355,
            0.015731784032441253, 0.01565883589195404, 0.015581717251607466, 0.015500448650813453,
            0.015415051734264712, 0.015325549246169754, 0.01523196502419571, 0.01513432399311923,
            0.015032652158188158, 0.014926976598195453, 0.014817325458267397, 0.014703727942367198,
            0.014586214305516836, 0.014464815845739772, 0.014339564895724584, 0.014210494814213603,
            0.014077639977118736, 0.013941035768365776, 0.013800718570469916, 0.013656725754846891,
            0.013509095671858744, 0.013357867640599602, 0.013203081938424803, 0.013044779790222552,
            0.012883003357434619, 0.012717795726827318, 0.012549200899015941, 0.012377263776745617,
            0.012202030152933408, 0.012023546698469516, 0.011841860949789848, 0.011657021296214062,
            0.011469076967057668, 0.01127807801852142, 0.011084075320358454, 0.01088712054232772,
            0.010687266140430099, 0.010484565342939879, 0.010279072136227087, 0.010070841250378998,
            0.009859928144623642, 0.00964638899256095, 0.00943028066719876, 0.009211660725809114,
            0.008990587394595038, 0.008767119553188143, 0.00854131671896186, 0.008313239031184623,
            0.008082947235000528, 0.007850502665252432, 0.007615967230148036, 0.007379403394770511,
            0.007140874164445354, 0.006900443067961452, 0.006658174140651377, 0.006414131907343962,
            0.006168381365179925, 0.005920987966307889, 0.005672017600462953, 0.005421536577427671,
            0.0051696116093902945, 0.004916309793197512, 0.004661698592528081, 0.004405845819973719,
            0.0041488196190656535, 0.003890688446256221, 0.0036315210529105587, 0.0033713864673431,
            0.0031103539770689593, 0.002848493111476016, 0.002585873625444454, 0.0023225654850491093,
            0.0020586388581148754, 0.001794164116953707, 0.0015292118750178934, 0.0012638531320989556,
            0.0009981598380226363, 0.0007322075666272851, 0.0004660944855913264, 0.00020025101475557657,
        ),
    ),
}
LAGUERRE_PAIR = tuple((np.array(t), np.array(w)) for t, w in (
    (  # 16 nodes
        (
            0.08764941047892753, 0.4626963289150805, 1.1410577748312265, 2.1292836450983805,
            3.4370866338932067, 5.078018614549768, 7.070338535048234, 9.438314336391938,
            12.214223368866158, 15.441527368781617, 19.180156856753136, 23.515905693991908,
            28.57872974288214, 34.58339870228663, 41.94045264768833, 51.70116033954332,
        ),
        (
            0.22503631486424625, 0.5258360527623431, 0.8319613916870872, 1.1460992409637512,
            1.4717513169668084, 1.8131346873813494, 2.175517519694608, 2.5657627501650295,
            2.9932150863713742, 3.4712344831020903, 4.020044086444668, 4.672516607732852,
            5.487420657986157, 6.585361233289213, 8.276357984364235, 11.824277551658437,
        ),
    ),
    (  # 32 nodes
        (
            0.044489365833267285, 0.2345261095196181, 0.5768846293018858, 1.0724487538178178,
            1.7224087764446456, 2.5283367064257947, 3.4922132730219944, 4.616456769749767,
            5.903958504174245, 7.358126733186241, 8.982940924212597, 10.78301863253997,
            12.763697986742725, 14.931139755522556, 17.292454336715316, 19.855860940336054,
            22.630889013196775, 25.628636022459247, 28.862101816323474, 32.346629153964734,
            36.10049480575197, 40.14571977153944, 44.509207995754934, 49.22439498730864,
            54.33372133339691, 59.89250916213402, 65.97537728793505, 72.68762809066271,
            80.18744697791352, 88.7353404178924, 98.82954286828398, 111.7513980979377,
        ),
        (
            0.11418710576810633, 0.2660652168976148, 0.41879313732485235, 0.5725328464998043,
            0.7276487883809716, 0.8845367193402505, 1.0436188758920768, 1.2053492741523526,
            1.370221338521782, 1.5387772564686448, 1.7116193526864592, 1.8894240634494834,
            2.0729593402465336, 2.2631066339969657, 2.460889072488236, 2.6675081263971174,
            2.8843920929220417, 3.113261327039587, 3.356217692595803, 3.6158698564842684,
            3.8955130449485473, 4.199394104711589, 4.533114978534365, 4.904270287611251,
            5.323500972023671, 5.806333214233623, 6.376614674159648, 7.073526580707236,
            7.967693509295905, 9.205040331278198, 11.163013090767892, 15.390180415260634,
        ),
    ),
))
#: The abscissae of both rules, in the order of one integrate_laguerre call.
_PAIR_NODES = np.concatenate([t for t, _ in LAGUERRE_PAIR])
_PAIR_NODES.flags.writeable = False


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1] for n = 6, 12, ..., 192:
    numpy's ``leggauss(n)`` to the bit, without importing
    ``numpy.polynomial`` (~7 ms a process).  The full arrays are built from
    the stored half x > 0 on a rule's first use and cached."""
    nodes, weights = (np.array(half) for half in _LEGENDRE_HALVES[n])
    return np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))


#: x-panel, t lower edge and t half width of each rectangle of the L layout.
_RECTANGLES = tuple(np.array(column) for column in zip(*[
    (i, lo, 0.5 * (hi - lo)) for i, a in enumerate(_EDGES[:-1])
    for lo, hi in pairwise([0.0] * (i > 0) + _EDGES[i:]) if a + lo < 0.5 * DEFAULT_CUTOFF
]))


def _nodes(panels, n):
    """n Gauss-Legendre nodes on each listed panel, the weights, the half widths."""
    half, (x, w) = _HALF[panels], gauss_legendre(n)
    return _LOWER[panels, None] + half[:, None] * (x + 1.0), w, half


@lru_cache(maxsize=64)
def _level(cells, n):
    """x (nc, n, 1), t (nc, 1, n), half-width products, weights of tuple ``cells``."""
    # x before t: with t outermost an energy call of a 3-gap chunk gives
    # bit-identical values and is no faster (~330-340 us either way)
    panel, lower, half = _RECTANGLES
    cells = np.array(cells)
    (x, w, hx), (s, _) = _nodes(panel[cells], n), gauss_legendre(n)
    t = lower[cells, None] + half[cells, None] * (s + 1.0)
    level = x[:, :, None], t[:, None, :], hx * half[cells], w
    for array in level[:-1]:  # the weights are gauss_legendre's
        array.flags.writeable = False
    return level


def _settle(estimate, cells, rel_tol, node_cap):
    """Totals of the cells of ``estimate(cells, n)`` (last axis), doubling n
    on each cell until its change in every kind is at most rel_tol times the
    largest first-pass total or cell estimate of that kind's family (the axis
    before the cells) at a level where that is finite; one call of
    ``estimate`` per level.  Axes in front of the family index kinds; a
    ConvergenceError keeps the worst.  A non-finite estimate never settles,
    so the floating-point warnings of the levels are this loop's to judge."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first = estimate(cells, _NODE_START)  # reshaped (kinds, members, cells)
        estimates = first.reshape((-1,) + np.atleast_2d(first).shape[-2:])
        kinds, tiny = len(estimates), np.finfo(float).tiny

        def grow(limit, values):  # to rel_tol times each kind's largest finite |value|
            top = rel_tol * np.abs(values).reshape(kinds, -1).max(axis=1, keepdims=True)
            return np.maximum(limit, top, out=limit, where=top < np.inf)

        # the change each kind allows a cell: rel_tol times the kind's scale
        limit = grow(np.full((kinds, 1), rel_tol * tiny), estimates.sum(axis=-1))
        n = _NODE_START
        while cells.size:
            n *= 2
            refined = estimate(cells, n).reshape(kinds, -1, cells.size)
            change = np.abs(refined - estimates[..., cells]).max(axis=1)
            limit = grow(limit, refined)
            estimates[..., cells] = refined
            unsettled = ~(change <= limit)  # a NaN change too
            if n >= node_cap and unsettled.any():
                # settled cells count 0, even at 0/0; a NaN change counts inf
                worst = np.where(unsettled, np.fmin(change / limit, np.inf), 0.0).max(axis=1)
                message = "quadrature did not settle within the node cap"
                exc = ConvergenceError(message, worst.max() * rel_tol, rel_tol)
                exc.kind = int(np.argmax(worst))
                raise exc
            cells = cells[unsettled.any(axis=0)]
        return estimates.sum(axis=-1).reshape(first.shape[:-1])[()]


def integrate_decaying(f, rel_tol):
    """Integrate ``f`` over [0, DEFAULT_CUTOFF] to a relative tolerance.

    ``f`` maps a 1-D array of abscissae to values whose last axis matches it.
    Leading axes are carried through, so one call integrates a family of
    kernels and returns one integral per leading-axis element.  rel_tol is
    measured against the largest integral of the family, the axis before the
    abscissae (its small members are resolved in absolute terms only; they
    are always summed into a dominant total downstream); an axis in front of
    it holds kinds, each a family.  Each panel starts with 6 Gauss-Legendre
    nodes; one unsettled at 192 raises ConvergenceError.  The neglected tail
    beyond the cutoff is O(exp(-cutoff)).
    """
    def estimate(panels, n):
        x, w, half = _nodes(panels, n)
        vals = np.asarray(f(x.ravel()))
        return half * (vals.reshape(vals.shape[:-1] + x.shape) @ w)

    return _settle(estimate, np.arange(_HALF.size), rel_tol, 192)


def integrate_decaying_2d(f, rel_tol):
    """Integrate f over [0, DEFAULT_CUTOFF]^2 to a relative tolerance.

    Cells are the rectangles of the L-shaped layout (module docstring); each
    starts with 6 x 6 nodes, and one unsettled at 96 x 96 raises.  A level
    runs its unsettled rectangles in blocks, the most whose nodes fit
    ``_NODE_BUDGET`` and one at least, each a call ``f(x, t)`` reduced before
    the next: ``x`` (nc, n, 1) holds the x nodes and ``t`` (nc, 1, n) the t
    nodes of the block's nc rectangles, which broadcast to its (nc, n, n)
    values.  They are read-only, and a block of the same rectangles and n,
    in any call, gets the same objects while among the 64 last used.

    Axes in front of those are leading axes, such as kinds x gaps: the result
    has their shape, and each element is an integral settled on its own
    scale.  A rectangle refines while any element needs it, and a
    ConvergenceError's ``kind`` is the flat (C-order) index of the worst.
    """
    def estimate(cells, n):
        size, parts = max(1, _NODE_BUDGET // (n * n)), []
        for start in range(0, cells.size, size):
            x, t, area, w = _level(tuple(cells[start:start + size].tolist()), n)
            parts.append(area * (f(x, t) @ w @ w))
        return np.concatenate(parts, axis=-1)[..., None, :]

    return _settle(estimate, np.arange(_RECTANGLES[0].size), rel_tol, 96)[..., 0][()]


def integrate_laguerre(f, rel_tol):
    """Integrate each row of ``f`` over [0, inf) on the Gauss-Laguerre pair,
    returning the rows it resolves: a mask over the rows and their integrals.

    ``f`` maps a 1-D array of abscissae to values whose last axis matches
    it; the axis before it indexes rows, and axes in front of that (kinds,
    models) are carried.  One call evaluates the nodes of both rules of
    ``LAGUERRE_PAIR``.  A row is accepted when, in every element of the
    leading axes, the smaller rule's sum is within rel_tol of the larger's
    on that element's own value, which is then its integral; so a row's
    result does not depend on the rows beside it, and a non-finite sum
    refuses it.  The pair suits rows that decay like exp(-t) and whose
    nearest singularity lies at t <= -1 or further out; the caller
    integrates the refused rows some other way.  Returns ``(accepted,
    integrals)``, the integrals shaped (..., accepted.sum()).
    """
    (_, small), (_, large) = LAGUERRE_PAIR
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = np.asarray(f(_PAIR_NODES))
        rough = values[..., :small.size] @ small
        fine = values[..., small.size:] @ large
        resolved = np.abs(fine - rough) <= rel_tol * np.abs(fine)  # NaN is not
    accepted = resolved.all(axis=tuple(range(resolved.ndim - 1)))
    return accepted, fine[..., accepted]
