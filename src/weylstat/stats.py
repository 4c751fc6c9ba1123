"""Exact and Monte Carlo distributions of root-indicator statistics.

For a set Psi of positive roots, the statistic of an element w counts the
roots of Psi sent to negative roots.  Every exact result is the law of a
weighted sum of root indicators (weight 1 for the histogram, one bit per
root for joint laws and sign classes), found per irreducible component and
convolved (components act on orthogonal blocks, so their contributions are
independent); everything on the exact path is integer or rational, never
floating point.  A component's law is counted by enumerating its group
once, except where Psi's part of a type-A component is whole height layers
with weight 1 (d-inversions, d-descents): there the insertion recursion
(:func:`_layer_law`) gives it in Python ints, when its transitions cost less
than enumerating the group (:func:`_recursion_layers`); the cap bounds the
summed cost, 1 per element enumerated and :data:`_LAYER_TRANSITION_COST` per
transition.  That path never loads numpy (:class:`_Numpy`).

Both paths evaluate the statistic with one kernel over blocks of signed
one-line rows: Psi is read as the catalog's runs along diagonals
(``RootSystem.diagonal_runs``), each tested with one comparison of two
coordinate slices.  Every block, enumerated or sampled, is stored
coordinate-major (the values of one coordinate are contiguous), so each
such slice is contiguous.

G2 is counted by the same kernel: its 12 elements are the rows :data:`_G2_ROWS`,
the images of one generic point by which ``rootsys`` defines W(G2) once (weyl's
table derives from them too); each G2 root is a coordinate test (:data:`_G2_TESTS`, from rootsys).
A sampled G2 component is still drawn as one uniform table index per sample.

A sampled row holds i.i.d. signed keys read off the raw bit stream
(:func:`_draw_rows`), 16 or 32 bits wide: each component's width weighs the
raw words a narrow key saves against the ties it adds (:func:`_key_bits`).
Discrete keys can tie, and a tie matters only where a root compares the two
keys: the kernel flags those rows, which are few, and each chunk counts its
flagged rows again, once per component, after extending their keys with
fresh raw bits, compared lexicographically after the drawn key, until no
compared pair ties (:func:`_refined_counts`), which keeps every sampled
value's law exact.

Monte Carlo runs draw in fixed chunks of :data:`CHUNK_SAMPLES` samples; chunk
``c`` uses an independent SFC64 stream seeded with ``derived_seed(seed, c)``,
and draws its blocks, then its refinements, in a fixed order.  A block has
about :data:`BLOCK_SAMPLES` squared entries of the widest drawn component
(:func:`_block_samples`).  Block sizes and key widths depend only on the
system and Psi, so results are bit-identical for any worker count: workers
process disjoint chunks and the merge is associative integer accumulation.

Exact enumeration runs on the calling thread; only sampling
(:func:`mc_run`) spreads its chunks over worker threads.  An exact
law that enumerates, and each sampling worker, owns one :class:`_Workspace`,
never shared, and reuses it for every block: the key words, the tie flags
and the kernel's comparisons live in its buffers.  These
temporaries are 100 KiB to a few MiB per block, at or above glibc's mmap
threshold, so allocating them afresh gave every block new pages and a page
fault on each first touch: ``mc_run`` on B100xG2 with ``d <= 5`` and
400,000 samples took about 79,000 minor faults, against about 3,100 with
the workspace.  The raw words are drawn in pieces small enough for the
allocator's heap.  The refinement and the recount stay in the worker's
buffers too: :func:`_refined_keys` builds its keys in place in one int64
array and draws its raw words in the same pieces (README "Sampling"
measures the faults this saves).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
import itertools
import math
import threading
from typing import NamedTuple

from . import rootsys
from .errors import TooLargeError, WeylstatError
from .rootsys import DEFAULT_CAP, Root, RootSystem, _G2_TESTS, component_order, derived_seed, group_order


class _Numpy:
    """numpy, imported by the first attribute read, which also rebinds ``np`` to it.

    A law served by :func:`_layer_law` alone needs no numpy, and importing it
    is most of a short command's start-up.
    """

    def __getattr__(self, name: str):
        import numpy

        globals()["np"] = numpy
        return getattr(numpy, name)


np = _Numpy()

CHUNK_ELEMENTS = 65536
CHUNK_SAMPLES = 4096
BLOCK_SAMPLES = 512
RAW_PIECE_WORDS = 8192
# Costs of tie refinement in drawn key entries, for the key-width rule
# (:func:`_key_bits`); README "Sampling" gives the measurements.
_RECOUNT_RUN_COST = 12288
_REFINED_ENTRY_COST = 8
# Largest price of a Monte Carlo run, samples x (entries compared + keys drawn):
# at the measured 0.75-1.6 ns an entry (README "Sampling"), about two minutes.
_MAX_SAMPLED_ENTRIES = 10**11
# Cost of one transition of the insertion recursion in enumerated rows, for
# the rule that picks it over enumeration and for the cap (:func:`_weighted_law`).
_LAYER_TRANSITION_COST = 128
BOOTSTRAP_RESAMPLES = 200
SUFFIX_POSITIONS = 8
JOINT_OUTCOME_GUARD = 20


class WPartitionCounts(NamedTuple):
    """Sizes of the four sign classes of the group for a root pair.

    ``pp`` counts elements keeping both roots positive, ``pm`` those keeping
    the first positive and sending the second negative, and so on.
    """

    pp: int
    pm: int
    mp: int
    mm: int

    @property
    def total(self) -> int:
        return self.pp + self.pm + self.mp + self.mm


class SampleRun:
    """A seeded Monte Carlo record with exact sample moments.

    ``samples`` is the one integer array the sampler fills, in draw order,
    or None for a run made with ``keep_values=False``, which holds only its
    histogram and whose :meth:`to_json_dict` leaves ``"values"`` out (so a
    comparison of two such dicts covers spec, Psi, seed, n and the exact
    moments);
    ``counts`` is ``np.bincount(samples)``, which every statistic reads (as
    :func:`mc_run` counted it per chunk, else counted on first read and cached);
    ``values`` is the samples as a list of Python ints, built on first read
    and cached.  Equality and the repr leave the arrays out.  A plain class,
    not a named tuple: the two caches need an instance dict.
    """

    _COMPARED = ("spec", "descriptor", "seed", "n_samples", "sample_mean", "sample_variance")

    def __init__(self, spec: str, descriptor: dict, seed: int, n_samples: int,
                 samples: np.ndarray | None, sample_mean: Fraction, sample_variance: Fraction):
        self.spec = spec
        self.descriptor = descriptor
        self.seed = seed
        self.n_samples = n_samples
        self.samples = samples
        self.sample_mean = sample_mean
        self.sample_variance = sample_variance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._COMPARED)

    __hash__ = None  # equal runs may hold different arrays, and the fields are mutable

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._COMPARED)
        return f"{self.__class__.__qualname__}({fields})"

    @cached_property
    def counts(self) -> np.ndarray:
        return np.bincount(self.samples)

    @cached_property
    def values(self) -> list[int]:
        if self.samples is None:
            raise WeylstatError("a run made with keep_values=False holds no values; read its counts")
        return self.samples.tolist()

    def to_json_dict(self, include_values: bool = True) -> dict:
        """Plain JSON types: ``values`` is the list, not the array."""
        out = {
            "spec": self.spec,
            "psi": self.descriptor,
            "seed": self.seed,
            "n": self.n_samples,
        }
        if include_values and self.samples is not None:
            out["values"] = self.values
        out["moments"] = {
            "mean": str(self.sample_mean),
            "variance": str(self.sample_variance),
        }
        return out


# -- helpers -------------------------------------------------------------------

def _canonical_ids(rs: RootSystem, roots) -> tuple[int, ...]:
    return tuple(sorted({rs.index(r) for r in roots}))


def statistic_roots(rs: RootSystem, statistic: str, d: int):
    """Psi of the height-``d`` statistic: height ``d`` for descents, ``<= d`` for inversions."""
    if statistic == "descents":
        return rs.roots_of_height(d)
    if statistic == "inversions":
        return rs.roots_up_to_height(d)
    raise WeylstatError(f"unknown statistic {statistic!r}")


class _Workspace:
    """Named scratch buffers, grown on demand and reused by every later request.

    An exact law or a sampling worker owns one workspace and passes it to
    the block helpers, so each block writes its temporaries into memory
    that earlier blocks already touched.  An array taken from a
    buffer stays valid until the next :meth:`take` of the same name.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous array of ``shape`` and ``dtype`` in buffer ``name``; contents undefined."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


# -- enumeration (numpy rows of signed one-line values) ---------------------------

@lru_cache(maxsize=None)
def _g2_rows() -> np.ndarray:
    """The int8 table ``_G2_ROWS``, built on first use from rootsys's definition of W(G2)."""
    return np.array(rootsys._G2_ROWS, dtype=np.int8)


def __getattr__(name: str):
    # PEP 562: ``stats._G2_ROWS`` reads the table without the module building it at import.
    if name == "_G2_ROWS":
        return _g2_rows()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _signs_matrix(fam: str, n: int) -> np.ndarray:
    """Every sign vector of a B/C/D component, one int8 row each: ``rootsys._sign_vectors``."""
    return np.array(rootsys._sign_vectors(fam, n), dtype=np.int8)


def _row_dtype(dim: int):
    """Smallest signed integer dtype holding every value in ``-dim..dim``."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if dim <= np.iinfo(t).max)


@lru_cache(maxsize=None)
def _suffix_table(k: int) -> np.ndarray:
    """Every permutation of ``0..k-1`` in lexicographic order, coordinate-major.

    A C-contiguous int8 array of shape ``(k, k!)``: column ``c`` is the
    ``c``-th permutation, so each coordinate's values are contiguous.
    """
    if k <= 1:
        return np.zeros((k, 1), dtype=np.int8)
    # Lexicographic order: first value f = 0..k-1, each followed by every
    # permutation of the other values, which is the k - 1 table raised by one
    # from f up.
    prev = _suffix_table(k - 1)
    n = prev.shape[1]
    table = np.empty((k, k * n), dtype=np.int8)
    table[0] = np.arange(k, dtype=np.int8).repeat(n)
    rest = table[1:].reshape(k - 1, k, n)
    rest[:] = prev[:, None, :]
    rest += rest >= np.arange(k, dtype=np.int8)[:, None]
    return table


def _permutation_blocks(dim: int, dtype):
    """Yield every permutation of ``1..dim`` as row blocks, in lexicographic order.

    Each block is built coordinate-major, as a C-contiguous ``(dim, k!)``
    array, and yielded as its ``(k!, dim)`` transpose, so callers see one
    permutation per row.  A block fixes one prefix of the first ``dim - k``
    values, ``k = min(dim, SUFFIX_POSITIONS)``, and fills the last ``k``
    coordinates from the cached table of ranks: ``rank + 1``, raised by one
    past each prefix value in increasing order, is the rank-th remaining
    value in increasing order.
    """
    k = min(dim, SUFFIX_POSITIONS)
    table = _suffix_table(k)
    # One mask for every pass, added as int8: no temporary and no cast per pass.
    raise_mask = np.empty(table.shape, dtype=bool)
    for prefix in itertools.permutations(range(1, dim + 1), dim - k):
        block = np.empty((dim, table.shape[1]), dtype=dtype)
        block[: dim - k] = np.array(prefix, dtype=dtype)[:, None]
        suffix = block[dim - k :]
        np.add(table, 1, out=suffix)
        for p in sorted(prefix):
            np.greater_equal(suffix, p, out=raise_mask)
            suffix += raise_mask.view(np.int8)
        yield block.T


def _row_blocks(fam: str, rank: int):
    """Yield the signed one-line rows of one component in enumeration order.

    Blocks hold at most :data:`CHUNK_ELEMENTS` rows of the smallest dtype
    that holds ``-dim..dim``, so memory stays bounded whatever the order.
    Every block is the ``(m, dim)`` transpose of a C-contiguous ``(dim, m)``
    array: the values of one coordinate are contiguous.  G2 is one block,
    :data:`_G2_ROWS` in table order.
    """
    if fam == "G2":
        yield np.ascontiguousarray(_g2_rows().T).T
        return
    dim = rootsys._dimension(fam, rank)
    blocks = _permutation_blocks(dim, _row_dtype(dim))
    if fam == "A":
        yield from blocks
        return
    signs_t = np.ascontiguousarray(_signs_matrix(fam, rank).T)
    n_signs = signs_t.shape[1]
    # Each permutation is crossed with every sign vector, signs varying fastest.
    step = max(1, CHUNK_ELEMENTS // n_signs)
    for perms in blocks:
        cols = perms.T
        for lo in range(0, cols.shape[1], step):
            part = cols[:, lo : lo + step, None]
            for s in range(0, n_signs, CHUNK_ELEMENTS):
                yield (part * signs_t[:, None, s : s + CHUNK_ELEMENTS]).reshape(dim, -1).T


def _value_dtype(largest: int):
    """The smallest of uint8, uint16 and int64 that holds ``0..largest``."""
    return np.uint8 if largest <= 0xFF else np.uint16 if largest <= 0xFFFF else np.int64


def _count_rows(
    rows: np.ndarray, runs, ws: _Workspace | None = None, weights=None, tied: np.ndarray | None = None
) -> np.ndarray:
    """Weighted statistic values (int64) for a block of signed one-line rows.

    A root ``N[i,j]`` is an inversion iff ``w_j < w_i``, ``P[i,j]`` iff
    ``w_i + w_j < 0`` (tested as ``w_i < -w_j``, which cannot overflow) and
    ``O[i]`` iff ``w_i < 0``.  ``runs`` comes from ``RootSystem.diagonal_runs``;
    each root of run ``k`` adds ``weights[k]`` (default 1) to a row's value.
    The kernel reads the coordinates ``rows.T``: each run is one comparison
    of two coordinate slices of shape ``(run length, m)``, summed over the
    run.  Every block :func:`_row_blocks` yields and :func:`_draw_rows` draws
    is coordinate-major, so these slices are contiguous.  The comparison (and
    the negated partner slice of a ``P`` run) is written into buffers of
    ``ws``, or of a throwaway workspace.  Values accumulate in the smallest
    unsigned dtype that holds the largest value; a run of at most 255 roots
    is summed in uint8 first, which is cheaper than casting into that dtype.

    If ``tied`` (a bool array of length ``m``) is given, the rows where some
    compared pair is equal are set in it: ``w_j == w_i`` for an ``N`` root,
    ``w_i == -w_j`` for a ``P`` root.  Such a comparison is undecided between
    continuous keys.  An ``O`` test cannot tie on a nonzero entry.
    """
    ws = _Workspace() if ws is None else ws
    weights = [1] * len(runs) if weights is None else weights
    cols = rows.T
    total = sum((hi - lo + 1) * w for (_, _, lo, hi), w in zip(runs, weights))
    acc = _value_dtype(total)
    vals = np.zeros(cols.shape[1], dtype=acc)
    shape = (max((hi - lo + 1 for _, _, lo, hi in runs), default=0), cols.shape[1])
    neg_buf = ws.take("neg", shape, bool)
    for (form, diag, lo, hi), w in zip(runs, weights):
        wi = cols[lo - 1 : hi]
        neg = neg_buf[: hi - lo + 1]
        # the root is an inversion iff lesser < greater
        if form == "N":
            lesser, greater = cols[lo - 1 + diag : hi + diag], wi
        elif form == "P":
            # j = diag - i falls as i rises: the partner coordinates run backwards
            greater = ws.take("partner", shape, rows.dtype)[: hi - lo + 1]
            np.negative(cols[diag - hi - 1 : diag - lo][::-1], out=greater)
            lesser = wi
        else:
            lesser, greater = wi, 0
        if tied is not None and form != "O":
            eq = ws.take("eq", shape, bool)[: hi - lo + 1]
            np.equal(lesser, greater, out=eq)
            if eq.any():
                tied |= eq.any(axis=0)
        np.less(lesser, greater, out=neg)
        count = neg.view(np.uint8).sum(axis=0, dtype=np.uint8 if hi - lo + 1 <= 0xFF else acc)
        vals += count if w == 1 else count * acc(w)
    return vals.astype(np.int64, copy=False)


# concurrent.futures.ThreadPoolExecutor, imported by the first run on more
# than one worker: numpy does not load concurrent.futures, and a run on one
# worker never needs it.  A module attribute, so it can be replaced.
ThreadPoolExecutor = None


def _enumerated_law(comp, runs, weights, ws: _Workspace) -> dict[int, int]:
    """Law of one component's weighted indicator sum, by enumerating its group.

    Each block's values are counted: bincounted, or sorted with ``np.unique``
    when the possible values outnumber the block's rows, as for a joint law's
    ``2^k`` bitmasks.  Every block is counted in ``ws``.
    """
    size = 1 + sum((hi - lo + 1) * w for (_, _, lo, hi), w in zip(runs, weights))
    law: dict[int, int] = {}
    for rows in _row_blocks(comp.family, comp.rank):
        values = _count_rows(rows, runs, ws, weights=weights)
        if size > len(values):
            values, counts = np.unique(values, return_counts=True)
        else:
            counts = np.bincount(values, minlength=size)
            values = np.flatnonzero(counts)
            counts = counts[values]
        for v, c in zip(values.tolist(), counts.tolist()):
            law[v] = law.get(v, 0) + c
    return law


def _layer_transitions(dim: int, depth: int) -> int:
    """Transitions of :func:`_layer_law` on ``S_dim`` with ``depth`` tracked values."""
    return sum(math.perm(k, min(k, depth)) * (k + 1) for k in range(dim))


def _recursion_layers(comp, runs, weights) -> frozenset[int] | None:
    """The height layers :func:`_layer_law` counts for a component, or None to enumerate.

    The recursion serves a type-A component whose part of Psi, with weights
    all 1, is a union of whole height layers: every run is ``('N', h, 1,
    dim - h)``.  It is taken when its transitions, at
    :data:`_LAYER_TRANSITION_COST` enumerated rows each, cost less than
    enumerating the component's order; README "Exact laws" gives the
    measurements.
    """
    dim = comp.dimension
    if comp.family != "A" or any(w != 1 for w in weights):
        return None
    if not all(form == "N" and lo == 1 and hi == dim - h for form, h, lo, hi in runs):
        return None
    layers = frozenset(h for _, h, _, _ in runs)
    if _layer_transitions(dim, max(layers)) * _LAYER_TRANSITION_COST >= component_order(comp):
        return None
    return layers


def _layer_law(dim: int, layers) -> dict[int, int]:
    """Law over ``S_dim`` of ``#{(i, j): j - i in layers, w_i > w_j}``, by insertion.

    The one-line word is built left to right.  The rank ``r`` of the
    ``(k+1)``-th value among the first ``k + 1`` is uniform on ``0..k``,
    independently at each step, and every permutation is exactly one sequence
    of ranks (its inversion table; Knuth, TAOCP vol. 3, 5.1.1).  The new value
    is below each earlier value of prefix rank ``>= r``, so it inverts with
    the value ``h`` places back, for ``h`` in ``layers``, iff that value's
    rank is ``>= r``; then those ranks rise by one.  A state is the tuple of
    prefix ranks of the last ``max(layers)`` values, oldest first.  Its law
    so far is one Python int with ``bits`` bits per coefficient, wide enough
    that no count (at most ``dim!``) carries into the next, so a transition
    is one shift and one add.  The ranks between two values of a state give
    the same comparisons and the same raised ranks of the kept values, so
    they share one shifted term: it is added at the first of those ranks and
    subtracted after the last in a difference list kept per tuple of raised
    ranks, and the prefix sums of each list are the next states.  The last
    step needs no new states and multiplies that term by their number.

    The cap's price bounds the transitions, so the states and the memory:
    tracemalloc peaks at 0.28 MB (S_61, d = 1), 0.48 MB (S_24, d <= 2) and
    0.61 MB (S_14, d <= 3), the largest laws of the default cap.
    """
    depth = max(layers)
    bits = math.factorial(dim).bit_length() + 1
    states = {(): 1}
    total = 0
    for k in range(dim):
        last = k == dim - 1
        # per raised tuple, the differences of its next states' laws over r = 0..k
        steps: dict[tuple[int, ...], list[int]] = {}
        for state, poly in states.items():
            compared = [state[-h] for h in layers if h <= len(state)]
            kept = state[1:] if len(state) == depth else state
            lo = 0
            # the ranks r in lo..top see exactly the earlier values >= top above them
            for top in (*sorted(state), k):
                term = poly << (bits * sum(c >= top for c in compared))
                if last:
                    total += term * (top + 1 - lo)
                else:
                    raised = tuple(x + (x >= top) for x in kept)
                    step = steps.get(raised)
                    if step is None:
                        step = steps[raised] = [0] * (k + 2)
                    step[lo] += term
                    step[top + 1] -= term
                lo = top + 1
        # each list is freed as its states are made, so the two never both
        # peak; its last prefix sum, at r = k + 1, is 0
        states = {}
        while steps:
            raised, step = steps.popitem()
            for r, poly in enumerate(itertools.accumulate(step)):
                if poly:
                    states[(*raised, r)] = poly
    mask = (1 << bits) - 1
    law = {}
    for v in range(sum(dim - h for h in layers) + 1):
        count = (total >> (bits * v)) & mask
        if count:
            law[v] = count
    return law


def _weighted_law(rs: RootSystem, terms: dict, cap: int) -> dict[int, int]:
    """Exact law over the group of a weighted sum of root indicators.

    ``terms`` maps a component to its ``(runs, weights)`` for :func:`_count_rows`;
    the other components add 0 on every element.  Each component's law comes
    from :func:`_layer_law` where :func:`_recursion_layers` takes it, priced at
    :data:`_LAYER_TRANSITION_COST` per transition, and otherwise from enumerating
    its group once (:func:`_enumerated_law`), priced at its order.  A summed
    price above ``cap`` is refused before any law is computed.  The laws
    convolve, and keys are sorted.  Every enumerated block is counted on the
    calling thread, in one workspace, created by the first.
    """
    comps = rs.spec.components
    layers = {ci: _recursion_layers(comps[ci], *terms[ci]) for ci in terms}
    price = sum(component_order(comps[ci]) for ci, ls in layers.items() if not ls)
    price += sum(_layer_transitions(comps[ci].dimension, max(ls)) * _LAYER_TRANSITION_COST
                 for ci, ls in layers.items() if ls)
    if price > cap:
        what = f"exact-law cost (elements enumerated, {_LAYER_TRANSITION_COST} per recursion transition)"
        raise TooLargeError(price, cap, what=what)
    ws = None
    law = {0: 1}
    for ci, comp in enumerate(comps):
        part = {0: component_order(comp)}
        if layers.get(ci):
            part = _layer_law(comp.dimension, layers[ci])
        elif ci in terms:
            ws = ws or _Workspace()
            part = _enumerated_law(comp, *terms[ci], ws)
        law = _convolve(law, part)
    return dict(sorted(law.items()))


def _convolve(h1: dict[int, int], h2: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for v1, c1 in h1.items():
        for v2, c2 in h2.items():
            key = v1 + v2
            out[key] = out.get(key, 0) + c1 * c2
    return out


# -- exact operations -------------------------------------------------------------

def exact_distribution(rs: RootSystem, psi, cap: int = DEFAULT_CAP) -> dict[int, int]:
    """Exact histogram of the Psi-statistic over the whole group.

    Counts sum to the group order.  :func:`_weighted_law` prices and counts it.
    """
    runs = rs.diagonal_runs(_canonical_ids(rs, psi))
    return _weighted_law(rs, {ci: (r, [1] * len(r)) for ci, r in runs.items()}, cap)


def exact_mean(rs: RootSystem, psi) -> Fraction:
    """Mean of the Psi-statistic: |Psi|/2 (each indicator is Bernoulli(1/2))."""
    return Fraction(len(_canonical_ids(rs, psi)), 2)


def exact_variance(rs: RootSystem, psi, cap: int = DEFAULT_CAP) -> Fraction:
    """Exact variance of the Psi-statistic, as a rational number."""
    return _moments(exact_distribution(rs, psi, cap=cap))[2]


def _moments(hist: dict[int, int]) -> tuple[int, Fraction, Fraction]:
    """Size, mean and population variance of a histogram, exactly."""
    n = sum(hist.values())
    mean = Fraction(sum(v * c for v, c in hist.items()), n)
    return n, mean, Fraction(sum(v * v * c for v, c in hist.items()), n) - mean**2


def wpartition_counts(
    rs: RootSystem, beta: Root, gamma: Root, cap: int = DEFAULT_CAP
) -> WPartitionCounts:
    """Sizes of the four sign classes for (beta, gamma), by direct enumeration.

    Only the component holding both roots is enumerated, so ``cap`` bounds
    its order; roots in different components need no enumeration.
    """
    rs.index(beta)
    rs.index(gamma)
    if beta.component == gamma.component:
        joint = exact_joint_distribution(rs, [beta], [gamma], cap)
        return WPartitionCounts(*(joint.get(key, 0) for key in ((0, 0), (0, 1), (1, 0), (1, 1))))
    # Orthogonal components: each root is negative for exactly half its group.
    quarter = group_order(rs) // 4
    return WPartitionCounts(quarter, quarter, quarter, quarter)


def exact_cov(rs: RootSystem, beta: Root, gamma: Root, cap: int = DEFAULT_CAP) -> Fraction:
    """Exact covariance of two root indicators, from the sign-class sizes."""
    c = wpartition_counts(rs, beta, gamma, cap=cap)
    return Fraction(c.mm, c.total) - Fraction(1, 4)


def exact_joint_distribution(
    rs: RootSystem, psi, psi2, cap: int = DEFAULT_CAP
) -> dict[tuple[int, int], int]:
    """Joint counts of the two indicator vectors over the group.

    Keys are bitmask pairs: bit ``k`` of the first mask is the indicator of
    the ``k``-th root of ``psi`` in canonical (catalog-sorted) order, and
    likewise for ``psi2``.  The pair is read off the value ``m1 << len(psi2) | m2``
    of one weighted indicator sum, so ascending values are ascending pairs.
    """
    ids1 = _canonical_ids(rs, psi)
    ids2 = _canonical_ids(rs, psi2)
    if len(ids1) + len(ids2) > JOINT_OUTCOME_GUARD:
        raise WeylstatError(
            f"joint outcome space too large: |psi|+|psi2| = {len(ids1) + len(ids2)} > {JOINT_OUTCOME_GUARD}"
        )
    shift = len(ids2)
    weight = {rid: 1 << k for k, rid in enumerate(ids2)}
    for k, rid in enumerate(ids1):
        weight[rid] = weight.get(rid, 0) + (1 << (shift + k))
    terms: dict[int, tuple[list, list]] = {}
    for rid, w in weight.items():  # one run of one root each
        for ci, (run,) in rs.diagonal_runs((rid,)).items():
            runs, weights = terms.setdefault(ci, ([], []))
            runs.append(run)
            weights.append(w)
    low = (1 << shift) - 1
    return {(v >> shift, v & low): c for v, c in _weighted_law(rs, terms, cap).items()}


# -- Monte Carlo --------------------------------------------------------------------

def _raw_words(rng: np.random.Generator, n: int) -> np.ndarray:
    """The next ``n`` 64-bit words of ``rng``'s raw bit stream, little-endian."""
    return rng.bit_generator.random_raw(n).astype("<u8", copy=False)


def _block_samples(width: int) -> int:
    """Rows per sampled block when the widest drawn component has ``width`` coordinates.

    A block holds about ``BLOCK_SAMPLES ** 2`` entries of that component and
    at least :data:`BLOCK_SAMPLES` rows, at most a chunk: a narrow component
    gets more rows, so each numpy call of the draw and the kernel does
    enough work to outweigh its fixed cost.
    """
    return min(CHUNK_SAMPLES, BLOCK_SAMPLES * max(1, BLOCK_SAMPLES // width))


def _key_bits(fam: str, dim: int, runs) -> int:
    """Bits per drawn key of one component, 16 or 32, from its family, dimension and runs.

    A 16-bit key draws half the raw words of a 32-bit one and halves the
    kernel's comparisons; that saves about one drawn entry's cost per key, so
    ``CHUNK_SAMPLES * dim`` per chunk.  Its price is ties: a compared pair
    ties with probability 2^-16 for type A and 2^-15 for B, C and D (one bit
    is the sign), so a chunk flags about ``ties`` rows.  Each flagged entry is
    refined at :data:`_REFINED_ENTRY_COST`, and a chunk with a flagged row
    recounts every run at :data:`_RECOUNT_RUN_COST` each.  16 bits are taken
    when that price is below the saving.  G2 draws no keys, so its width is unused.
    """
    pairs = sum(hi - lo + 1 for form, _, lo, hi in runs if form != "O")
    ties = CHUNK_SAMPLES * pairs / (1 << (16 if fam == "A" else 15))
    price = min(1.0, ties) * len(runs) * _RECOUNT_RUN_COST + ties * dim * _REFINED_ENTRY_COST
    return 16 if price < CHUNK_SAMPLES * dim else 32


def _draw_rows(
    rng: np.random.Generator, fam: str, rank: int, m: int, ws: _Workspace | None = None, bits: int = 32
) -> np.ndarray:
    """(m, dim) uniform random orbit points of one component, as signed keys.

    Row entries are i.i.d. signed keys rather than a signed permutation of
    ``1..dim``; every root test compares entries or reads a sign, so the
    statistic has the law of the signed permutation with the keys' order,
    once :func:`_refined_counts` breaks the ties that a test compares.

    Each key is one ``bits``-wide word of the raw stream (16 or 32, from
    :func:`_key_bits`); the 64-bit raw words split into ``64 // bits``
    little-endian words, lowest first.  Entry ``(r, i)`` is word ``i * m + r``,
    so the block is the ``.T`` view of a C-contiguous ``(dim, m)`` array and
    :func:`_count_rows` reads contiguous coordinate slices.  Type A keys are
    the 16-bit words as uint16, or the 32-bit words ``>> 1`` as int32.  Types
    B, C and D read ``word | 1`` as a signed integer of the width: odd, so
    never zero, and symmetric about 0, so the top bit is a fair sign
    independent of the magnitude.  Type D then negates the last entry of each
    row with an odd number of negative entries, so that it is the product of
    the others (``rootsys._sign_vectors``).  The raw words are drawn in pieces
    of at most :data:`RAW_PIECE_WORDS` and written into the ``keys`` buffer of
    ``ws`` (or of a throwaway workspace), where the block lies.  G2 gathers
    one uniform row of :data:`_G2_ROWS` per sample, also coordinate-major,
    whatever ``bits`` says.
    """
    if fam == "G2":
        rows = _g2_rows()
        return rows.T.take(rng.integers(0, len(rows), size=m), axis=1).T
    dim = rootsys._dimension(fam, rank)
    word = np.dtype(f"<u{bits // 8}")
    per_raw = 64 // bits
    n_raw = -(-dim * m // per_raw)
    keys = (_Workspace() if ws is None else ws).take("keys", (per_raw * n_raw,), word)
    for lo in range(0, n_raw, RAW_PIECE_WORDS):
        hi = min(lo + RAW_PIECE_WORDS, n_raw)
        words, out = _raw_words(rng, hi - lo).view(word), keys[per_raw * lo : per_raw * hi]
        if fam != "A":
            np.bitwise_or(words, 1, out=out)
        elif bits == 32:
            np.right_shift(words, 1, out=out)
        else:
            out[:] = words
    rows = keys[: dim * m].reshape(dim, m)
    if fam != "A" or bits == 32:
        rows = rows.view(f"<i{bits // 8}")
    if fam == "D":  # an even number of negative entries
        odd = np.bitwise_xor.reduce(rows, axis=0) < 0  # the parity of the sign bits
        np.negative(rows[-1], out=rows[-1], where=odd)
    return rows.T


def _refined_keys(rng: np.random.Generator, rows: np.ndarray, width: int) -> np.ndarray:
    """Int64 keys ``sign * (|key| << (63 - width) | fresh)``, for magnitudes below ``2^width``.

    ``fresh`` is the top ``63 - width`` bits of one raw word of ``rng`` per
    entry; entry ``(r, i)`` takes word ``i * k + r`` of the ``k * dim``
    words, coordinate-major as :func:`_draw_rows` fills a block.  Every
    strict comparison of ``rows`` and every sign is kept, and an equal pair
    is ordered by its fresh bits, compared lexicographically after the old
    key (Knuth and Yao's lazy bits): the refined keys have the law of keys
    drawn ``63 - width`` bits finer.

    The keys are built in place in one coordinate-major int64 array, as
    ``(key << (63 - width)) + sign * fresh``, the same integers with no
    branch on the sign: a negation masked by random signs cost about 8 ns an
    entry.  Besides the array, only the raw words and their signs are
    allocated, in pieces of at most :data:`RAW_PIECE_WORDS`.
    """
    keys = rows.astype(np.int64, order="F")
    keys <<= 63 - width
    flat = keys.T.reshape(-1)  # a view: keys is coordinate-major
    for lo in range(0, flat.size, RAW_PIECE_WORDS):
        part = flat[lo : lo + RAW_PIECE_WORDS]
        fresh = _raw_words(rng, len(part))
        fresh >>= width + 1
        fresh = fresh.view(np.int64)
        sign = part >> 63  # -1 where the key is negative, else 0
        fresh ^= sign
        fresh -= sign  # -fresh where the key is negative
        part += fresh
    return keys


def _refined_counts(rng: np.random.Generator, rows: np.ndarray, runs, ws: _Workspace) -> np.ndarray:
    """Values of flagged ``rows`` once no pair that a root of ``runs`` compares ties.

    Every key is extended with fresh bits (:func:`_refined_keys`, at the
    width of the drawn keys' dtype) and the rows are counted again with tie
    flags on.  The rows where a compared pair still ties are extended again,
    until none does: their magnitudes are first replaced by dense ranks from
    1 (an order-preserving map, so the comparisons, ties and signs stay),
    which frees the low bits.  Extending keys whose every comparison is
    decided changes no value, so each row's value is that of continuous keys,
    and the sampled law stays exact.  With 47 or 31 fresh bits a second round
    comes with probability about 2^-47 or 2^-31 per compared pair.
    """
    vals = np.empty(len(rows), dtype=np.int64)
    todo = np.arange(len(rows))
    keys, width = rows, 8 * rows.dtype.itemsize
    while True:
        keys = _refined_keys(rng, keys, width)
        tied = np.zeros(len(keys), dtype=bool)
        vals[todo] = _count_rows(keys, runs, ws, tied=tied)
        if not tied.any():
            return vals
        todo, keys = todo[tied], keys[tied]
        _, ranks = np.unique(np.abs(keys), return_inverse=True)
        ranks = ranks.reshape(keys.shape) + 1
        keys = np.where(keys < 0, -ranks, ranks)
        width = int(ranks.max()).bit_length()


def mc_run(
    rs: RootSystem,
    psi,
    n_samples: int,
    seed: int,
    threads: int = 1,
    descriptor: dict | None = None,
    keep_values: bool = True,
) -> SampleRun:
    """Seeded Monte Carlo estimates of the Psi-statistic.

    Draw ``i`` of chunk ``c`` is independent of every other draw; the stream
    of chunk ``c`` is ``numpy.random.Generator(numpy.random.SFC64(derived_seed(seed, c)))``,
    read in a fixed order: its blocks (:func:`_draw_rows`), then the fresh
    words of each component's refinement (:func:`_refined_counts`).
    Each chunk counts in int64 and adds its histogram to the run's
    ``counts``, int64 and trimmed after its largest nonzero count.  With
    ``keep_values`` (``sample`` keeps them where its format writes them;
    ``clt`` reads the histogram alone) it also writes its values into its
    slice of one array, of the smallest dtype that holds the number of roots
    of Psi (``_value_dtype``); without, ``samples`` is None.
    With ``w = min(threads, chunks)`` workers, worker ``t`` runs chunks
    ``t, t + w, t + 2w, ...`` in one workspace of its own; one worker runs on
    the calling thread, so a one-chunk run starts no pool.  The histogram is
    shared under a lock, not kept per worker: Psi of about 380,000 roots at
    64 chunks would hold 195 MB of histograms on 64 workers, against 3 MB.
    A run whose price, ``n_samples`` times the roots of Psi plus the
    coordinates of each drawn component, exceeds
    :data:`_MAX_SAMPLED_ENTRIES` is refused before anything is drawn.
    """
    if n_samples < 1 or threads < 1:
        raise WeylstatError(f"n_samples and threads must be positive, got {n_samples} and {threads}")
    ids = _canonical_ids(rs, psi)
    # Only components holding a root of Psi are drawn: the others add nothing.
    parts = []
    for ci, runs in rs.diagonal_runs(ids).items():
        comp = rs.spec.components[ci]
        parts.append((comp, runs, _key_bits(comp.family, comp.dimension, runs)))
    price = n_samples * (len(ids) + sum(comp.dimension for comp, _, _ in parts))
    if price > _MAX_SAMPLED_ENTRIES:
        what = "sampling cost (samples x (entries compared + keys drawn))"
        raise TooLargeError(price, _MAX_SAMPLED_ENTRIES, what=what, limit="sampling limit")
    block = _block_samples(max((comp.dimension for comp, _, _ in parts), default=1))
    n_chunks = (n_samples + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES
    values = np.empty(n_samples, dtype=_value_dtype(len(ids))) if keep_values else None
    counts = np.zeros(len(ids) + 1, dtype=np.int64)
    counts_lock = threading.Lock()

    def run_chunk(c: int, ws: _Workspace) -> None:
        m = min(CHUNK_SAMPLES, n_samples - c * CHUNK_SAMPLES)
        rng = np.random.Generator(np.random.SFC64(derived_seed(seed, c)))
        vals = np.zeros(m, dtype=np.int64)
        flagged: list[list] = [[] for _ in parts]
        # Blocks drawn in a fixed order from the chunk's stream.
        for lo in range(0, m, block):
            hi = min(lo + block, m)
            for (comp, runs, bits), found in zip(parts, flagged):
                rows = _draw_rows(rng, comp.family, comp.rank, hi - lo, ws, bits)
                tied = ws.take("tied", (hi - lo,), bool)
                tied[:] = False
                count = _count_rows(rows, runs, ws, tied=tied)
                vals[lo:hi] += count
                bad = np.flatnonzero(tied)
                if len(bad):  # a root compared two equal keys
                    found.append((lo + bad, rows[bad], count[bad]))
        # Recount the flagged rows of each component once per chunk, from keys
        # extended with the next raw words of the chunk's stream.
        for (_, runs, _), found in zip(parts, flagged):
            if found:
                idx, rows, old = (np.concatenate(x) for x in zip(*found))
                vals[idx] += _refined_counts(rng, rows, runs, ws) - old
        if values is not None:
            values[c * CHUNK_SAMPLES : c * CHUNK_SAMPLES + m] = vals
        chunk_counts = np.bincount(vals)  # int64 already, so not cast to a copy
        with counts_lock:
            counts[: len(chunk_counts)] += chunk_counts

    w = min(threads, n_chunks)

    def worker(t: int) -> None:
        ws = _Workspace()
        for c in range(t, n_chunks, w):
            run_chunk(c, ws)  # a call: one chunk's temporaries are freed before the next's

    if w == 1:
        worker(0)
    else:
        global ThreadPoolExecutor
        if ThreadPoolExecutor is None:
            from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=w) as pool:
            list(pool.map(worker, range(w)))
    counts = counts[: np.flatnonzero(counts)[-1] + 1]
    # Moments from the histogram in Python ints: exact, with no int64 overflow.
    n, mean, variance = _moments(dict(enumerate(counts.tolist())))
    variance = Fraction(0) if n == 1 else variance * n / (n - 1)  # the sample variance
    if descriptor is None:
        descriptor = {"psi": [rs.render_root(rs.root(k)) for k in ids]}
    run = SampleRun(
        spec=str(rs.spec),
        descriptor=descriptor,
        seed=seed,
        n_samples=n_samples,
        samples=values,
        sample_mean=mean,
        sample_variance=variance,
    )
    run.counts = counts  # fills the cached property, so nothing recounts
    return run


def bootstrap_variance_se(run: SampleRun, resamples: int = BOOTSTRAP_RESAMPLES) -> float:
    """Bootstrap standard error of the sample variance (seed-derived stream).

    ``resamples`` must be at least 2: the error is the spread (``ddof=1``) of
    the resampled variances.  Resampling ``n`` values with replacement gives
    each distinct value a multinomial count, so each resample is drawn as
    ``multinomial(n, counts / n)`` over the run's atoms (the same law, at
    O(atoms) per resample instead of O(n)).  Its variance is evaluated in
    floats on the atoms centred at the sample mean, which keeps the sums of
    squares far from overflow and cancellation.
    """
    if resamples < 2:
        raise WeylstatError(f"resamples must be at least 2, got {resamples}")
    n = run.n_samples
    if n == 1:  # mc_run defines the sample variance of one sample as 0, so it does not vary
        return 0.0
    rng = np.random.default_rng(derived_seed(run.seed, "bootstrap"))
    counts = run.counts
    atoms = np.flatnonzero(counts)
    draws = rng.multinomial(n, counts[atoms] / n, size=resamples)
    centred = atoms - float(run.sample_mean)
    variances = (draws @ centred**2 - (draws @ centred) ** 2 / n) / (n - 1)
    return float(variances.std(ddof=1))


# -- serialization --------------------------------------------------------------------

def histogram_json(rs: RootSystem, psi, hist: dict[int, int]) -> dict:
    ids = _canonical_ids(rs, psi)
    n, mean, variance = _moments(hist)
    return {
        "spec": str(rs.spec),
        "psi": [rs.render_root(rs.root(k)) for k in ids],
        "n": n,
        "counts": [[v, c] for v, c in sorted(hist.items())],
        "moments": {"mean": str(mean), "variance": str(variance)},
    }


def histogram_csv_rows(hist: dict[int, int]):
    yield ("value", "count")
    for v, c in sorted(hist.items()):
        yield (v, c)
