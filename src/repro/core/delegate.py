"""Delegate-vector construction (Sections 4.1, 4.3, 5.1 and 5.3).

Given a :class:`~repro.core.subrange.SubrangePartition` of the key vector, the
delegate vector holds, for every subrange, its top ``beta`` keys together with
the subrange id they came from (the (key, value) pair format the first top-k
requires, Section 5.1).  ``beta = 1`` is the paper's *maximum delegate*;
``beta >= 2`` is the *β delegate* extension.

The construction also models its GPU cost under the two kernel organisations
the paper describes:

* warp-centric (Section 5.1): near-peak bandwidth for large subranges, but
  lane under-utilisation and ``~31·β`` shuffles per subrange when subranges
  are small, and
* coalesced-load-to-shared-memory / strided-compute (Section 5.3): full lane
  utilisation with no shuffles, at the cost of staging traffic through shared
  memory — the optimisation that cuts construction from 31.4 ms to ~9.5 ms at
  ``k = 2^24``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.algorithms.base import ExecutionTrace
from repro.core.config import ConstructionStrategy
from repro.core.subrange import SubrangePartition
from repro.errors import ConfigurationError
from repro.gpusim.warp import WarpModel

__all__ = ["DelegateVector", "build_delegate_vector", "resolve_strategy"]

#: Subrange-size exponent at or below which the paper switches to the
#: coalesced/strided construction kernel ("this small subrange size problem
#: (alpha <= 5)", Section 5.3).
COALESCED_ALPHA_THRESHOLD = 5

#: Keys per block of the β <= 2 construction's two ``argmax`` passes: small
#: enough that the masked copy of a block stays in cache.
_BLOCK_ELEMENTS = 1 << 16


@dataclass
class DelegateVector:
    """The delegate vector: per-subrange top-β keys plus provenance.

    Attributes
    ----------
    keys:
        ``(num_subranges, beta)`` array of delegate keys, column 0 holding the
        subrange maximum, column 1 the second largest, and so on.  For
        ``beta <= 2`` ties go to the lowest position in the subrange (column 0
        is the first maximum, column 1 the first maximum of the rest); for
        larger ``beta`` which of several tied keys is taken is unspecified,
        but a real element always wins over padding.  Subranges with fewer
        than ``beta`` real elements fill the unused columns with padding: key
        0 (the pad value), marked invalid in :attr:`valid`.
    indices:
        Global element positions of each delegate (same shape as :attr:`keys`);
        unused columns hold ``n - 1``.
    valid:
        Boolean mask of delegates that correspond to real (non-padded) input
        elements.
    partition:
        The subrange partition the delegates were extracted from.
    beta:
        Number of delegates per subrange.
    strategy:
        The construction strategy that was (simulated to be) used.

    The flat views (:meth:`flat_keys`, :meth:`flat_indices`,
    :meth:`flat_subrange_ids`) are memoised: a delegate vector is immutable
    once built and every :meth:`~repro.core.drtopk.DrTopK.topk_prepared` call
    needs all three, so the boolean-mask gathers run once per construction
    rather than once per query.  Callers must treat the returned arrays as
    read-only.
    """

    keys: np.ndarray
    indices: np.ndarray
    valid: np.ndarray
    partition: SubrangePartition
    beta: int
    strategy: ConstructionStrategy
    _flat_keys: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _flat_indices: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _flat_subrange_ids: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def num_subranges(self) -> int:
        return self.partition.num_subranges

    @property
    def size(self) -> int:
        """Number of *valid* delegate entries (the first top-k workload)."""
        return int(np.count_nonzero(self.valid))

    def flat_keys(self) -> np.ndarray:
        """Valid delegate keys as a flat vector (first top-k input)."""
        if self._flat_keys is None:
            self._flat_keys = self.keys[self.valid]
        return self._flat_keys

    def flat_indices(self) -> np.ndarray:
        """Global positions of the valid delegates, aligned with :meth:`flat_keys`."""
        if self._flat_indices is None:
            self._flat_indices = self.indices[self.valid]
        return self._flat_indices

    def flat_subrange_ids(self) -> np.ndarray:
        """Subrange id of each valid delegate, aligned with :meth:`flat_keys`."""
        if self._flat_subrange_ids is None:
            ids = np.repeat(
                np.arange(self.num_subranges, dtype=np.int64)[:, None], self.beta, axis=1
            )
            self._flat_subrange_ids = ids[self.valid]
        return self._flat_subrange_ids

    def nbytes(self) -> int:
        """Approximate resident bytes of the delegate arrays and memoised views."""
        total = self.keys.nbytes + self.indices.nbytes + self.valid.nbytes
        for view in (self._flat_keys, self._flat_indices, self._flat_subrange_ids):
            if view is not None:
                total += view.nbytes
        return int(total)

    def maxima(self) -> np.ndarray:
        """Maximum key of every subrange (column 0)."""
        return self.keys[:, 0]

    def beta_th(self) -> np.ndarray:
        """The β-th (smallest retained) *valid* delegate key of every subrange.

        For subranges with fewer than ``beta`` real elements this is their
        smallest real key, which makes the Rule-3 test conservative (such a
        subrange is "fully taken" only when every real element qualifies, in
        which case scanning it adds nothing anyway).
        """
        masked = np.where(self.valid, self.keys, self.keys[:, :1])
        return masked.min(axis=1)


def resolve_strategy(strategy: ConstructionStrategy, alpha: int) -> ConstructionStrategy:
    """Resolve ``AUTO`` to a concrete kernel organisation for a given alpha."""
    if strategy is ConstructionStrategy.AUTO:
        if alpha <= COALESCED_ALPHA_THRESHOLD:
            return ConstructionStrategy.COALESCED_STRIDED
        return ConstructionStrategy.WARP_CENTRIC
    return strategy


def build_delegate_vector(
    keys: np.ndarray,
    partition: SubrangePartition,
    beta: int = 1,
    strategy: ConstructionStrategy = ConstructionStrategy.AUTO,
    trace: Optional[ExecutionTrace] = None,
    padded_view: Optional[np.ndarray] = None,
) -> DelegateVector:
    """Extract the top-``beta`` delegates of every subrange.

    ``beta <= 2`` (the default configuration uses 2) runs in linear time:
    one blocked ``argmax`` for column 0 and one over a masked copy of each
    block for column 1 (see :func:`_top2_lowest_index`), with ties going to
    the lowest index.  Larger ``beta`` keeps a per-row ``argpartition`` plus
    a sort of the ``beta`` slots.  The keys are each subrange's top ``beta``
    in descending order either way; see :class:`DelegateVector` for the tie
    rule and for what unused columns hold.

    Parameters
    ----------
    keys:
        Unsigned key vector (larger key = preferred element).
    partition:
        Subrange partition of ``keys``.
    beta:
        Delegates per subrange.
    strategy:
        Kernel organisation used for the simulated-GPU traffic accounting
        (the numerical result is identical for all strategies).
    trace:
        Optional execution trace receiving the construction's kernel step.
    padded_view:
        Optional precomputed ``partition.reshape_padded(keys, 0)`` result, so
        callers that keep the padded 2-D view around (query plans) avoid
        re-materialising the O(n) padded copy here.
    """
    if beta < 1:
        raise ConfigurationError("beta must be >= 1")
    if beta > partition.subrange_size:
        raise ConfigurationError(
            f"beta={beta} exceeds the subrange size {partition.subrange_size}"
        )
    keys = np.asarray(keys)
    if keys.shape[0] != partition.n:
        raise ConfigurationError("keys length does not match the partition")

    resolved = resolve_strategy(strategy, partition.alpha)
    if padded_view is not None:
        view = padded_view
        if view.shape != (partition.num_subranges, partition.subrange_size):
            raise ConfigurationError(
                f"padded_view shape {view.shape} does not match the partition"
            )
    else:
        view = partition.reshape_padded(keys, pad_value=keys.dtype.type(0))
    num_subranges, subrange_size = view.shape

    if beta <= 2:
        local, delegate_keys = _top2_lowest_index(view, beta)
    else:
        # Top-beta per row: partial selection then an exact sort of the beta slots.
        part = np.argpartition(view, subrange_size - beta, axis=1)[:, -beta:]
        part_vals = np.take_along_axis(view, part, axis=1)
        order = np.argsort(part_vals, axis=1)[:, ::-1]
        local = np.take_along_axis(part, order, axis=1)
        if partition.pad:
            # Padded slots share the pad value with real zero keys, so the
            # tie-arbitrary selection above may pick padding in the final
            # subrange and silently lose real delegates.  Re-select that one
            # row within its real prefix; leftover columns point at padding
            # and are marked invalid below.
            real = partition.last_subrange_size
            row = view[-1, :real]
            bb = min(beta, real)
            if bb < real:
                top = np.argpartition(row, real - bb)[-bb:]
            else:
                top = np.arange(real)
            chosen = top[np.argsort(row[top], kind="stable")[::-1]]
            local[-1] = np.concatenate([chosen, np.arange(real, real + beta - bb)])
        delegate_keys = np.take_along_axis(view, local, axis=1)
    global_idx = local + (np.arange(num_subranges, dtype=np.int64)[:, None] << partition.alpha)

    # Delegates pointing at padded slots are invalid.
    valid = global_idx < partition.n
    global_idx = np.minimum(global_idx, partition.n - 1)

    if trace is not None:
        _record_construction(trace, partition, beta, resolved)

    return DelegateVector(
        keys=delegate_keys,
        indices=global_idx.astype(np.int64),
        valid=valid,
        partition=partition,
        beta=beta,
        strategy=resolved,
    )


def _top2_lowest_index(view: np.ndarray, beta: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-``beta`` (``beta <= 2``) of ``view`` in linear time.

    Column 0 is the row's ``argmax``; column 1 is the ``argmax`` of a copy of
    the row whose column-0 slot is masked to 0.  Both passes run over blocks
    of about :data:`_BLOCK_ELEMENTS` keys so the masked copy reuses one small
    buffer that stays in cache.  ``argmax`` returns the first maximum, so
    ties go to the lowest index and padding (0 at the end of the final row)
    loses every tie to a real zero.  On a row whose keys other than column
    0's are all 0, the masked pass can return the masked slot itself — only
    when that slot is index 0 — and the delegate moves to index 1, the lowest
    other index.  Returns ``(local_indices, keys)``, both ``(rows, beta)``.
    """
    rows, width = view.shape
    local = np.empty((rows, beta), dtype=np.int64)
    out = np.empty((rows, beta), dtype=view.dtype)
    step = max(1, _BLOCK_ELEMENTS // width)
    buf = np.empty((min(step, rows), width), dtype=view.dtype) if beta == 2 else None
    ar = np.arange(min(step, rows))
    for start in range(0, rows, step):
        block = view[start : start + step]
        m = block.shape[0]
        r = ar[:m]
        first = np.argmax(block, axis=1)
        local[start : start + m, 0] = first
        out[start : start + m, 0] = block[r, first]
        if buf is not None:
            masked = buf[:m]
            np.copyto(masked, block)
            masked[r, first] = 0
            second = np.argmax(masked, axis=1)
            second[second == first] = 1
            local[start : start + m, 1] = second
            out[start : start + m, 1] = block[r, second]
    return local, out


def _record_construction(
    trace: ExecutionTrace,
    partition: SubrangePartition,
    beta: int,
    strategy: ConstructionStrategy,
) -> None:
    """Charge the simulated GPU traffic of the construction kernel."""
    n = partition.n
    num_subranges = partition.num_subranges
    subrange_size = partition.subrange_size
    stores = float(num_subranges * beta * 2)  # (key, subrange id) pairs
    warp = WarpModel()
    if strategy is ConstructionStrategy.WARP_CENTRIC:
        trace.add(
            "delegate_construction",
            loads=float(n),
            stores=stores,
            shuffles=float(num_subranges * warp.reduction_shuffles(subrange_size, beta)),
            utilization=warp.utilization_for_subrange(subrange_size),
            kernels=1,
        )
    else:
        # Coalesced stage-in plus per-lane strided reduction in shared memory.
        trace.add(
            "delegate_construction",
            loads=float(n),
            stores=stores,
            shared_loads=float(n) * beta,
            shared_stores=float(n),
            utilization=1.0,
            kernels=1,
        )
