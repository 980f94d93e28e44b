"""Distributed data layouts and distributed dense kernels.

Implements the paper's data decomposition (Sec. 2.2 / 3.1):

* ``H`` lives on the 2D grid in block fashion, local block
  ``n_r x n_c`` per rank;
* ``C``/``C2`` (``n_r x ne``) are row-distributed **within each column
  communicator** and replicated across columns;
* ``B``/``B2`` (``n_c x ne``) are row-distributed **within each row
  communicator** and replicated across rows;
* the custom distributed HEMM exploits ``H = H^H`` to alternate between
  the two layouts without any re-distribution of the vectors.
"""

from repro.distributed.block import BlockMap1D
from repro.distributed.hermitian import DistributedHermitian
from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.distributed.hemm import DistributedHemm
from repro.distributed.redistribute import redistribute_c_to_b, redistribute_b_to_c

__all__ = [
    "BlockMap1D",
    "DistributedHermitian",
    "DistributedMultiVector",
    "Operand",
    "DistributedHemm",
    "redistribute_c_to_b",
    "redistribute_b_to_c",
]
