"""Anisotropic Besov analysis and singular kinetic Fokker-Planck machinery.

Subpackage map:

- anisotropy: chain block structure, anisotropic norm/dilations, Hormander check
- fields:     periodic grids, sampled fields, .gfd I/O
- spectral:   Littlewood-Paley shells, Besov norms, products, mollification
- semigroup:  Gaussian semigroups P_t / P'_t, the one mild march of both solvers, probes
- fpsolver:   nonlinear Fokker-Planck solver (Picard fixed point of the mild map on u)
- kolmogorov: backward Kolmogorov solver (one causal march) and the Zvonkin transform
- mckean:     particle simulation, density estimation, martingale statistics
- cli:        scenario runner

Importing the package sets the C allocator's policy once: glibc's
M_MMAP_THRESHOLD to 32 MiB and M_TRIM_THRESHOLD to 64 MiB, through
`mallopt`.  The solvers free and reallocate grid-sized arrays at every
mesh step; under glibc's default, tuned threshold those pages go back to
the kernel and are faulted in again by the next step.  Setting one
threshold turns the tuning off, so both are set.  Where there is no
`mallopt` (not glibc) nothing is done.
"""

import ctypes

__version__ = "0.1.0"


def _keep_freed_pages():
    """Set both thresholds; True if `mallopt` exists and took them."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    trim_threshold, mmap_threshold = -1, -3         # glibc's <malloc.h>
    return bool(mallopt(mmap_threshold, 32 << 20)
                and mallopt(trim_threshold, 64 << 20))


ALLOCATOR_POLICY = _keep_freed_pages()
