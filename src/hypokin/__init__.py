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
"""

__version__ = "0.1.0"
