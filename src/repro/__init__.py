"""repro - a Python reproduction of the AI-enhanced GRIST global
storm-resolving model (PPoPP 2025).

Subpackages
-----------
grid        icosahedral hexagonal C-grid meshes (Table 2's G-levels)
partition   multilevel k-way partitioner + domain decomposition
comm        simulated MPI, aggregated halo exchange, fat-tree model
dycore      nonhydrostatic HEVI dynamical core + diagnostics
physics     conventional parameterisation suite (+ ice microphysics)
ml          NumPy NN framework, Q1/Q2 CNN, radiation MLP, ensembles
precision   the ``ns`` mixed-precision policy and 5% acceptance harness
sunway      SW26010P simulator: LDCache, allocator, SWGOMP, directives
perf        34M-core performance model (Figs. 10-11)
model       Table 2/3 configs, coupling interface, GristModel, I/O
parallel    distributed-memory execution (bitwise-equal to serial)
experiments Doksuri typhoon, climate comparisons, ML training workflow

Entry points: ``python -m repro --help`` and the ``examples/`` scripts.
"""

__version__ = "1.0.0"
