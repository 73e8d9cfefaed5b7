"""repro - a Python reproduction of the AI-enhanced GRIST global
storm-resolving model (PPoPP 2025).

Subpackages
-----------
grid        icosahedral hexagonal C-grid meshes (Table 2's G-levels)
partition   multilevel k-way partitioner + domain decomposition
comm        simulated MPI, aggregated halo exchange, fat-tree model
dycore      hydrostatic SSP-RK3 dynamical core, compiled stencil plans,
            tracer transport (plus a test-only nonhydrostatic w-phi solve)
physics     conventional parameterisation suite (+ ice microphysics)
ml          NumPy NN framework, Q1/Q2 CNN, radiation MLP, ML physics suite
precision   the ``ns`` mixed-precision policy and 5% acceptance harness
sunway      SW26010P simulator: LDCache, allocator, DMA, SWGOMP runtime
perf        34M-core performance model (Figs. 10-11), trace reconciliation
model       Table 2/3 configs, coupling interface, GristModel, I/O
parallel    distributed-memory execution (bitwise-equal to serial)
ensemble    registered scenarios, model assembly, ensemble runner
serve       forecast service: scheduler, warm-model pool, result cache
resilience  fault injection, recovery ladder, chaos harness
obs         spans, metrics and Chrome-trace export
analysis    swlint (SW rules) and the RD race & determinism analyzer
experiments Doksuri typhoon, climate comparisons, ML training workflow

Entry points: ``python -m repro --help`` and the ``examples/`` scripts.
"""

__version__ = "1.0.0"
