"""The five Swarm-suite benchmarks the paper did **not** port to Fractal
(Sec. 6.4): bfs, sssp, astar, des, and nocsim.

"We did not find opportunities to exploit nested parallelism in the five
Swarm benchmarks not presented here ... These benchmarks already use
fine-grain tasks and scale well to 256 cores." — reproducing that claim
requires the benchmarks themselves: each is a timestamp-ordered fine-grain
task program (variant ``"swarm"``), checked against a serial oracle, and
`benchmarks/bench_swarm_suite.py` verifies they scale without any nesting.

Each module loads on first use.
"""

from ..._lazy import lazy_exports

__all__ = ["astar", "bfs", "des", "nocsim", "sssp"]

__getattr__, __dir__ = lazy_exports(globals(), {}, submodules=__all__)
