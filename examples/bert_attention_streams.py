#!/usr/bin/env python
"""Program-level parallelism: a transformer attention block on streams.

The BERT workload's attention section exposes six independent ciphertexts
(Section 7.1).  This example writes a miniature attention block in the
Cinnamon DSL with a ``StreamPool``, compiles it for Cinnamon-4/8/12, and
cycle-simulates each — showing how stream parallelism buys speedup that a
single-ciphertext program cannot.

Run:  python examples/bert_attention_streams.py
"""

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.core.dsl import StreamPool
from repro.core.ir.bootstrap_graph import bsgs_matmul_ops
from repro.fhe import ArchParams
from repro.sim import CINNAMON_4, CINNAMON_8, CINNAMON_12, SimulatorEngine
from repro.sim.config import config_for


def attention_program(num_streams: int) -> CinnamonProgram:
    """Per stream: scores = softmax-ish((Q x) * (K x)), out = scores @ V."""
    prog = CinnamonProgram(f"attention-x{num_streams}", level=14)

    def stream_fn(stream_id: int):
        x = prog.input(f"x{stream_id}")
        q = bsgs_matmul_ops(prog, x, 16, f"wq{stream_id % 2}")
        k = bsgs_matmul_ops(prog, x, 16, f"wk{stream_id % 2}")
        scores = q * k
        # Cheap polynomial softmax surrogate: s + s^2 (keeps the example
        # shallow; the real workload uses the degree-31 approximation).
        soft = scores + scores * scores
        out = bsgs_matmul_ops(prog, soft, 16, f"wv{stream_id % 2}")
        prog.output(f"y{stream_id}", out)

    StreamPool(prog, num_streams, stream_fn)
    return prog


def main():
    params = ArchParams(max_level=14)
    machines = {
        "Cinnamon-4 (1 stream x 4 chips)": (CINNAMON_4, 1, 4),
        "Cinnamon-8 (2 streams x 4 chips)": (CINNAMON_8, 2, 4),
        "Cinnamon-12 (3 streams x 4 chips)": (CINNAMON_12, 3, 4),
    }
    reference_us = None
    for label, (machine, streams, chips_per_stream) in machines.items():
        program = attention_program(streams)
        options = CompilerOptions(num_chips=machine.num_chips,
                                  chips_per_stream=chips_per_stream)
        compiled = CompilerDriver(params, options).compile(program)
        result = SimulatorEngine(machine).run(compiled.isa)
        per_head_us = result.seconds * 1e6 / streams
        if reference_us is None:
            reference_us = per_head_us
        print(f"{label:36s} {result.cycles:>9d} cycles | "
              f"{per_head_us:8.1f} us per head | "
              f"throughput speedup {reference_us / per_head_us:4.2f}x")


if __name__ == "__main__":
    main()
