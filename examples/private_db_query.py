"""Private database query — the intro's cloud-offload scenario.

A server holds a plaintext table (id -> salary).  The client wants one
record without revealing *which*: it encrypts the lookup key, the
server evaluates a filtered-aggregation circuit over the ciphertext,
and only the client can decrypt the answer.  The server learns nothing
about the queried id (FHE hides it information-theoretically in the
ciphertext; the circuit touches every row, so access patterns leak
nothing either — data obliviousness, Section IV-B).

Run:  python examples/private_db_query.py
"""

import time

import numpy as np

from repro.chiseltorch.dtypes import UInt
from repro.chiseltorch.tensor import HTensor
from repro.core import Client, TensorSpec, compile_function
from repro.runtime import CpuBackend
from repro.tfhe import TFHE_TEST

# The server's (public, plaintext) table.
EMPLOYEE_IDS = [3, 7, 9, 12, 14, 20, 23, 31]
SALARIES = [52, 61, 48, 75, 69, 91, 57, 83]  # in k$


def build_query_circuit():
    """Enc(key) -> Enc(salary of the matching id), 0 if absent."""

    def query(key: HTensor):
        ops_val = None
        bd = key.builder
        from repro.chiseltorch.lowering import Lowering

        value_type = UInt(8)
        ops_val = Lowering(bd, value_type)
        ops_key = key.ops
        result = ops_val.const(0)
        for emp_id, salary in zip(EMPLOYEE_IDS, SALARIES):
            match = ops_key.equal(key.element(), ops_key.const(emp_id))
            result = ops_val.select(
                match, ops_val.const(salary), result
            )
        return HTensor.from_bits(bd, value_type, [result], shape=())

    return compile_function(
        query, [TensorSpec("key", (), UInt(6))], name="private_query"
    )


def main():
    compiled = build_query_circuit()
    stats = compiled.netlist.stats()
    print(
        f"query circuit: {stats.num_gates} gates "
        f"({stats.num_bootstrapped_gates} bootstrapped, "
        f"depth {stats.bootstrap_depth})"
    )
    print(f"server-side table: ids {EMPLOYEE_IDS}")

    client = Client(TFHE_TEST, seed=9)
    backend = CpuBackend(client.cloud_key)

    for key in (12, 23, 5):
        ct = client.encrypt(compiled, np.asarray(float(key)))
        start = time.perf_counter()
        out_ct, _ = backend.run(compiled.netlist, ct)
        elapsed = time.perf_counter() - start
        salary = client.decrypt(compiled, out_ct)[0]
        label = f"{int(salary)}k$" if salary else "(no such id)"
        print(
            f"  query id={key:2d} -> {label:14s} "
            f"[{elapsed:.1f}s; the server never saw the id]"
        )


if __name__ == "__main__":
    main()
