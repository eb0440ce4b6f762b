"""E7 -- network name service: registration/lookup cost of the
centralized design.

Section 5: "Currently ... the network name service is centralized and
all sites know its location in advance.  This will change ... into a
distributed network name service."  Only the centralized service is
reproduced (the distributed one is parked in ROADMAP.md).

We measure: lookup cost as the IdTable grows (hash-table flat) and the
export/import path through a whole site program.
"""

import pytest

from repro.runtime import DiTyCONetwork, NameService

TABLE_SIZES = (10, 100, 1000, 10_000)


def populated(size: int) -> NameService:
    ns = NameService()
    ns.register_site("server", "10.0.0.1")
    for i in range(size):
        ns.export_name("server", f"id{i}", i + 1)
    return ns


class TestShape:
    def test_lookup_flat_in_table_size(self):
        import time

        def lookup_time(size):
            ns = populated(size)
            n = 3000
            t0 = time.perf_counter()
            for i in range(n):
                ns.lookup_name("server", f"id{i % size}")
            return (time.perf_counter() - t0) / n

        t_small = min(lookup_time(10) for _ in range(3))
        t_large = min(lookup_time(10_000) for _ in range(3))
        assert t_large < t_small * 3  # hash table: no linear scan

    def test_import_resolution_counts(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server", "export new svc svc?(w) = print![w]")
        net.launch("n2", "client", "import svc from server in svc![1]")
        net.run()
        ns = net.nameservice
        assert ns.stats.name_registrations == 1
        assert ns.stats.lookups >= 1
        assert ns.stats.misses == 0


@pytest.mark.parametrize("size", TABLE_SIZES)
def test_lookup_wall_time(benchmark, size):
    ns = populated(size)

    def kernel():
        total = 0
        for i in range(256):
            ref = ns.lookup_name("server", f"id{i % size}")
            total += ref.heap_id
        return total

    benchmark(kernel)


def test_registration_wall_time(benchmark):
    def kernel():
        ns = NameService()
        ns.register_site("server", "ip")
        for i in range(256):
            ns.export_name("server", f"id{i}", i)
        return ns

    benchmark(kernel)


def report() -> list[dict]:
    import time

    rows = []
    for size in TABLE_SIZES:
        ns = populated(size)
        n = 5000
        t0 = time.perf_counter()
        for i in range(n):
            ns.lookup_name("server", f"id{i % size}")
        per = (time.perf_counter() - t0) / n
        rows.append({"table_size": size,
                     "lookup_ns": round(per * 1e9)})
    return rows


if __name__ == "__main__":
    for row in report():
        print(row)
