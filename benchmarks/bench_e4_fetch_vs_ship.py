"""E4 -- code fetching vs code shipping (the two applet servers of
section 4).

The same applet is delivered to a client either by downloading its
*class* once (FETCH, then cached local instantiations) or by shipping
the applet *object* on every request (SHIPM + SHIPO per use).  We
sweep the applet's code size and the number of uses:

* at one use the two are comparable (one code transfer either way);
* as uses grow, fetching amortises its single download while shipping
  pays per use -- both in time and in bytes on the wire;
* ablation A2 disables the FETCH cache, making fetch degenerate to
  ship-like per-use cost;
* the per-site *code cache* (offer/need/reply) rescues both degenerate
  shapes: once a digest is installed, repeats move zero code bytes.

The pre-cache shapes are pinned with networks built under
``repro.runtime.codecache.CODE_CACHE = False`` so the two cost models
stay separately measurable.
"""

from unittest import mock

import pytest

from _workloads import applet_fetch_network, applet_ship_network


def run_fetch(body_size: int, uses: int, cache: bool = True,
              code_cache: bool = True):
    with mock.patch("repro.runtime.site.FETCH_CACHE", cache), \
            mock.patch("repro.runtime.codecache.CODE_CACHE", code_cache):
        net = applet_fetch_network(body_size, uses)
    elapsed = net.run()
    assert net.site("client").output == [42]
    return elapsed, net.world.stats.bytes, net


def run_ship(body_size: int, uses: int, code_cache: bool = True):
    with mock.patch("repro.runtime.codecache.CODE_CACHE", code_cache):
        net = applet_ship_network(body_size, uses)
    elapsed = net.run()
    assert net.site("client").output == [42]
    return elapsed, net.world.stats.bytes, net


class TestShape:
    def test_fetch_amortises_with_uses(self):
        t1, b1, _ = run_fetch(10, 1)
        t8, b8, net = run_fetch(10, 8)
        # 8 uses cost far less than 8x one use: the code moved once.
        assert t8 < 4 * t1
        assert b8 < 2 * b1
        assert net.site("client").stats.fetch_requests_sent == 1

    def test_ship_pays_per_use_without_code_cache(self):
        _, b1, _ = run_ship(10, 1, code_cache=False)
        _, b8, _ = run_ship(10, 8, code_cache=False)
        assert b8 > 5 * b1  # bytes grow with uses

    def test_code_cache_rescues_ship(self):
        # With the code cache, only the first SHIPO moves byte-code;
        # the 7 repeats send digest offers and plain messages.
        _, b8_nocache, _ = run_ship(10, 8, code_cache=False)
        _, b8_cached, net = run_ship(10, 8)
        assert b8_cached < b8_nocache / 2
        client = net.site("client")
        assert client.stats.code_cache_hits >= 7
        assert client.stats.code_needs_sent == 1

    def test_fetch_wins_at_many_uses(self):
        t_fetch, b_fetch, _ = run_fetch(10, 8, code_cache=False)
        t_ship, b_ship, _ = run_ship(10, 8, code_cache=False)
        assert t_fetch < t_ship
        assert b_fetch < b_ship

    def test_bytes_scale_with_code_size(self):
        _, b_small, _ = run_fetch(2, 1)
        _, b_big, _ = run_fetch(40, 1)
        assert b_big > 2 * b_small

    def test_ablation_no_cache_refetches(self):
        # Both caches off: the historical A2 shape, every use pays the
        # full download again.
        _, bytes_cached, net_c = run_fetch(10, 6, cache=True,
                                           code_cache=False)
        _, bytes_nocache, net_n = run_fetch(10, 6, cache=False,
                                            code_cache=False)
        assert net_c.site("client").stats.fetch_requests_sent == 1
        assert net_n.site("client").stats.fetch_requests_sent == 6
        assert bytes_nocache > 3 * bytes_cached

    def test_code_cache_rescues_refetch(self):
        """A2 with the code cache back on: every use still runs the
        FETCH protocol, but uses 2..6 are answered from the digest
        offer alone -- a >=5x byte reduction on this workload (the
        headline ratio test_baseline.py pins on the 40-pad class)."""
        _, bytes_nocache, _ = run_fetch(40, 6, cache=False,
                                        code_cache=False)
        _, bytes_cached, net = run_fetch(40, 6, cache=False)
        client = net.site("client")
        assert client.stats.fetch_requests_sent == 6
        assert client.stats.code_cache_hits == 5
        assert client.stats.code_needs_sent == 1
        assert bytes_nocache > 5 * bytes_cached


@pytest.mark.parametrize("mode", ["fetch", "ship"])
@pytest.mark.parametrize("uses", [1, 4])
def test_wall_time(benchmark, mode, uses):
    runner = run_fetch if mode == "fetch" else run_ship

    def kernel():
        return runner(10, uses)

    elapsed, wire_bytes, _ = benchmark(kernel)
    benchmark.extra_info["simulated_us"] = round(elapsed * 1e6, 2)
    benchmark.extra_info["wire_bytes"] = wire_bytes


def report() -> list[dict]:
    rows = []
    for body_size in (5, 20):
        for uses in (1, 2, 4, 8):
            t_f, b_f, _ = run_fetch(body_size, uses)
            t_s, b_s, _ = run_ship(body_size, uses)
            rows.append({
                "code_size": body_size,
                "uses": uses,
                "fetch_us": round(t_f * 1e6, 2),
                "ship_us": round(t_s * 1e6, 2),
                "fetch_bytes": b_f,
                "ship_bytes": b_s,
                "winner": "fetch" if t_f < t_s else "ship",
            })
    t_nc, b_nc, _ = run_fetch(20, 8, cache=False, code_cache=False)
    rows.append({
        "code_size": 20,
        "uses": "8 (A2: no caches)",
        "fetch_us": round(t_nc * 1e6, 2),
        "ship_us": "-",
        "fetch_bytes": b_nc,
        "ship_bytes": "-",
        "winner": "-",
    })
    t_cc, b_cc, _ = run_fetch(20, 8, cache=False)
    rows.append({
        "code_size": 20,
        "uses": "8 (A2 + code cache)",
        "fetch_us": round(t_cc * 1e6, 2),
        "ship_us": "-",
        "fetch_bytes": b_cc,
        "ship_bytes": "-",
        "winner": "-",
    })
    return rows


if __name__ == "__main__":
    for row in report():
        print(row)
