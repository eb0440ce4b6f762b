"""The `coldstart` workload: large generated programs, each run once.

Every program is one `def ... and ...` group of `classes` classes
wired into `CHAINS` chains that run in parallel and join on one
channel; each class body runs exactly once, so the work is reading,
compiling and first execution of cold code.  The shape of the work is
the same for every seed (the same number of classes of each form and
arity, three-digit literals, fixed-width names); the seed decides the
order of the forms, the arities and every literal, so a cache keyed on
content sees programs it has never seen.  The generator evaluates each
program in Python as it writes it: the site must print that checksum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.runtime.network import DiTyCONetwork

from common import SiteTotals

CHAINS = 8
NODES = ("n0", "n1")
FORMS = ("arith", "branch", "channel", "object", "call")
PARAMS = ("acc", "x", "y", "z")


def generate_program(rng: random.Random, tag: str,
                     classes: int) -> tuple[str, int]:
    """One program's source text and the checksum it prints."""
    lit = lambda: rng.randint(100, 999)  # noqa: E731
    forms = [FORMS[i % len(FORMS)] for i in range(classes)]
    arities = [2 + i % 3 for i in range(classes)]
    rng.shuffle(forms)
    rng.shuffle(arities)
    names = [f"K{tag}x{i:03d}" for i in range(classes)]
    # Chain c owns classes c, c + CHAINS, c + 2 * CHAINS, ...
    successor = {i: i + CHAINS for i in range(classes - CHAINS)}

    defs = []
    starts = []
    checksum = 0
    for c in range(min(CHAINS, classes)):
        env = {"acc": lit(), "x": lit(), "y": lit(), "z": lit()}
        starts.append(f"{names[c]}[" + ", ".join(
            str(env[p]) for p in PARAMS[:arities[c]]) + "]")
        i = c
        while i is not None:
            arity = arities[i]
            nxt = successor.get(i)
            a, b, d = lit(), lit(), lit()
            form = forms[i]
            # What the body below computes, in Python.
            if form == "arith":
                acc_val, x_val = env["acc"] + env["x"] * a + b, env["x"] + d
            elif form == "branch":
                if env["x"] > a:
                    acc_val, x_val = env["acc"] + b, env["x"] - d
                else:
                    acc_val, x_val = env["acc"] + env["x"] + d, env["x"] + b
            elif form == "channel":
                acc_val, x_val = env["acc"] + env["x"] + a, env["x"]
            elif form == "object":
                acc_val, x_val = env["acc"] + env["x"] * a, env["x"] + b
            else:  # call
                acc_val, x_val = env["acc"] + env["x"] + a, env["x"] + b

            # The continuation: the next class of the chain (extra
            # parameters it has and this one lacks get fresh
            # literals), or the join once the chain ends.
            extra = []
            if nxt is not None:
                for p in PARAMS[2:arities[nxt]]:
                    if p not in PARAMS[:arity]:
                        env[p] = lit()
                    extra.append(p if p in PARAMS[:arity] else str(env[p]))

            def call(acc_s: str, x_s: str) -> str:
                if nxt is None:
                    return f"join![{acc_s}]"
                return f"{names[nxt]}[{', '.join([acc_s, x_s] + extra)}]"

            if form == "branch":
                body = (f"if x > {a} then {call(f'acc + {b}', f'x - {d}')} "
                        f"else {call(f'acc + x + {d}', f'x + {b}')}")
            elif form == "channel":
                body = (f"new t (t![x + {a}] | t?(w) = "
                        f"{call('acc + w', 'x')})")
            elif form == "object":
                body = (f"new o (o!put[x, {a}] | o?{{ put(p, q) = "
                        f"{call('acc + p * q', f'x + {b}')}, skip() = 0 }})")
            elif form == "call":
                body = (f"new s ((s?{{ get(k, r) = r![k + {a}] }}) | "
                        f"let w = s!get[x] in {call('acc + w', f'x + {b}')})")
            else:
                body = call(f"acc + x * {a} + {b}", f"x + {d}")
            defs.append(f"{names[i]}({', '.join(PARAMS[:arity])}) = {body}")
            env["acc"], env["x"] = acc_val, x_val
            i = nxt
        checksum += env["acc"]

    chains = min(CHAINS, classes)
    join = "".join(f"join?(v{c}) = " for c in range(chains)) + \
        "print![" + " + ".join(f"v{c}" for c in range(chains)) + "]"
    source = ("new join (\ndef " + "\nand ".join(defs) + "\nin ("
              + " | ".join(starts) + " | " + join + "))\n")
    return source, checksum


@dataclass
class ColdRun:
    programs: list[tuple[str, str, str, int]]   # ip, site, source, checksum
    net: DiTyCONetwork
    classes: int                                # over all programs
    totals: SiteTotals = field(default_factory=SiteTotals)


def prepare(seed: int, size: dict) -> ColdRun:
    programs, classes = size["programs"], size["classes"]
    rng = random.Random(seed)
    generated = []
    for p in range(programs):
        source, checksum = generate_program(rng, f"{p:02d}", classes)
        generated.append((NODES[p % len(NODES)], f"cold{p}", source,
                          checksum))
    net = DiTyCONetwork()
    net.add_nodes(NODES)
    return ColdRun(programs=generated, net=net, classes=programs * classes)


def execute(run: ColdRun) -> None:
    """The timed window: launch of the first program to quiescence."""
    for ip, site, source, _checksum in run.programs:
        run.net.launch(ip, site, source)
    run.net.run()


def verify(run: ColdRun) -> dict:
    outputs = run.net.outputs()
    errors = [f"{site}: printed {outputs.get(site)!r}, "
              f"generator computed [{checksum}]"
              for _ip, site, _src, checksum in run.programs
              if outputs.get(site) != [checksum]]
    if not run.net.is_quiescent():
        errors.append("coldstart network is not quiescent")
    run.totals.add_live(run.net)
    return {
        "work": run.classes,
        "engine": run.net.site("cold0").vm.engine,
        "attempted": len(run.programs),
        "completed": len(run.programs) - len(errors),
        "failed": min(len(run.programs), len(errors)),
        "errors": errors,
        "totals": run.totals,
        "extras": {},
        "net": run.net,
    }
