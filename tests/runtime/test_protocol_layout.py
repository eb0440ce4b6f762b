"""Source checks on where the two protocols that ride on a site live.

Code movement (FETCH, the SHIPO offer, offer / need / reply) is
``runtime/codecache.py``'s and the distributed GC's lease protocol is
``runtime/distgc.py``'s.  Each builds its own packets and owns its
state: the checkpoint, the node, its daemon and the testkit go through
the protocols' methods, never their private attributes.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

OWNER_OF_KIND = {
    "KIND_FETCH_REPLY": "runtime/codecache.py",
    "KIND_CODE_NEED": "runtime/codecache.py",
    "KIND_CODE_REPLY": "runtime/codecache.py",
    "KIND_REF_LEASE": "runtime/distgc.py",
    "KIND_REF_RENEW": "runtime/distgc.py",
    "KIND_REF_DROP": "runtime/distgc.py",
}

OUTSIDERS = ("mobility/checkpoint.py", "runtime/node.py",
             "runtime/daemon.py", "testkit/invariants.py")


def _tree(relpath: str) -> ast.AST:
    return ast.parse((ROOT / relpath).read_text())


def _call_arguments(call: ast.Call):
    yield from call.args
    yield from (keyword.value for keyword in call.keywords)


def test_each_protocol_builds_its_own_packets():
    """A packet kind appears as a call argument (``Packet(kind=...)``,
    ``site.send(KIND_..., ...)``) only in the module that owns it;
    comparing a kind to dispatch is anyone's."""
    misplaced = []
    for path in sorted(ROOT.rglob("*.py")):
        relpath = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            for arg in _call_arguments(node):
                name = getattr(arg, "id", None) or getattr(arg, "attr", None)
                owner = OWNER_OF_KIND.get(name)
                if owner is not None and owner != relpath:
                    misplaced.append(f"{relpath}:{node.lineno} builds {name}")
    assert misplaced == []


def _private_attributes(relpath: str) -> set[str]:
    """Every ``self._name`` a class of ``relpath`` assigns."""
    names = set()
    for node in ast.walk(_tree(relpath)):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr.startswith("_")
                        and not target.attr.startswith("__")):
                    names.add(target.attr)
    return names


def test_no_outsider_names_a_protocols_private_state():
    private = (_private_attributes("runtime/codecache.py")
               | _private_attributes("runtime/distgc.py"))
    found = []
    for relpath in OUTSIDERS:
        for node in ast.walk(_tree(relpath)):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{relpath}:{node.lineno} names {node.attr}")
    assert found == []
    assert {"_pending_code", "_pending_fetch", "_pending_claims"} <= private
