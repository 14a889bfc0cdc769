"""Seeded request streams for the four workloads.

``build(name, seed)`` returns, for each of the two closed-loop clients,
the complete list of requests it will send -- method, path, identity
headers and body already encoded into the one buffer the client
writes -- before any timing starts.  The program under test receives
only those bytes; nothing in it can tell which workload is running.

A client stream is a *prologue* (played once during set-up: it creates
the objects the cycle needs, which is the "seed objects" share of
``setup_s``) and a *cycle* the client walks round-robin for as long as
the windows last.  Every cycle returns the store to the state it
started from, so the stream is valid at any request rate.

Fresh bodies (``deploy_miss`` releases, attack manifests) are made by
rendering each chart once with a placeholder release name and
substituting the real name into the encoded JSON; every chart's
templates are checked against a real ``render_chart`` of one release
as they are made, so the shortcut cannot drift from the renderer.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from benchmarks.e2e.client import wire_request
from benchmarks.e2e.metrics import CLIENTS, WORKLOAD_BY_NAME

from repro.attacks.injector import build_malicious_manifests
from repro.helm.chart import render_chart
from repro.k8s.gvk import registry
from repro.operators import OPERATOR_NAMES, get_chart

#: Placeholder release name substituted in encoded bodies and paths.
_TOKEN = "zqzreleasezqz"
NAMESPACE = "default"

#: Reply checks (``Request.check``).
ECHO, LIST, FORBIDDEN = 0, 1, 2

#: ``deploy_miss`` cycle length in releases per client, and the number
#: of distinct attack bodies per client.  Both are several times the
#: decision cache's 1024 entries *per proxy*, so a body that comes
#: round again has long been evicted: the miss regime holds at any
#: request rate, not only at today's.
DEPLOY_RELEASES = 1500
ATTACK_BODIES = 3000
#: Releases a ``deploy_miss`` client keeps installed before it
#: uninstalls the oldest (bounds the store and compaction cost).
LIVE_RELEASES = 4
#: Objects behind ``read_mostly``'s LIST, besides the clients' own.
LIST_SEEDS = 50


@dataclass(frozen=True, slots=True)
class Request:
    """One pre-encoded request and what a correct reply looks like."""

    wire: bytes          #: head + body, sent with one sendall
    body_at: int         #: offset of the body inside ``wire``
    method: str
    path: str
    operator: str        #: whose proxy receives it (its policy decides)
    expect: int          #: status code of a correct reply
    check: int           #: ECHO | LIST | FORBIDDEN
    manifest: bytes      #: ECHO: the object the reply must carry
    items: int           #: LIST: objects the reply must carry
    effect: int          #: +1 creates ``path``'s object, -1 deletes it, 0 neither
    key: str             #: REST path of the named object (live-set model)

    @property
    def body(self) -> bytes:
        return self.wire[self.body_at:]

    @property
    def is_write(self) -> bool:
        return self.method != "GET"


@dataclass(frozen=True)
class ClientStream:
    prologue: tuple[Request, ...]
    cycle: tuple[Request, ...]
    #: Malicious requests for the time-to-deny probe (empty where the
    #: cycle itself carries the attacks).
    deny: tuple[Request, ...]

    def live_after(self, completed: int) -> set[str]:
        """Object paths that exist once the prologue and *completed*
        cycle requests have been acknowledged (a full cycle is
        state-neutral, so only the remainder is replayed)."""
        live: set[str] = set()
        for request in self.prologue + self.cycle[: completed % len(self.cycle)]:
            if request.effect > 0:
                live.add(request.key)
            elif request.effect < 0:
                live.discard(request.key)
        return live


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    why: str
    hit_ratio: tuple[float, float]
    clients: tuple[ClientStream, ...]
    #: sha256 over every byte any client may send, in order.
    digest: str

    def collections(self) -> set[str]:
        """Every collection path the stream touches (LIST targets for
        the live-set verifier, including kinds only attacks name)."""
        out: set[str] = set()
        for stream in self.clients:
            for request in stream.prologue + stream.cycle + stream.deny:
                out.add(request.key.rsplit("/", 1)[0] if request.key else request.path)
        return out


# -- templates ----------------------------------------------------------------


class _Template:
    """One manifest of one chart with the release name left open."""

    __slots__ = ("operator", "user", "collection", "name", "body")

    def __init__(self, operator: str, manifest: dict):
        resource = registry.by_kind(manifest["kind"])
        self.operator = operator
        self.user = f"{operator}-operator"
        self.collection = resource.url_path(NAMESPACE if resource.namespaced else None)
        self.name = manifest["metadata"]["name"]
        self.body = json.dumps(manifest).encode()

    def at(self, release: str) -> tuple[str, str, bytes]:
        """(collection path, object path, body) for *release*."""
        name = self.name.replace(_TOKEN, release)
        return (
            self.collection,
            f"{self.collection}/{name}",
            self.body.replace(_TOKEN.encode(), release.encode()),
        )

    def post(self, release: str) -> Request:
        collection, key, body = self.at(release)
        return _request("POST", collection, self, body, 201, ECHO, body, +1, key)

    def put(self, release: str) -> Request:
        _collection, key, body = self.at(release)
        return _request("PUT", key, self, body, 200, ECHO, body, 0, key)

    def attack(self, release: str) -> Request:
        collection, key, body = self.at(release)
        return _request("POST", collection, self, body, 403, FORBIDDEN, b"", 0, key)


def _request(method: str, path: str, template: _Template, body: bytes, expect: int,
             check: int, manifest: bytes, effect: int, key: str, items: int = 0) -> Request:
    wire = wire_request(method, path, template.user, body)
    return Request(wire, len(wire) - len(body), method, path, template.operator,
                   expect, check, manifest, items, effect, key)


def _get(created: Request, template: _Template) -> Request:
    return _request("GET", created.key, template, b"", 200, ECHO,
                    created.manifest, 0, created.key)


def _delete(created: Request, template: _Template) -> Request:
    return _request("DELETE", created.key, template, b"", 200, ECHO,
                    created.manifest, -1, created.key)


class _Operator:
    """A chart's benign and malicious templates."""

    def __init__(self, name: str):
        self.name = name
        self.chart = get_chart(name)
        manifests = render_chart(self.chart, release_name=_TOKEN)
        self.benign = [_Template(name, m) for m in manifests]
        self.attacks = [
            _Template(name, bad.manifest)
            for bad in build_malicious_manifests(name, manifests)
        ]

        # The shortcut must never drift from the renderer.
        real = [json.dumps(m).encode()
                for m in render_chart(self.chart, release_name="b0-0")]
        if real != [t.at("b0-0")[2] for t in self.benign]:
            raise AssertionError(
                f"{name}: substituting the release name into the rendered "
                "template no longer equals render_chart(release_name=...)"
            )


class _Operators(dict):
    """Operator name -> :class:`_Operator`, rendered on first use: a
    workload pays only for the charts it sends."""

    def __missing__(self, name: str) -> _Operator:
        self[name] = _Operator(name)
        return self[name]


def _attacks(op: _Operator, prefix: str, count: int) -> list[Request]:
    return [
        op.attacks[j % len(op.attacks)].attack(f"{prefix}-{j}") for j in range(count)
    ]


# -- the four workloads -------------------------------------------------------


def _reconcile_cycle(op: _Operator, release: str, rng: random.Random
                     ) -> tuple[list[Request], list[Request]]:
    """Prologue (create each manifest) and the 80% PUT / 20% GET cycle."""
    created = [t.post(release) for t in op.benign]
    puts = [t.put(release) for t in op.benign]
    cycle: list[Request] = []
    turn = 0
    for slot in range(5 * len(puts)):
        if slot % 5 == 4:
            pick = rng.randrange(len(created))
            cycle.append(_get(created[pick], op.benign[pick]))
        else:
            cycle.append(puts[turn % len(puts)])
            turn += 1
    return created, cycle


def _reconcile_hit(seed: int, ops: _Operators) -> list[ClientStream]:
    streams = []
    for c, name in enumerate(("sonarqube", "nginx")):
        rng = random.Random(f"{seed}:reconcile_hit:{c}")
        prologue, cycle = _reconcile_cycle(ops[name], f"rec{seed}", rng)
        deny = _attacks(ops[name], f"d{seed}-{c}", ATTACK_BODIES)
        streams.append(ClientStream(tuple(prologue), tuple(cycle), tuple(deny)))
    return streams


def _deploy_miss(seed: int, ops: _Operators) -> list[ClientStream]:
    order = list(OPERATOR_NAMES)
    random.Random(f"{seed}:deploy_miss").shuffle(order)
    streams = []
    for c in range(CLIENTS):
        def release(j: int) -> tuple[_Operator, str]:
            # Clients take alternate release numbers and start two
            # operators apart, so they rarely share a proxy.
            return ops[order[(j + 2 * c) % len(order)]], f"b{seed}-{CLIENTS * j + c}"

        installs: list[list[Request]] = []
        uninstalls: list[list[Request]] = []
        for j in range(DEPLOY_RELEASES):
            op, name = release(j)
            posts = [t.post(name) for t in op.benign]
            installs.append(posts)
            uninstalls.append([_delete(p, t) for p, t in zip(posts, op.benign)])
        cycle: list[Request] = []
        for j in range(DEPLOY_RELEASES):
            cycle.extend(installs[j])
            cycle.extend(uninstalls[(j - LIVE_RELEASES) % DEPLOY_RELEASES])
        # The prologue installs what the first cycle iterations
        # uninstall: the last LIVE_RELEASES releases of the cycle.
        prologue = [r for j in range(DEPLOY_RELEASES - LIVE_RELEASES, DEPLOY_RELEASES)
                    for r in installs[j]]
        op0 = ops[order[(2 * c) % len(order)]]
        deny = _attacks(op0, f"d{seed}-{c}", ATTACK_BODIES)
        streams.append(ClientStream(tuple(prologue), tuple(cycle), tuple(deny)))
    return streams


def _attack_deny(seed: int, ops: _Operators) -> list[ClientStream]:
    streams = []
    for c, name in enumerate(("sonarqube", "nginx")):
        rng = random.Random(f"{seed}:attack_deny:{c}")
        op = ops[name]
        prologue = [t.post(f"rec{seed}") for t in op.benign]
        puts = [t.put(f"rec{seed}") for t in op.benign]
        attacks = _attacks(op, f"a{seed}-{c}", ATTACK_BODIES)
        cycle: list[Request] = []
        benign_turn = 0
        # Shuffled in blocks of two attacks and two benign PUTs: the
        # order depends on the seed, yet any window, however short,
        # holds the 50/50 mix its hit-ratio regime is declared for.
        block = [True, True, False, False]
        for pair in range(ATTACK_BODIES // 2):
            rng.shuffle(block)
            attack_turn = 2 * pair
            for bad in block:
                if bad:
                    cycle.append(attacks[attack_turn])
                    attack_turn += 1
                else:
                    cycle.append(puts[benign_turn % len(puts)])
                    benign_turn += 1
        streams.append(ClientStream(tuple(prologue), tuple(cycle), ()))
    return streams


def _read_mostly(seed: int, ops: _Operators) -> list[ClientStream]:
    op = ops["sonarqube"]  # both clients are replicas of one operator
    daemonset = next(t for t in op.benign if "/daemonsets" in t.collection)
    per_client = LIST_SEEDS // CLIENTS
    streams = []
    for c in range(CLIENTS):
        rng = random.Random(f"{seed}:read_mostly:{c}")
        own = [t.post(f"rd{seed}-{c}") for t in op.benign]
        puts = [t.put(f"rd{seed}-{c}") for t in op.benign]
        seeds = [daemonset.post(f"ls{seed}-{k}")
                 for k in range(c * per_client, (c + 1) * per_client)]
        listing = _request("GET", daemonset.collection, daemonset, b"", 200, LIST,
                           b"", 0, "", items=per_client * CLIENTS + CLIENTS)
        slots = ["get"] * 6 + ["list"] * 3 + ["put"]
        cycle: list[Request] = []
        for turn in range(len(puts)):
            rng.shuffle(slots)
            for slot in slots:
                if slot == "get":
                    pick = rng.randrange(len(own))
                    cycle.append(_get(own[pick], op.benign[pick]))
                elif slot == "list":
                    cycle.append(listing)
                else:
                    cycle.append(puts[turn])
        deny = _attacks(op, f"d{seed}-{c}", ATTACK_BODIES)
        streams.append(ClientStream(tuple(own + seeds), tuple(cycle), tuple(deny)))
    return streams


_BUILDERS = {
    "reconcile_hit": _reconcile_hit,
    "deploy_miss": _deploy_miss,
    "attack_deny": _attack_deny,
    "read_mostly": _read_mostly,
}


def build(name: str, seed: int) -> Workload:
    """The full request stream of workload *name* for *seed*."""
    spec = WORKLOAD_BY_NAME[name]
    clients = tuple(_BUILDERS[name](seed, _Operators()))
    digest = hashlib.sha256()
    for stream in clients:
        for request in stream.prologue + stream.cycle + stream.deny:
            digest.update(request.wire)
    return Workload(name, seed, spec.why, spec.hit_ratio, clients, digest.hexdigest())
