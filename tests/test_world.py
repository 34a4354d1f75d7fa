"""One world builder and one itinerary table.

Every world in ``src/repro`` starts from :func:`repro.apps.app_world`, and
every archetype's stops come from :func:`repro.apps.stops`.  The scans
below read ``src/repro`` with ``ast``; examples and the perf workloads are
not scanned, since they show or time the raw builder on purpose.
"""

import ast
import pathlib

from repro.apps import STOP_TASKS, app_world, make_transactions, stops
from repro.mas import Stop

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
APPS = SRC / "apps"

SITES = ("site-0", "site-1")

#: One task's parameters per archetype, by service name.
PARAMS = {
    "ebanking": {"transactions": make_transactions(list(SITES), 1)},
    "foodsearch": {"cuisine": "thai", "max_price": 200, "limit": 3},
    "mcommerce": {"item": "camera", "budget": 400.0},
    "ridedispatch": {"zone": "downtown", "max_eta_s": 600.0},
    "auctionsnipe": {"lot": "lot-0", "budget": 520.0, "deadline": 0.0},
    "jobfarm": {"job": {"name": "job-0", "size": 2}, "sites": list(SITES)},
}


def _calls(tree):
    """``(callee name, enclosing function name, call node)`` for every call."""

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
                yield name, func, child
            yield from walk(child, func)

    yield from walk(tree, "<module>")


def _scan(callee):
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, func, node in _calls(tree):
            if name == callee:
                yield path, func, node


class TestOneBuilder:
    def test_deployment_builder_is_constructed_only_in_app_world(self):
        sites = sorted(
            (str(path.relative_to(SRC)), func)
            for path, func, _ in _scan("DeploymentBuilder")
        )
        assert sites == [("apps/__init__.py", "app_world")]

    def test_archetype_stops_are_written_only_in_apps(self):
        tasks = set(STOP_TASKS.values())
        stray = []
        for path, func, node in _scan("Stop"):
            if APPS in path.parents:
                continue
            args = node.args[1:2] + [k.value for k in node.keywords if k.arg == "task"]
            for arg in args:
                if isinstance(arg, ast.Constant) and arg.value in tasks:
                    stray.append(f"{path.relative_to(SRC)}:{node.lineno} ({func})")
        assert stray == []


class TestStopTable:
    def test_one_entry_per_published_service(self):
        builder = app_world(0, ["gw-0"], SITES)
        assert sorted(STOP_TASKS) == builder.catalog.services()

    def test_stops_tour_every_site(self):
        assert stops("ebanking", SITES) == [
            Stop("site-0", task="banking"),
            Stop("site-1", task="banking"),
        ]

    def test_jobfarm_carries_only_the_rendezvous(self):
        assert stops("jobfarm", SITES) == [Stop("site-0", task="farm")]


class TestAppWorld:
    def test_access_points_are_routers_on_the_backbone(self):
        builder = app_world(0, ["gw-0"], SITES, access_points=("ap-0",))
        builder.add_device("pda", wireless="WLAN", attach_to="ap-0")
        deployment = builder.build()
        assert deployment.network.node("ap-0").kind == "router"
        assert deployment.network.has_link("ap-0", "backbone")

    def test_one_device_completes_every_archetype(self):
        builder = app_world(5, ["gw-0"], SITES)
        builder.add_device("pda", wireless="WLAN")
        deployment = builder.build()
        sim = deployment.sim
        platform = deployment.platform("pda")

        def tour():
            statuses = {}
            for service in sorted(STOP_TASKS):
                yield from platform.subscribe(service, gateway="gw-0")
                handle = yield from platform.deploy(
                    service, PARAMS[service], stops=stops(service, SITES),
                    gateway="gw-0",
                )
                yield deployment.gateway("gw-0").ticket(handle.ticket).completed
                result = yield from platform.collect(handle)
                statuses[service] = result.status
            return statuses

        statuses = sim.run(until=sim.process(tour()))
        assert statuses == {service: "completed" for service in STOP_TASKS}
