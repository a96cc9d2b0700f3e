"""The span recorder and its patches, on a fake package (no sockets)."""

from __future__ import annotations

import sys
import types

import pytest

from e2e_trace import Target, Tracer, layer_metrics


def columns(tracer: Tracer) -> list[dict]:
    fields = ("sid", "code", "start", "end", "parent", "op", "units")
    return [dict(zip(fields, row)) for row in tracer.spans().tolist()]


def test_nested_calls_record_parent_and_op():
    tracer = Tracer()
    inner = tracer.wrap(lambda: "in", "journal.append")
    outer = tracer.wrap(lambda: inner(), "protocol.server",
                        units=lambda tracer, args, result: len(result))
    tracer.op = 7
    assert outer() == "in"
    child, parent = columns(tracer)  # exit order: the child closes first
    assert tracer.names == ["journal.append", "protocol.server"]
    assert (parent["sid"], parent["parent"], parent["op"]) == (0, -1, 7)
    assert (child["sid"], child["parent"], child["op"]) == (1, 0, 7)
    assert parent["units"] == 2
    assert parent["start"] <= child["start"] <= child["end"] <= parent["end"]
    assert tracer.current == -1


def test_paused_calls_pass_through_but_are_seen():
    tracer = Tracer()
    double = tracer.wrap(lambda x: 2 * x, "wire.encode")
    tracer.paused = True
    assert double(4) == 8
    assert tracer.seen == 1 and len(tracer.spans()) == 0
    tracer.paused = False
    assert double(5) == 10
    assert tracer.seen == 2 and len(tracer.spans()) == 1


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "wire.decode")()
    assert len(tracer.spans()) == 1 and tracer.current == -1


def test_generator_sends_are_spans():
    def steps():
        received = yield "first"
        yield received

    tracer = Tracer()
    generator = tracer.wrap_generator(steps, "registers.step")()
    assert generator.send(None) == "first"
    assert generator.send("second") == "second"
    generator.close()  # everything but send goes straight to the generator
    assert len(tracer.spans()) == 2


@pytest.fixture
def fakepkg(monkeypatch):
    """``fakepkg.a`` defines things; ``fakepkg.b`` from-imported one."""

    def work(payload):
        return payload + b"!"

    class Thing:
        def method(self):
            return "m"

    class Base:
        def step(self):
            raise NotImplementedError

    class Leaf(Base):
        def step(self):
            return "leaf"

    a = types.ModuleType("fakepkg.a")
    a.work, a.Thing, a.Base, a.Leaf = work, Thing, Base, Leaf
    b = types.ModuleType("fakepkg.b")
    b.work = work
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    return a, b, work


TARGETS = (
    Target("fakepkg.a", "work", "wire.encode",
           units=lambda tracer, args, result: len(result)),
    Target("fakepkg.a", "Thing.method", "journal.append"),
    Target("fakepkg.a", "Base.step", "kernel.run", subclasses=True),
    Target("fakepkg.a", "renamed_away", "framing.pack"),
    Target("fakepkg.gone", "anything", "coding.kernel"),
)


def test_install_patches_every_reference_and_restore_undoes_it(fakepkg):
    a, b, work = fakepkg
    method = a.Thing.method
    tracer = Tracer()
    tracer.install(TARGETS)
    assert a.work is not work and b.work is a.work
    assert b.work(b"xy") == b"xy!" and a.Thing().method() == "m"
    assert a.Leaf().step() == "leaf"
    assert [row["units"] for row in columns(tracer)] == [3, 0, 0]
    tracer.restore()
    assert a.work is work and b.work is work
    assert a.Thing.method is method
    a.work(b"z")
    assert len(tracer.spans()) == 3


def test_a_missing_callable_nulls_its_layer_only(fakepkg):
    a, _, _ = fakepkg
    tracer = Tracer()
    tracer.install(TARGETS)
    assert tracer.missing == {
        "framing": ["fakepkg.a.renamed_away"],
        "coding": ["fakepkg.gone.anything"],
    }
    for _ in range(4):
        a.work(b"payload")
    tracer.restore()
    metrics = layer_metrics(
        tracer, ops=2, timed_ns=10**9, remainder="transport", facts={},
        fact_ops=4,
    )
    assert metrics["framing.us_per_op"] is None
    assert metrics["share.framing"] is None
    assert metrics["coding.kernel_share"] is None
    assert metrics["wire.calls_per_op"] == 2
    assert metrics["wire.bytes_per_op"] == 16
    assert metrics["wire.encode_us_per_op"] > 0
    present = [v for k, v in metrics.items()
               if k.startswith("share.") and v is not None]
    assert sum(present) == pytest.approx(1.0)
    assert metrics["transport.us_per_op"] == pytest.approx(
        metrics["share.transport"] * 10**9 / 1e3 / 2
    )
