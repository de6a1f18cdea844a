"""Unit tests for the per-function CFG builder.

These pin the graph shapes the flow-sensitive rules depend on: branch
edges labelled with condition + polarity, loop back edges, break/
continue routing, exceptional edges from try bodies into handlers and
finally blocks, and the forward-reachability query. Fixtures are tiny
single-function snippets; nodes are located by the source text of the
statement they carry.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.analysis.cfg import CFG, CFGNode, build_cfg, function_defs


def _cfg(source: str) -> CFG:
    tree = ast.parse(textwrap.dedent(source))
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    assert len(fns) == 1
    return build_cfg(fns[0])


def _node(cfg: CFG, marker: str, kind: str | None = None) -> CFGNode:
    """The statement node whose header line contains ``marker``.

    Only the first unparsed line is matched so compound statements
    (whose unparse includes their whole body) are found by their
    header, not by the statements nested inside them.
    """
    hits = [
        node
        for node in cfg.statement_nodes()
        if marker in ast.unparse(node.stmt).splitlines()[0]
        and (kind is None or node.kind == kind)
    ]
    assert hits, f"no node matching {marker!r}"
    return hits[0]


def _reaches(cfg: CFG, src: CFGNode, dst: CFGNode) -> bool:
    return cfg.reaches(src.index, {dst.index})


class TestLinearFlow:
    def test_statements_chain_in_order_to_exit(self):
        cfg = _cfg("""\
            def fn():
                a = 1
                b = 2
                c = 3
            """)
        a, b, c = (_node(cfg, m) for m in ("a = 1", "b = 2", "c = 3"))
        assert _reaches(cfg, a, b)
        assert _reaches(cfg, b, c)
        assert not _reaches(cfg, c, a)
        assert cfg.reaches(c.index, {cfg.exit})

    def test_reaches_excludes_the_source_node_itself(self):
        cfg = _cfg("""\
            def fn():
                a = 1
            """)
        a = _node(cfg, "a = 1")
        assert not cfg.reaches(a.index, {a.index})


class TestBranches:
    def test_if_edges_carry_condition_and_polarity(self):
        cfg = _cfg("""\
            def fn(flag):
                if flag:
                    a = 1
                else:
                    b = 2
                c = 3
            """)
        cond = _node(cfg, "if flag", kind="cond")
        assert cond.expr is not None
        polarities = {
            edge.polarity for edge in cond.edges if edge.cond is not None
        }
        assert polarities == {True, False}
        for edge in cond.edges:
            if edge.cond is not None:
                assert ast.unparse(edge.cond) == "flag"

    def test_arms_are_exclusive_but_rejoin(self):
        cfg = _cfg("""\
            def fn(flag):
                if flag:
                    a = 1
                else:
                    b = 2
                c = 3
            """)
        a, b, c = (_node(cfg, m) for m in ("a = 1", "b = 2", "c = 3"))
        assert not _reaches(cfg, a, b)
        assert not _reaches(cfg, b, a)
        assert _reaches(cfg, a, c)
        assert _reaches(cfg, b, c)

    def test_match_cases_all_reach_the_join(self):
        cfg = _cfg("""\
            def fn(x):
                match x:
                    case 1:
                        a = 1
                    case _:
                        b = 2
                c = 3
            """)
        a, b, c = (_node(cfg, m) for m in ("a = 1", "b = 2", "c = 3"))
        subject = _node(cfg, "match x")
        assert _reaches(cfg, subject, a)
        assert _reaches(cfg, subject, b)
        assert _reaches(cfg, a, c)
        assert _reaches(cfg, b, c)


class TestLoops:
    def test_while_body_loops_back_through_the_header(self):
        cfg = _cfg("""\
            def fn(n):
                while n:
                    n = n - 1
                done = 1
            """)
        body = _node(cfg, "n = n - 1")
        done = _node(cfg, "done = 1")
        # The back edge makes the body reachable from itself.
        assert _reaches(cfg, body, body)
        assert _reaches(cfg, body, done)

    def test_for_header_offers_body_and_exhausted_edges(self):
        cfg = _cfg("""\
            def fn(items):
                for item in items:
                    a = item
                else:
                    b = 2
                c = 3
            """)
        a, b, c = (_node(cfg, m) for m in ("a = item", "b = 2", "c = 3"))
        header = _node(cfg, "for item in items", kind="for")
        assert _reaches(cfg, header, a)
        assert _reaches(cfg, header, b)
        assert _reaches(cfg, a, c)
        assert _reaches(cfg, b, c)

    def test_break_jumps_past_the_loop_tail(self):
        cfg = _cfg("""\
            def fn(items):
                for item in items:
                    break
                    dead = 1
                after = 2
            """)
        brk = _node(cfg, "break")
        after = _node(cfg, "after = 2")
        dead = _node(cfg, "dead = 1")
        assert _reaches(cfg, brk, after)
        assert not _reaches(cfg, brk, dead)
        assert not cfg.reaches(cfg.entry, {dead.index})

    def test_continue_returns_to_the_header(self):
        cfg = _cfg("""\
            def fn(items):
                for item in items:
                    continue
                    dead = 1
            """)
        cont = _node(cfg, "continue")
        header = _node(cfg, "for item in items", kind="for")
        dead = _node(cfg, "dead = 1")
        assert cfg.reaches(cont.index, {header.index})
        assert not _reaches(cfg, cont, dead)


class TestEarlyExits:
    def test_return_routes_to_exit_and_kills_fallthrough(self):
        cfg = _cfg("""\
            def fn(flag):
                if flag:
                    return 1
                live = 2
            """)
        ret = _node(cfg, "return 1")
        live = _node(cfg, "live = 2")
        assert cfg.reaches(ret.index, {cfg.exit})
        assert not _reaches(cfg, ret, live)
        assert cfg.reaches(cfg.entry, {live.index})

    def test_guard_return_makes_tail_unconditional_only_on_one_arm(self):
        # The shape a path-sensitive rule refines on: after the guard,
        # only the polarity-False edge flows into the publish site.
        cfg = _cfg("""\
            def fn(lost):
                if lost.is_set():
                    return
                publish()
            """)
        cond = _node(cfg, "lost.is_set()", kind="cond")
        publish = _node(cfg, "publish()")
        true_edges = [e for e in cond.edges if e.cond and e.polarity]
        false_edges = [
            e for e in cond.edges if e.cond and not e.polarity
        ]
        assert true_edges and false_edges
        assert not cfg.reaches(
            true_edges[0].dst, {publish.index}
        ) or cfg.reaches(false_edges[0].dst, {publish.index})
        assert cfg.reaches(false_edges[0].dst, {publish.index})


class TestExceptionFlow:
    def test_try_body_statements_may_jump_to_handlers(self):
        cfg = _cfg("""\
            def fn():
                try:
                    risky = 1
                except ValueError:
                    handled = 2
                after = 3
            """)
        risky = _node(cfg, "risky = 1")
        handled = _node(cfg, "handled = 2")
        after = _node(cfg, "after = 3")
        assert _reaches(cfg, risky, handled)
        assert _reaches(cfg, risky, after)
        assert _reaches(cfg, handled, after)

    def test_raise_reaches_the_enclosing_handler(self):
        cfg = _cfg("""\
            def fn():
                try:
                    raise ValueError()
                except ValueError:
                    handled = 2
            """)
        rais = _node(cfg, "raise ValueError()")
        handled = _node(cfg, "handled = 2")
        assert _reaches(cfg, rais, handled)

    def test_finally_runs_on_both_routes(self):
        cfg = _cfg("""\
            def fn():
                try:
                    risky = 1
                finally:
                    cleanup = 2
                after = 3
            """)
        risky = _node(cfg, "risky = 1")
        cleanup = _node(cfg, "cleanup = 2")
        after = _node(cfg, "after = 3")
        assert _reaches(cfg, risky, cleanup)
        assert _reaches(cfg, cleanup, after)
        # The interrupted route propagates past the finally to exit.
        assert cfg.reaches(cleanup.index, {cfg.exit})

    def test_with_header_is_a_with_node(self):
        cfg = _cfg("""\
            def fn(path):
                with open(path) as handle:
                    data = handle.read()
            """)
        header = _node(cfg, "with open(path)", kind="with")
        data = _node(cfg, "data = handle.read()")
        assert _reaches(cfg, header, data)


class TestFunctionDefs:
    def test_qualnames_follow_baseline_convention(self):
        tree = ast.parse(textwrap.dedent("""\
            def top():
                def inner():
                    pass

            class Store:
                def save(self):
                    pass

                async def flush(self):
                    pass
            """))
        names = [name for name, _ in function_defs(tree)]
        assert names == [
            "top", "top.<locals>.inner", "Store.save", "Store.flush",
        ]

    def test_nested_defs_are_opaque_in_the_outer_cfg(self):
        cfg = _cfg("""\
            def fn():
                def helper():
                    hidden = 1
                a = 2
            """)
        a = _node(cfg, "a = 2")
        assert cfg.reaches(cfg.entry, {a.index})
        hidden = [
            node
            for node in cfg.statement_nodes()
            if "hidden" in ast.unparse(node.stmt)
            and not isinstance(node.stmt, ast.FunctionDef)
        ]
        assert hidden == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
