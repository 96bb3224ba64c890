"""Unit tests for the simulation kernel: signals, values, components."""

import pickle

import pytest

from repro.core.mtchannel import one_hot_thread
from repro.kernel import (
    Component,
    ControlSignal,
    ProtocolError,
    Signal,
    WiringError,
    X,
    as_bool,
    is_x,
    same_value,
)


class TestUnknownValue:
    def test_x_is_singleton(self):
        from repro.kernel.values import _Unknown

        assert _Unknown() is X

    def test_x_survives_pickle_as_singleton(self):
        assert pickle.loads(pickle.dumps(X)) is X

    def test_x_repr(self):
        assert repr(X) == "X"

    def test_x_bool_coercion_raises(self):
        with pytest.raises(ValueError):
            bool(X)

    def test_is_x(self):
        assert is_x(X)
        assert not is_x(0)
        assert not is_x(None)
        assert not is_x(False)

    def test_as_bool_rejects_x(self):
        with pytest.raises(ValueError):
            as_bool(X)

    def test_as_bool_accepts_ints(self):
        assert as_bool(1) is True
        assert as_bool(0) is False


class TestSameValue:
    def test_x_equals_x(self):
        assert same_value(X, X)

    def test_x_differs_from_concrete(self):
        assert not same_value(X, 0)
        assert not same_value(1, X)

    def test_concrete_equality(self):
        assert same_value(3, 3)
        assert same_value((1, 2), (1, 2))
        assert not same_value(3, 4)

    def test_incomparable_values_differ(self):
        class Weird:
            def __eq__(self, other):
                raise RuntimeError("no comparisons")

        assert not same_value(Weird(), Weird())


class TestOnehot:
    """``one_hot_thread`` on raw valid slices (handshake slots hold bools)."""

    def test_empty_vector(self):
        assert one_hot_thread([], "ch") is None

    def test_all_clear(self):
        assert one_hot_thread([False, False, False], "ch") is None

    def test_single_bit(self):
        assert one_hot_thread([False, True, False], "ch") == 1

    def test_two_bits_raises(self):
        with pytest.raises(ProtocolError, match="ch: .*bits 0 and 2"):
            one_hot_thread([True, False, True], "ch")


class TestSignal:
    def test_initial_value_is_x(self):
        sig = Signal("s")
        assert is_x(sig.value)

    def test_set_changes_value_and_reports(self):
        sig = Signal("s")
        assert sig.set(5) is True
        assert sig.value == 5

    def test_set_same_value_reports_no_change(self):
        sig = Signal("s", init=7)
        assert sig.set(7) is False

    def test_double_driver_rejected(self):
        sig = Signal("s")
        a = Component("a")
        b = Component("b")
        sig.set_driver(a)
        with pytest.raises(WiringError):
            sig.set_driver(b)

    def test_same_driver_twice_is_fine(self):
        sig = Signal("s")
        a = Component("a")
        sig.set_driver(a)
        sig.set_driver(a)
        assert sig.driver is a


class TestControlSignal:
    def test_resets_false(self):
        assert ControlSignal("v").value is False

    def test_bools_stored_as_given(self):
        sig = ControlSignal("v")
        assert sig.set(True) is True
        assert sig.value is True
        assert sig.set(True) is False

    def test_truthy_non_bools_coerced(self):
        sig = ControlSignal("v")
        assert sig.set(2) is True
        assert sig.value is True
        assert sig.set(1) is False
        assert sig.set([]) is True
        assert sig.value is False

    def test_x_rejected_and_previous_value_kept(self):
        sig = ControlSignal("v")
        sig.set(True)
        with pytest.raises(ValueError):
            sig.set(X)
        assert sig.value is True

    def test_component_control_registers_one(self):
        comp = Component("c")
        assert isinstance(comp.control("valid"), ControlSignal)
        with pytest.raises(WiringError):
            comp.control("valid")

    def test_channel_handshakes_are_control_signals(self):
        from repro.core import MTChannel
        from repro.elastic import ElasticChannel

        mt = MTChannel("mt", threads=3)
        st = ElasticChannel("st")
        for sig in [*mt.valid, *mt.ready, st.valid, st.ready]:
            assert type(sig) is ControlSignal
        assert type(mt.data) is Signal and type(st.data) is Signal


class TestComponentTree:
    def test_path_is_hierarchical(self):
        top = Component("top")
        mid = Component("mid", parent=top)
        leaf = Component("leaf", parent=mid)
        assert leaf.path == "top.mid.leaf"

    def test_iter_tree_depth_first(self):
        top = Component("top")
        a = Component("a", parent=top)
        b = Component("b", parent=top)
        a1 = Component("a1", parent=a)
        assert list(top.iter_tree()) == [top, a, a1, b]

    def test_duplicate_child_name_rejected(self):
        top = Component("top")
        Component("kid", parent=top)
        with pytest.raises(WiringError):
            Component("kid", parent=top)

    def test_signal_names_carry_path(self):
        top = Component("top")
        kid = Component("kid", parent=top)
        sig = kid.signal("s")
        assert sig.name == "top.kid.s"

    def test_duplicate_signal_name_rejected(self):
        comp = Component("c")
        comp.signal("s")
        with pytest.raises(WiringError):
            comp.signal("s")

    def test_output_sets_driver(self):
        comp = Component("c")
        sig = comp.output("o")
        assert sig.driver is comp

    def test_all_signals_collects_descendants(self):
        top = Component("top")
        kid = Component("kid", parent=top)
        top.signal("a")
        kid.signal("b")
        names = {s.name for s in top.all_signals()}
        assert names == {"top.a", "top.kid.b"}
