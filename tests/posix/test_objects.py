"""Tests for the kernel object registry."""

import pytest

from repro.errors import PosixError
from repro.posix.objects import KernelObject, ObjectRegistry


class Widget(KernelObject):
    otype = "widget"


class Gadget(KernelObject):
    otype = "gadget"


class TestRegistry:
    def test_koids_unique_and_monotonic(self):
        registry = ObjectRegistry()
        a, b = Widget(registry), Widget(registry)
        assert b.koid > a.koid

    def test_each_registry_numbers_its_own_objects(self):
        first, second = ObjectRegistry(), ObjectRegistry()
        Widget(first)
        assert Widget(first).koid == 2
        assert Widget(second).koid == 1
        assert next(first.tids) == next(second.tids)

    def test_register_lookup(self):
        registry = ObjectRegistry()
        widget = registry.register(Widget(registry))
        assert registry.get(widget.koid) is widget
        assert registry.lookup(widget.koid) is widget
        assert widget.koid in registry

    def test_double_register_rejected(self):
        registry = ObjectRegistry()
        widget = registry.register(Widget(registry))
        with pytest.raises(PosixError):
            registry.register(widget)

    def test_lookup_missing_raises(self):
        registry = ObjectRegistry()
        assert registry.get(999) is None
        with pytest.raises(PosixError):
            registry.lookup(999)

    def test_unregister(self):
        registry = ObjectRegistry()
        widget = registry.register(Widget(registry))
        registry.unregister(widget)
        assert widget.koid not in registry
        registry.unregister(widget)  # idempotent

    def test_by_type_filters(self):
        registry = ObjectRegistry()
        registry.register(Widget(registry))
        registry.register(Widget(registry))
        registry.register(Gadget(registry))
        assert len(list(registry.by_type("widget"))) == 2
        assert len(list(registry.by_type("gadget"))) == 1
        assert len(registry.all_objects()) == 3
        assert len(registry) == 3
