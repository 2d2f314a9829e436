"""Tests for kernel object numbering."""

from repro.posix.objects import KernelObject, ObjectRegistry


class Widget(KernelObject):
    otype = "widget"


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
