"""Property tests for the VFS and filesystem layers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AuroraError, PosixError
from repro.posix.fd import O_CREAT, O_RDWR
from repro.posix.objects import ObjectRegistry
from repro.posix.vnode import TmpFS, VfsNamespace

names = st.text(
    alphabet="abcdefgh", min_size=1, max_size=4
)
segments = st.lists(names, min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(parts=segments, noise=st.lists(st.sampled_from(["", ".", ".."]),
                                      max_size=4))
def test_path_normalization_is_stable(parts, noise):
    """Normalizing a path is idempotent and '.'/'..'/'//' noise between
    components never escapes the root or changes the resolved file."""
    clean = "/" + "/".join(parts)
    noisy_parts = []
    for i, part in enumerate(parts):
        noisy_parts.extend(noise)
        noisy_parts.append(part)
    noisy = "/" + "/".join(p for p in noisy_parts if p != "")
    norm = VfsNamespace._normalize
    assert norm(norm(clean)) == norm(clean)
    # Noise of '.' and '' (double slash) resolves identically; '..'
    # consumes a preceding real component, so only test without '..'.
    if ".." not in noise:
        assert norm(noisy) == norm(clean)
    # Nothing ever escapes the root.
    assert norm("/" + "/".join([".."] * 8 + parts)) == norm(clean)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("create"), names),
            st.tuples(st.just("write"), names, st.binary(max_size=32)),
            st.tuples(st.just("unlink"), names),
            st.tuples(st.just("mkdir"), names),
        ),
        max_size=30,
    )
)
def test_tmpfs_matches_model(ops):
    """TmpFS namespace + content tracks a model dict under random ops."""
    vfs = VfsNamespace(TmpFS(ObjectRegistry()))
    model_files: dict[str, bytes] = {}
    model_dirs: set[str] = set()
    for op in ops:
        name = op[1]
        path = "/" + name
        try:
            if op[0] == "create":
                if name in model_dirs:
                    continue
                vfs.open(path, O_RDWR | O_CREAT)
                model_files.setdefault(name, b"")
            elif op[0] == "write":
                if name in model_dirs:
                    continue
                handle = vfs.open(path, O_RDWR | O_CREAT)
                handle.write(op[2])
                old = model_files.get(name, b"")
                model_files[name] = op[2] + old[len(op[2]):]
            elif op[0] == "unlink":
                vfs.unlink(path)
                model_files.pop(name, None)
                model_dirs.discard(name)
            elif op[0] == "mkdir":
                if name in model_files or name in model_dirs:
                    continue
                vfs.mkdir(path)
                model_dirs.add(name)
        except AuroraError:
            pass  # model-mirrored rejections (ENOENT etc.)
    listing = set(vfs.listdir("/"))
    assert listing == set(model_files) | model_dirs
    for name, content in model_files.items():
        handle = vfs.open("/" + name, O_RDWR)
        assert handle.read(64) == content


@settings(max_examples=40, deadline=None)
@given(chunks=st.lists(st.binary(min_size=1, max_size=64), max_size=15))
def test_pipe_preserves_byte_stream(chunks):
    """Whatever is written to a pipe is read back exactly, in order."""
    from repro.errors import WouldBlock
    from repro.posix.pipe import make_pipe

    r, w = make_pipe(ObjectRegistry())
    written = bytearray()
    for chunk in chunks:
        accepted = w.write(chunk)
        written += chunk[:accepted]
    out = bytearray()
    while True:
        try:
            data = r.read(97)
        except WouldBlock:
            break
        if not data:
            break
        out += data
    assert bytes(out) == bytes(written)
