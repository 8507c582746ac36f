from pathlib import Path

import pytest


class _HalfWriter:
    """A file that takes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("disk full")


@pytest.fixture
def fail_write_of(monkeypatch):
    """Make the artifact writer fail partway through the file ``name``:
    half its payload reaches the temporary file, then the write raises."""

    def install(name: str) -> None:
        import tunescope.artifacts

        def opening(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return _HalfWriter(fh) if Path(path).name == f".{name}.tmp" else fh

        monkeypatch.setattr(tunescope.artifacts, "open", opening, raising=False)

    return install
