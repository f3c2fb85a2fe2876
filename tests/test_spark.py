"""Sizing rule of the Spark session factory (no JVM is started)."""
import pytest

from repro.spark import driver_memory


@pytest.fixture()
def meminfo(tmp_path, monkeypatch):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)

    def write(kb: int) -> str:
        p = tmp_path / "meminfo"
        p.write_text(f"MemFree:         1000 kB\nMemTotal:       {kb} kB\n")
        return str(p)

    return write


def test_half_of_memtotal(meminfo):
    assert driver_memory(meminfo(16456384)) == "7g"


def test_clamped_to_2_and_8_gib(meminfo):
    assert driver_memory(meminfo(2 * 1024 * 1024)) == "2g"
    assert driver_memory(meminfo(256 * 1024 * 1024)) == "8g"


def test_missing_meminfo_falls_back_to_2g(meminfo, tmp_path):
    assert driver_memory(str(tmp_path / "absent")) == "2g"


def test_env_wins(meminfo, monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert driver_memory(meminfo(16456384)) == "3g"
