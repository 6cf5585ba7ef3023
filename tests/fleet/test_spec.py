"""Fleet spec parsing and validation."""

from __future__ import annotations

import json

import pytest

from repro.fleet.manifest import FleetError
from repro.fleet.spec import FleetHost, FleetSpec, tomllib


class TestShorthand:
    def test_local_n(self):
        spec = FleetSpec.load("local:3")
        assert spec.backend == "local"
        assert spec.total_workers == 3

    def test_local_defaults_to_machine_workers(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        assert FleetSpec.load("local").total_workers == 5
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert FleetSpec.load("local").total_workers == 1

    def test_not_a_file_is_a_clear_error(self):
        with pytest.raises(FleetError, match="neither 'local"):
            FleetSpec.load("no/such/spec.toml")


class TestJson:
    def test_ssh_spec_round_trip(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(
            json.dumps(
                {
                    "backend": "ssh",
                    "retry_timeout_s": 30,
                    "max_attempts": 2,
                    "hosts": [
                        {"host": "a.example", "workers": 4, "remote_path": "~/repro"},
                        {"host": "b.example", "workers": 2, "remote_path": "~/repro"},
                    ],
                }
            )
        )
        spec = FleetSpec.load(str(path))
        assert spec.backend == "ssh"
        assert spec.total_workers == 6
        assert spec.retry_timeout_s == 30.0
        assert spec.max_attempts == 2
        assert [h.host for h in spec.hosts] == ["a.example", "b.example"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(FleetError, match="unknown fleet spec keys"):
            FleetSpec.parse(json.dumps({"backend": "local", "hosst": []}), fmt="json")
        with pytest.raises(FleetError, match="unknown fleet host keys"):
            FleetSpec.parse(
                json.dumps({"hosts": [{"workers": 1, "hostname": "x"}]}), fmt="json"
            )

    def test_garbage_is_a_clear_error(self):
        with pytest.raises(FleetError, match="unparseable JSON"):
            FleetSpec.parse("{", fmt="json")
        with pytest.raises(FleetError, match="top level"):
            FleetSpec.parse("[1, 2]", fmt="json")


@pytest.mark.skipif(tomllib is None, reason="tomllib needs Python 3.11+")
class TestToml:
    def test_ssh_spec(self):
        spec = FleetSpec.parse(
            "\n".join(
                [
                    'backend = "ssh"',
                    "[[hosts]]",
                    'host = "node1"',
                    "workers = 8",
                    'remote_path = "~/repro"',
                ]
            ),
            fmt="toml",
        )
        assert spec.backend == "ssh"
        assert spec.hosts[0].workers == 8

    def test_garbage_is_a_clear_error(self):
        with pytest.raises(FleetError, match="unparseable TOML"):
            FleetSpec.parse("backend = = =", fmt="toml")


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(FleetError, match="unknown fleet backend"):
            FleetSpec(backend="k8s", hosts=(FleetHost(),))

    def test_needs_hosts(self):
        with pytest.raises(FleetError, match="at least one host"):
            FleetSpec(backend="local", hosts=())

    def test_ssh_needs_hostnames(self):
        with pytest.raises(FleetError, match="non-empty 'host'"):
            FleetSpec(backend="ssh", hosts=(FleetHost(workers=2),))

    def test_workers_floor(self):
        with pytest.raises(FleetError, match="workers >= 1"):
            FleetSpec.local(0)


class TestWorkerIds:
    def test_dots_sanitized(self):
        """Dots are the claim-file separator and must never appear in a
        worker id."""
        ids = FleetHost(host="user@node1.example.com", workers=2).worker_ids(0)
        assert len(ids) == 2
        assert all("." not in worker_id for worker_id in ids)
        assert len(set(ids)) == 2

    def test_local_host_label(self):
        assert FleetHost(workers=1).worker_ids(3) == ["local-3-0"]
