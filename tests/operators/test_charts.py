"""Tests for the five synthetic operator charts."""

import pytest

from repro.helm.chart import render_chart
from repro.k8s.apiserver import Cluster
from repro.operators import OPERATOR_NAMES, all_charts, get_chart


class TestChartInventory:
    def test_five_operators(self):
        assert len(OPERATOR_NAMES) == 5
        assert set(all_charts()) == set(OPERATOR_NAMES)

    def test_unknown_operator_raises(self):
        with pytest.raises(KeyError):
            get_chart("wordpress")

    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_chart_has_enum_annotations(self, name):
        """Every chart exposes enumerative fields (exploration input)."""
        assert get_chart(name).enum_annotations()

    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_chart_has_helpers_and_templates(self, name):
        chart = get_chart(name)
        assert chart.helpers
        assert len(chart.templates) >= 3


class TestRenderedManifests:
    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_defaults_render_and_apply_cleanly(self, name):
        """Default values produce schema-valid manifests accepted by
        the API server -- the baseline of all experiments."""
        cluster = Cluster()
        manifests = render_chart(get_chart(name))
        assert manifests
        for manifest in manifests:
            response = cluster.apply(manifest)
            assert response.ok, (name, manifest["kind"], response.body)

    def test_expected_kinds_per_operator(self):
        expected = {
            "nginx": {"Deployment", "Service", "ServiceAccount"},
            "mlflow": {"Deployment", "Secret", "Service", "PersistentVolumeClaim", "ServiceAccount"},
            "postgresql": {"StatefulSet", "Secret", "Service", "ServiceAccount"},
            "rabbitmq": {"StatefulSet", "Secret", "Service", "ServiceAccount", "ConfigMap"},
            "sonarqube": {"Deployment", "DaemonSet", "Job", "Secret", "Service",
                          "PersistentVolumeClaim", "Ingress", "NetworkPolicy", "ServiceAccount"},
        }
        for name, kinds in expected.items():
            rendered = {m["kind"] for m in render_chart(get_chart(name))}
            assert kinds <= rendered, (name, rendered)

    def test_every_container_has_limits_and_nonroot(self):
        """Chart hygiene the security locks rely on."""
        from repro.k8s.gvk import registry
        from repro.yamlutil import get_path

        for name in OPERATOR_NAMES:
            for manifest in render_chart(get_chart(name)):
                kind = manifest["kind"]
                if kind not in registry or registry.by_kind(kind).pod_spec_path is None:
                    continue
                pod_spec = get_path(manifest, registry.by_kind(kind).pod_spec_path)
                for group in ("containers", "initContainers"):
                    for container in pod_spec.get(group) or []:
                        assert get_path(container, "resources.limits", None), (name, kind)
                        assert (
                            get_path(container, "securityContext.runAsNonRoot", None)
                            is True
                        ), (name, kind, container["name"])

    def test_overrides_change_rendering(self):
        chart = get_chart("postgresql")
        default = render_chart(chart)
        replicated = render_chart(chart, overrides={"architecture": "replication"})
        sts_default = next(m for m in default if m["kind"] == "StatefulSet")
        sts_repl = next(m for m in replicated if m["kind"] == "StatefulSet")
        assert sts_default["spec"]["replicas"] == 1
        assert sts_repl["spec"]["replicas"] == 2  # 1 + readReplicas.replicaCount

    def test_conditional_resources_toggle(self):
        chart = get_chart("nginx")
        assert not any(m["kind"] == "Ingress" for m in render_chart(chart))
        with_ingress = render_chart(chart, overrides={"ingress": {"enabled": True}})
        assert any(m["kind"] == "Ingress" for m in with_ingress)

    def test_mlflow_secret_conditional_credentials(self):
        """The paper's Fig. 3 behaviour: postgres credentials appear in
        the Secret only when the backend is enabled."""
        chart = get_chart("mlflow")
        secret = next(m for m in render_chart(chart) if m["kind"] == "Secret")
        assert "PGUSER" in secret["stringData"]
        disabled = render_chart(chart, overrides={"backendStore": {"postgres": {"enabled": False}}})
        secret = next(m for m in disabled if m["kind"] == "Secret")
        assert "PGUSER" not in secret["stringData"]
