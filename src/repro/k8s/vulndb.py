"""The Kubernetes CVE database and the live exploit engine.

Section III of the paper analyzes the official K8s CVE feed (July 2016
to December 2023; 49 CVEs) and maps each CVE to the source files its
patch modified.  This module reconstructs that database: every entry
carries its component, the vulnerable files (paths in the simulated
Kubernetes codebase), a CVSS score, the affected-version range, and --
for the CVEs that are exploitable through the API interface (Table II)
-- an executable *trigger predicate* over manifests.

The :class:`ExploitEngine` plugs into the API server's admission chain
as an observer: whenever a manifest that triggers a CVE reaches the
server (i.e. neither RBAC nor KubeFence filtered it), the exploit
"fires" and an :class:`ExploitEvent` is recorded.  Table III measures
exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.k8s.apiserver import ApiRequest
from repro.k8s.gvk import registry
from repro.k8s.objects import K8sObject
from repro.yamlutil import get_path

# ---------------------------------------------------------------------------
# Version handling
# ---------------------------------------------------------------------------


def parse_version(text: str) -> tuple[int, ...]:
    """Parse ``1.28.6`` into ``(1, 28, 6)``."""
    return tuple(int(p) for p in text.strip().lstrip("v").split("."))


def version_in_range(version: str, fixed_in: str | None) -> bool:
    """True when *version* predates the fix (i.e. is vulnerable)."""
    if fixed_in is None:
        return True
    return parse_version(version) < parse_version(fixed_in)


# ---------------------------------------------------------------------------
# Trigger predicates
# ---------------------------------------------------------------------------

#: A trigger inspects a manifest and returns the offending field path,
#: or None when the manifest does not exercise the vulnerability.
Trigger = Callable[[K8sObject], "str | None"]


def _pod_specs(obj: K8sObject) -> Iterator[tuple[str, dict]]:
    """Yield (path_prefix, pod_spec_dict) for the manifest's PodSpec,
    whatever workload kind wraps it."""
    if obj.kind not in registry:
        return
    rt = registry.by_kind(obj.kind)
    if rt.pod_spec_path is None:
        return
    spec = get_path(obj.data, rt.pod_spec_path, None)
    if isinstance(spec, dict):
        yield rt.pod_spec_path, spec


def _containers(obj: K8sObject) -> Iterator[tuple[str, dict]]:
    for prefix, spec in _pod_specs(obj):
        for kind in ("containers", "initContainers"):
            for idx, c in enumerate(spec.get(kind) or []):
                if isinstance(c, dict):
                    yield f"{prefix}.{kind}[{idx}]", c


def pod_flag_trigger(flag: str, value: Any = True) -> Trigger:
    """Trigger when a pod-level boolean (hostNetwork/hostPID/hostIPC)
    is set to *value*."""

    def trigger(obj: K8sObject) -> str | None:
        for prefix, spec in _pod_specs(obj):
            if spec.get(flag) == value:
                return f"{prefix}.{flag}"
        return None

    return trigger


def container_field_trigger(
    path: str, predicate: Callable[[Any], bool] = lambda v: v is not None
) -> Trigger:
    """Trigger when any container has *path* (dotted, relative to the
    container) satisfying *predicate*."""

    def trigger(obj: K8sObject) -> str | None:
        for prefix, container in _containers(obj):
            value = get_path(container, path, None)
            if value is not None and predicate(value):
                return f"{prefix}.{path}"
        return None

    return trigger


def subpath_trigger(obj: K8sObject) -> str | None:
    """CVE-2017-1002101: any volumeMounts[].subPath grants host access
    when combined with symlink-capable volumes."""
    for prefix, container in _containers(obj):
        for idx, vm in enumerate(container.get("volumeMounts") or []):
            if isinstance(vm, dict) and vm.get("subPath"):
                return f"{prefix}.volumeMounts[{idx}].subPath"
    return None


def subpath_injection_trigger(obj: K8sObject) -> str | None:
    """CVE-2023-3676: command injection through crafted subPath values
    (special characters evaluated by the kubelet)."""
    suspicious = ("$(", "`", ";", "&&", "|")
    for prefix, container in _containers(obj):
        for idx, vm in enumerate(container.get("volumeMounts") or []):
            if not isinstance(vm, dict):
                continue
            sub = vm.get("subPath")
            if isinstance(sub, str) and any(tok in sub for tok in suspicious):
                return f"{prefix}.volumeMounts[{idx}].subPath"
    return None


def missing_limits_trigger(obj: K8sObject) -> str | None:
    """CVE-2019-11253-style resource exhaustion: containers deployed
    without resources.limits can amplify a parsing DoS."""
    for prefix, container in _containers(obj):
        limits = get_path(container, "resources.limits", None)
        if not limits:
            return f"{prefix}.resources.limits"
    return None


def symlink_exchange_trigger(obj: K8sObject) -> str | None:
    """CVE-2021-25741: symlink exchange via container commands creating
    symlinks into mounted volumes."""
    for prefix, container in _containers(obj):
        command = container.get("command") or []
        joined = " ".join(str(c) for c in command)
        if "ln" in command and "-s" in command:
            return f"{prefix}.command"
        if "ln -s" in joined:
            return f"{prefix}.command"
    return None


def external_ips_trigger(obj: K8sObject) -> str | None:
    """CVE-2020-8554: Services with externalIPs can intercept traffic."""
    if obj.kind != "Service":
        return None
    if obj.get("spec.externalIPs"):
        return "spec.externalIPs"
    return None


# ---------------------------------------------------------------------------
# CVE entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CVEEntry:
    """One vulnerability record from the official K8s CVE feed."""

    cve_id: str
    summary: str
    cvss: float
    component: str
    vulnerable_files: tuple[str, ...]
    fixed_in: str | None = None
    trigger: Trigger | None = None
    effect: str = ""

    @property
    def api_exploitable(self) -> bool:
        """True for CVEs exploitable through crafted API requests
        (the subset evaluated in Table II/III)."""
        return self.trigger is not None


def _build_cve_database() -> list[CVEEntry]:
    """The 49-CVE window (July 2016 - December 2023).

    The eight Table II CVEs carry executable triggers; the rest are
    metadata-only (component + vulnerable files), which is all the
    Fig. 5 coverage analysis needs.
    """
    e = CVEEntry
    cves = [
        # -- Table II: API-exploitable CVEs (E1-E8) -------------------------
        e(
            "CVE-2020-15257",
            "containerd-shim API exposed to host-network containers",
            5.2,
            "networking",
            ("pkg/kubelet/network/host_network.go", "vendor/containerd/shim/service.go"),
            fixed_in=None,
            trigger=pod_flag_trigger("hostNetwork"),
            effect="container escapes to host network namespace / containerd control",
        ),
        e(
            "CVE-2020-8554",
            "MITM via LoadBalancer or ExternalIPs",
            6.3,
            "networking",
            ("pkg/proxy/service.go", "pkg/apis/core/validation/validation_service.go"),
            fixed_in=None,
            trigger=external_ips_trigger,
            effect="traffic interception via external IPs",
        ),
        e(
            "CVE-2023-3676",
            "Command injection via insufficient subPath sanitization",
            8.8,
            "kubelet",
            ("pkg/kubelet/kubelet_pods.go", "pkg/volume/util/subpath/subpath.go"),
            fixed_in="1.28.1",
            trigger=subpath_injection_trigger,
            effect="arbitrary command execution on the node",
        ),
        e(
            "CVE-2017-1002101",
            "subPath volume mounts allow host filesystem access",
            8.8,
            "storage",
            ("pkg/volume/util/subpath/subpath_linux.go", "pkg/kubelet/volumemanager/volume_manager.go"),
            fixed_in="1.9.4",
            trigger=subpath_trigger,
            effect="read/write access to host filesystem",
        ),
        e(
            "CVE-2019-11253",
            "YAML parsing amplification (billion laughs) without limits",
            7.5,
            "apiserver",
            ("staging/src/k8s.io/apimachinery/pkg/util/yaml/yaml.go",),
            fixed_in="1.16.2",
            trigger=missing_limits_trigger,
            effect="API server resource-exhaustion DoS",
        ),
        e(
            "CVE-2021-25741",
            "Symlink exchange allows host filesystem access",
            8.1,
            "storage",
            ("pkg/volume/util/atomic_writer.go", "pkg/kubelet/kubelet_getters.go"),
            fixed_in="1.22.2",
            trigger=symlink_exchange_trigger,
            effect="host filesystem access via symlink race",
        ),
        e(
            "CVE-2023-2431",
            "Seccomp profile bypass via empty localhostProfile",
            5.0,
            "node",
            ("pkg/kubelet/kuberuntime/security_context.go", "pkg/securitycontext/util.go"),
            fixed_in="1.27.2",
            trigger=container_field_trigger(
                "securityContext.seccompProfile.localhostProfile", lambda v: True
            ),
            effect="pod runs unconfined, bypassing seccomp policy",
        ),
        e(
            "CVE-2021-21334",
            "containerd env-leak enables privileged container abuse",
            6.3,
            "node",
            ("vendor/containerd/oci/spec_opts.go", "pkg/kubelet/kuberuntime/kuberuntime_container.go"),
            fixed_in=None,
            trigger=container_field_trigger("securityContext.privileged", lambda v: v is True),
            effect="privileged container escapes isolation",
        ),
        # -- remaining CVEs in the July 2016 - Dec 2023 window --------------
        e("CVE-2016-1905", "Admission control bypass via patch", 7.7, "admission",
          ("plugin/pkg/admission/admit.go",), fixed_in="1.2.0"),
        e("CVE-2016-1906", "Unauthorized build-config access", 9.8, "apiserver",
          ("pkg/registry/rbac/validation/rule.go",), fixed_in="1.2.0"),
        e("CVE-2017-1000056", "PodSecurityPolicy admission bypass", 8.8, "admission",
          ("plugin/pkg/admission/security/podsecuritypolicy/admission.go",), fixed_in="1.5.5"),
        e("CVE-2017-1002102", "Malicious secret/configMap volume deletes host files", 6.5, "storage",
          ("pkg/volume/configmap/configmap.go", "pkg/volume/secret/secret.go"), fixed_in="1.9.4"),
        e("CVE-2018-1002100", "kubectl cp path traversal", 5.5, "kubectl",
          ("pkg/kubectl/cmd/cp/cp.go",), fixed_in="1.11.0"),
        e("CVE-2018-1002101", "Windows mount command injection", 8.8, "storage",
          ("pkg/util/mount/mount_windows.go",), fixed_in="1.13.1"),
        e("CVE-2018-1002105", "API server connection upgrade privilege escalation", 9.8, "apiserver",
          ("staging/src/k8s.io/apimachinery/pkg/util/proxy/upgradeaware.go",), fixed_in="1.13.0"),
        e("CVE-2019-1002100", "JSON-patch DoS on the API server", 6.5, "apiserver",
          ("staging/src/k8s.io/apiserver/pkg/endpoints/handlers/patch.go",), fixed_in="1.13.5"),
        e("CVE-2019-1002101", "kubectl cp symlink tar write", 5.5, "kubectl",
          ("pkg/kubectl/cmd/cp/cp.go",), fixed_in="1.14.0"),
        e("CVE-2019-11243", "Rest client leaks credentials in logs", 3.3, "security",
          ("staging/src/k8s.io/client-go/rest/config.go",), fixed_in="1.14.0"),
        e("CVE-2019-11244", "kubectl creates world-readable cache files", 3.3, "kubectl",
          ("staging/src/k8s.io/client-go/discovery/cached/disk/cached_discovery.go",), fixed_in="1.14.0"),
        e("CVE-2019-11245", "Container uid 0 despite runAsNonRoot on restart", 4.9, "kubelet",
          ("pkg/kubelet/kuberuntime/kuberuntime_container.go",), fixed_in="1.14.3"),
        e("CVE-2019-11246", "kubectl cp symlink directory traversal", 6.5, "kubectl",
          ("pkg/kubectl/cmd/cp/cp.go",), fixed_in="1.14.2"),
        e("CVE-2019-11247", "Cluster-scoped CRD access via namespaced RBAC", 8.1, "apiserver",
          ("staging/src/k8s.io/apiserver/pkg/endpoints/installer.go",), fixed_in="1.14.5"),
        e("CVE-2019-11248", "Debug endpoint /debug/pprof exposed on kubelet", 8.2, "kubelet",
          ("pkg/kubelet/server/server.go",), fixed_in="1.14.4"),
        e("CVE-2019-11249", "kubectl cp incomplete fix directory traversal", 6.5, "kubectl",
          ("pkg/kubectl/cmd/cp/cp.go",), fixed_in="1.14.5"),
        e("CVE-2019-11250", "Bearer tokens written to logs at high verbosity", 6.5, "security",
          ("staging/src/k8s.io/client-go/transport/round_trippers.go",), fixed_in="1.16.0"),
        e("CVE-2019-11251", "kubectl cp symlink again (third fix)", 5.7, "kubectl",
          ("pkg/kubectl/cmd/cp/cp.go",), fixed_in="1.15.4"),
        e("CVE-2019-11254", "YAML parsing CPU DoS in kube-apiserver", 6.5, "apiserver",
          ("staging/src/k8s.io/apimachinery/pkg/util/yaml/yaml.go",), fixed_in="1.16.8"),
        e("CVE-2019-11255", "CSI volume snapshot data leak", 6.5, "storage",
          ("pkg/volume/csi/csi_client.go",), fixed_in="1.16.4"),
        e("CVE-2020-8551", "Kubelet DoS via crafted requests", 6.5, "kubelet",
          ("pkg/kubelet/server/server.go",), fixed_in="1.17.3"),
        e("CVE-2020-8552", "API server memory exhaustion via errors", 5.3, "apiserver",
          ("staging/src/k8s.io/apiserver/pkg/server/filters/maxinflight.go",), fixed_in="1.17.3"),
        e("CVE-2020-8555", "SSRF via StorageClass and volume drivers", 6.3, "cloud-provider",
          ("pkg/cloudprovider/providers/gce/gce.go", "pkg/volume/glusterfs/glusterfs.go"), fixed_in="1.18.1"),
        e("CVE-2020-8557", "Pod DoS via /etc/hosts file growth", 5.5, "kubelet",
          ("pkg/kubelet/kubelet_pods.go",), fixed_in="1.18.6"),
        e("CVE-2020-8558", "Node-local services reachable from adjacent hosts", 8.8, "networking",
          ("pkg/proxy/iptables/proxier.go",), fixed_in="1.18.4"),
        e("CVE-2020-8559", "Privilege escalation via compromised node redirects", 6.4, "apiserver",
          ("staging/src/k8s.io/apimachinery/pkg/util/proxy/upgradeaware.go",), fixed_in="1.18.6"),
        e("CVE-2020-8561", "Webhook redirect log injection", 4.1, "admission",
          ("staging/src/k8s.io/apiserver/pkg/util/webhook/webhook.go",), fixed_in=None),
        e("CVE-2020-8562", "TOCTOU bypass of proxy IP restrictions", 3.1, "apiserver",
          ("staging/src/k8s.io/apiserver/pkg/util/proxy/dial.go",), fixed_in="1.21.1"),
        e("CVE-2020-8563", "Secrets leaked in vSphere cloud-provider logs", 5.5, "cloud-provider",
          ("legacy-cloud-providers/vsphere/vsphere.go",), fixed_in="1.19.3"),
        e("CVE-2020-8564", "Docker config secrets leaked in logs", 5.5, "security",
          ("pkg/credentialprovider/config.go",), fixed_in="1.20.0"),
        e("CVE-2020-8565", "Tokens leaked at high log verbosity (incomplete fix)", 5.5, "security",
          ("staging/src/k8s.io/client-go/transport/round_trippers.go",), fixed_in="1.20.0"),
        e("CVE-2021-25735", "Node update bypass of validating webhook", 6.5, "admission",
          ("plugin/pkg/admission/noderestriction/admission.go",), fixed_in="1.20.6"),
        e("CVE-2021-25737", "EndpointSlice IP range bypass", 2.7, "networking",
          ("pkg/apis/discovery/validation/validation.go",), fixed_in="1.21.1"),
        e("CVE-2021-25740", "Endpoint slice cross-namespace forwarding", 3.1, "networking",
          ("pkg/apis/core/validation/validation_endpoints.go",), fixed_in=None),
        e("CVE-2022-3162", "CRD wildcard list allows cluster-scope reads", 6.5, "apiserver",
          ("staging/src/k8s.io/apiserver/pkg/endpoints/handlers/get.go",), fixed_in="1.25.4"),
        e("CVE-2022-3172", "API server aggregation SSRF", 5.1, "apiserver",
          ("staging/src/k8s.io/apiserver/pkg/util/proxy/dial.go",), fixed_in="1.25.1"),
        e("CVE-2022-3294", "Node address validation bypass in kubelet proxy", 8.8, "apiserver",
          ("pkg/registry/core/node/strategy.go",), fixed_in="1.25.4"),
        e("CVE-2023-2727", "ImagePolicyWebhook bypass via ephemeral containers", 6.5, "admission",
          ("plugin/pkg/admission/imagepolicy/admission.go",), fixed_in="1.27.3"),
        e("CVE-2023-2728", "ServiceAccount admission bypass via ephemeral containers", 6.5, "admission",
          ("plugin/pkg/admission/serviceaccount/admission.go",), fixed_in="1.27.3"),
        e("CVE-2023-3955", "Windows node command injection (nodes params)", 8.8, "kubelet",
          ("pkg/kubelet/kubelet_node_status_windows.go",), fixed_in="1.28.1"),
        e("CVE-2023-5528", "Windows in-tree storage privilege escalation", 7.2, "storage",
          ("pkg/volume/local/local_windows.go",), fixed_in="1.28.4"),
    ]
    return cves


class VulnerabilityDatabase:
    """Query interface over the CVE records."""

    def __init__(self, entries: list[CVEEntry] | None = None) -> None:
        self._entries = entries if entries is not None else _build_cve_database()
        self._by_id = {e.cve_id: e for e in self._entries}

    def __iter__(self) -> Iterator[CVEEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, cve_id: str) -> CVEEntry:
        try:
            return self._by_id[cve_id]
        except KeyError:
            raise KeyError(f"unknown CVE: {cve_id}") from None

    def __contains__(self, cve_id: str) -> bool:
        return cve_id in self._by_id

    def api_exploitable(self) -> list[CVEEntry]:
        return [e for e in self._entries if e.api_exploitable]

    def components(self) -> list[str]:
        return sorted({e.component for e in self._entries})

    def vulnerable_files(self) -> dict[str, list[str]]:
        """file -> [cve_id] mapping used by the coverage analysis."""
        mapping: dict[str, list[str]] = {}
        for entry in self._entries:
            for f in entry.vulnerable_files:
                mapping.setdefault(f, []).append(entry.cve_id)
        return mapping


#: Singleton database.
vulndb = VulnerabilityDatabase()


# ---------------------------------------------------------------------------
# Exploit engine (admission observer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExploitEvent:
    """A vulnerability fired: a triggering manifest reached the server."""

    cve_id: str
    kind: str
    namespace: str
    name: str
    field: str
    effect: str
    username: str


class ExploitEngine:
    """Observes admitted objects and records CVE triggers.

    With ``assume_vulnerable=True`` (the Table III configuration) the
    cluster is treated as affected by every catalog CVE regardless of
    its version, because the paper's attack catalog spans CVEs fixed in
    different releases.  With ``assume_vulnerable=False`` only CVEs
    whose fix postdates the cluster version fire.
    """

    def __init__(
        self,
        db: VulnerabilityDatabase | None = None,
        cluster_version: str = "1.28.6",
        assume_vulnerable: bool = True,
    ) -> None:
        self.db = db if db is not None else vulndb
        self.cluster_version = cluster_version
        self.assume_vulnerable = assume_vulnerable
        self.events: list[ExploitEvent] = []

    def __call__(self, request: ApiRequest, obj: K8sObject) -> None:
        """Admission-plugin entry point (observer; never denies)."""
        for entry in self.db.api_exploitable():
            if not self.assume_vulnerable and not version_in_range(
                self.cluster_version, entry.fixed_in
            ):
                continue
            assert entry.trigger is not None
            offending = entry.trigger(obj)
            if offending is not None:
                self.events.append(
                    ExploitEvent(
                        cve_id=entry.cve_id,
                        kind=obj.kind,
                        namespace=obj.namespace,
                        name=obj.name,
                        field=offending,
                        effect=entry.effect,
                        username=request.user.username,
                    )
                )

    def triggered_cves(self) -> set[str]:
        return {e.cve_id for e in self.events}

    def clear(self) -> None:
        self.events.clear()
