"""A from-scratch miniature Kubernetes API server.

This package implements what KubeFence mediates and what the paper's
experiments measure -- the API request path and its attack surface.
Nothing runs behind the store: there are no controllers, scheduler or
garbage collector.

- :mod:`repro.k8s.gvk` -- group/version/kind registry of resource types.
- :mod:`repro.k8s.schema` -- the configurable-field catalog (the
  "attack surface" the paper quantifies; OpenAPI-like field trees).
- :mod:`repro.k8s.objects` -- Kubernetes object helpers.
- :mod:`repro.k8s.errors` -- API error/status model.
- :mod:`repro.k8s.store` -- etcd-like versioned object store with watch.
- :mod:`repro.k8s.audit` -- structured audit logging (for audit2rbac).
- :mod:`repro.k8s.apiserver` -- the API server: routing, authorization,
  admission, persistence, auditing.
- :mod:`repro.k8s.vulndb` -- CVE database + live exploit engine.
- :mod:`repro.k8s.e2e` -- synthetic e2e test corpus and coverage model.
- :mod:`repro.k8s.http` -- optional real-HTTP transport (stdlib).
- :mod:`repro.k8s.wal` -- write-ahead log behind a durable store.
"""

from repro.k8s.apiserver import ApiRequest, ApiResponse, APIServer, Cluster
from repro.k8s.errors import ApiError
from repro.k8s.gvk import GVK, ResourceType, registry
from repro.k8s.objects import K8sObject
from repro.k8s.store import ObjectStore

__all__ = [
    "APIServer",
    "ApiRequest",
    "ApiResponse",
    "ApiError",
    "Cluster",
    "GVK",
    "K8sObject",
    "ObjectStore",
    "ResourceType",
    "registry",
]
