"""Persistence: hibernate a whole space to XML and restore it.

OBIWAN's component diagram (paper, Figure 1) includes a *Persistence*
module alongside replication and memory management.  This is it, built
on the same wire format as swapping: every swap-cluster (including
swap-cluster-0) becomes one XML document, plus a manifest recording the
roots and cluster layout — a directory a process can be resurrected
from, on this device or another.

Cross-cluster references hibernate as ``<extref toid=…/>`` (the target's
oid): restore rebuilds them as fresh swap-cluster-proxies, so the
restored space satisfies the mediation invariant by construction.
Clusters that are swapped out at hibernate time are captured from their
stores and rewritten (their outbound replacement-array indexes become
oids) — the restored space starts fully resident, with every cluster's
swap epoch preserved.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional
from xml.etree import ElementTree as ET

from repro.core.space import Space
from repro.core.swap_cluster import SwapCluster
from repro.errors import (
    CodecError,
    SwapStoreUnavailableError,
    TransportError,
    UnknownKeyError,
)
from repro.ids import ROOT_SID, Sid
from repro.runtime.classext import instance_fields
from repro.runtime.registry import TypeRegistry, global_registry
from repro.wire.canonical import verify_payload
from repro.wire.wrappers import decode_value, encode_value

_object_setattr = object.__setattr__

MANIFEST_NAME = "manifest.xml"


def hibernate(space: Space, directory: str | Path) -> Path:
    """Write the whole space to ``directory``; returns the manifest path.

    The space itself is untouched (hibernation is a snapshot, not a
    shutdown).  Swapped clusters are read back from their stores without
    reloading them into the heap.
    """
    destination = Path(directory)
    destination.mkdir(parents=True, exist_ok=True)

    manifest = ET.Element("hibernated-space", {"name": space.name})
    clusters_el = ET.SubElement(manifest, "clusters")
    for sid in sorted(space._clusters):
        cluster = space._clusters[sid]
        document = _cluster_document(space, cluster)
        filename = f"cluster-{sid}.xml"
        (destination / filename).write_text(document, encoding="utf-8")
        ET.SubElement(
            clusters_el,
            "cluster",
            {
                "sid": str(sid),
                "file": filename,
                "epoch": str(cluster.epoch),
                "cids": ",".join(str(cid) for cid in cluster.cids),
            },
        )

    roots_el = ET.SubElement(manifest, "roots")
    for name, value in space._roots.items():
        root_el = ET.SubElement(roots_el, "root", {"name": name})
        root_el.append(encode_value(value, _hibernate_classifier(space)))

    manifest_path = destination / MANIFEST_NAME
    manifest_path.write_text(
        ET.tostring(manifest, encoding="unicode"), encoding="utf-8"
    )
    return manifest_path


def restore(
    directory: str | Path,
    *,
    heap_capacity: Optional[int] = None,
    registry: Optional[TypeRegistry] = None,
    name: Optional[str] = None,
) -> Space:
    """Rebuild a hibernated space from ``directory``.

    The restored space is fully resident; attach stores and policies
    afterwards as for a fresh space.  ``heap_capacity`` defaults to a
    size model-accounted fit with 4x headroom.
    """
    source = Path(directory)
    try:
        manifest = ET.fromstring(
            (source / MANIFEST_NAME).read_text(encoding="utf-8")
        )
    except FileNotFoundError:
        raise CodecError(f"no {MANIFEST_NAME} under {source}") from None
    except ET.ParseError as exc:
        raise CodecError(f"malformed manifest: {exc}") from exc
    if manifest.tag != "hibernated-space":
        raise CodecError(f"expected <hibernated-space>, got <{manifest.tag}>")

    resolved_registry = registry if registry is not None else global_registry()

    # -- pass 1: parse every cluster document, allocate bare instances ------
    clusters_el = manifest.find("clusters")
    if clusters_el is None:
        raise CodecError("manifest has no <clusters>")
    cluster_records: List[Dict[str, Any]] = []
    instances: Dict[int, Any] = {}
    sid_of: Dict[int, Sid] = {}
    for cluster_el in clusters_el:
        sid = int(cluster_el.get("sid"))
        document = ET.fromstring(
            (source / cluster_el.get("file")).read_text(encoding="utf-8")
        )
        if document.tag != "hibernated-cluster":
            raise CodecError(
                f"cluster file for sid={sid}: unexpected <{document.tag}>"
            )
        members: List[tuple] = []
        for obj_el in document:
            oid = int(obj_el.get("oid"))
            cls = resolved_registry.resolve(obj_el.get("class", ""))
            instance = object.__new__(cls)
            instances[oid] = instance
            sid_of[oid] = sid
            members.append((oid, obj_el))
        cluster_records.append(
            {
                "sid": sid,
                "epoch": int(cluster_el.get("epoch", "0")),
                "cids": [
                    int(part)
                    for part in cluster_el.get("cids", "").split(",")
                    if part
                ],
                "members": members,
            }
        )

    # -- build the space shell with the original sids ---------------------------
    total_guess = 64 * max(1, len(instances))
    space = Space(
        name if name is not None else manifest.get("name", "restored"),
        heap_capacity=heap_capacity
        if heap_capacity is not None
        else max(1 << 16, 8 * total_guess),
        registry=resolved_registry,
    )
    for record in cluster_records:
        sid = record["sid"]
        if sid == ROOT_SID:
            cluster = space._clusters[ROOT_SID]
        else:
            cluster = SwapCluster(sid)
            space._clusters[sid] = cluster
        cluster.epoch = record["epoch"]
        cluster.cids = list(record["cids"])
        record["cluster"] = cluster
    max_sid = max((record["sid"] for record in cluster_records), default=0)
    space._ids.sids.reserve_above(max_sid)

    def resolve(holder_sid: Sid):
        def _resolve(kind: str, ident: Any) -> Any:
            if kind == "local":
                return instances[int(ident)]
            if kind == "ext":
                target_oid = int(ident["toid"])
                if sid_of.get(target_oid) == holder_sid:
                    return instances[target_oid]
                return space._proxy_for(holder_sid, target_oid)
            raise CodecError("hibernated documents cannot hold <outref>")

        return _resolve

    # -- pass 2: register membership (oids, classes) ----------------------------
    for record in cluster_records:
        cluster = record["cluster"]
        for oid, _ in record["members"]:
            instance = instances[oid]
            cluster.add_member(oid, type(instance)._obi_schema.name)
            space._sid_by_oid[oid] = record["sid"]
            space._objects[oid] = instance
            _object_setattr(instance, "_obi_oid", oid)
            _object_setattr(instance, "_obi_sid", record["sid"])
            _object_setattr(instance, "_obi_space", space)
    if instances:
        space._ids.oids.reserve_above(max(instances))

    # -- pass 3: fill fields (proxies may now be built), account heap -------------
    for record in cluster_records:
        resolver = resolve(record["sid"])
        for oid, obj_el in record["members"]:
            instance = instances[oid]
            for field_el in obj_el:
                if field_el.tag != "field" or len(field_el) != 1:
                    raise CodecError(f"oid={oid}: malformed <field>")
                _object_setattr(
                    instance,
                    field_el.get("name"),
                    decode_value(field_el[0], resolver),
                )
            space.heap.allocate(oid, space.size_model.size_of(instance))

    # -- roots ----------------------------------------------------------------------
    roots_el = manifest.find("roots")
    if roots_el is not None:
        for root_el in roots_el:
            root_name = root_el.get("name")
            if len(root_el) != 1:
                raise CodecError(f"root {root_name!r}: malformed value")
            value = decode_value(root_el[0], resolve(ROOT_SID))
            space._roots[root_name] = value

    space.verify_integrity()
    return space


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _hibernate_classifier(space: Space):
    def classify(value: Any) -> Any:
        cls = type(value)
        if getattr(cls, "_obi_is_repl_proxy", False):
            raise CodecError(
                "hibernate found an unresolved replication proxy; "
                "materialize the pending frontier (Replicator.prefetch) "
                "before hibernating"
            )
        if getattr(cls, "_obi_is_proxy", False):
            return ("ext", {"toid": value._obi_target_oid})
        if getattr(cls, "_obi_managed", False):
            oid = getattr(value, "_obi_oid", None)
            if oid is None or getattr(value, "_obi_space", None) is not space:
                raise CodecError(
                    "hibernate found an unadopted managed object; "
                    "ingest it (or set it as a root) first"
                )
            return ("ext", {"toid": oid})
        return None

    return classify


def _cluster_document(space: Space, cluster: SwapCluster) -> str:
    root = ET.Element(
        "hibernated-cluster",
        {"sid": str(cluster.sid), "count": str(len(cluster.oids))},
    )
    if cluster.is_resident:
        classify = _resident_classifier(space, cluster)
        for oid in sorted(cluster.oids):
            member = space._objects[oid]
            obj_el = ET.SubElement(
                root,
                "object",
                {"oid": str(oid), "class": type(member)._obi_schema.name},
            )
            for field_name, value in instance_fields(member).items():
                field_el = ET.SubElement(obj_el, "field", {"name": field_name})
                field_el.append(encode_value(value, classify))
        return ET.tostring(root, encoding="unicode")
    return _swapped_cluster_document(space, cluster, root)


def _resident_classifier(space: Space, cluster: SwapCluster):
    member_oids = cluster.oids

    def classify(value: Any) -> Any:
        cls = type(value)
        if getattr(cls, "_obi_is_repl_proxy", False):
            raise CodecError(
                "hibernate found an unresolved replication proxy; "
                "materialize the pending frontier (Replicator.prefetch) "
                "before hibernating"
            )
        if getattr(cls, "_obi_is_proxy", False):
            return ("ext", {"toid": value._obi_target_oid})
        if getattr(cls, "_obi_managed", False):
            oid = value._obi_oid
            if oid in member_oids:
                return ("local", oid)
            return ("ext", {"toid": oid})
        return None

    return classify


def _swapped_cluster_document(
    space: Space, cluster: SwapCluster, root: ET.Element
) -> str:
    """Rewrite a swapped cluster's stored XML into hibernation form.

    The stored document's ``<outref index>`` entries index the
    replacement-object's array; each slot is a live proxy whose target
    oid we know — rewrite them as ``<extref toid>``.
    """
    location = cluster.location
    replacement = cluster.replacement
    if location is None or replacement is None:
        raise SwapStoreUnavailableError(
            f"swap-cluster {cluster.sid} has no reachable swapped state"
        )
    for holder in space.manager.bindings_for(cluster.sid):
        try:
            text = holder.fetch(location.key)
        except (TransportError, UnknownKeyError):
            continue  # try the next holder
        if verify_payload(text, location.digest):
            break
    else:
        raise SwapStoreUnavailableError(
            f"no verified copy of swap-cluster {cluster.sid} for hibernation"
        )
    stored = ET.fromstring(text)
    for obj_el in stored:
        new_obj = ET.SubElement(root, "object", dict(obj_el.attrib))
        for field_el in obj_el:
            new_field = ET.SubElement(new_obj, "field", dict(field_el.attrib))
            new_field.append(_rewrite_outrefs(field_el[0], replacement))
    return ET.tostring(root, encoding="unicode")


def _rewrite_outrefs(element: ET.Element, replacement: Any) -> ET.Element:
    if element.tag == "outref":
        proxy = replacement.outbound_at(int(element.get("index")))
        return ET.Element("extref", {"toid": str(proxy._obi_target_oid)})
    rebuilt = ET.Element(element.tag, dict(element.attrib))
    rebuilt.text = element.text
    for child in element:
        rebuilt.append(_rewrite_outrefs(child, replacement))
    return rebuilt
