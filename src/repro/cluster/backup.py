"""Backup and restore (section 5.2).

    A backup operation takes a snapshot of the database catalog and
    creates hard-links for each Vertica data file on the file system.
    The hard-links ensure that the data files are not removed while
    the backup image is copied off the cluster [...] The backup
    mechanism supports both full and incremental backup.

Because ROS containers are immutable, hard links are a consistent
snapshot for free: the tuple mover may retire a container afterwards,
but the linked inode keeps the backup's view alive.  Incremental
backups link only containers absent from the previous image.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field

from ..durability.journal import FORMAT, check_format
from ..errors import ClusterError
from ..storage import fsio
from ..txn.epochs import INITIAL_EPOCH
from .cluster import Cluster


@dataclass
class BackupImage:
    """Manifest of one backup."""

    path: str
    epoch: int
    #: (node, projection, container dir name) triples in the image.
    entries: list[tuple[int, str, str]] = field(default_factory=list)
    #: image this one is incremental over (path), if any.
    base_image: str | None = None


def _link_tree(source: str, target: str) -> None:
    """Hard-link every file of ``source`` into ``target`` (fall back to
    copy across filesystems)."""
    os.makedirs(target, exist_ok=True)
    for entry in os.listdir(source):
        source_path = os.path.join(source, entry)
        target_path = os.path.join(target, entry)
        try:
            os.link(source_path, target_path)
        except OSError:
            shutil.copy2(source_path, target_path)


def create_backup(
    cluster: Cluster, backup_dir: str, base: BackupImage | None = None
) -> BackupImage:
    """Snapshot the cluster's ROS state into ``backup_dir``.

    Pass ``base`` for an incremental backup: containers already present
    in the base image are recorded but not re-linked.
    """
    os.makedirs(backup_dir, exist_ok=True)
    image = BackupImage(
        path=backup_dir,
        epoch=cluster.epochs.latest_queryable_epoch,
        base_image=base.path if base else None,
    )
    already = set(base.entries) if base else set()
    for node in cluster.nodes:
        for projection_name in node.manager.projection_names():
            state = node.manager.storage(projection_name)
            for container in state.containers.values():
                entry = (
                    node.index,
                    projection_name,
                    os.path.basename(container.path),
                )
                image.entries.append(entry)
                if entry in already:
                    continue
                target = os.path.join(
                    backup_dir, f"node{node.index:02d}", projection_name, entry[2]
                )
                _link_tree(container.path, target)
    manifest = {
        "format": FORMAT,
        "epoch": image.epoch,
        "base_image": image.base_image,
        "entries": image.entries,
        "tables": sorted(cluster.catalog.tables),
        "projections": sorted(cluster.catalog.families),
    }
    # the manifest is the backup's commit record: written last, and
    # atomically, so a crash leaves an image without one, not a torn one
    final = os.path.join(backup_dir, "manifest.json")
    tmp = fsio.stage_file(final)
    fsio.write_json(tmp, manifest)
    fsio.publish_file(tmp, final)
    return image


#: The fields every manifest carries besides its ``format``.
_MANIFEST_FIELDS = ("epoch", "base_image", "entries", "tables", "projections")


def load_manifest(backup_dir: str) -> dict:
    """Read a backup's manifest, refusing one of another stored format
    (:class:`DurabilityError`) or one missing a field (:class:`ClusterError`)."""
    path = os.path.join(backup_dir, "manifest.json")
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except ValueError as error:
        raise ClusterError(
            f"backup manifest {path} is unreadable: {error}"
        ) from error
    check_format(f"backup manifest {path}", manifest)
    missing = [name for name in _MANIFEST_FIELDS if name not in manifest]
    if missing:
        raise ClusterError(f"backup manifest {path} lacks {', '.join(missing)}")
    return manifest


def _validate_manifest(cluster: Cluster, image: BackupImage) -> dict:
    """Check the on-disk manifest against the live catalog before any
    bytes move, and return it: restoring into a cluster that lacks the
    backed-up tables or projections would silently orphan their data."""
    manifest_path = os.path.join(image.path, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise ClusterError(f"backup image {image.path} has no manifest.json")
    manifest = load_manifest(image.path)
    missing_tables = sorted(
        set(manifest["tables"]) - set(cluster.catalog.tables)
    )
    if missing_tables:
        raise ClusterError(
            "backup references tables missing from the catalog: "
            + ", ".join(missing_tables)
        )
    missing_projections = sorted(
        set(manifest["projections"]) - set(cluster.catalog.families)
    )
    if missing_projections:
        raise ClusterError(
            "backup references projections missing from the catalog: "
            + ", ".join(missing_projections)
        )
    _validate_image_epoch(cluster, manifest["epoch"])
    return manifest


def _validate_image_epoch(cluster: Cluster, image_epoch: int) -> None:
    """Refuse images outside the cluster's epoch window.

    An image older than the Ancient History Mark predates the oldest
    epoch the cluster still reasons about — its containers would
    resurrect rows whose delete history has been purged.  An image from
    the *future* (newer than the latest queryable epoch) can only come
    from a different timeline — restoring it would make rows visible at
    epochs this cluster has not committed yet.  A pristine cluster (no
    commits) has no timeline and instead adopts the image's epoch.
    """
    if image_epoch < cluster.epochs.ahm:
        raise ClusterError(
            f"backup image epoch {image_epoch} predates the Ancient "
            f"History Mark {cluster.epochs.ahm}; its history has been "
            "purged and the image can no longer be reconciled"
        )
    pristine = cluster.epochs.current_epoch == INITIAL_EPOCH
    latest = cluster.epochs.latest_queryable_epoch
    if not pristine and image_epoch > latest:
        raise ClusterError(
            f"backup image epoch {image_epoch} is from the future: the "
            f"cluster's latest queryable epoch is {latest}; refusing to "
            "restore an image from a different timeline"
        )


def restore_backup(cluster: Cluster, image: BackupImage) -> int:
    """Restore ROS containers from a backup image into an (empty-state)
    cluster with the same catalog.  Returns containers restored.

    Each container is *adopted* through the storage manager's public
    API: it gets a fresh container id (rewritten in its meta.json) and
    full checksum verification on the way in, so a bit-rotted backup is
    rejected instead of restored.
    """
    manifest_epoch = _validate_manifest(cluster, image)["epoch"]
    pristine = cluster.epochs.current_epoch == INITIAL_EPOCH
    if cluster.journal is not None and not pristine:
        # The restored containers carry epochs the journal knows
        # nothing about.  Drain every WOS first so the pre-restore
        # state is fully on disk, then record the restore — at cold
        # start the record raises the durable floor to the image epoch
        # and scavenge readopts the restored containers from disk.
        if cluster.membership.down_nodes():
            raise ClusterError(
                "restore with an active journal requires all nodes up "
                "(the durable floor must cover the pre-restore state)"
            )
        cluster.run_tuple_movers(advance_ahm=False)
    restored = 0
    for node_index, projection_name, container_dir in image.entries:
        if node_index >= cluster.node_count:
            raise ClusterError("backup has more nodes than the cluster")
        source = os.path.join(
            image.path, f"node{node_index:02d}", projection_name, container_dir
        )
        if not os.path.isdir(source) and image.base_image:
            source = os.path.join(
                image.base_image,
                f"node{node_index:02d}",
                projection_name,
                container_dir,
            )
        manager = cluster.nodes[node_index].manager
        manager.adopt_container(projection_name, source)
        restored += 1
    if pristine and manifest_epoch >= cluster.epochs.current_epoch:
        # A pristine cluster adopts the image's timeline so the
        # restored rows (stamped with the image's epochs) are visible.
        cluster.epochs.current_epoch = manifest_epoch + 1
    if cluster.journal is not None:
        cluster.journal.log_restore(
            epoch=manifest_epoch,
            current_epoch=cluster.epochs.current_epoch,
            entries=restored,
        )
    return restored
