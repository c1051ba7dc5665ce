"""Provenance capture: the environment snapshot a rerun needs.

Section V of the paper publishes raw data so others can audit it; a
series of numbers without the environment that produced them is not
auditable.  :func:`capture_provenance` snapshots what matters for a
rerun — package version, python/interpreter, machine, the
``REPRO_WORKERS`` override, and (when a platform is in play) a content
hash of its XML serialisation — and is recorded in every artifact
manifest and result-cache entry and written as the first record of
every run journal.
"""

from __future__ import annotations

import hashlib
import os
import platform as _platform
import sys

__all__ = ["capture_provenance", "platform_xml_hash"]


def platform_xml_hash(sim_platform) -> str:
    """SHA-256 of the platform's XML serialisation (content identity).

    Two platforms with the same hosts, links and routes hash equally no
    matter how they were constructed, so the hash identifies the
    simulated platform across processes and machines.  It hashes the
    serialisation the platform keeps (``platform_to_xml``), so it does
    not serialise a keyed platform again.
    """
    from ..simgrid.xmlio import platform_to_xml

    xml = platform_to_xml(sim_platform)
    return hashlib.sha256(xml.encode()).hexdigest()


def capture_provenance(sim_platform=None) -> dict:
    """The environment snapshot of the current process.

    ``sim_platform`` (a :class:`repro.simgrid.platform.Platform`) adds
    a ``platform_xml_sha256`` entry; campaigns without an explicit
    platform omit it (the free-network default is implied by the
    package version).
    """
    from .. import __version__

    info: dict = {
        "package_version": __version__,
        "python": _platform.python_version(),
        "implementation": sys.implementation.name,
        "system": _platform.system(),
        "machine": _platform.machine(),
        "repro_workers": os.environ.get("REPRO_WORKERS"),
    }
    if sim_platform is not None:
        info["platform_xml_sha256"] = platform_xml_hash(sim_platform)
    return info
