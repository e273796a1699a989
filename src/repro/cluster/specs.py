"""Server hardware catalogue.

The paper's site ran "SUN, HP, IBM and linux machines": Sun Enterprise
4500s and E10Ks for databases; E10Ks, Ultra 10s, Linux boxes, E450s,
E220Rs and HP K/T series for transaction processing; IBM SP2 nodes for
front-ends.  The catalogue below models those classes with
period-plausible sizes; the exact numbers only matter relatively (the
SLKT-driven reallocation prefers "a server of the same model with more
CPUs and memory").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["ServerSpec", "SPEC_CATALOGUE", "spec"]


@dataclass(frozen=True)
class ServerSpec:
    """Static description of a server model.

    ``max_load`` is the paper's "maximum load a server can successfully
    sustain", expressed as a run-queue-per-CPU ceiling supplied by the
    manufacturer plus expert experience.  ``power`` is a scalar ranking
    used by the job re-placement policy (higher = more capable).
    """

    model: str
    vendor: str
    os: str
    cpus: int
    cpu_mhz: int
    ram_mb: int
    disks: int = 2
    disk_gb: int = 36
    nics: int = 2
    max_load: float = 4.0      # sustainable run-queue length per CPU
    mtbf_factor: float = 1.0   # relative hardware reliability

    @property
    def power(self) -> float:
        """Capability scalar: CPU throughput plus memory headroom."""
        return self.cpus * self.cpu_mhz + self.ram_mb / 16.0


#: Server models present at the pilot site (section 4 of the paper).
SPEC_CATALOGUE: Dict[str, ServerSpec] = {
    # Sun database / TP iron
    "sun-e10k": ServerSpec("sun-e10k", "Sun", "solaris", cpus=16,
                           cpu_mhz=400, ram_mb=16384, disks=12, disk_gb=72,
                           max_load=4.0, mtbf_factor=1.2),
    "sun-e4500": ServerSpec("sun-e4500", "Sun", "solaris", cpus=8,
                            cpu_mhz=400, ram_mb=8192, disks=8, disk_gb=36,
                            max_load=4.0, mtbf_factor=1.1),
    "sun-e450": ServerSpec("sun-e450", "Sun", "solaris", cpus=4,
                           cpu_mhz=300, ram_mb=4096, disks=4, disk_gb=36,
                           max_load=4.0),
    "sun-e220r": ServerSpec("sun-e220r", "Sun", "solaris", cpus=2,
                            cpu_mhz=450, ram_mb=2048, disks=2, disk_gb=18,
                            max_load=4.0),
    "sun-ultra10": ServerSpec("sun-ultra10", "Sun", "solaris", cpus=1,
                              cpu_mhz=440, ram_mb=1024, disks=1, disk_gb=9,
                              max_load=3.0, mtbf_factor=0.9),
    # HP transaction processing
    "hp-kclass": ServerSpec("hp-kclass", "HP", "hpux", cpus=4,
                            cpu_mhz=240, ram_mb=4096, disks=4, disk_gb=18,
                            max_load=4.0),
    "hp-tclass": ServerSpec("hp-tclass", "HP", "hpux", cpus=8,
                            cpu_mhz=180, ram_mb=8192, disks=6, disk_gb=18,
                            max_load=4.0),
    # IBM SP2 front-end nodes
    "ibm-sp2": ServerSpec("ibm-sp2", "IBM", "aix", cpus=4,
                          cpu_mhz=332, ram_mb=2048, disks=2, disk_gb=9,
                          max_load=4.0),
    # Commodity Linux
    "linux-x86": ServerSpec("linux-x86", "generic", "linux", cpus=2,
                            cpu_mhz=800, ram_mb=1024, disks=2, disk_gb=20,
                            max_load=4.0, mtbf_factor=0.8),
    # Small admin boxes for the coordinator pair
    "admin-server": ServerSpec("admin-server", "Sun", "solaris", cpus=2,
                               cpu_mhz=400, ram_mb=2048, disks=2, disk_gb=36,
                               max_load=4.0, mtbf_factor=1.2),
}


def spec(model: str) -> ServerSpec:
    """Look up a catalogue spec by model name."""
    try:
        return SPEC_CATALOGUE[model]
    except KeyError:
        raise KeyError(
            f"unknown server model {model!r}; known: "
            f"{sorted(SPEC_CATALOGUE)}") from None
