"""Applications built on the middleware and the TCP baseline.

- :mod:`repro.apps.io` — data sources/sinks (/dev/zero, /dev/null,
  pattern generators for verification, disk-backed files),
- :mod:`repro.apps.rftp` — RFTP, the paper's RDMA-enabled FTP,
- :mod:`repro.apps.gridftp` — the GridFTP baseline model (TCP, MODE E,
  single-threaded event loop),
- :mod:`repro.apps.fio` — the fio-style RDMA I/O engine used for the raw
  semantics comparisons of Figures 3 and 4.
"""

from repro.apps.io import (
    CollectingSink,
    DiskSink,
    NullSink,
    PatternSource,
    ZeroSource,
)
from repro.apps.rftp import RftpClient, RftpServer, RftpResult
from repro.apps.gridftp import GridFtpPair, GridFtpResult
from repro.apps.fio import FioJob, FioResult, run_fio
from repro.apps.sockets import SocketFtpResult, socket_transfer

__all__ = [
    "CollectingSink",
    "DiskSink",
    "FioJob",
    "FioResult",
    "GridFtpPair",
    "GridFtpResult",
    "NullSink",
    "PatternSource",
    "RftpClient",
    "RftpResult",
    "RftpServer",
    "SocketFtpResult",
    "ZeroSource",
    "run_fio",
    "socket_transfer",
]
