"""repro — reproduction of Ren et al., "Protocols for Wide-Area
Data-intensive Applications: Design and Performance Issues" (SC 2012).

The package implements the paper's RDMA data-transfer middleware and its
RFTP application, together with every substrate the evaluation needs —
a discrete-event simulation kernel (:mod:`repro.sim`), hardware models
(:mod:`repro.hardware`), network fabrics (:mod:`repro.network`), a
simulated OFED verbs API (:mod:`repro.verbs`), a TCP stack with
cubic/bic/htcp congestion control (:mod:`repro.tcp`), the middleware
itself (:mod:`repro.core`), applications (:mod:`repro.apps`), report
tables (:mod:`repro.analysis`) and the Table I testbeds
(:mod:`repro.testbeds`).

Quickstart::

    from repro.testbeds import roce_lan
    from repro.apps.rftp import run_rftp

    result = run_rftp(roce_lan(), total_bytes=1 << 30)
    print(f"{result.gbps:.1f} Gbps at {result.client_cpu_pct:.0f}% CPU")
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
