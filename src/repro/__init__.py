"""repro — reproduction of *Architecting and Implementing Versatile
Dependability* (Dumitraș, Srivastava, Narasimhan — DSN 2004).

The package implements the paper's MEAD-style middleware — a tunable,
transparent replication framework with low-level knobs (replication
style, replica count, checkpointing) and high-level knobs (scalability,
availability) — on top of a fully simulated distributed substrate
(hosts, LAN, Spread-like group communication, TAO-like mini-ORB).

Layering, bottom-up::

    repro.sim          discrete-event kernel, hosts, CPUs, processes
    repro.net          switched-LAN model with bandwidth accounting
    repro.gcs          group membership + reliable ordered multicast
    repro.orb          miniature CORBA-like ORB
    repro.interpose    library-interposition transport
    repro.replication  active / warm- / cold-passive replication
    repro.adaptation   runtime replication-style switching (paper Fig. 5)
    repro.monitoring   metric sensors, replicated state, contracts
    repro.core         knobs, policies, cost model, design space
    repro.faults       fault injection
    repro.workload     closed-/open-loop clients
    repro.telemetry    causal tracing, critical path
    repro.experiments  scenario harness shared by examples & benchmarks
"""

__version__ = "1.0.0"
