(** Process-parallel experiment runner: one forked child per job, typed
    results marshalled back over pipes and returned in job order.

    Each child inherits a snapshot of the parent's state at fork time
    and runs in isolation, so a job that seeds its own RNGs (every
    benchmark runner here does — params carry explicit seeds) computes
    exactly the value it would compute serially.  Parent and child are
    the same executable, so a result crosses the pipe with [Marshal]: no
    per-type codec.  Jobs must not print to stdout/stderr. *)

val available : bool
(** [Unix.fork] support on this platform. *)

val map : ?parallel:bool -> (string * (unit -> 'a)) list -> 'a list
(** [map ~parallel jobs] runs every [(name, job)] and returns the
    results in job order.  With [parallel:true] (the default) each job
    runs in a forked child; with [parallel:false], or without fork
    support, the jobs run in order in this process.

    In parallel mode every child is read and reaped before any failure
    is raised, and the first failure in job order is raised as
    [Failure] naming its job.  A job fails when it raises, when its
    result cannot be marshalled (it holds a closure), when its child
    exits non-zero or is killed by a signal, or when its payload is
    shorter than its marshalled size.  A result must not hold
    closures, custom blocks without serializers, or values whose
    physical sharing with the parent matters. *)
