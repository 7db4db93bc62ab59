(** Online hint synthesis: the {!Analyze.Hintlint} co-access window,
    consumed during the run to rewrite allocation hints instead of
    reporting on them afterwards.

    The advisor wraps any {!Alloc.Allocator.t} and watches the timed
    access stream.  Each allocation site accumulates the same statistics
    the lint computes — access share, hint affinity, best co-access
    partner — and every allocation's hint is re-decided from them:

    - a {e null} hint at a hot, mature site is replaced by the address of
      the last-accessed live object of the site's measured best partner
      (falling back to the site's own last-accessed object — list tails
      and tree parents are same-site partners);
    - a hint pointing {e outside} the cache-conscious allocator's managed
      pages (typically at a copy [ccmorph] has migrated into an arena) is
      replaced the same way, since it would degrade to no hint at all;
    - a hint whose measured affinity is persistently low is overridden by
      the partner address.

    Everything else passes through untouched and is counted as kept.

    Synthesized hints are scored against the address the allocator
    actually returns: a hint the allocator cannot honor (the named block
    and page are full) diverts the allocation into the shared overflow
    path, which is worse than no hint at all.  Sites whose synthesized
    hints persistently fail placement back off and stop supplying,
    probing occasionally to detect recovery. *)

type t

type config = {
  window : int;  (** co-access window length (traced accesses) *)
  min_allocs : int;  (** site maturity before synthesizing a hint *)
  hot_share : float;  (** access share that makes a site "hot" *)
  min_affinity_tries : int;  (** evidence before declaring a hint wasted *)
  low_affinity : float;  (** affinity below this gets overridden *)
  min_placement_success : float;
      (** same-page landing rate below which a site's synthesis backs
          off *)
  probe_interval : int;
      (** while backed off, synthesize one probe hint per this many
          suppressed opportunities *)
}

val default_config : config
(** Lower thresholds than the post-hoc lint's: a wrong early hint costs
    one misplaced object; waiting for lint-grade confidence forfeits
    placement for most of the run. *)

val create : ?config:config -> Memsim.Machine.t -> Alloc.Allocator.t -> t

val set_ccmalloc : t -> Ccsl.Ccmalloc.t -> unit
(** Tell the advisor which cache-conscious allocator is behind the
    wrapped record, so synthesized hints can be checked against
    {!Ccsl.Ccmalloc.manages} and unmanaged incoming hints detected. *)

val allocator : t -> Alloc.Allocator.t
(** The wrapped allocator benchmark kernels should use.  [free] and
    [owns] delegate to the inner allocator. *)

val attach : t -> unit
(** Subscribe to the machine's access stream (idempotent). *)

val detach : t -> unit

val hintlint : t -> Analyze.Hintlint.t
(** The underlying co-access window, for end-of-run diagnostics. *)

type stats = {
  hints_kept : int;  (** caller hints passed through unchanged *)
  hints_supplied : int;  (** null hints replaced by a synthesized one *)
  hints_overridden : int;
      (** unmanaged or low-affinity hints replaced by a synthesized one *)
  sites_adapted : int;  (** distinct sites with at least one rewrite *)
  sites_backed_off : int;
      (** sites currently suppressed by placement-outcome back-off *)
}

val stats : t -> stats
val stats_to_json : stats -> Obs.Json.t
(** The counters as a JSON object, one member per field. *)
